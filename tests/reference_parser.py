"""Reference parser: the package grammar with every node built as a LogExpr.

It shares the tokenizer and the token helpers of `plq.parsing._Parser` and
evaluates each literal, variable, sum, product, quotient, power and negation
through `LogExpr` arithmetic, one binary operation at a time.  The package
parser keeps polynomial values as `Poly` and adds a polynomial sum in one
dict; it must give the same result, key for key, and raise the same errors.
"""

from plq.expr import GENERATOR, ExprError, LogExpr, RatFunc, exact_div
from plq.parsing import ParseError, _Parser


class ReferenceParser(_Parser):
    def parse(self) -> LogExpr:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return value

    def expr(self) -> LogExpr:
        value = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> LogExpr:
        value, _ = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next()
            rhs, _ = self.factor()
            if op.text == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise ParseError("division by zero", op.pos)
                value = value / rhs
        return value

    def factor(self) -> tuple[LogExpr, bool]:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.next()
            value, _ = self.factor()
            return -value, False
        value, is_gen = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            caret = self.next()
            e = self.signed_integer()
            if e < 0 and not is_gen:
                raise ParseError("negative exponents apply to generator variables only",
                                 caret.pos)
            try:
                value = value ** e
            except (ExprError, ZeroDivisionError) as err:
                raise ParseError(str(err), caret.pos) from None
            return value, False
        return value, is_gen

    def atom(self) -> tuple[LogExpr, bool]:
        tok = self.next()
        table = self.table
        if tok.kind == "op" and tok.text == "(":
            value = self.expr()
            self.expect_op(")")
            return value, False
        if tok.kind == "int":
            num = self.integer(tok)
            if (self.peek().kind == "op" and self.peek().text == "/"
                    and self.peek(1).kind == "int"):
                self.next()
                den_tok = self.next()
                den = self.integer(den_tok)
                if den == 0:
                    raise ParseError("zero denominator in rational literal", den_tok.pos)
                return LogExpr(RatFunc.const(table, exact_div(num, den))), False
            return LogExpr(RatFunc.const(table, num)), False
        if tok.kind == "name":
            if tok.text == "log" and self.peek().kind == "op" and self.peek().text == "(":
                self.next()
                arg = self.next()
                if arg.kind != "name":
                    raise ParseError("log takes a single variable", arg.pos)
                if not table.has(arg.text):
                    raise ParseError(f"unknown variable {arg.text!r}", arg.pos)
                if table.kind(table.index(arg.text)) != GENERATOR:
                    raise ParseError(f"log argument {arg.text!r} is not a generator", arg.pos)
                self.expect_op(")")
                return LogExpr.log(table, arg.text), False
            if not table.has(tok.text):
                raise ParseError(f"unknown variable {tok.text!r}", tok.pos)
            value = LogExpr(RatFunc.var(table, tok.text))
            return value, table.kind(table.index(tok.text)) == GENERATOR
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}", tok.pos)


def reference_parse(text: str, table) -> LogExpr:
    return ReferenceParser(text, table).parse()
