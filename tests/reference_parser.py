"""Reference parser: the package grammar with every node built as a LogExpr.

The tokenizer, the token type and the token helpers are kept here as they
were before the package parser walked plain tuples, so a change to
`plq.parsing` cannot change this oracle.  Each literal, variable, sum,
product, quotient, power and negation is evaluated through `LogExpr`
arithmetic, one binary operation at a time.  The package parser keeps
polynomial values as `Poly` and quotients as `RatFunc`; it must give the
same result, key for key, and raise the same errors at the same positions.
"""

import re
from typing import NamedTuple

from plq.expr import GENERATOR, ExprError, LogExpr, RatFunc, exact_div
from plq.parsing import MAX_EXPONENT, MAX_LITERAL_DIGITS, ParseError


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


# One match per token or whitespace run; `bad` is any other character.
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<op>[-+*/^()])|\s+|(?P<bad>.)", re.DOTALL)


def tokenize(text: str) -> list[_Token]:
    """Integer, identifier and operator tokens, then two end tokens, so the
    parser may look one token ahead while it stands at the end."""
    out: list[_Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if kind:
            out.append(_Token(kind, m.group(), m.start()))
    end = _Token("end", "", len(text))
    out += (end, end)
    return out


class ReferenceParser:
    def __init__(self, text: str, table):
        self.table = table
        self.toks = tokenize(text)
        self.k = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.toks[self.k + ahead]

    def next(self) -> _Token:
        tok = self.toks[self.k]
        if tok.kind != "end":
            self.k += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.next()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return tok

    def signed_integer(self) -> int:
        tok = self.next()
        sign = 1
        if tok.kind == "op" and tok.text == "-":
            sign = -1
            tok = self.next()
        if tok.kind != "int":
            raise ParseError("expected an integer exponent", tok.pos)
        digits = tok.text.lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise ParseError(f"exponent magnitude above {MAX_EXPONENT}", tok.pos)
        return sign * int(digits or 0)

    @staticmethod
    def integer(tok: _Token) -> int:
        """Value of an integer literal, checked for length before int()."""
        digits = tok.text.lstrip("0")
        if len(digits) > MAX_LITERAL_DIGITS:
            raise ParseError(f"integer literal longer than {MAX_LITERAL_DIGITS} digits",
                             tok.pos)
        return int(digits or 0)

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
                if value.logs and rhs.logs:
                    raise ParseError("product of two expressions with log terms leaves "
                                     "the ring", op.pos)
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise ParseError("division by zero", op.pos)
                if rhs.logs:
                    raise ParseError("division by an expression with log terms", op.pos)
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
    parser = ReferenceParser(text, table)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek().pos) from None
