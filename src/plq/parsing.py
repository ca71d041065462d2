"""Parsing and printing of exact expressions.

The grammar is a small arithmetic language over the variables of a table:

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := '-' factor | atom ('^' signed_integer)?
    atom     := rational | identifier | 'log' '(' identifier ')'
              | '(' expr ')'
    rational := integer ('/' positive_integer)?

A rational literal is consumed greedily with two tokens of lookahead, so
``3/2`` is one literal rather than a quotient.  Negative exponents apply to
generator variables only, and ``log`` applies to generator variables only.
Exponents are bounded by MAX_EXPONENT in magnitude, since each power is
expanded by repeated multiplication, and integer literals by
MAX_LITERAL_DIGITS digits, Python's default limit for converting a string to
an int.  Identifiers and integers are ASCII; whitespace, Unicode whitespace
included, is skipped; any other character is a parse error.  So is nesting
deeper than the interpreter's recursion limit allows.  Printing produces a
string that parses back to an equal expression.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .expr import (GENERATOR, ExprError, LogExpr, Poly, RatFunc, VarTable, add_terms,
                   exact_div)


class ParseError(ValueError):
    """Raised on malformed input, with the character position of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


# One match per token or whitespace run; `bad` is any other character.
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<op>[-+*/^()])|\s+|(?P<bad>.)", re.DOTALL)

MAX_EXPONENT = 64
MAX_LITERAL_DIGITS = 4300


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


def _lift(value: Poly | LogExpr) -> LogExpr:
    return LogExpr(RatFunc.from_poly(value)) if isinstance(value, Poly) else value


class _Parser:
    """Recursive descent, left to right.  A value stays a Poly until `/`, a
    negative power, `log` or the end of the parse lifts it to a LogExpr.
    Each Poly value is built here and owned by one node, so a sum adds its
    terms into the left operand in place."""

    def __init__(self, text: str, table: VarTable):
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

    def parse(self) -> LogExpr:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return _lift(value)

    def expr(self) -> Poly | LogExpr:
        value = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            rhs = self.term()
            if isinstance(value, Poly) and isinstance(rhs, Poly):
                add_terms(value.packed, (rhs if op == "+" else -rhs).packed)
            else:
                value = _lift(value) + _lift(rhs) if op == "+" else _lift(value) - _lift(rhs)
        return value

    def term(self) -> Poly | LogExpr:
        value, _ = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next()
            rhs, _ = self.factor()
            if op.text == "*":
                both = isinstance(value, Poly) and isinstance(rhs, Poly)
                value = value * rhs if both else _lift(value) * _lift(rhs)
            else:
                if rhs.is_zero():
                    raise ParseError("division by zero", op.pos)
                value = _lift(value) / _lift(rhs)
        return value

    def factor(self) -> tuple[Poly | LogExpr, bool]:
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
                value = (_lift(value) if e < 0 else value) ** e
            except (ExprError, ZeroDivisionError) as err:
                raise ParseError(str(err), caret.pos) from None
            return value, False
        return value, is_gen

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

    def atom(self) -> tuple[Poly | LogExpr, bool]:
        tok = self.next()
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
                return Poly.const(self.table, exact_div(num, den)), False
            return Poly.const(self.table, num), False
        if tok.kind == "name":
            if tok.text == "log" and self.peek().kind == "op" and self.peek().text == "(":
                self.next()
                arg = self.next()
                if arg.kind != "name":
                    raise ParseError("log takes a single variable", arg.pos)
                if not self.table.has(arg.text):
                    raise ParseError(f"unknown variable {arg.text!r}", arg.pos)
                idx = self.table.index(arg.text)
                if self.table.kind(idx) != GENERATOR:
                    raise ParseError(f"log argument {arg.text!r} is not a generator", arg.pos)
                self.expect_op(")")
                return LogExpr.log(self.table, arg.text), False
            if not self.table.has(tok.text):
                raise ParseError(f"unknown variable {tok.text!r}", tok.pos)
            idx = self.table.index(tok.text)
            return Poly.var(self.table, tok.text), self.table.kind(idx) == GENERATOR
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}", tok.pos)


def parse_expression(text: str, table: VarTable) -> LogExpr:
    """Parse a string into a LogExpr over the given table."""
    parser = _Parser(text, table)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek().pos) from None


def parse_ratfunc(text: str, table: VarTable) -> RatFunc:
    """Parse a string that must denote a log-free rational expression."""
    value = parse_expression(text, table)
    if value.logs:
        raise ParseError("expression must not contain log terms", 0)
    return value.as_ratfunc()


def to_string(expr) -> str:
    """Canonical printed form; parse_expression(to_string(x)) equals x."""
    return str(expr)
