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

Values are built as they parse, and equal, term for term, what LogExpr
arithmetic at every node gives.  A polynomial is a packed Poly, so a product
of two terms is one key sum.  A quotient, a negative power or an operand with
a denominator is a RatFunc, a quotient from one `RatFunc.make`; a value is a
LogExpr only once a `log(...)` is parsed, or at the end.
"""

from __future__ import annotations

import re

from .expr import (GENERATOR, ExprError, LogExpr, Poly, RatFunc, VarTable, add_terms,
                   exact_div)


class ParseError(ValueError):
    """Raised on malformed input, with the character position of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


# One match per token or whitespace run; `bad` is any other character.
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<op>[-+*/^()])|\s+|(?P<bad>.)", re.DOTALL)

MAX_EXPONENT = 64
MAX_LITERAL_DIGITS = 4300


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each integer, identifier and operator, then
    two end tokens, so the parser may look one token past the next while it
    stands at the end.  Only an operator's text is an operator character."""
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if kind:
            out.append((kind, m.group(), m.start()))
    end = ("end", "", len(text))
    out += (end, end)
    return out


def _integer(text: str, pos: int) -> int:
    """Value of an integer literal, checked for length before int()."""
    digits = text.lstrip("0")
    if len(digits) > MAX_LITERAL_DIGITS:
        raise ParseError(f"integer literal longer than {MAX_LITERAL_DIGITS} digits", pos)
    return int(digits or 0)


def _lift(value, kind: type):
    """A Poly or RatFunc value as a RatFunc or, when `kind` is LogExpr, a LogExpr."""
    if isinstance(value, Poly):
        value = RatFunc.from_poly(value)
    return LogExpr(value) if kind is LogExpr and isinstance(value, RatFunc) else value


def _common(a, b) -> tuple:
    """a and b as the later of their types in Poly, RatFunc, LogExpr."""
    kind = LogExpr if isinstance(a, LogExpr) or isinstance(b, LogExpr) else RatFunc
    return _lift(a, kind), _lift(b, kind)


def _quotient(a: RatFunc | LogExpr, b: RatFunc | LogExpr) -> RatFunc | LogExpr:
    """a / b with the terms, in order, of LogExpr's a * (1 / b), by one make
    where that is exact.  make(N*m*c, D*m*c) = make(N, D) for a rho-free
    monomial m and a number c.  1 / b divides out only such a factor, or
    conjugates b's rho, when b is a polynomial or its numerator one term; one
    make is then exact for a rho-free b or a nonzero polynomial a.  Otherwise
    a conjugation keeps a's denominator, 1 / b fails on a zero norm even for
    a = 0, or 1 / b is an exact quotient, whose terms a product reorders."""
    if isinstance(a, LogExpr):
        return a / b
    rho_free = not any(k & a.table.rho_mask for k in b.num.packed)
    if (rho_free and (b.is_poly() or len(b.num.packed) == 1)
            or b.is_poly() and a.is_poly() and not a.is_zero()):
        return a / b
    return a * (RatFunc.one(a.table) / b)


class _Parser:
    """Recursive descent over `tokenize`'s tuples, `self.k` indexing the next.
    Each Poly value is built here and owned by one node, so a sum adds its
    terms into the left operand in place."""

    def __init__(self, text: str, table: VarTable):
        self.table = table
        self.toks = tokenize(text)
        self.k = 0

    def parse(self) -> LogExpr:
        value = self.expr()
        kind, text, pos = self.toks[self.k]
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return _lift(value, LogExpr)

    def expr(self) -> Poly | RatFunc | LogExpr:
        value = self.term()
        while (op := self.toks[self.k][1]) in ("+", "-"):
            self.k += 1
            rhs = self.term()
            if isinstance(value, Poly) and isinstance(rhs, Poly):
                add_terms(value.packed, (rhs if op == "+" else -rhs).packed)
            else:
                value, rhs = _common(value, rhs)
                value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Poly | RatFunc | LogExpr:
        value = self.factor()[0]
        while (op := self.toks[self.k][1]) in ("*", "/"):
            pos = self.toks[self.k][2]
            self.k += 1
            rhs = self.factor()[0]
            if op == "/" and rhs.is_zero():
                raise ParseError("division by zero", pos)
            if op == "*" and isinstance(value, Poly) and isinstance(rhs, Poly):
                value = value * rhs
                continue
            value, rhs = _common(value, rhs)
            if isinstance(rhs, LogExpr) and rhs.logs and (op == "/" or value.logs):
                raise ParseError("division by an expression with log terms" if op == "/" else
                                 "product of two expressions with log terms leaves the ring",
                                 pos)
            value = value * rhs if op == "*" else _quotient(value, rhs)
        return value

    def factor(self) -> tuple[Poly | RatFunc | LogExpr, bool]:
        if self.toks[self.k][1] == "-":
            self.k += 1
            return -self.factor()[0], False
        value, is_gen = self.atom()
        if self.toks[self.k][1] != "^":
            return value, is_gen
        caret = self.toks[self.k][2]
        self.k += 1
        e = self.signed_integer()
        if e < 0 and not is_gen:
            raise ParseError("negative exponents apply to generator variables only", caret)
        try:
            value = RatFunc.make(Poly.one(self.table), value ** -e) if e < 0 else value ** e
        except (ExprError, ZeroDivisionError) as err:
            raise ParseError(str(err), caret) from None
        return value, False

    def signed_integer(self) -> int:
        sign = -1 if self.toks[self.k][1] == "-" else 1
        self.k += sign < 0
        kind, text, pos = self.toks[self.k]
        self.k += 1
        if kind != "int":
            raise ParseError("expected an integer exponent", pos)
        digits = text.lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise ParseError(f"exponent magnitude above {MAX_EXPONENT}", pos)
        return sign * int(digits or 0)

    def close(self) -> None:  # the ')' of a group or a log argument
        _, text, pos = self.toks[self.k]
        self.k += 1
        if text != ")":
            raise ParseError(f"expected ')', found {text or 'end of input'!r}", pos)

    def atom(self) -> tuple[Poly | RatFunc | LogExpr, bool]:
        toks, table = self.toks, self.table
        kind, text, pos = toks[self.k]
        self.k += 1
        if text == "(":
            value = self.expr()
            self.close()
            return value, False
        if kind == "int":
            num = _integer(text, pos)
            if toks[self.k][1] == "/" and toks[self.k + 1][0] == "int":
                _, den_text, den_pos = toks[self.k + 1]
                self.k += 2
                if (den := _integer(den_text, den_pos)) == 0:
                    raise ParseError("zero denominator in rational literal", den_pos)
                num = exact_div(num, den)
            return Poly.const(table, num), False
        if kind != "name":
            raise ParseError(f"unexpected token {text or 'end of input'!r}", pos)
        log = text == "log" and toks[self.k][1] == "("
        if log:
            kind, text, pos = toks[self.k + 1]
            self.k += 2
            if kind != "name":
                raise ParseError("log takes a single variable", pos)
        if (i := table.positions.get(text)) is None:
            raise ParseError(f"unknown variable {text!r}", pos)
        if not log:
            return Poly(table, {table.unit(i): 1}), table.kinds[i] == GENERATOR
        if table.kinds[i] != GENERATOR:
            raise ParseError(f"log argument {text!r} is not a generator", pos)
        self.close()
        return LogExpr.log(table, text), False


def parse_expression(text: str, table: VarTable) -> LogExpr:
    """Parse a string into a LogExpr over the given table."""
    parser = _Parser(text, table)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.toks[parser.k][2]) from None


def parse_ratfunc(text: str, table: VarTable) -> RatFunc:
    """Parse a string that must denote a log-free rational expression."""
    value = parse_expression(text, table)
    if value.logs:
        raise ParseError("expression must not contain log terms", 0)
    return value.as_ratfunc()


def to_string(expr) -> str:
    """Canonical printed form; parse_expression(to_string(x)) equals x."""
    return str(expr)
