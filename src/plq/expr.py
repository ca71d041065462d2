"""Exact symbolic expressions over a fixed variable table.

The expression tower has three levels: sparse multivariate polynomials with
rational coefficients (Poly), quotients of polynomials (RatFunc), and rational
expressions extended by logarithms of single variables (LogExpr).  All
arithmetic is exact; coefficients are fractions.Fraction throughout.  One
distinguished algebraic element may square to the sum of the squared position
variables, which models a radial coordinate without leaving exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

GENERATOR = "generator"
CANONICAL_Q = "q"
CANONICAL_P = "p"
PARAMETER = "parameter"
ALGEBRAIC = "algebraic"

_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


class ExprError(ValueError):
    """Raised for domain violations: zero division, bad substitution, misuse of log."""


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ExprError(f"invalid variable name {name!r}")
    return name


@dataclass(frozen=True)
class VarTable:
    """Immutable registry of every variable a family of expressions may use.

    Order is fixed at construction: generators, then canonical positions,
    then canonical momenta, then parameters, then the optional algebraic
    element.  Exponent tuples in Poly align with this order.
    """

    names: tuple[str, ...]
    kinds: tuple[str, ...]

    @staticmethod
    def make(generators: Sequence[str] = (), pairs: int = 0,
             parameters: Sequence[str] = (), algebraic: str | None = None) -> "VarTable":
        """Build a table from generator names, canonical pair count, and parameters."""
        if pairs < 0:
            raise ExprError("pair count must be nonnegative")
        if algebraic is not None and pairs == 0:
            raise ExprError("algebraic element requires at least one canonical pair")
        names: list[str] = [_check_name(g) for g in generators]
        kinds: list[str] = [GENERATOR] * len(names)
        names += [f"q{i + 1}" for i in range(pairs)]
        kinds += [CANONICAL_Q] * pairs
        names += [f"p{i + 1}" for i in range(pairs)]
        kinds += [CANONICAL_P] * pairs
        names += [_check_name(s) for s in parameters]
        kinds += [PARAMETER] * len(parameters)
        if algebraic is not None:
            names.append(_check_name(algebraic))
            kinds.append(ALGEBRAIC)
        if len(set(names)) != len(names):
            raise ExprError("duplicate variable names in table")
        return VarTable(tuple(names), tuple(kinds))

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        """Index of a variable by name; raises ExprError when absent."""
        try:
            return self.names.index(name)
        except ValueError:
            raise ExprError(f"unknown variable {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self.names

    def kind(self, i: int) -> str:
        return self.kinds[i]

    @property
    def generator_indices(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.kinds) if k == GENERATOR)

    @property
    def generator_names(self) -> tuple[str, ...]:
        return tuple(self.names[i] for i in self.generator_indices)

    @property
    def q_indices(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.kinds) if k == CANONICAL_Q)

    @property
    def p_indices(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.kinds) if k == CANONICAL_P)

    @property
    def parameter_indices(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.kinds) if k == PARAMETER)

    @property
    def alg_index(self) -> int | None:
        for i, k in enumerate(self.kinds):
            if k == ALGEBRAIC:
                return i
        return None

    @property
    def pairs(self) -> int:
        return len(self.q_indices)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ExprError(f"cannot use {type(x).__name__} as an exact coefficient")


def _exp_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def _grlex_key(e: tuple[int, ...]) -> tuple:
    return (sum(e), e)


class Poly:
    """Sparse multivariate polynomial: exponent tuple -> nonzero Fraction.

    The algebraic element's exponent is kept at 0 or 1; even powers are
    rewritten into the sum of squared position variables at construction.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[tuple[int, ...], Fraction]):
        self.table = table
        self.terms = dict(terms)

    @staticmethod
    def zero(table: VarTable) -> "Poly":
        return Poly(table, {})

    @staticmethod
    def const(table: VarTable, c) -> "Poly":
        c = _as_fraction(c)
        if c == 0:
            return Poly(table, {})
        return Poly(table, {(0,) * len(table): c})

    @staticmethod
    def one(table: VarTable) -> "Poly":
        return Poly.const(table, 1)

    @staticmethod
    def var(table: VarTable, name: str) -> "Poly":
        e = [0] * len(table)
        e[table.index(name)] = 1
        return Poly(table, {tuple(e): Fraction(1)})

    @staticmethod
    def from_terms(table: VarTable, raw: Iterable[tuple[tuple[int, ...], Fraction]]) -> "Poly":
        """Canonicalize raw (exponent, coefficient) pairs: merge, reduce, drop zeros."""
        acc: dict[tuple[int, ...], Fraction] = {}
        for e, c in raw:
            if c == 0:
                continue
            if min(e) < 0:
                raise ExprError("polynomial exponents must be nonnegative")
            acc[e] = acc.get(e, Fraction(0)) + c
        return Poly(table, _reduce_algebraic(table, acc))

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial."""
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ExprError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Leading (exponent, coefficient) in descending graded lexicographic order."""
        if self.is_zero():
            raise ExprError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def uses(self, i: int) -> bool:
        """Whether variable i occurs with nonzero exponent."""
        return any(e[i] for e in self.terms)

    def used_indices(self) -> set[int]:
        out: set[int] = set()
        for e in self.terms:
            out.update(i for i, x in enumerate(e) if x)
        return out

    def monomial_content(self) -> tuple[int, ...]:
        """Componentwise minimum exponent over all terms (zero tuple when empty)."""
        if self.is_zero():
            return (0,) * len(self.table)
        its = iter(self.terms)
        lo = list(next(its))
        for e in its:
            for i, x in enumerate(e):
                if x < lo[i]:
                    lo[i] = x
        return tuple(lo)

    def shift(self, shift: tuple[int, ...]) -> "Poly":
        """Multiply by a monomial with possibly negative exponents; must stay polynomial."""
        return Poly.from_terms(self.table, ((_exp_add(e, shift), c) for e, c in self.terms.items()))

    def scale(self, c) -> "Poly":
        c = _as_fraction(c)
        if c == 0:
            return Poly.zero(self.table)
        return Poly(self.table, {e: v * c for e, v in self.terms.items()})

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.table is not self.table:
                raise ExprError("polynomials over different tables")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.table, other)
        return None

    def __add__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self.terms)
        for e, c in o.terms.items():
            s = acc.get(e, Fraction(0)) + c
            if s == 0:
                acc.pop(e, None)
            else:
                acc[e] = s
        return Poly(self.table, acc)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = _exp_add(e1, e2)
                s = acc.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    acc.pop(e, None)
                else:
                    acc[e] = s
        return Poly(self.table, _reduce_algebraic(self.table, acc))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ExprError("polynomial powers must be nonnegative integers")
        out = Poly.one(self.table)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self) -> int:
        """Structural, whatever the term order; a constant hashes like the
        number it equals."""
        if self.is_constant():
            return hash(self.constant_value())
        return hash(frozenset(self.terms.items()))

    def divide_exact(self, d: "Poly") -> "Poly | None":
        """Exact quotient self / d, or None when division leaves a remainder."""
        if d.table is not self.table:
            raise ExprError("polynomials over different tables")
        if d.is_zero():
            raise ExprError("division by zero polynomial")
        rem = self
        quot: dict[tuple[int, ...], Fraction] = {}
        de, dc = d.leading()
        while not rem.is_zero():
            re, rc = rem.leading()
            qe = tuple(a - b for a, b in zip(re, de))
            if min(qe) < 0:
                return None
            qc = rc / dc
            quot[qe] = quot.get(qe, Fraction(0)) + qc
            rem = rem - d.shift(qe).scale(qc)
        return Poly.from_terms(self.table, quot.items())

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        """Exact value at a point given as one Fraction per table variable."""
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for i, x in enumerate(e):
                if x:
                    v *= values[i] ** x
            total += v
        return total

    def __str__(self) -> str:
        return _terms_string(self.table, self.terms)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _sigma_terms(table: VarTable) -> dict[tuple[int, ...], Fraction]:
    acc: dict[tuple[int, ...], Fraction] = {}
    for qi in table.q_indices:
        e = [0] * len(table)
        e[qi] = 2
        acc[tuple(e)] = Fraction(1)
    return acc


def sigma_poly(table: VarTable) -> Poly:
    """Sum of squared position variables: the square of the algebraic element."""
    return Poly(table, _sigma_terms(table))


def _reduce_algebraic(table: VarTable, acc: dict[tuple[int, ...], Fraction]) -> dict:
    ia = table.alg_index
    if ia is None or all(e[ia] <= 1 for e in acc):
        return {e: c for e, c in acc.items() if c != 0}
    sigma = _sigma_terms(table)
    powers: dict[int, dict[tuple[int, ...], Fraction]] = {0: {(0,) * len(table): Fraction(1)}}

    def sig_pow(k: int) -> dict[tuple[int, ...], Fraction]:
        if k not in powers:
            prev = sig_pow(k - 1)
            nxt: dict[tuple[int, ...], Fraction] = {}
            for e1, c1 in prev.items():
                for e2, c2 in sigma.items():
                    e = _exp_add(e1, e2)
                    nxt[e] = nxt.get(e, Fraction(0)) + c1 * c2
            powers[k] = nxt
        return powers[k]

    out: dict[tuple[int, ...], Fraction] = {}
    for e, c in acc.items():
        k = e[ia]
        if k <= 1:
            out[e] = out.get(e, Fraction(0)) + c
            continue
        half, rest = divmod(k, 2)
        base = list(e)
        base[ia] = rest
        for es, cs in sig_pow(half).items():
            key = _exp_add(tuple(base), es)
            out[key] = out.get(key, Fraction(0)) + c * cs
    return {e: c for e, c in out.items() if c != 0}


class RatFunc:
    """Quotient of two polynomials in normal form.

    Invariants: the denominator is nonzero, free of the algebraic element,
    and monic in graded lexicographic order; numerator and denominator share
    no common monomial factor; a zero numerator forces denominator one.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, _normalized: bool = False):
        if not _normalized:
            norm = RatFunc.make(num, den)
            num, den = norm.num, norm.den
        self.num = num
        self.den = den

    @staticmethod
    def make(num: Poly, den: Poly) -> "RatFunc":
        """Normalize a quotient of polynomials."""
        if den.table is not num.table:
            raise ExprError("numerator and denominator over different tables")
        table = num.table
        if den.is_zero():
            raise ExprError("division by zero")
        if num.is_zero():
            return RatFunc(Poly.zero(table), Poly.one(table), _normalized=True)
        ia = table.alg_index
        if ia is not None and den.uses(ia):
            plain = {e: c for e, c in den.terms.items() if e[ia] == 0}
            radical = {}
            for e, c in den.terms.items():
                if e[ia] == 1:
                    drop = list(e)
                    drop[ia] = 0
                    radical[tuple(drop)] = c
            a = Poly(table, plain)
            b = Poly(table, radical)
            conj = a - Poly.from_terms(table, ((tuple(_exp_with(e, ia, e[ia] + 1)), c)
                                               for e, c in b.terms.items()))
            num = num * conj
            den = a * a - sigma_poly(table) * b * b
            if den.is_zero():
                raise ExprError("denominator annihilated by algebraic conjugation")
        if den.is_constant():
            return RatFunc(num.scale(1 / den.constant_value()), Poly.one(table),
                           _normalized=True)
        if not num.is_zero():
            exact = num.divide_exact(den)
            if exact is not None:
                return RatFunc(exact, Poly.one(table), _normalized=True)
        g = tuple(min(a, b) for a, b in zip(num.monomial_content(), den.monomial_content()))
        if any(g):
            back = tuple(-x for x in g)
            num = num.shift(back)
            den = den.shift(back)
        _, lc = den.leading()
        if lc != 1:
            num = num.scale(1 / lc)
            den = den.scale(1 / lc)
        return RatFunc(num, den, _normalized=True)

    @staticmethod
    def zero(table: VarTable) -> "RatFunc":
        return RatFunc(Poly.zero(table), Poly.one(table), _normalized=True)

    @staticmethod
    def one(table: VarTable) -> "RatFunc":
        return RatFunc(Poly.one(table), Poly.one(table), _normalized=True)

    @staticmethod
    def const(table: VarTable, c) -> "RatFunc":
        return RatFunc(Poly.const(table, c), Poly.one(table), _normalized=True)

    @staticmethod
    def var(table: VarTable, name: str) -> "RatFunc":
        return RatFunc(Poly.var(table, name), Poly.one(table), _normalized=True)

    @staticmethod
    def from_poly(p: Poly) -> "RatFunc":
        return RatFunc(p, Poly.one(p.table), _normalized=True)

    @property
    def table(self) -> VarTable:
        return self.num.table

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den == Poly.one(self.table)

    def _coerce(self, other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            if other.table is not self.table:
                raise ExprError("expressions over different tables")
            return other
        if isinstance(other, Poly):
            if other.table is not self.table:
                raise ExprError("expressions over different tables")
            return RatFunc.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(self.table, other)
        return None

    def __add__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return RatFunc.make(self.num + o.num, self.den)
        q = self.den.divide_exact(o.den)
        if q is not None:
            return RatFunc.make(self.num + o.num * q, self.den)
        q = o.den.divide_exact(self.den)
        if q is not None:
            return RatFunc.make(self.num * q + o.num, o.den)
        return RatFunc.make(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, _normalized=True)

    def __sub__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc.make(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc.make(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "RatFunc":
        if not isinstance(n, int):
            raise ExprError("powers must be integers")
        if n < 0:
            return RatFunc.make(self.den, self.num) ** (-n)
        return RatFunc.make(self.num ** n, self.den ** n)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)) and other == 0:
            return self.num.is_zero()
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.num * o.den - o.num * self.den).is_zero()

    __hash__ = None

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        d = self.den.evaluate(values)
        if d == 0:
            raise ExprError("denominator vanishes at evaluation point")
        return self.num.evaluate(values) / d

    def __str__(self) -> str:
        return _ratfunc_string(self)

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def _exp_with(e: tuple[int, ...], i: int, v: int) -> list[int]:
    out = list(e)
    out[i] = v
    return out


class LogExpr:
    """Rational expression plus a finite sum of logarithm terms.

    Each logarithm applies to a single generator variable and carries a
    rational coefficient; at most one term per generator is kept.
    """

    __slots__ = ("rat", "logs")

    def __init__(self, rat: RatFunc, logs: Iterable[tuple[int, RatFunc]] = ()):
        table = rat.table
        merged: dict[int, RatFunc] = {}
        for idx, coeff in logs:
            if table.kind(idx) != GENERATOR:
                raise ExprError(f"log argument {table.names[idx]!r} is not a generator")
            if coeff.table is not table:
                raise ExprError("log coefficient over a different table")
            prev = merged.get(idx)
            merged[idx] = coeff if prev is None else prev + coeff
        self.rat = rat
        self.logs = tuple((i, merged[i]) for i in sorted(merged) if not merged[i].is_zero())

    @staticmethod
    def zero(table: VarTable) -> "LogExpr":
        return LogExpr(RatFunc.zero(table))

    @staticmethod
    def log(table: VarTable, name: str) -> "LogExpr":
        return LogExpr(RatFunc.zero(table), [(table.index(name), RatFunc.one(table))])

    @property
    def table(self) -> VarTable:
        return self.rat.table

    def is_zero(self) -> bool:
        return self.rat.is_zero() and not self.logs

    def has_logs(self) -> bool:
        return bool(self.logs)

    def _coerce(self, other) -> "LogExpr | None":
        if isinstance(other, LogExpr):
            if other.table is not self.table:
                raise ExprError("expressions over different tables")
            return other
        if isinstance(other, (RatFunc, Poly, int, Fraction)):
            r = RatFunc.zero(self.table)._coerce(other)
            return LogExpr(r)
        return None

    def __add__(self, other) -> "LogExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LogExpr(self.rat + o.rat, list(self.logs) + list(o.logs))

    __radd__ = __add__

    def __neg__(self) -> "LogExpr":
        return LogExpr(-self.rat, [(i, -c) for i, c in self.logs])

    def __sub__(self, other) -> "LogExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "LogExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "LogExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.logs and o.logs:
            raise ExprError("product of two expressions with log terms leaves the ring")
        if o.logs:
            return o * self
        scale = o.rat
        return LogExpr(self.rat * scale, [(i, c * scale) for i, c in self.logs])

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LogExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.logs:
            raise ExprError("division by an expression with log terms")
        inv = RatFunc.one(self.table) / o.rat
        return LogExpr(self.rat * inv, [(i, c * inv) for i, c in self.logs])

    def __pow__(self, n: int) -> "LogExpr":
        if not isinstance(n, int):
            raise ExprError("powers must be integers")
        if self.logs:
            if n == 1:
                return self
            raise ExprError("powers of expressions with log terms leave the ring")
        return LogExpr(self.rat ** n)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.rat != o.rat:
            return False
        mine = {i: c for i, c in self.logs}
        theirs = {i: c for i, c in o.logs}
        if mine.keys() != theirs.keys():
            return False
        return all(mine[i] == theirs[i] for i in mine)

    __hash__ = None

    def as_ratfunc(self) -> RatFunc:
        """The rational part when no log terms are present."""
        if self.logs:
            raise ExprError("expression carries log terms")
        return self.rat

    def __str__(self) -> str:
        return _logexpr_string(self)

    def __repr__(self) -> str:
        return f"LogExpr({self})"


def _poly_diff_parts(p: Poly, i: int) -> Poly:
    """Formal termwise derivative treating the algebraic element as inert."""
    out: dict[tuple[int, ...], Fraction] = {}
    for e, c in p.terms.items():
        if e[i]:
            key = tuple(_exp_with(e, i, e[i] - 1))
            out[key] = out.get(key, Fraction(0)) + c * e[i]
    return Poly(p.table, out)


def diff_poly(p: Poly, i: int) -> RatFunc:
    """Partial derivative of a polynomial, with the radial chain rule applied."""
    table = p.table
    formal = _poly_diff_parts(p, i)
    ia = table.alg_index
    if ia is None or table.kind(i) != CANONICAL_Q or not p.uses(ia):
        return RatFunc.from_poly(formal)
    radical = Poly(table, {e: c for e, c in p.terms.items() if e[ia] == 1})
    if radical.is_zero():
        return RatFunc.from_poly(formal)
    qi = Poly.var(table, table.names[i])
    rho = Poly.var(table, table.names[ia])
    chain = radical.shift(tuple(-x for x in rho.leading()[0])) * qi * rho
    return RatFunc.from_poly(formal) + RatFunc.make(chain, sigma_poly(table))


def diff_ratfunc(r: RatFunc, i: int) -> RatFunc:
    """Partial derivative of a rational function by the quotient rule."""
    dn = diff_poly(r.num, i)
    dd = diff_poly(r.den, i)
    den = RatFunc.from_poly(r.den)
    return dn / den - RatFunc.from_poly(r.num) * dd / (den * den)


def diff(expr, i: int):
    """Partial derivative with respect to table variable i, preserving the kind."""
    if isinstance(expr, Poly):
        return diff_poly(expr, i)
    if isinstance(expr, RatFunc):
        return diff_ratfunc(expr, i)
    if isinstance(expr, LogExpr):
        table = expr.table
        rat = diff_ratfunc(expr.rat, i)
        logs: list[tuple[int, RatFunc]] = []
        for g, c in expr.logs:
            if g == i:
                rat = rat + c / RatFunc.var(table, table.names[g])
            dc = diff_ratfunc(c, i)
            if not dc.is_zero():
                logs.append((g, dc))
        return LogExpr(rat, logs)
    raise ExprError(f"cannot differentiate {type(expr).__name__}")


def substitute(expr, bindings: Mapping[str, "RatFunc"], target: VarTable | None = None):
    """Simultaneous substitution of variables by rational expressions.

    Unbound variables must exist by name in the target table and map to
    themselves.  Substituting into a logged generator is rejected.
    """
    table = expr.table
    if target is None:
        target = next(iter(bindings.values())).table if bindings else table
    values: dict[int, RatFunc] = {}
    for name, val in bindings.items():
        if val.table is not target:
            raise ExprError(f"binding for {name!r} is over the wrong table")
        values[table.index(name)] = val
    def value_of(i: int) -> RatFunc:
        if i in values:
            return values[i]
        values[i] = RatFunc.var(target, table.names[i])
        return values[i]
    if isinstance(expr, Poly):
        total = RatFunc.zero(target)
        for e, c in expr.terms.items():
            term = RatFunc.const(target, c)
            for i, x in enumerate(e):
                if x:
                    term = term * value_of(i) ** x
            total = total + term
        return total
    if isinstance(expr, RatFunc):
        den = substitute(expr.den, bindings, target)
        if den.is_zero():
            raise ExprError("substitution sends a denominator to zero")
        return substitute(expr.num, bindings, target) / den
    if isinstance(expr, LogExpr):
        rat = substitute(expr.rat, bindings, target)
        logs = []
        for g, c in expr.logs:
            name = expr.table.names[g]
            if name in bindings and bindings[name] != RatFunc.var(target, name):
                raise ExprError(f"cannot substitute into log argument {name!r}")
            logs.append((target.index(name), substitute(c, bindings, target)))
        return LogExpr(rat, logs)
    raise ExprError(f"cannot substitute into {type(expr).__name__}")


def evaluate(expr, values: Sequence[Fraction]) -> Fraction:
    """Exact evaluation; expressions with log terms are rejected."""
    if isinstance(expr, Poly):
        return expr.evaluate(values)
    if isinstance(expr, RatFunc):
        return expr.evaluate(values)
    if isinstance(expr, LogExpr):
        return expr.as_ratfunc().evaluate(values)
    raise ExprError(f"cannot evaluate {type(expr).__name__}")


def monomial_exponents(r: int, max_degree: int, inverse_degree: int,
                       invertible: Sequence[bool],
                       include_constant: bool) -> list[tuple[int, ...]]:
    """Exponent vectors whose positive part is bounded by max_degree.

    Negative exponents are allowed only at invertible positions and each is
    bounded in magnitude by inverse_degree.
    """
    out: list[tuple[int, ...]] = []

    def rec(k: int, budget: int, acc: list[int]) -> None:
        if k == r:
            e = tuple(acc)
            if any(e) or include_constant:
                out.append(e)
            return
        lo = -inverse_degree if invertible[k] else 0
        for v in range(lo, budget + 1):
            acc.append(v)
            rec(k + 1, budget - max(v, 0), acc)
            acc.pop()

    rec(0, max_degree, [])
    return out


def generator_monomial(table: VarTable, exps: Sequence[int]) -> RatFunc:
    """Monomial in the generators with possibly negative exponents."""
    gens = table.generator_indices
    if len(exps) != len(gens):
        raise ExprError("exponent vector does not match the generator count")
    num = [0] * len(table)
    den = [0] * len(table)
    for k, e in enumerate(exps):
        if e > 0:
            num[gens[k]] = e
        elif e < 0:
            den[gens[k]] = -e
    return RatFunc(Poly(table, {tuple(num): Fraction(1)}),
                   Poly(table, {tuple(den): Fraction(1)}))


def clear_denominators(table: VarTable, fs: Sequence[RatFunc]) -> tuple[Poly, list[Poly]]:
    """The product D of the distinct denominators of `fs`, and each f * D.

    A denominator that occurs more than once is a factor of D once.  Each
    f * D is f's numerator times the distinct denominators other than f's own,
    multiplied in order of first occurrence.
    """
    dens = list(dict.fromkeys(f.den for f in fs if not f.is_poly()))
    cleared = []
    for f in fs:
        c = f.num
        for d in dens:
            if d != f.den:
                c = c * d
        cleared.append(c)
    common = Poly.one(table)
    for d in dens:
        common = common * d
    return common, cleared


Split = dict[tuple[int, ...], dict[tuple[int, ...], Fraction]]


def split_terms(p: Poly, keys: Sequence[int],
                shift: Sequence[int] | None = None) -> Split | None:
    """Group p's terms as {exponents at `keys` plus shift -> {parameter
    exponent -> coefficient}}, parameter exponents as full-length tuples; None
    when a term uses a variable that is neither a key nor a parameter."""
    is_param = [k == PARAMETER for k in p.table.kinds]
    others = [i for i, m in enumerate(is_param) if not m and i not in keys]
    shift = shift or (0,) * len(keys)
    out: Split = {}
    for e, c in p.terms.items():
        if any(e[i] for i in others):
            return None
        pexp = tuple(x if m else 0 for x, m in zip(e, is_param))
        out.setdefault(tuple(e[i] + s for i, s in zip(keys, shift)), {})[pexp] = c
    return out


def _var_power_string(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def _term_body(table: VarTable, e: tuple[int, ...], coeff: Fraction) -> tuple[str, bool]:
    """Printed form of |coeff| * monomial and whether it starts with a bare power."""
    mag = abs(coeff)
    factors = [_var_power_string(table.names[i], x) for i, x in enumerate(e) if x]
    if not factors:
        return str(mag), False
    first_exp = next(x for x in e if x)
    starts_with_power = mag == 1 and first_exp != 1
    if mag == 1:
        return "*".join(factors), starts_with_power
    return f"{mag}*" + "*".join(factors), False


def _terms_string(table: VarTable, terms: Mapping[tuple[int, ...], Fraction]) -> str:
    if not terms:
        return "0"
    order = sorted(terms, key=_grlex_key, reverse=True)
    pieces: list[str] = []
    for k, e in enumerate(order):
        c = terms[e]
        body, bare_power = _term_body(table, e, c)
        if k == 0:
            if c < 0:
                if bare_power:
                    body = "1*" + body
                pieces.append("-" + body)
            else:
                pieces.append(body)
        else:
            pieces.append((" - " if c < 0 else " + ") + body)
    return "".join(pieces)


def _ratfunc_string(r: RatFunc) -> str:
    table = r.table
    if r.is_poly():
        return str(r.num)
    if len(r.den.terms) == 1:
        (de, dc), = r.den.terms.items()
        if dc == 1 and all(table.kind(i) == GENERATOR for i, x in enumerate(de) if x):
            merged = {tuple(a - b for a, b in zip(e, de)): c for e, c in r.num.terms.items()}
            return _terms_string(table, merged)
    return f"({r.num})/({r.den})"


def _logexpr_string(x: LogExpr) -> str:
    parts: list[str] = []
    if not x.rat.is_zero() or not x.logs:
        parts.append(str(x.rat))
    for i, c in x.logs:
        name = x.table.names[i]
        if c.is_poly() and len(c.num.terms) == 1:
            (e, coeff), = c.num.terms.items()
            body, _ = _term_body(x.table, e, coeff)
            if body == "1":
                piece = f"log({name})"
            else:
                piece = f"{body}*log({name})"
            sign = " - " if coeff < 0 else " + "
            if not parts:
                parts.append(("-" if coeff < 0 else "") + piece)
            else:
                parts.append(sign + piece)
        else:
            piece = f"({c})*log({name})"
            parts.append(" + " + piece if parts else piece)
    return "".join(parts)
