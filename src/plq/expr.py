"""Exact symbolic expressions over a fixed variable table.

The expression tower has three levels: sparse multivariate polynomials with
rational coefficients (Poly), quotients of polynomials (RatFunc), and rational
expressions extended by logarithms of single variables (LogExpr).  All
arithmetic is exact.  A coefficient is an int when it is integral and a
fractions.Fraction only when its denominator is not 1; every coefficient
division goes through `exact_div`, which never applies `/` to two ints.  One
distinguished algebraic element may square to the sum of the squared position
variables, which models a radial coordinate without leaving exact arithmetic.
A Poly keys each term by one packed int (see VarTable), so a monomial product
is an int sum and term order is int order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from operator import add, sub
from typing import Iterable, Mapping, Sequence

GENERATOR = "generator"
CANONICAL_Q = "q"
CANONICAL_P = "p"
PARAMETER = "parameter"
ALGEBRAIC = "algebraic"

_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")

# The largest total degree of a term: a packed field is one byte whose top
# bit stays clear, so the sum of two keys never carries into the next field.
DEGREE_LIMIT = 127
PAIR_LIMIT = 1000  # the most canonical pairs a table may declare
# The most terms a power may have; a t-term polynomial to the n has C(t+n-1, n).
TERM_LIMIT = 20_000


class ExprError(ValueError):
    """Raised for domain violations: zero division, bad substitution, misuse of log."""


def _check_degree(d: int) -> None:
    if d > DEGREE_LIMIT:
        raise ExprError(f"total degree {d} exceeds the limit {DEGREE_LIMIT}")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ExprError(f"invalid variable name {name!r}")
    return name


@dataclass(frozen=True)
class VarTable:
    """Immutable registry of every variable a family of expressions may use.

    Order is fixed at construction: generators, then canonical positions,
    then canonical momenta, then parameters, then the optional algebraic
    element.  Exponent tuples align with this order.

    A Poly term is keyed by its packed exponent: one byte per field, the
    total degree in the top field, then one field per variable in table
    order (`pack`, `unpack`).  Int order is then graded lexicographic order,
    (sum(e), e); a monomial product is an int sum; a field reads with one
    shift and mask; and e divides f exactly when
    ((f | guard) - e) & guard == guard, `guard` holding each field's top bit.
    Degrees stay at most DEGREE_LIMIT = 127, so no sum carries across fields.
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

    @cached_property
    def generator_indices(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.kinds) if k == GENERATOR)

    @cached_property
    def generator_names(self) -> tuple[str, ...]:
        return tuple(self.names[i] for i in self.generator_indices)

    @cached_property
    def q_indices(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.kinds) if k == CANONICAL_Q)

    @cached_property
    def p_indices(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.kinds) if k == CANONICAL_P)

    @cached_property
    def parameter_indices(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.kinds) if k == PARAMETER)

    @cached_property
    def degree_shift(self) -> int:
        """Bit offset of the total degree in a packed key."""
        return 8 * len(self.names)

    @cached_property
    def shifts(self) -> tuple[int, ...]:
        """Bit offset of each variable's field in a packed key."""
        return tuple(range(self.degree_shift - 8, -1, -8))

    @cached_property
    def guard(self) -> int:
        """The top bit of every field of a packed key."""
        return int.from_bytes(b"\x80" * (len(self.names) + 1), "big")

    def pack(self, e: Sequence[int]) -> int:
        """The packed key of an exponent tuple."""
        if len(e) != len(self.names):
            raise ExprError("exponent length does not match the table")
        if min(e, default=0) < 0:
            raise ExprError("polynomial exponents must be nonnegative")
        _check_degree(sum(e))
        return int.from_bytes(bytes((sum(e), *e)), "big")

    def unpack(self, key: int) -> tuple[int, ...]:
        """The exponent tuple of a packed key."""
        return tuple(key.to_bytes(len(self.names) + 1, "big")[1:])

    def unit(self, i: int) -> int:
        """The packed key of variable i to the first power."""
        return (1 << self.degree_shift) | (1 << self.shifts[i])

    def meet(self, keys: Iterable[int]) -> int:
        """The packed componentwise minimum of packed keys (0 for none)."""
        guard, low = self.guard, (1 << self.degree_shift) - 1
        keys = iter(keys)
        out = next(keys, 0)
        for k in keys:
            if not out & low:
                return 0
            # 0xFF in each field where out >= k, by the guard bits' borrows
            m = ((((out | guard) - k) & guard) >> 7) * 0xFF
            out = (k & m) | (out & ~m)
        out &= low  # the degree field held the least degree, not the sum
        return out and out | sum(out.to_bytes(len(self.names) + 1, "big")) << self.degree_shift

    @cached_property
    def alg_index(self) -> int | None:
        for i, k in enumerate(self.kinds):
            if k == ALGEBRAIC:
                return i
        return None

    @property
    def pairs(self) -> int:
        return len(self.q_indices)


def normal_coeff(c):
    """An integral Fraction as its int; any other value unchanged."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def exact_div(a, b):
    """The exact quotient a / b of coefficients, or of any field elements.

    Two ints never meet `/`: their quotient is an int when b divides a and a
    Fraction otherwise.  A Fraction quotient that is integral becomes an int.
    """
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return normal_coeff(a / b)


def add_terms(acc: dict[int, int | Fraction], terms: Mapping[int, int | Fraction]) -> dict:
    """`acc` with `terms` added in place, zero sums dropped."""
    for e, c in terms.items():
        s = acc.get(e, 0) + c
        if s == 0:
            acc.pop(e, None)
        else:
            acc[e] = normal_coeff(s)
    return acc


def _coefficient(x) -> int | Fraction:
    if isinstance(x, Fraction):
        return normal_coeff(x)
    if isinstance(x, int):
        return int(x)
    raise ExprError(f"cannot use {type(x).__name__} as an exact coefficient")


class Poly:
    """Sparse multivariate polynomial: packed exponent key -> nonzero
    coefficient, an int when integral and a Fraction otherwise.

    `packed` holds the terms under the table's packed keys (see VarTable),
    and every method works on them.  Exponent tuples are the boundary for
    callers that read exponents: `from_terms` builds from tuple keys and the
    `terms` view reads them back in term order.  The algebraic element's
    exponent is kept at 0 or 1; even powers are rewritten into the sum of
    squared position variables at construction.
    """

    __slots__ = ("table", "packed")

    def __init__(self, table: VarTable, packed: dict[int, int | Fraction]):
        """Terms in a dict keyed by packed key, which is kept, not copied."""
        self.table = table
        self.packed = packed

    @property
    def terms(self) -> dict[tuple[int, ...], int | Fraction]:
        """The terms keyed by exponent tuple, in term order."""
        unpack = self.table.unpack
        return {unpack(k): c for k, c in self.packed.items()}

    @staticmethod
    def zero(table: VarTable) -> "Poly":
        return Poly(table, {})

    @staticmethod
    def const(table: VarTable, c) -> "Poly":
        c = _coefficient(c)
        if c == 0:
            return Poly(table, {})
        return Poly(table, {0: c})

    @staticmethod
    def one(table: VarTable) -> "Poly":
        return Poly(table, {0: 1})

    @staticmethod
    def var(table: VarTable, name: str) -> "Poly":
        return Poly(table, {table.unit(table.index(name)): 1})

    @staticmethod
    def from_terms(table: VarTable,
                   raw: Iterable[tuple[tuple[int, ...], int | Fraction]]) -> "Poly":
        """Canonicalize raw (exponent, coefficient) pairs: merge, reduce, drop zeros."""
        acc: dict[int, int | Fraction] = {}
        for e, c in raw:
            if c == 0:
                continue
            k = table.pack(e)
            acc[k] = acc.get(k, 0) + c
        return Poly(table, _reduce_algebraic(table, acc))

    def is_zero(self) -> bool:
        return not self.packed

    def is_constant(self) -> bool:
        return self.packed.keys() <= {0}

    def is_one(self) -> bool:
        """Whether this is the constant one."""
        return len(self.packed) == 1 and self.packed.get(0) == 1

    def constant_value(self) -> int | Fraction:
        """The value of a constant polynomial."""
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise ExprError("polynomial is not constant")
        return self.packed[0]

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max(self.packed, default=0) >> self.table.degree_shift

    def leading(self) -> tuple[int, int | Fraction]:
        """Leading (packed key, coefficient) in descending graded lexicographic order."""
        if self.is_zero():
            raise ExprError("zero polynomial has no leading term")
        e = max(self.packed)
        return e, self.packed[e]

    def uses(self, i: int) -> bool:
        """Whether variable i occurs with nonzero exponent."""
        return any(map((0xFF << self.table.shifts[i]).__and__, self.packed))

    def used_indices(self) -> set[int]:
        seen = 0
        for k in self.packed:
            seen |= k
        return {i for i, x in enumerate(self.table.unpack(seen)) if x}

    def shift(self, g: int) -> "Poly":
        """Divide by the monomial of packed key g, which divides every term."""
        return Poly(self.table, {k - g: normal_coeff(c) for k, c in self.packed.items()})

    def scale(self, c) -> "Poly":
        c = _coefficient(c)
        if c == 0:
            return Poly.zero(self.table)
        return Poly(self.table, {e: normal_coeff(v * c) for e, v in self.packed.items()})

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
        return Poly(self.table, add_terms(dict(self.packed), o.packed))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.table, {e: -c for e, c in self.packed.items()})

    def __sub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        table = self.table
        return Poly(table, _reduce_algebraic(table, _multiply_into({}, table, self.packed,
                                                                   o.packed)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ExprError("polynomial powers must be nonnegative integers")
        _check_degree(n * self.degree())
        if len(self.packed) > 1 and (count := comb(len(self.packed) + n - 1, n)) > TERM_LIMIT:
            raise ExprError(f"power to the {n} could have {count} terms, more than {TERM_LIMIT}")
        out = Poly.one(self.table)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.packed == o.packed

    def __hash__(self) -> int:
        """Structural, whatever the term order; a constant hashes like the
        number it equals."""
        if self.is_constant():
            return hash(self.constant_value())
        return hash(frozenset(self.packed.items()))

    def divide_exact(self, d: "Poly") -> "Poly | None":
        """Exact quotient self / d, or None when division leaves a remainder.

        Also None when d is a zero divisor: d * conj(d) vanishes, which a
        table with one canonical pair allows (rho^2 = q1^2)."""
        if d.table is not self.table:
            raise ExprError("polynomials over different tables")
        if d.is_zero():
            raise ExprError("division by zero polynomial")
        table = self.table
        ia = table.alg_index
        if ia is not None and d.uses(ia):
            # Reducing rho^2 can raise the leading term, so leading-term
            # descent by d need not end.  Divide self * conj(d) by the
            # rho-free norm instead; where the norm vanishes or has zero
            # divisors the quotient is kept only if it multiplies back.
            conj, norm = _conjugate(d)
            q = None if norm.is_zero() else (self * conj).divide_exact(norm)
            return q if q is not None and q * d == self else None
        rem = dict(self.packed)
        quot: dict[int, int | Fraction] = {}
        de, dc = d.leading()
        guard = table.guard
        right = list(d.packed.items())
        while rem:
            re = max(rem)
            if ((re | guard) - de) & guard != guard:
                return None
            qe = re - de
            qc = exact_div(rem[re], dc)
            quot[qe] = quot.get(qe, 0) + qc
            # rem -= qc * x^qe * d; d is free of rho and qe has rho^0 or
            # rho^1, so no shifted term needs reducing.
            for e, c in right:
                e += qe
                s = rem.get(e, 0) - normal_coeff(c * qc)
                if s == 0:
                    rem.pop(e, None)
                else:
                    rem[e] = normal_coeff(s)
        return Poly(table, _reduce_algebraic(table, quot))

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        """Exact value, always a Fraction, at a point given as one exact
        number per table variable."""
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for i, x in enumerate(e):
                if x == 1:
                    v *= values[i]
                elif x:
                    v *= values[i] ** x
            total += v
        return total

    def __str__(self) -> str:
        return _terms_string(self.table, _descending(self))

    def __repr__(self) -> str:
        return f"Poly({self})"


def _sigma_terms(table: VarTable) -> dict[int, int]:
    return {2 * table.unit(qi): 1 for qi in table.q_indices}


def sigma_poly(table: VarTable) -> Poly:
    """Sum of squared position variables: the square of the algebraic element."""
    return Poly(table, _sigma_terms(table))


def _conjugate(p: Poly) -> tuple[Poly, Poly]:
    """For p = a + b*rho with a and b free of the algebraic element rho, the
    conjugate a - b*rho and the norm p * (a - b*rho) = a^2 - sigma*b^2, which
    is free of rho."""
    table = p.table
    rho = table.unit(table.alg_index)
    mask = 0xFF << table.shifts[table.alg_index]
    a = Poly(table, {e: c for e, c in p.packed.items() if not e & mask})
    b_rho = Poly(table, {e: c for e, c in p.packed.items() if e & mask})
    b = Poly(table, {e - rho: c for e, c in b_rho.packed.items()})
    return a - b_rho, a * a - sigma_poly(table) * b * b


def _reduce_algebraic(table: VarTable, acc: dict[int, int | Fraction]) -> dict:
    """Terms with even powers of the algebraic element rewritten, zeros
    dropped and integral Fractions made ints."""
    ia = table.alg_index
    at = 0 if ia is None else table.shifts[ia]
    if ia is None or not any(map((0xFE << at).__and__, acc)):  # no rho^2 or higher
        return {e: normal_coeff(c) for e, c in acc.items() if c != 0}
    sigma = _sigma_terms(table)
    rho2 = 2 * table.unit(ia)
    powers: dict[int, dict[int, int]] = {0: {0: 1}}

    def sig_pow(k: int) -> dict[int, int]:
        if k not in powers:
            prev = sig_pow(k - 1)
            nxt: dict[int, int] = {}
            for e1, c1 in prev.items():
                for e2, c2 in sigma.items():
                    e = e1 + e2
                    nxt[e] = nxt.get(e, 0) + c1 * c2
            powers[k] = nxt
        return powers[k]

    out: dict[int, int | Fraction] = {}
    for e, c in acc.items():
        k = (e >> at) & 0xFF
        if k <= 1:
            out[e] = out.get(e, 0) + c
            continue
        half = k // 2
        base = e - half * rho2
        for es, cs in sig_pow(half).items():
            key = base + es
            out[key] = out.get(key, 0) + c * cs
    return {e: normal_coeff(c) for e, c in out.items() if c != 0}


def _multiply_into(acc: dict[int, int | Fraction], table: VarTable, a: dict, b: dict) -> dict:
    """`acc` plus the product of the terms `a` and `b`, in place and unreduced."""
    if a and b:
        _check_degree((max(a) + max(b)) >> table.degree_shift)
    get = acc.get
    right = list(b.items())
    for e1, c1 in a.items():
        for e2, c2 in right:
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2
    return acc


def sum_of_products(groups: Sequence[Sequence[tuple]], zero: "RatFunc") -> "RatFunc":
    """The sum over groups of each group's sum of products a * b.  When every
    operand is a polynomial RatFunc, the products go into one dict, reduced
    once (Johnson 1974).  Otherwise each group is added in order, then the
    groups in order onto `zero`: reordering a rational sum can change its print."""
    table = zero.table
    if all(a.den.is_one() and b.den.is_one() for group in groups for a, b in group):
        acc: dict[int, int | Fraction] = {}
        for group in groups:
            for a, b in group:
                _multiply_into(acc, table, a.num.packed, b.num.packed)
        return RatFunc(Poly(table, _reduce_algebraic(table, acc)), Poly.one(table), _normalized=True)
    total = zero
    for group in filter(None, groups):
        products = [a * b for a, b in group]
        total = total + sum(products[1:], products[0])
    return total


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
        if den.is_one():  # a polynomial is in normal form
            return RatFunc(num, den, _normalized=True)
        table = num.table
        if den.is_zero():
            raise ExprError("division by zero")
        if num.is_zero():
            return RatFunc(Poly.zero(table), Poly.one(table), _normalized=True)
        ia = table.alg_index
        if ia is not None and den.uses(ia):
            conj, den = _conjugate(den)
            num = num * conj
            if den.is_zero():
                raise ExprError("denominator annihilated by algebraic conjugation")
        if den.is_constant():
            return RatFunc(num.scale(exact_div(1, den.constant_value())), Poly.one(table),
                           _normalized=True)
        if not num.is_zero():
            exact = num.divide_exact(den)
            if exact is not None:
                return RatFunc(exact, Poly.one(table), _normalized=True)
        g = table.meet((*den.packed, *num.packed))
        if g:
            num = num.shift(g)
            den = den.shift(g)
        _, lc = den.leading()
        if lc != 1:
            inv = exact_div(1, lc)
            num = num.scale(inv)
            den = den.scale(inv)
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
        """Whether the denominator is one."""
        return self.den.is_one()

    def _coerce(self, other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            if other.table is not self.table:
                raise ExprError("expressions over different tables")
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(self.table, other)
        return None

    def __add__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_poly() and o.is_poly():
            return RatFunc(self.num + o.num, self.den, _normalized=True)
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
        if self.is_poly() and o.is_poly():
            return RatFunc(self.num - o.num, self.den, _normalized=True)
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
        if self.is_poly() and o.is_poly():
            return RatFunc(self.num * o.num, self.den, _normalized=True)
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
        if self.is_poly():
            return self.num.evaluate(values)
        d = self.den.evaluate(values)
        if d == 0:
            raise ExprError("denominator vanishes at evaluation point")
        return self.num.evaluate(values) / d

    def __str__(self) -> str:
        return _ratfunc_string(self)

    def __repr__(self) -> str:
        return f"RatFunc({self})"


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

    def _coerce(self, other) -> "LogExpr | None":
        if isinstance(other, LogExpr):
            if other.table is not self.table:
                raise ExprError("expressions over different tables")
            return other
        if isinstance(other, (RatFunc, int, Fraction)):
            return LogExpr(RatFunc.zero(self.table)._coerce(other))
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
    at, unit = p.table.shifts[i], p.table.unit(i)
    return Poly(p.table, {e - unit: normal_coeff(c * x) for e, c in p.packed.items()
                          if (x := (e >> at) & 0xFF)})


def diff_poly(p: Poly, i: int) -> RatFunc:
    """Partial derivative of a polynomial, with the radial chain rule applied."""
    table = p.table
    formal = _poly_diff_parts(p, i)
    ia = table.alg_index
    if ia is None or table.kind(i) != CANONICAL_Q or not p.uses(ia):
        return RatFunc.from_poly(formal)
    mask = 0xFF << table.shifts[ia]
    radical = Poly(table, {e: c for e, c in p.packed.items() if e & mask})
    qi = Poly.var(table, table.names[i])
    rho = Poly.var(table, table.names[ia])
    chain = radical.shift(table.unit(ia)) * qi * rho
    return RatFunc.from_poly(formal) + RatFunc.make(chain, sigma_poly(table))


def diff_ratfunc(r: RatFunc, i: int) -> RatFunc:
    """Partial derivative of a rational function by the quotient rule."""
    dn = diff_poly(r.num, i)
    if r.is_poly():
        return dn
    den = RatFunc.from_poly(r.den)
    if not r.den.uses(i):
        return dn / den
    return dn / den - RatFunc.from_poly(r.num) * diff_poly(r.den, i) / (den * den)


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
        for k, c in expr.packed.items():
            term = RatFunc.const(target, c)
            for i, x in enumerate(table.unpack(k)):
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
    return RatFunc(Poly(table, {table.pack(num): 1}),
                   Poly(table, {table.pack(den): 1}))


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


def split_terms(p: Poly, keys: Sequence[int],
                shift: Sequence[int] | None = None) -> dict | None:
    """Group p's terms as {exponents at `keys` plus shift -> cell}; None when
    a term uses a variable that is neither a key nor a parameter.  A cell is
    the sum of its terms with the keys divided out: a number when they carry
    no parameter, else a Poly in the parameters, whose packed keys are p's
    masked to the parameter fields with the degree field recomputed."""
    table = p.table
    fields = [0xFF << at for at in table.shifts]
    params = sum(fields[i] for i in table.parameter_indices)
    others = sum(f for i, f in enumerate(fields) if i not in keys) & ~params
    shift = shift or (0,) * len(keys)
    unpack, width, at = table.unpack, len(table) + 1, table.degree_shift
    out: dict[tuple[int, ...], dict[int, int | Fraction]] = {}
    for k, c in p.packed.items():
        if k & others:
            return None
        key = tuple(map(add, map(unpack(k).__getitem__, keys), shift))
        pk = k & params
        out.setdefault(key, {})[pk and pk | sum(pk.to_bytes(width, "big")) << at] = c
    return {key: cell[0] if cell.keys() == {0} else Poly(table, cell)
            for key, cell in out.items()}


def _var_power_string(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def _term_body(table: VarTable, e: tuple[int, ...], coeff: int | Fraction) -> tuple[str, bool]:
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


def _descending(p: Poly) -> list[tuple[tuple[int, ...], int | Fraction]]:
    """p's (exponent tuple, coefficient) terms, leading term first."""
    unpack = p.table.unpack
    return [(unpack(k), p.packed[k]) for k in sorted(p.packed, reverse=True)]


def _terms_string(table: VarTable, terms: Sequence[tuple[tuple[int, ...], int | Fraction]]) -> str:
    """Printed form of (exponent, coefficient) terms, given leading term first."""
    if not terms:
        return "0"
    pieces: list[str] = []
    for k, (e, c) in enumerate(terms):
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
    if len(r.den.packed) == 1:
        (de, dc), = r.den.terms.items()
        if dc == 1 and all(table.kind(i) == GENERATOR for i, x in enumerate(de) if x):
            # Dividing by one monomial keeps the numerator's term order.
            return _terms_string(table, [(tuple(map(sub, e, de)), c)
                                         for e, c in _descending(r.num)])
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
