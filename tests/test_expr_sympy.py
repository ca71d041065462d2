"""Differential properties of the exact polynomial kernel against sympy.

Random sparse polynomials with mixed int and Fraction coefficients go through
`Poly` and `RatFunc` and through sympy; the results must agree exactly.  On
the radial table, sympy's side is reduced modulo rho^2 - (q1^2 + q2^2), the
relation `Poly` keeps by construction.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from plq.expr import Poly, RatFunc, VarTable, diff  # noqa: E402

PLAIN = VarTable.make(["x", "y"], 0, ["a"])
RADIAL = VarTable.make([], 2, [], algebraic="rho")
TABLES = [PLAIN, RADIAL]
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

COEFFS = st.one_of(st.integers(-6, 6),
                   st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


def polys(table, max_terms=4):
    exponent = st.tuples(*[st.integers(0, 2)] * len(table))
    return st.lists(st.tuples(exponent, COEFFS), max_size=max_terms).map(
        lambda raw: Poly.from_terms(table, raw))


def nonzero_polys(table, max_terms=3):
    return polys(table, max_terms).filter(lambda p: not p.is_zero())


def symbols(table):
    return [sympy.Symbol(n) for n in table.names]


def rel(table):
    """The relation Poly imposes on the radial element, or None."""
    if table.alg_index is None:
        return None
    s = symbols(table)
    return s[table.alg_index] ** 2 - sum(s[i] ** 2 for i in table.q_indices)


def to_sympy(p: Poly):
    s = symbols(p.table)
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(v ** x for v, x in zip(s, e)))
                       for e, c in p.terms.items()))


def vanishes(table, expr) -> bool:
    """Whether a sympy polynomial is zero in the ring Poly models."""
    expr = sympy.expand(expr)
    r = rel(table)
    if r is not None:
        expr = sympy.rem(expr, r, symbols(table)[table.alg_index])
    return sympy.expand(expr) == 0


def normal(p: Poly) -> bool:
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in p.terms.values())


@pytest.mark.parametrize("table", TABLES, ids=["plain", "radial"])
def test_ring_operations_match_sympy(table):
    @SETTINGS
    @given(polys(table), polys(table))
    def check(a, b):
        for got, want in ((a + b, to_sympy(a) + to_sympy(b)),
                          (a - b, to_sympy(a) - to_sympy(b)),
                          (a * b, to_sympy(a) * to_sympy(b))):
            assert normal(got)
            assert vanishes(table, to_sympy(got) - want)
            if table.alg_index is not None:
                assert all(e[table.alg_index] <= 1 for e in got.terms)
    check()


def test_divide_exact_hit_matches_sympy():
    @SETTINGS
    @given(polys(PLAIN), nonzero_polys(PLAIN))
    def check(a, b):
        q = (a * b).divide_exact(b)
        assert q is not None and normal(q)
        assert q == a
        quot, rem = sympy.div(to_sympy(a * b), to_sympy(b), *symbols(PLAIN))
        assert rem == 0 and sympy.expand(quot - to_sympy(q)) == 0
    check()


def test_divide_exact_miss_matches_sympy():
    @SETTINGS
    @given(polys(PLAIN), nonzero_polys(PLAIN))
    def check(a, b):
        q = a.divide_exact(b)
        quot, rem = sympy.div(to_sympy(a), to_sympy(b), *symbols(PLAIN))
        assert (q is None) == (rem != 0)
        if q is not None:
            assert normal(q) and sympy.expand(quot - to_sympy(q)) == 0
    check()


def test_radial_divide_exact_is_sound():
    @SETTINGS
    @given(polys(RADIAL), nonzero_polys(RADIAL))
    def check(a, b):
        for n in (a, a * b):
            q = n.divide_exact(b)
            if q is not None:
                assert normal(q) and q * b == n
    check()


def test_radial_divide_exact_finds_every_exact_quotient():
    @SETTINGS
    @given(polys(RADIAL), nonzero_polys(RADIAL))
    def check(a, b):
        assert (a * b).divide_exact(b) == a
    check()


@pytest.mark.parametrize("table", TABLES, ids=["plain", "radial"])
def test_ratfunc_make_and_equality_match_sympy(table):
    @SETTINGS
    @given(polys(table), nonzero_polys(table), polys(table), nonzero_polys(table))
    def check(a, b, c, d):
        f, g = RatFunc.make(a, b), RatFunc.make(c, d)
        assert normal(f.num) and normal(f.den)
        assert vanishes(table, to_sympy(f.num) * to_sympy(b) - to_sympy(a) * to_sympy(f.den))
        assert (f == g) == vanishes(table, to_sympy(a) * to_sympy(d) - to_sympy(c) * to_sympy(b))
        assert RatFunc.make(a * d, b * d) == f
    check()


@pytest.mark.parametrize("table", TABLES, ids=["plain", "radial"])
def test_diff_matches_sympy(table):
    s = symbols(table)
    ia = table.alg_index
    variables = [i for i in range(len(table)) if i != ia]

    @SETTINGS
    @given(polys(table), st.sampled_from(variables))
    def check(a, i):
        got = diff(a, i)
        assert normal(got.num) and normal(got.den)
        want = sympy.diff(to_sympy(a), s[i])
        if ia is not None:
            # The chain rule through rho = sqrt(sum of q^2): d rho/d q = q/rho.
            want += sympy.diff(to_sympy(a), s[ia]) * sympy.diff(rel(table), s[i]) / (-2 * s[ia])
        num, den = sympy.fraction(sympy.together(want))
        assert vanishes(table, to_sympy(got.num) * den - num * to_sympy(got.den))
    check()


@pytest.mark.parametrize("table", TABLES, ids=["plain", "radial"])
def test_evaluate_matches_sympy(table):
    point = st.lists(COEFFS, min_size=len(table), max_size=len(table))

    @SETTINGS
    @given(polys(table), point)
    def check(a, values):
        got = a.evaluate(values)
        assert type(got) is Fraction
        want = to_sympy(a).subs(dict(zip(symbols(table), map(sympy.Rational, values))))
        assert sympy.Rational(got.numerator, got.denominator) == want
    check()
