"""A denominator of one is normal form: the polynomial shortcuts in `+`, `-`,
`*`, powers and `diff` give exactly what full normalisation gives.

The general route runs the same code with `Poly.is_one` answering False, so
no value counts as a polynomial: `RatFunc.make` normalises every quotient in
full and `diff` applies the quotient rule.  Results must agree term by term,
in term order, and in print.
"""

from operator import add, mul, sub
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from plq.expr import Poly, RatFunc, diff  # noqa: E402
from test_expr_sympy import SETTINGS, TABLES, nonzero_polys, polys  # noqa: E402


def full_normalisation():
    return mock.patch.object(Poly, "is_one", lambda self: False)


def general(num: Poly, den: Poly) -> RatFunc:
    with full_normalisation():
        return RatFunc.make(num, den)


def assert_same(got: RatFunc, want: RatFunc):
    assert list(got.num.terms.items()) == list(want.num.terms.items())
    assert list(got.den.terms.items()) == list(want.den.terms.items())
    assert str(got) == str(want)


def counting_make():
    """Patch `RatFunc.make` to record its calls; returns (patch, calls)."""
    calls = []
    make = RatFunc.make

    def spy(num, den):
        calls.append((num, den))
        return make(num, den)
    return mock.patch.object(RatFunc, "make", staticmethod(spy)), calls


@pytest.mark.parametrize("table", TABLES, ids=["plain", "radial"])
def test_polynomial_arithmetic_matches_full_normalisation(table):
    @SETTINGS
    @given(polys(table), polys(table), st.integers(0, 3))
    def check(p, q, k):
        a, b = RatFunc.from_poly(p), RatFunc.from_poly(q)
        assert_same(a + b, general(a.num * b.den + b.num * a.den, a.den * b.den))
        assert_same(a - b, general(a.num * b.den - b.num * a.den, a.den * b.den))
        assert_same(a * b, general(a.num * b.num, a.den * b.den))
        assert_same(a ** k, general(a.num ** k, a.den ** k))
        for i in range(len(table)):
            with full_normalisation():
                want = diff(a, i)
            assert_same(diff(a, i), want)
    check()


@pytest.mark.parametrize("table", TABLES, ids=["plain", "radial"])
def test_polynomial_arithmetic_skips_make(table):
    @SETTINGS
    @given(polys(table), polys(table))
    def check(p, q):
        a, b = RatFunc.from_poly(p), RatFunc.from_poly(q)
        patch, calls = counting_make()
        with patch:
            for op in (add, sub, mul):
                op(a, b)
        assert calls == []
    check()


@pytest.mark.parametrize("table", TABLES, ids=["plain", "radial"])
def test_mixed_arithmetic_goes_through_make(table):
    @SETTINGS
    @given(polys(table), nonzero_polys(table), nonzero_polys(table))
    def check(p, n, d):
        a, f = RatFunc.from_poly(p), RatFunc.make(n, d)
        if f.is_poly():
            return
        for op in (add, sub, mul):
            patch, calls = counting_make()
            with patch:
                got = op(a, f)
            assert calls
            with full_normalisation():
                want = op(a, f)
            assert_same(got, want)
        patch, calls = counting_make()
        with patch:
            got = diff(f, 0)
        assert calls
        with full_normalisation():
            assert_same(got, diff(f, 0))
    check()
