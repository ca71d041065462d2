"""The packed-key `Poly` kernel against the tuple-keyed reference.

`reference_poly` keeps the exponent-tuple algorithms by definition.  Sums,
products, exact division (through the radial conjugate), algebraic
reduction, monomial content and `RatFunc.make` must give the same terms in
the same insertion order, and print the same.  Packed keys must order like
(sum(e), e), and a total degree past DEGREE_LIMIT must raise instead of
carrying into a neighbouring field.  `split_terms` cells must rebuild the
polynomial they split.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import reference_poly as ref  # noqa: E402
from plq.cli import main  # noqa: E402
from plq.expr import DEGREE_LIMIT, ExprError, Poly, RatFunc, VarTable, split_terms  # noqa: E402

PLAIN = VarTable.make(["x", "y"], 0, ["a"])
RADIAL = VarTable.make([], 2, [], algebraic="rho")
# rho^2 = q1^2 here, so the conjugate norm can vanish.
ONE_PAIR = VarTable.make(["u"], 1, ["m"], algebraic="rho")
TABLES = [PLAIN, RADIAL, ONE_PAIR]
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
COEFFS = st.one_of(st.integers(-6, 6),
                   st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
IDS = ["plain", "radial", "one-pair"]


def raw_terms(table, max_terms=4, factors=2):
    """Raw (exponent, coefficient) lists; any product of `factors` of them
    stays within the degree limit."""
    hi = DEGREE_LIMIT // (factors * len(table))
    exponent = st.tuples(*[st.integers(0, hi)] * len(table))
    return st.lists(st.tuples(exponent, COEFFS), max_size=max_terms)


def reference_terms(table, raw):
    acc = {}
    for e, c in raw:
        if c != 0:
            acc[e] = acc.get(e, 0) + c
    return ref.reduce_algebraic(table, acc)


def same(table, got: Poly, want: dict):
    assert all(table.pack(table.unpack(k)) == k for k in got.packed)
    assert list(got.terms.items()) == list(want.items())
    assert str(got) == ref.to_string(table, want)


@pytest.mark.parametrize("table", TABLES, ids=IDS)
def test_ring_operations_match_the_reference(table):
    @SETTINGS
    @given(raw_terms(table), raw_terms(table))
    def check(ra, rb):
        a, b = Poly.from_terms(table, ra), Poly.from_terms(table, rb)
        ta, tb = reference_terms(table, ra), reference_terms(table, rb)
        same(table, a, ta)
        same(table, a + b, ref.plus(ta, tb))
        same(table, a - b, ref.minus(ta, tb))
        same(table, a * b, ref.times(table, ta, tb))
        assert table.meet(a.packed) == table.pack(ref.monomial_content(table, ta))
        if ta:
            key, c = a.leading()
            assert (table.unpack(key), c) == ref.leading(ta)
    check()


@pytest.mark.parametrize("table", TABLES, ids=IDS)
def test_exact_division_matches_the_reference(table):
    @SETTINGS
    @given(raw_terms(table, 3, 3), raw_terms(table, 3, 3))
    def check(ra, rd):
        a, d = Poly.from_terms(table, ra), Poly.from_terms(table, rd)
        ta, td = reference_terms(table, ra), reference_terms(table, rd)
        assume(td)
        for p, tp in ((a, ta), (a * d, ref.times(table, ta, td))):
            got, want = p.divide_exact(d), ref.divide_exact(table, tp, td)
            assert (got is None) == (want is None)
            if got is not None:
                same(table, got, want)
    check()


@pytest.mark.parametrize("table", TABLES, ids=IDS)
def test_normal_form_matches_the_reference(table):
    @SETTINGS
    @given(raw_terms(table, 3, 4), raw_terms(table, 3, 4), raw_terms(table, 2, 4))
    def check(rn, rd, rg):
        g = Poly.from_terms(table, rg)
        tg = reference_terms(table, rg)
        num = Poly.from_terms(table, rn) * g
        den = Poly.from_terms(table, rd) * g
        tn = ref.times(table, reference_terms(table, rn), tg)
        td = ref.times(table, reference_terms(table, rd), tg)
        assume(td)
        try:
            got = RatFunc.make(num, den)
        except ExprError:  # a zero-divisor denominator
            return
        want_num, want_den = ref.make(table, tn, td)
        same(table, got.num, want_num)
        same(table, got.den, want_den)
    check()


MIXED = VarTable.make(["x", "y", "z"], 0, ["a", "b"])


@SETTINGS
@given(st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * len(MIXED)), COEFFS), max_size=8),
       st.tuples(*[st.integers(-2, 2)] * 3))
def test_split_cells_rebuild_the_polynomial(raw, shift):
    """Sum of cell * u^(key - shift) over the split is p again.  A cell is a
    number, never zero and an int when integral, exactly when its terms are
    parameter-free, and otherwise a Poly in the parameters under valid
    packed keys."""
    table = MIXED
    gens, params = table.generator_indices, table.parameter_indices
    p = Poly.from_terms(table, raw)
    split = split_terms(p, gens, shift)
    free = {}
    for e, c in p.terms.items():
        key = tuple(e[i] + s for i, s in zip(gens, shift))
        free[key] = free.get(key, True) and not any(e[i] for i in params)
    assert split.keys() == free.keys()
    rebuilt = Poly.zero(table)
    for key, cell in split.items():
        assert cell != 0
        if free[key]:
            assert type(cell) is int or (type(cell) is Fraction and cell.denominator != 1)
        else:
            assert type(cell) is Poly and cell.used_indices() <= set(params)
            assert all(table.pack(table.unpack(k)) == k for k in cell.packed)
        e = [0] * len(table)
        for i, x, s in zip(gens, key, shift):
            e[i] = x - s
        rebuilt = rebuilt + Poly.from_terms(table, [(e, 1)]) * cell
    assert rebuilt == p


@pytest.mark.parametrize("table", TABLES, ids=IDS)
def test_packed_keys_order_like_graded_lex(table):
    n = len(table)
    exponent = st.tuples(*[st.integers(0, DEGREE_LIMIT // n)] * n)

    @SETTINGS
    @given(exponent, exponent)
    def check(e, f):
        assert table.unpack(table.pack(e)) == e
        assert (table.pack(e) < table.pack(f)) == (ref.grlex(e) < ref.grlex(f))
        if sum(e) + sum(f) <= DEGREE_LIMIT:
            assert table.pack(e) + table.pack(f) == table.pack(tuple(map(sum, zip(e, f))))
    check()


def test_degree_limit_raises_instead_of_carrying():
    x, y = Poly.var(PLAIN, "x"), Poly.var(PLAIN, "y")
    top = x ** DEGREE_LIMIT
    assert top.degree() == DEGREE_LIMIT and top.terms == {(DEGREE_LIMIT, 0, 0): 1}
    assert (x ** 100 * y ** 27).terms == {(100, 27, 0): 1}
    for grow in (lambda: top * x, lambda: x ** 64 * x ** 64, lambda: (x + y) ** 128,
                 lambda: (x ** 64) ** 2, lambda: top * y,
                 lambda: Poly.from_terms(PLAIN, [((0, 0, DEGREE_LIMIT + 1), 1)])):
        with pytest.raises(ExprError, match="exceeds the limit 127"):
            grow()


def test_degree_limit_is_a_cli_error(capsys):
    assert main(["check", "sphere", "--invariant", "((H^64)^64)^64"]) == 2
    assert "total degree 4096 exceeds the limit 127" in capsys.readouterr().err
    assert main(["check", "sphere", "--invariant", "H^64*H^64"]) == 2
    assert "total degree 128 exceeds the limit 127" in capsys.readouterr().err
