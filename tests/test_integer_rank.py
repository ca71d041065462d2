"""Numeric ranks and pivot columns by fraction-free elimination.

`rank_of` and `pivot_columns` take int and Fraction rows through integer
elimination; `rref` over Fraction is the oracle for both rank and pivot
columns, and sympy's `Matrix.rank` a second one for the rank.  Matrices are
random, skew, with zero or duplicate rows, or with entries near 10^30.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from plq.expr import RatFunc, VarTable  # noqa: E402
from plq.linalg import pivot_columns, rank_of  # noqa: E402
from reference_rref import rref  # noqa: E402
from dense_rows import rows_from_dense  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)
BIG = 10 ** 30

SMALL = st.one_of(st.integers(-3, 3),
                  st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6)))
LARGE = st.one_of(st.integers(BIG - 9, BIG + 9), st.integers(-BIG - 9, -BIG + 9),
                  st.builds(Fraction, st.integers(BIG - 9, BIG + 9),
                            st.integers(1, 10 ** 6)))
ENTRIES = st.one_of(SMALL, SMALL, LARGE)


@st.composite
def dense(draw):
    """A dense matrix: plain, skew, or with zero and duplicate rows."""
    kind = draw(st.sampled_from(["plain", "skew", "repeats"]))
    if kind == "skew":
        n = draw(st.integers(1, 7))
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = draw(st.one_of(st.just(0), ENTRIES))
                m[i][j], m[j][i] = v, -v
        return m
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    m = [draw(st.lists(st.one_of(st.just(0), ENTRIES), min_size=cols, max_size=cols))
         for _ in range(rows)]
    if kind == "repeats":
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, rows - 1))
            scale = draw(st.sampled_from([0, 1, -2, Fraction(1, 3)]))
            m.insert(draw(st.integers(0, len(m))), [scale * v for v in m[i]])
    return m


@SETTINGS
@given(dense(), st.integers(-1, 1))
def test_integer_pivots_match_fraction_rref(matrix, extra):
    """Same rank and pivot columns as `rref`, also when ncols is narrower
    or wider than the rows; ValueError when an entry lies past ncols."""
    rows = rows_from_dense(matrix)
    ncols = max(0, len(matrix[0]) + extra)
    copies = [dict(r) for r in rows]
    if any(c >= ncols for row in rows for c in row):
        for kernel in (pivot_columns, rank_of):
            with pytest.raises(ValueError):
                kernel(rows, ncols)
    else:
        want = rref(rows, ncols)[1]
        assert pivot_columns(rows, ncols) == want
        assert rank_of(rows, ncols) == len(want)
    assert rows == copies


@SETTINGS
@given(dense())
def test_integer_rank_matches_sympy(matrix):
    sympy = pytest.importorskip("sympy")
    want = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                         for row in matrix]).rank()
    assert rank_of(rows_from_dense(matrix), len(matrix[0])) == want


def test_rational_function_rows_keep_rref():
    table = VarTable.make(["x", "y"], 0, [])
    x, y = RatFunc.var(table, "x"), RatFunc.var(table, "y")
    rows = [{0: x, 1: y}, {0: x * x, 1: x * y}, {1: 1, 2: x}]
    assert pivot_columns(rows, 3) == rref(rows, 3)[1] == [0, 1]
    assert rank_of(rows, 3) == 2
