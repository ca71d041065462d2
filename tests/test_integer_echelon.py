"""`rref`, `nullspace` and `pivot_columns` on int and Fraction rows, which
fraction-free integer elimination computes, against a Gauss–Jordan
elimination over Fraction (`reference_rref`) and sympy's `Matrix.nullspace`.

Matrices come from `test_integer_rank`'s strategy: plain, skew, with zero or
repeated rows, or with entries near 10^30.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

import reference_rref  # noqa: E402
from dense_rows import dense_nullspace, rows_from_dense  # noqa: E402
from plq.linalg import nullspace, pivot_columns, presolve_forced_zero, rref  # noqa: E402
from plq.solver import AnsatzSpec, assemble_system, enumerate_basis  # noqa: E402
from reference_columns import graded_columns  # noqa: E402
from test_integer_rank import SETTINGS, dense  # noqa: E402
from test_solver import lie_problem  # noqa: E402


def printed_rows(rows):
    return [sorted((c, str(v)) for c, v in row.items()) for row in rows]


def printed_vectors(vectors):
    return [[str(v) for v in vec] for vec in vectors]


@SETTINGS
@given(dense(), st.integers(-1, 1))
def test_rref_and_nullspace_match_gauss_jordan(matrix, extra):
    """Same reduced rows, pivot columns and nullspace vectors, by value and
    as printed, also when ncols is narrower or wider than the rows; every
    kernel raises ValueError when an entry lies past ncols.  The input rows
    are left unchanged."""
    rows = rows_from_dense(matrix)
    ncols = max(0, len(matrix[0]) + extra)
    copies = [dict(r) for r in rows]
    if any(c >= ncols for row in rows for c in row):
        for kernel in (rref, pivot_columns, nullspace):
            with pytest.raises(ValueError):
                kernel(rows, ncols)
        assert rows == copies
        return
    want_rows, want_pivots = reference_rref.rref(rows, ncols)
    got_rows, got_pivots = rref(rows, ncols)
    assert got_pivots == want_pivots == pivot_columns(rows, ncols)
    assert got_rows == want_rows
    assert printed_rows(got_rows) == printed_rows(want_rows)
    for vec in nullspace(rows, ncols):
        assert type(vec) is dict and 0 not in vec.values()
        assert all(0 <= c < ncols for c in vec)
    want = reference_rref.nullspace(rows, ncols)
    got = dense_nullspace(rows, ncols)
    assert got == want
    assert printed_vectors(got) == printed_vectors(want)
    assert rows == copies


@SETTINGS
@given(dense())
def test_nullspace_matches_sympy(matrix):
    """sympy's basis vectors, each scaled to one at its first nonzero entry."""
    sympy = pytest.importorskip("sympy")
    want = []
    for vec in sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                             for row in matrix]).nullspace():
        first = next(x for x in vec if x != 0)
        want.append([x / first for x in vec])
    got = dense_nullspace(rows_from_dense(matrix), len(matrix[0]))
    assert [[sympy.Rational(v.numerator, v.denominator) for v in vec] for vec in got] == want


@pytest.mark.parametrize("name,degree", [("gl3", 4), ("so4", 4)])
def test_solver_blocks_match_gauss_jordan(name, degree):
    """Every degree of a generated table's system, presolved, has the
    reference's nullspace: larger and sparser matrices than the strategy's."""
    problem = lie_problem(name)
    btable = problem.brackets
    basis = enumerate_basis(btable.r, AnsatzSpec(degree), problem.invertible)
    columns = [basis[c] for c in graded_columns(btable, basis)]
    rows, forced = presolve_forced_zero(assemble_system(btable, columns))
    degrees = [sum(elem.exps) for elem in columns]
    blocks = {}
    for c, degree in enumerate(degrees):
        if c not in forced:
            blocks.setdefault(degree, []).append(c)
    for degree, cols in blocks.items():
        local = {c: n for n, c in enumerate(cols)}
        block = [{local[c]: v for c, v in row.items()} for row in rows
                 if degrees[min(row)] == degree]
        got = dense_nullspace(block, len(cols))
        assert got == reference_rref.nullspace(block, len(cols))
        assert rref(block, len(cols)) == reference_rref.rref(block, len(cols))
