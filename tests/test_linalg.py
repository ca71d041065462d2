"""Exact sparse linear algebra over the rationals and over rational functions."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from plq.expr import Poly, RatFunc, VarTable
from plq.linalg import (collect_rows, nullspace, pfaffian, pivot_columns,
                        presolve_forced_zero, rank_of, rref)
from dense_rows import dense_nullspace, rows_from_dense


def det(matrix, zero, one):
    """Reference determinant of a dense square matrix by elimination."""
    n = len(matrix)
    a = [list(r) for r in matrix]
    sign_flip = False
    acc = one
    for col in range(n):
        hit = next((k for k in range(col, n) if a[k][col] != 0), None)
        if hit is None:
            return zero
        if hit != col:
            a[col], a[hit] = a[hit], a[col]
            sign_flip = not sign_flip
        pv = a[col][col]
        acc = acc * pv
        for k in range(col + 1, n):
            if a[k][col] != 0:
                f = a[k][col] / pv
                a[k] = [x - f * y for x, y in zip(a[k], a[col])]
    return -acc if sign_flip else acc


def dense_rank(matrix):
    """Independent rank oracle: dense forward elimination over Fraction."""
    a = [list(r) for r in matrix]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    rank = 0
    for col in range(ncols):
        hit = next((k for k in range(rank, nrows) if a[k][col] != 0), None)
        if hit is None:
            continue
        a[rank], a[hit] = a[hit], a[rank]
        pv = a[rank][col]
        for k in range(nrows):
            if k != rank and a[k][col] != 0:
                f = a[k][col] / pv
                a[k] = [x - f * y for x, y in zip(a[k], a[rank])]
        rank += 1
    return rank


def random_matrix(rng, nrows, ncols, density=0.7):
    return [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
             if rng.random() < density else Fraction(0)
             for _ in range(ncols)] for _ in range(nrows)]


def apply_matrix(matrix, vec):
    return [sum(r[c] * vec[c] for c in range(len(vec))) for r in matrix]


def test_rref_worked_example():
    rows = rows_from_dense([[Fraction(2), Fraction(4)],
                            [Fraction(1), Fraction(2)],
                            [Fraction(0), Fraction(3)]])
    placed, pivots = rref(rows, 2)
    assert pivots == [0, 1]
    assert placed[0] == {0: 1}
    assert placed[1] == {1: 1}
    assert rank_of(rows, 2) == 2


def test_nullspace_worked_example():
    rows = rows_from_dense([[Fraction(1), Fraction(1), Fraction(0)],
                            [Fraction(0), Fraction(0), Fraction(1)]])
    basis = dense_nullspace(rows, 3)
    assert basis == [[Fraction(1), Fraction(-1), Fraction(0)]]


@pytest.mark.parametrize("entry", ["int", "ratfunc"])
def test_entries_outside_the_columns_are_rejected(entry):
    """Past ncols a reduced row would depend on which row pivots: the
    integer kernel gave [{3: 1}] here and the field loop {3: 1, 5: 1}.
    Both kernels now refuse such rows, and negative columns too."""
    one = 1 if entry == "int" else RatFunc.one(VarTable.make(["x"], 0, []))
    for rows in ([{3: one, 5: one}, {3: one}], [{-1: one}]):
        for kernel in (rref, pivot_columns, rank_of, nullspace):
            with pytest.raises(ValueError, match="outside columns"):
                kernel(rows, 5)
    assert rank_of([{3: one, 4: one}, {3: one}], 5) == 2


def test_nullspace_random_rectangular():
    """Nullspace vectors satisfy M v = 0 exactly and count the corank."""
    rng = random.Random(101)
    for _ in range(25):
        matrix = random_matrix(rng, 5, 8)
        rows = rows_from_dense(matrix)
        basis = dense_nullspace(rows, 8)
        assert len(basis) == 8 - dense_rank(matrix)
        for vec in basis:
            assert apply_matrix(matrix, vec) == [Fraction(0)] * 5
            lead = next(v for v in vec if v != 0)
            assert lead == 1


def test_nullspace_vectors_are_independent():
    rng = random.Random(103)
    for _ in range(10):
        matrix = random_matrix(rng, 4, 7, density=0.5)
        basis = dense_nullspace(rows_from_dense(matrix), 7)
        if basis:
            assert dense_rank(basis) == len(basis)


# Rows listed against the order in which they become singletons: column 0
# forces 1, which forces 2, which forces 5; the repeated last row stays.
SINGLETON_CHAIN = [[Fraction(x) for x in row] for row in (
    (0, 0, 1, 0, 0, 1),
    (0, 2, -1, 0, 0, 0),
    (3, 1, 0, 0, 0, 0),
    (4, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 1, 1),
    (0, 0, 0, 1, 1, 1))]


def presolve_inputs():
    """Seeded sparse matrices, the singleton chain, and seeded repeated rows."""
    rng = random.Random(107)
    for _ in range(20):
        yield random_matrix(rng, 6, 6, density=0.3)
    yield SINGLETON_CHAIN
    for _ in range(5):
        half = random_matrix(rng, 3, 6, density=0.4)
        yield half + half[::-1]


def test_presolve_preserves_nullspace():
    """Forcing singleton columns to zero leaves the solution set unchanged."""
    for matrix in presolve_inputs():
        rows = rows_from_dense(matrix)
        plain = dense_nullspace(rows, 6)
        reduced, forced = presolve_forced_zero(rows)
        fast = dense_nullspace(reduced + [{c: 1} for c in forced], 6)
        assert len(fast) == len(plain)
        for vec in fast:
            assert apply_matrix(matrix, vec) == [Fraction(0)] * 6
        stacked = plain + fast
        if stacked:
            assert dense_rank(stacked) == len(plain)
    assert presolve_forced_zero(rows_from_dense(SINGLETON_CHAIN))[1] == {0, 1, 2, 5}


def test_det_worked_examples():
    z, o = Fraction(0), Fraction(1)
    m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert det(m, z, o) == Fraction(-2)
    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert det(singular, z, o) == 0


def test_det_matches_permutation_expansion():
    rng = random.Random(109)
    z, o = Fraction(0), Fraction(1)
    for _ in range(15):
        m = random_matrix(rng, 3, 3)
        expansion = Fraction(0)
        for perm in permutations(range(3)):
            sign = 1
            for i in range(3):
                for j in range(i + 1, 3):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = Fraction(1)
            for i in range(3):
                term *= m[i][perm[i]]
            expansion += sign * term
        assert det(m, z, o) == expansion


def test_pfaffian_small_formulas():
    z, o = Fraction(0), Fraction(1)
    two = [[z, Fraction(5)], [Fraction(-5), z]]
    assert pfaffian(two, z, o) == Fraction(5)
    a12, a13, a14 = Fraction(2), Fraction(3), Fraction(5)
    a23, a24, a34 = Fraction(7), Fraction(11), Fraction(13)
    four = [[z, a12, a13, a14],
            [-a12, z, a23, a24],
            [-a13, -a23, z, a34],
            [-a14, -a24, -a34, z]]
    assert pfaffian(four, z, o) == a12 * a34 - a13 * a24 + a14 * a23


def test_pfaffian_squares_to_determinant():
    rng = random.Random(113)
    z, o = Fraction(0), Fraction(1)
    for n in (2, 4, 6):
        for _ in range(8):
            m = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    v = Fraction(rng.randint(-4, 4))
                    m[i][j] = v
                    m[j][i] = -v
            assert pfaffian(m, z, o) ** 2 == det(m, z, o)


def test_pfaffian_rejects_odd_size():
    z, o = Fraction(0), Fraction(1)
    with pytest.raises(ValueError):
        pfaffian([[z]], z, o)


def test_pfaffian_symbolic_entries():
    """Polynomial entries work through the same expansion."""
    table = VarTable.make(["u1", "u2"], 0, [])
    z = RatFunc.zero(table)
    o = RatFunc.one(table)
    x = RatFunc.var(table, "u1")
    y = RatFunc.var(table, "u2")
    m = [[z, x, o, z],
         [-x, z, z, y],
         [-o, z, z, x],
         [z, -y, -x, z]]
    assert pfaffian(m, z, o) == x * x - y


def test_collect_rows_splits_by_generator_monomials():
    """Columns become one sparse row per generator monomial, denominators cleared."""
    table = VarTable.make(["u1", "u2"], 0, ["a"])
    a = RatFunc.var(table, "a")
    u1 = RatFunc.var(table, "u1")
    u2 = RatFunc.var(table, "u2")
    columns = [a * u1, u1 - 2 * u2, a / u1]
    rows = collect_rows(columns)
    assert len(rows) == 3
    assert rows[0] == {0: a, 1: Fraction(1)}
    assert rows[1] == {1: Fraction(-2)}
    assert rows[2] == {2: a}


def test_collect_rows_zero_columns():
    table = VarTable.make(["u1"], 0, [])
    rows = collect_rows([RatFunc.zero(table), RatFunc.var(table, "u1")])
    assert rows == [{1: Fraction(1)}]


def test_rows_from_dense_drops_zeros():
    rows = rows_from_dense([[Fraction(0), Fraction(2)], [Fraction(0), Fraction(0)]])
    assert rows == [{1: Fraction(2)}, {}]
