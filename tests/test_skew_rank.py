"""`linalg.skew_rank`: the rank of a skew matrix by fraction-free 2x2 pivots.

Hypothesis draws skew matrices B^T J B, J the standard symplectic form, of
sizes 0 to 12 with int or Fraction entries, zero rows and columns, and odd
sizes; `rref` over Fraction (`tests/reference_rref.py`) is the oracle, and
a B of full row rank 2m fixes the rank at 2m.  Ranking a dense 28 x 28
matrix stays within a memory bound that entry growth would break.  Every
sample point that `sample_rank` ranks on the corpus tables, bound sklyanin,
gl(3), so(4) and so(5) ranks the same by `pivot_columns`, seeds 0 to 7.
"""

import random
import tracemalloc
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from plq import structure  # noqa: E402
from plq.corpus import corpus_names, corpus_problem  # noqa: E402
from plq.linalg import pivot_columns, skew_rank  # noqa: E402
from reference_rref import rref  # noqa: E402
from dense_rows import rows_from_dense  # noqa: E402
from test_solver import bound_quadratic, lie_problem  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

ENTRIES = st.one_of(st.just(0), st.integers(-4, 4), st.integers(-10 ** 12, 10 ** 12),
                    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7)))


@st.composite
def congruent(draw):
    """(A, B, m): A = B^T J B for a 2m x n matrix B, some of whose columns,
    and so rows and columns of A, are zero."""
    n = draw(st.integers(0, 12))
    m = draw(st.integers(0, n // 2))
    zero = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n // 2))
    b = [[0 if c in zero else draw(ENTRIES) for c in range(n)] for _ in range(2 * m)]
    jb = [[-x for x in b[2 * p + 1]] if q % 2 == 0 else b[2 * p]
          for p in range(m) for q in (0, 1)]
    a = [[sum(b[t][k] * jb[t][l] for t in range(2 * m)) for l in range(n)]
         for k in range(n)]
    return a, b, m


@SETTINGS
@given(congruent())
def test_skew_rank_matches_fraction_rref(drawn):
    """The rank of `rref`; 2m when B has full row rank; the same from the
    entries above the diagonal alone, and the rows left as they were."""
    a, b, m = drawn
    n = len(a)
    assert all(a[k][l] == -a[l][k] for k in range(n) for l in range(n))
    rows = rows_from_dense(a)
    copies = [dict(r) for r in rows]
    want = len(rref(rows, n)[1])
    assert skew_rank(rows, n) == want
    if len(rref(rows_from_dense(b), n)[1]) == 2 * m:
        assert want == 2 * m
    upper = [{l: v for l, v in row.items() if l > k} for k, row in enumerate(rows)]
    assert skew_rank(upper, n) == want
    assert rows == copies


@pytest.mark.parametrize("matrix,rank", [
    ([], 0), ([[0]], 0), ([[0, 0], [0, 0]], 0),
    ([[0, Fraction(1, 3)], [Fraction(-1, 3), 0]], 2),
    # a_01 pivots and leaves a 1 x 1 block: rank 2 of 3
    ([[0, 2, 3], [-2, 0, 5], [-3, -5, 0]], 2),
    # the first row is zero, so a_12 pivots
    ([[0, 0, 0, 0], [0, 0, 1, 1], [0, -1, 0, 1], [0, -1, -1, 0]], 2),
    # so(4)-like: two blocks joined by a_03 and a_12
    ([[0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, 1], [-1, 0, -1, 0]], 4),
    ([[0, 1, 1, 0], [-1, 0, 0, 1], [-1, 0, 0, 1], [0, -1, -1, 0]], 2),
    # a_03 pivots, and rows 1 and 2 hold column 3
    ([[0, 0, 0, 1], [0, 0, 1, 1], [0, -1, 0, 1], [-1, -1, -1, 0]], 4),
])
def test_skew_rank_of_small_matrices(matrix, rank):
    assert skew_rank(rows_from_dense(matrix), len(matrix)) == rank


def test_entries_stay_sub_pfaffians():
    """Dividing by the previous pivot keeps each entry a sub-Pfaffian, so a
    dense 28 x 28 matrix of 30-bit entries ranks in well under 128 KiB;
    without the division the entries double in size at each of its 14
    steps (about 380 KiB at the peak)."""
    rng = random.Random(0)
    n = 28
    rows = [{} for _ in range(n)]
    for k in range(n):
        for l in range(k + 1, n):
            rows[k][l] = rng.randint(-2 ** 30, 2 ** 30) or 1
            rows[l][k] = -rows[k][l]
    tracemalloc.start()
    try:
        rank = skew_rank(rows, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rank == len(pivot_columns(rows, n)) == n
    assert peak < 128 * 1024


@pytest.mark.parametrize("n", [41, 200])
def test_sparse_skew_matrices_rank_as_rref(n):
    """A band, entries at (k, k+1) and (k, k+2), and a sum of 2x2 blocks,
    where each step meets only a few rows."""
    band = [[0] * n for _ in range(n)]
    for k in range(n):
        for l, v in ((k + 1, k % 7 - 3 or 5), (k + 2, 2)):
            if l < n:
                band[k][l], band[l][k] = v, -v
    blocks = [[0] * n for _ in range(n)]
    for k in range(0, n - 1, 2):
        blocks[k][k + 1], blocks[k + 1][k] = Fraction(k + 1, 3), Fraction(-k - 1, 3)
    for matrix in (band, blocks):
        rows = rows_from_dense(matrix)
        assert 5 * sum(map(len, rows)) < n * n
        assert skew_rank(rows, n) == len(rref(rows, n)[1])
    assert skew_rank(rows_from_dense(blocks), n) == n - n % 2


def tables():
    out = {name: corpus_problem(name).brackets for name in corpus_names()}
    out["sklyanin-bound"] = bound_quadratic()[1]
    for name in ("gl3", "so4", "so5"):
        out[name] = lie_problem(name).brackets
    return out


TABLES = tables()


@pytest.mark.parametrize("name", sorted(TABLES))
def test_every_sample_point_ranks_as_pivot_columns(name, monkeypatch):
    """Each of the 16 points of `sample_rank`, ranked through the module
    name `structure.rank_of`, gets the rank of `pivot_columns`."""
    bt = TABLES[name]
    calls = []

    def counted(rows, ncols):
        calls.append(rows)
        return skew_rank(rows, ncols)
    monkeypatch.setattr(structure, "rank_of", counted)
    for seed in range(8):
        calls.clear()
        sample = structure.sample_rank(bt, seed)
        assert len(calls) == len(sample.ranked) == structure.SAMPLE_BLOCK
        for k, _, rows in sample.ranked:
            assert k == len(pivot_columns(rows, bt.r))
