"""Sparse rows from a dense matrix, and dense `nullspace` vectors, for tests
that write matrices densely."""

from plq.linalg import nullspace


def rows_from_dense(matrix):
    """Sparse rows from a dense matrix, skipping zero entries."""
    return [{c: v for c, v in enumerate(r) if v != 0} for r in matrix]


def dense_nullspace(rows, ncols):
    """`nullspace(rows, ncols)`, each vector zero-padded to a list."""
    return [[vec.get(c, 0) for c in range(ncols)] for vec in nullspace(rows, ncols)]
