"""Sparse rows from a dense matrix, for tests that write matrices densely."""


def rows_from_dense(matrix):
    """Sparse rows from a dense matrix, skipping zero entries."""
    return [{c: v for c, v in enumerate(r) if v != 0} for r in matrix]
