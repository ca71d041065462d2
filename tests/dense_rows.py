"""Sparse rows and bracket columns from a dense matrix, a bracket table's
dense matrix, and dense `nullspace` vectors, for tests that write matrices
densely."""

from plq.expr import RatFunc
from plq.linalg import nullspace


def rows_from_dense(matrix):
    """Sparse rows from a dense matrix, skipping zero entries."""
    return [{c: v for c, v in enumerate(r) if v != 0} for r in matrix]


def columns_from_dense(matrix, table):
    """The columns {i: matrix[i][j]} of a dense matrix over its nonzero
    entries, i ascending, as `BracketTable.columns` holds them; a number
    becomes a constant RatFunc over `table`."""
    return [{i: v if isinstance(v, RatFunc) else RatFunc.const(table, v)
             for i, row in enumerate(matrix) if (v := row[j]) != 0} for j in range(len(matrix))]


def dense_matrix(btable):
    """The dense r x r skew matrix of a bracket table, from `bracket(i, j)`."""
    return [[btable.bracket(i, j) for j in range(btable.r)] for i in range(btable.r)]


def dense_nullspace(rows, ncols):
    """`nullspace(rows, ncols)`, each vector zero-padded to a list."""
    return [[vec.get(c, 0) for c in range(ncols)] for vec in nullspace(rows, ncols)]
