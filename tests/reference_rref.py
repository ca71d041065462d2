"""Gauss–Jordan elimination over the entries' field, for tests that check the
linear algebra of `plq.linalg` against an independent reference.

Int entries are taken as Fractions, so every quotient stays exact; the pivot
rule is the leftmost one: columns left to right, the first remaining row with
a nonzero entry in the column pivots.
"""

from fractions import Fraction


def rref(rows, ncols):
    """Reduced row echelon form: pivot rows (pivot scaled to one) and pivot
    columns."""
    work = [{c: Fraction(v) if type(v) is int else v for c, v in row.items()}
            for row in rows if row]
    placed, pivots = [], []
    for col in range(ncols):
        hit = next((k for k, row in enumerate(work) if col in row), None)
        if hit is None:
            continue
        piv = work.pop(hit)
        pv = piv[col]
        piv = {c: v / pv for c, v in piv.items()}
        for row in work + placed:
            factor = row.get(col)
            if factor is None:
                continue
            for c, v in piv.items():
                nv = row.get(c, 0) - factor * v
                if nv == 0:
                    row.pop(c, None)
                else:
                    row[c] = nv
        work = [row for row in work if row]
        placed.append(piv)
        pivots.append(col)
    return placed, pivots


def nullspace(rows, ncols):
    """Right nullspace, one vector per free column, each scaled so that its
    first nonzero coordinate is one."""
    placed, pivots = rref(rows, ncols)
    by_pivot = dict(zip(pivots, placed))
    basis = []
    for f in range(ncols):
        if f in by_pivot:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for p in pivots:
            vec[p] = -by_pivot[p].get(f, 0)
        first = next(v for v in vec if v != 0)
        basis.append([v / first for v in vec])
    return basis
