"""Exact linear algebra over a field of Fraction or RatFunc entries.

Rows are sparse mappings from column index to a nonzero field element.  The
pivot rule is deterministic everywhere: columns are scanned left to right and
the first remaining row with a nonzero entry in the current column pivots.
Entries only ever pass through ring operations and exact division, so results
are exact for any element type supporting +, -, *, / and comparison with 0.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from .expr import (PARAMETER, Poly, RatFunc, VarTable, clear_denominators,
                   split_terms)

E = TypeVar("E")

Row = dict


def subtract_scaled(row: Row, factor, pivot_row: Row) -> None:
    """In place: row -= factor * pivot_row, dropping entries that cancel."""
    for c, v in pivot_row.items():
        cur = row.get(c)
        nv = -(factor * v) if cur is None else cur - factor * v
        if nv == 0:
            row.pop(c, None)
        else:
            row[c] = nv


def rref(rows: Sequence[Row], ncols: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form; returns pivot rows (pivot scaled to one) and pivot columns."""
    work = [dict(r) for r in rows if r]
    placed: list[Row] = []
    pivots: list[int] = []
    for col in range(ncols):
        hit = None
        for k, row in enumerate(work):
            if col in row:
                hit = k
                break
        if hit is None:
            continue
        piv = work.pop(hit)
        pv = piv[col]
        if pv != 1:
            piv = {c: v / pv for c, v in piv.items()}
        for row in work:
            if col in row:
                subtract_scaled(row, row[col], piv)
        for row in placed:
            if col in row:
                subtract_scaled(row, row[col], piv)
        work = [r for r in work if r]
        placed.append(piv)
        pivots.append(col)
    return placed, pivots


def rank_of(rows: Sequence[Row], ncols: int) -> int:
    """Exact rank of a sparse matrix."""
    return len(rref(rows, ncols)[1])


def nullspace(rows: Sequence[Row], ncols: int, one,
              forced_zero: frozenset[int] | set[int] = frozenset()) -> list[list]:
    """Basis of the right nullspace, one vector per free column.

    Each vector is scaled so that its first nonzero coordinate equals one.
    Columns listed in forced_zero are constrained to zero rather than free,
    which lets presolved systems keep their original column count.
    """
    placed, pivots = rref(rows, ncols)
    pivot_set = set(pivots) | set(forced_zero)
    by_pivot = dict(zip(pivots, placed))
    zero = one - one
    basis: list[list] = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        sparse = {p: -by_pivot[p][f] for p in pivots if f in by_pivot[p]}
        sparse[f] = one
        first = sparse[min(sparse)]
        if first != 1:
            sparse = {c: v / first for c, v in sparse.items()}
        vec = [zero] * ncols
        for c, v in sparse.items():
            vec[c] = v
        basis.append(vec)
    return basis


def presolve_forced_zero(rows: Sequence[Row]) -> tuple[list[Row], set[int]]:
    """Iteratively apply singleton rows, which force their column to zero.

    Each pass forces the columns of the current singleton rows and removes
    just those columns from every row.  Returns the rows left with at least
    two entries and the set of forced columns.  The nullspace is unchanged up
    to re-inserting zeros at the forced columns.
    """
    work = [dict(r) for r in rows if r]
    forced: set[int] = set()
    while True:
        new = {c for row in work if len(row) == 1 for c in row}
        if not new:
            return work, forced
        forced |= new
        for row in work:
            for c in new.intersection(row):
                del row[c]
        work = [row for row in work if row]


def pfaffian(matrix: Sequence[Sequence[E]], zero: E, one: E) -> E:
    """Pfaffian of a skew matrix of even size, by first-row expansion with memoization."""
    n = len(matrix)
    if n % 2:
        raise ValueError("pfaffian requires an even-sized matrix")
    memo: dict[tuple[int, ...], E] = {(): one}

    def pf(active: tuple[int, ...]) -> E:
        if active in memo:
            return memo[active]
        i0 = active[0]
        rest = active[1:]
        total = zero
        for pos, j in enumerate(rest):
            a = matrix[i0][j]
            if a != 0:
                sub = tuple(x for x in rest if x != j)
                term = a * pf(sub)
                total = total + term if pos % 2 == 0 else total - term
        memo[active] = total
        return total

    return pf(tuple(range(n)))


def rows_from_dense(matrix: Sequence[Sequence[E]]) -> list[Row]:
    """Sparse rows from a dense matrix, skipping zero entries."""
    out = []
    for r in matrix:
        row = {c: v for c, v in enumerate(r) if v != 0}
        out.append(row)
    return out


def collect_rows(columns: Sequence[RatFunc]) -> list[Row]:
    """Linear system rows asking a combination of expression columns to vanish.

    Denominators are cleared with `clear_denominators`; each cleared column is
    split by its non-parameter monomials with `split_terms`, and
    `grouped_rows` emits one row per monomial.
    """
    if not columns:
        return []
    table = columns[0].table
    keys = [i for i, k in enumerate(table.kinds) if k != PARAMETER]
    grouped: dict[tuple[int, ...], dict[int, dict]] = {}
    for cidx, cleared in enumerate(clear_denominators(table, columns)[1]):
        for key, cell in split_terms(cleared, keys).items():
            grouped.setdefault(key, {})[cidx] = cell
    return grouped_rows(table, grouped)


def grouped_rows(table: VarTable,
                 grouped: dict[tuple[int, ...], dict[int, dict]]) -> list[Row]:
    """Rows from {monomial key -> {column -> {parameter exponent -> coefficient}}}.

    Rows come out in descending graded lexicographic order of the key; an
    entry is a Fraction when constant, else a polynomial rational function.
    Zero entries and empty rows are dropped.
    """
    out: list[Row] = []
    for key in sorted(grouped, key=lambda e: (sum(e), e), reverse=True):
        row = {}
        for cidx, cell in grouped[key].items():
            p = Poly(table, {e: c for e, c in cell.items() if c})
            if p.is_zero():
                continue
            row[cidx] = p.constant_value() if p.is_constant() else RatFunc.from_poly(p)
        if row:
            out.append(row)
    return out
