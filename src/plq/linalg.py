"""Exact linear algebra over a field of rational or RatFunc entries.

Rows are sparse mappings from column index to a nonzero field element.  Rows
of ints and Fractions go through the integer echelon `_integer_echelon`:
fraction-free elimination (cf. Bareiss 1968), the sparsest row holding a
column pivoting (Markowitz 1957); `rref` divides by each pivot at the end, so
integral results are ints; `skew_rank` ranks a skew matrix by 2x2 pivots.
Other rows (RatFunc entries) are eliminated over their field, the first
remaining row holding the column pivoting.  The RREF is unique and its pivot
columns are the column rank profile, so neither depends on the pivot rule.
`nullspace` returns one sparse vector per free column, read off the RREF like
its rows.  Entries only meet ring operations and `expr.exact_div`.
`pfaffian` expands a principal block of a skew matrix of RatFuncs held as
sparse columns, the layout of `BracketTable.columns`, summing polynomial
products with `expr`'s packed product kernel.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from .expr import (PARAMETER, ExprError, Poly, RatFunc, VarTable, _multiply_into,
                   _reduce_algebraic, clear_denominators, exact_div, normal_coeff, split_terms)

PFAFFIAN_TERMS = 50_000  # the most numerator terms of a RatFunc sub-Pfaffian

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


def _within(rows: Sequence[Row], ncols: int):
    """The nonempty rows; ValueError for an entry outside columns [0, ncols)."""
    for row in rows:
        if row:
            if min(row) < 0 or max(row) >= ncols:
                raise ValueError(f"row entry outside columns [0, {ncols})")
            yield row


def rref(rows: Sequence[Row], ncols: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form; returns pivot rows (pivot scaled to one) and
    pivot columns.  ValueError for an entry outside columns [0, ncols)."""
    if _numeric(rows):
        placed, pivots = _integer_echelon(rows, ncols, reduce=True)
        return [{c: exact_div(v, row[p]) for c, v in row.items()}
                for row, p in zip(placed, pivots)], pivots
    work = [dict(r) for r in _within(rows, ncols)]
    placed: list[Row] = []
    pivots: list[int] = []
    for col in range(ncols):
        hit = next((k for k, row in enumerate(work) if col in row), None)
        if hit is None:
            continue
        piv = work.pop(hit)
        pv = piv[col]
        if pv != 1:
            piv = {c: exact_div(v, pv) for c, v in piv.items()}
        for row in work + placed:
            if col in row:
                subtract_scaled(row, row[col], piv)
        work = [r for r in work if r]
        placed.append(piv)
        pivots.append(col)
    return placed, pivots


def _numeric(rows: Sequence[Row]) -> bool:
    return all(type(v) in (int, Fraction) for row in rows for v in row.values())


def _primitive(row: Row) -> Row:
    """The row divided by the gcd of its int entries."""
    g = math.gcd(*row.values())
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _eliminate(row: Row, col: int, piv: Row) -> Row:
    """The row with col eliminated: (pv * row - f * piv) / gcd(pv, f), made
    primitive, where pv and f are the pivot row's and the row's entries."""
    pv, f = piv[col], row[col]
    g = math.gcd(pv, f)
    new = {c: pv // g * v for c, v in row.items()}
    subtract_scaled(new, f // g, piv)
    return _primitive(new)


def _integer_echelon(rows: Sequence[Row], ncols: int,
                     reduce: bool) -> tuple[list[Row], list[int]]:
    """Primitive integer pivot rows and pivot columns of int and Fraction
    rows, by fraction-free elimination (cf. Bareiss 1968).

    Each row is scaled to coprime integers and waits in the bucket of its
    leading column.  Every waiting row lies at or right of the current
    column, so the rows that hold it are its bucket: the sparsest of them
    pivots (Markowitz 1957), and each other one is eliminated, made primitive
    and moved to the bucket of its new leading column.  With `reduce`, one
    back-substitution from the last pivot up then makes each pivot row a
    multiple of its `rref` row.  The pivot columns are the column rank
    profile and the RREF is unique, so neither depends on which row pivots.
    """
    buckets: dict[int, list[Row]] = {}
    for row in _within(rows, ncols):
        scale = math.lcm(*(v.denominator for v in row.values()))
        new = _primitive({c: v.numerator * (scale // v.denominator) for c, v in row.items()})
        buckets.setdefault(min(new), []).append(new)
    placed: list[Row] = []
    pivots: list[int] = []
    for col in range(ncols):
        bucket = buckets.pop(col, None)
        if bucket is None:
            continue
        piv = min(bucket, key=len)
        for row in bucket:
            if row is not piv:
                new = _eliminate(row, col, piv)
                if new:  # a dense row mostly leads at the next column
                    lead = col + 1 if col + 1 in new else min(new)
                    buckets.setdefault(lead, []).append(new)
        placed.append(piv)
        pivots.append(col)
    if reduce:
        # Row k, once reduced, holds no pivot column but its own, so
        # eliminating it adds none: the rows above that hold pivot k are
        # those that held it after the forward pass.
        holders: dict[int, list[int]] = {p: [] for p in pivots}
        for i, row in enumerate(placed):
            for c in row:
                if c in holders and c != pivots[i]:
                    holders[c].append(i)
        for k in range(len(placed) - 1, -1, -1):
            col, piv = pivots[k], placed[k]
            for i in holders[col]:
                placed[i] = _eliminate(placed[i], col, piv)
    return placed, pivots


def pivot_columns(rows: Sequence[Row], ncols: int) -> list[int]:
    """Pivot columns of `rref(rows, ncols)`, in integers when every entry is
    an int or a Fraction."""
    if _numeric(rows):
        return _integer_echelon(rows, ncols, reduce=False)[1]
    return rref(rows, ncols)[1]


def rank_of(rows: Sequence[Row], ncols: int) -> int:
    """Exact rank of a sparse matrix."""
    return len(pivot_columns(rows, ncols))


def skew_rank(rows: Sequence[Row], ncols: int) -> int:
    """Exact rank of the skew matrix of ints and Fractions whose row k is
    rows[k], read above the diagonal only, by fraction-free 2x2 pivots (Bunch
    1982; cf. Bareiss 1968).  Each pivot a = a_ij, the first nonzero left,
    adds 2 to the rank and sets a_kl to (a*a_kl + a_ki*a_jl - a_kj*a_il) / c,
    c the last pivot: an integer, a sub-Pfaffian.  When a_ki = a_kj = 0 or
    a_li = a_lj = 0 that is a_kl*a/c, so entries are kept as (x, p), read as
    x*c/p, and those are left as they are."""
    scale = math.lcm(*(v.denominator for row in rows for v in row.values()))
    up = {k: {l: (v.numerator * (scale // v.denominator), 1) for l, v in row.items() if l > k}
          for k, row in enumerate(rows)}
    rank, c = 0, 1
    for i in filter(up.get, range(len(rows))):  # every row above i is zero
        row_i = up.pop(i)
        x, p = row_i.pop(j := min(row_i))
        a = x * c // p
        u = {k: -x * c // p for k, (x, p) in row_i.items()}  # u_k = a_ki, v_k = a_kj
        v = {k: -x * c // p for k, (x, p) in up.pop(j).items()}
        for k in range(i + 1, j):
            if e := up.get(k, {}).pop(j, None):
                v[k] = e[0] * c // e[1]
        touched = [(k, u.get(k, 0), v.get(k, 0)) for k in sorted(u.keys() | v.keys())]
        for n, (k, uk, vk) in enumerate(touched):
            row = up[k]
            for l, ul, vl in touched[n + 1:]:
                x, p = row.get(l, (0, 1))
                if s := (a * (x if p == c else x * c // p) + vk * ul - uk * vl) // c:
                    row[l] = (s, a)
                elif x:
                    del row[l]
        rank, c = rank + 2, a
    return rank


def nullspace(rows: Sequence[Row], ncols: int) -> list[Row]:
    """Basis of the right nullspace, one sparse vector per free column f.

    The vector of f holds minus column f of each `rref` row at that row's
    pivot, then 1 at f, keys ascending, scaled so that its first nonzero
    coordinate equals one.
    """
    placed, pivots = rref(rows, ncols)
    basis: list[Row] = []
    for f in sorted(set(range(ncols)).difference(pivots)):
        vec = {p: -row[f] for p, row in zip(pivots, placed) if f in row}
        vec[f] = 1
        first = next(iter(vec.values()))
        basis.append(vec if first == 1 else {c: exact_div(v, first) for c, v in vec.items()})
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


def pfaffian(columns: Sequence[Mapping[int, RatFunc]], keys: Sequence[int],
             table: VarTable) -> RatFunc:
    """Pfaffian of the principal block at `keys`, of even size, of the skew
    matrix whose entry (i, j) is columns[j][i], or zero where that is absent.

    First-row expansion with memoization over tuples of keys, multiplying
    only the nonzero entries of each first row.  Each frame on the stack
    holds a sub-Pfaffian's key, next position and sum: one packed dict while
    its products are of polynomials (Johnson 1974), an odd position taking
    the entry's negated terms, else `RatFunc`s added in order, as rational
    sums print.  ExprError once a sub-Pfaffian passes PFAFFIAN_TERMS
    numerator terms."""
    n = len(keys)
    if n % 2:
        raise ValueError("pfaffian requires an even-sized matrix")
    memo: dict[tuple[int, ...], RatFunc] = {(): RatFunc.one(table)}
    stack = [[tuple(keys), 0, {}]] if n else []
    while stack:
        active, start, total = frame = stack[-1]
        i, rest = active[0], active[1:]
        row = columns[i]
        for pos in range(start, len(rest)):
            if (j := rest[pos]) in row:
                a = columns[j][i]
                sub = rest[:pos] + rest[pos + 1:]
                if (p := memo.get(sub)) is None:
                    frame[1:] = pos, total
                    stack.append([sub, 0, {}])
                    break
                if type(total) is dict and a.den.is_one() and p.den.is_one():
                    terms = a.num.packed
                    if pos % 2:
                        terms = {e: -c for e, c in terms.items()}
                    _multiply_into(total, table, terms, p.num.packed)
                else:
                    if type(total) is dict:
                        total = RatFunc.from_poly(Poly(table, _reduce_algebraic(table, total)))
                    total = total + a * p if pos % 2 == 0 else total - a * p
        else:
            if type(total) is dict:
                total = RatFunc.from_poly(Poly(table, _reduce_algebraic(table, total)))
            if len(total.num.packed) > PFAFFIAN_TERMS:
                raise ExprError(f"pfaffian of a {n} x {n} matrix: a sub-Pfaffian has "
                                f"more than {PFAFFIAN_TERMS} terms")
            memo[active] = total
            stack.pop()
    return memo[tuple(keys)]


def entry(v):
    """A row entry from a split cell or a RatFunc: a constant as its number,
    an int when integral and a Fraction otherwise, anything else as a
    RatFunc.  A constant RatFunc has denominator one, by its normal form."""
    if isinstance(v, RatFunc):
        return v.num.constant_value() if v.is_poly() and v.num.is_constant() else v
    if isinstance(v, Poly):
        return v.constant_value() if v.is_constant() else RatFunc.from_poly(v)
    return normal_coeff(v)


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
    grouped: dict[tuple[int, ...], dict[int, object]] = {}
    for cidx, cleared in enumerate(clear_denominators(table, columns)[1]):
        for key, cell in split_terms(cleared, keys).items():
            grouped.setdefault(key, {})[cidx] = cell
    return grouped_rows(grouped)


def grouped_rows(grouped: dict[tuple[int, ...], dict[int, object]]) -> list[Row]:
    """Rows from {monomial key -> {column -> cell}}, a cell being a number or
    a Poly in the parameters, as `split_terms` gives them or sums of those.

    Rows come out in descending graded lexicographic order of the key, each
    cell taken through `entry`.  Zero entries and empty rows are dropped.
    """
    out: list[Row] = []
    for key in sorted(grouped, key=lambda e: (sum(e), e), reverse=True):
        row = {c: v for c, cell in grouped[key].items() if (v := entry(cell)) != 0}
        if row:
            out.append(row)
    return out
