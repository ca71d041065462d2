"""Casimir invariants by graded ansatz and exact nullspace.

An invariant F of a bracket table satisfies sum_i (dF/du_i) f_ij = 0 for every
generator j.  The solver expands F over a graded monomial basis, optionally
extended by inverses and logarithms of invertible generators, assembles the
resulting linear system with entries in the parameter field, and reads off an
exact nullspace basis.  The table's gradings split that system: only columns
of inner weight zero are assembled, and each outer block is solved on its
own.  Vectors are echelonized so the simplest monomials lead, reduced modulo
products of already accepted solutions (powers and products of known
invariants carry no new information), and normalized so the canonically
leading coefficient is one and parameter denominators are cleared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import mul
from fractions import Fraction
from typing import Mapping, Sequence

from .expr import (ExprError, LogExpr, Poly, RatFunc, VarTable, diff,
                   generator_monomial, monomial_exponents, split_terms)
from .linalg import (grouped_rows, nullspace, presolve_forced_zero, rank_of,
                     rows_from_dense, rref, subtract_scaled)
from .structure import (DEFAULT_SEED, BracketTable, RankReport, _evaluations,
                        generic_rank)


ESCALATION_CEILING = 4  # the largest max_degree an escalating solve reaches


@dataclass(frozen=True)
class AnsatzSpec:
    """Search space bounds for the invariant ansatz."""
    max_degree: int = 2
    inverse_degree: int = 0
    allow_log: bool = False

    def __post_init__(self):
        if self.max_degree < 1:
            raise ExprError("ansatz max_degree must be at least 1")
        if self.inverse_degree < 0:
            raise ExprError("ansatz inverse_degree must be nonnegative")


@dataclass(frozen=True)
class Mono:
    """Basis monomial: one exponent per generator, negatives for inverses."""
    exps: tuple[int, ...]


@dataclass(frozen=True)
class LogElem:
    """Basis element log(u) for the generator at this position."""
    position: int


BasisElem = Mono | LogElem


def _pos_grade(e: tuple[int, ...]) -> int:
    return sum(x for x in e if x > 0)


def enumerate_basis(r: int, ansatz: AnsatzSpec,
                    invertible: Sequence[bool]) -> list[BasisElem]:
    """Ansatz basis in canonical order: monomials by descending positive grade
    then descending lexicographic exponents, then log elements."""
    exps = monomial_exponents(r, ansatz.max_degree, ansatz.inverse_degree,
                              invertible, include_constant=False)
    exps.sort(key=lambda e: (-_pos_grade(e), tuple(-x for x in e)))
    basis: list[BasisElem] = [Mono(e) for e in exps]
    if ansatz.allow_log:
        basis.extend(LogElem(k) for k in range(r) if invertible[k])
    return basis


def _delta(r: int, k: int) -> tuple[int, ...]:
    return tuple(1 if i == k else 0 for i in range(r))


def basis_expression(table: VarTable, elem: BasisElem) -> LogExpr:
    """The basis element as an expression over the table."""
    if isinstance(elem, Mono):
        return LogExpr(generator_monomial(table, elem.exps))
    name = table.generator_names[elem.position]
    return LogExpr.log(table, name)


def assemble_system(btable: BracketTable, basis: Sequence[BasisElem]) -> list[dict]:
    """Sparse rows of the invariant system over the ansatz columns.

    Row j of sum_i (dF/du_i) f_ij = 0 is cleared of denominators once, by
    the product of the distinct f_ij denominators, and each cleared f_ij is
    split once by generator exponent.  Column u^e then takes e_i times split
    f_ij shifted by e - delta_i, column log(u_k) split f_kj shifted by
    -delta_k.  Rows are keyed by the (possibly negative) generator exponent,
    in descending graded lexicographic order, with parameter-ring entries.
    """
    table = btable.table
    r = btable.r
    gens = table.generator_indices
    # Per column: (generator i, factor, shift) for each term it takes from f_ij.
    terms = []
    for elem in basis:
        if isinstance(elem, Mono):
            e = elem.exps
            terms.append([(i, x, tuple(y - (k == i) for k, y in enumerate(e)))
                          for i, x in enumerate(e) if x])
        else:
            k = elem.position
            terms.append([(k, 1, tuple(-x for x in _delta(r, k)))])
    rows: list[dict] = []
    for j in range(r):
        split = {i: split_terms(p, gens) for i, p in btable.cleared_rows[j][1].items()}
        grouped: dict[tuple[int, ...], dict[int, dict]] = {}
        for c, contributions in enumerate(terms):
            for i, scale, shift in contributions:
                for key, cell in split.get(i, {}).items():
                    at = grouped.setdefault(tuple(a + b for a, b in zip(key, shift)), {})
                    acc = at.setdefault(c, {})
                    for pk, v in cell.items():
                        v = v if scale == 1 else scale * v
                        acc[pk] = acc[pk] + v if pk in acc else v
        rows.extend(grouped_rows(table, grouped))
    return rows


def _dot(w: Sequence[int], e: Sequence[int]) -> int:
    return sum(map(mul, w, e))


def graded_columns(btable: BracketTable, basis: Sequence[BasisElem]
                   ) -> tuple[list[int], list[tuple[int, ...]]]:
    """The basis columns that can carry an invariant, with their block keys.

    For an inner weight w, {h, u^e} = (w.e) u^e and {h, log u_k} = w_k, a
    constant outside the basis; every invariant F has {h, F} = 0, so its
    coefficients vanish off inner weight 0.  Kept are log columns and the
    monomials of inner weight 0.  A column's key is its weight w.e under
    every outer grading w (zero for log columns): row j of column u^e has
    weight w.e + w_j + c plus the weight of the row's cleared denominator, so
    no assembled row spans two keys.
    """
    inner = btable.inner_gradings()
    outer = btable.outer_gradings()
    kept: list[int] = []
    keys: list[tuple[int, ...]] = []
    for c, elem in enumerate(basis):
        e = elem.exps if isinstance(elem, Mono) else (0,) * btable.r
        if not any(_dot(w, e) for w in inner):
            kept.append(c)
            keys.append(tuple(_dot(w, e) for w in outer))
    return kept, keys


def _block_nullspace(rows: Sequence[dict], kept: Sequence[int],
                     keys: Sequence[tuple[int, ...]], one) -> list[dict[int, object]]:
    """Nullspace of the system over the kept columns, block by block.

    Rows and columns are indexed by position in `kept`.  The singleton
    presolve runs once, since its waves never cross a block; a remaining row
    belongs to the block of its columns' key, and each block's nullspace is
    taken over its unforced columns alone.  Vectors come back sparse over
    full-basis column indices.
    """
    reduced, forced = presolve_forced_zero(rows)
    blocks: dict[tuple[int, ...], list[int]] = {}
    for c, key in enumerate(keys):
        if c not in forced:
            blocks.setdefault(key, []).append(c)
    block_rows: dict[tuple[int, ...], list[dict]] = {key: [] for key in blocks}
    for row in reduced:
        block_rows[keys[min(row)]].append(row)
    vectors = []
    for key, cols in blocks.items():
        local = {c: n for n, c in enumerate(cols)}
        for vec in nullspace([{local[c]: v for c, v in row.items()} for row in block_rows[key]],
                             len(cols), one):
            vectors.append({kept[cols[n]]: v for n, v in enumerate(vec) if v != 0})
    return vectors


def _as_ratfunc(table: VarTable, value) -> RatFunc:
    if isinstance(value, RatFunc):
        return value
    return RatFunc.const(table, value)


def map_to_coords(expr: LogExpr, table: VarTable,
                  index: Mapping[BasisElem, int]) -> dict[int, RatFunc] | None:
    """Coordinates of an expression over the ansatz basis, or None when any
    part of it falls outside the basis."""
    gens = table.generator_indices
    den = expr.rat.den
    den_split = split_terms(den, gens)
    if den_split is None:
        return None
    shift = None
    if any(any(key) for key in den_split):
        if len(den.terms) != 1:
            return None
        (key, den_param), = den_split.items()
        shift, den = tuple(-x for x in key), Poly(table, den_param)
    grouped = split_terms(expr.rat.num, gens, shift)
    if grouped is None or any(Mono(key) not in index for key in grouped):
        return None
    coords = {index[Mono(key)]: RatFunc(Poly(table, cell), den)
              for key, cell in grouped.items()}
    params = set(table.parameter_indices)
    for g, c in expr.logs:
        elem = LogElem(gens.index(g))
        if elem not in index or not (c.num.used_indices() | c.den.used_indices()) <= params:
            return None
        coords[index[elem]] = c
    return {k: v for k, v in coords.items() if not v.is_zero()}


def coords_to_expression(table: VarTable, basis: Sequence[BasisElem],
                         coords: Mapping[int, object]) -> LogExpr:
    """Linear combination of basis elements with the given coefficients."""
    total = LogExpr.zero(table)
    for idx in sorted(coords):
        c = _as_ratfunc(table, coords[idx])
        total = total + LogExpr(c) * basis_expression(table, basis[idx])
    return total


@dataclass
class InvariantReport:
    ok: bool
    residuals: list[tuple[str, LogExpr]]

    def failures(self) -> list[tuple[str, LogExpr]]:
        return [(n, r) for n, r in self.residuals if not r.is_zero()]


def verify_invariant(expr: LogExpr, btable: BracketTable) -> InvariantReport:
    """Check sum_i (dF/du_i) f_ij = 0 for every generator j, with residuals."""
    residuals = list(zip(btable.generator_names, btable.brackets_with_generators(expr)))
    return InvariantReport(all(t.is_zero() for _, t in residuals), residuals)


def independence_rank(exprs: Sequence[LogExpr], btable: BracketTable,
                      seed: int = DEFAULT_SEED,
                      witness: Mapping[str, Fraction] | None = None,
                      extra_points: int = 8) -> int:
    """Maximal exact rank of the Jacobian of the expressions over sampled
    points; ExprError when every point is a pole."""
    if not exprs:
        return 0
    table = btable.table
    gens = table.generator_indices
    grads = [[diff(e, i).as_ratfunc() for i in gens] for e in exprs]
    given = []
    if witness is not None:
        vals = [Fraction(0)] * len(table)
        for name, v in witness.items():
            vals[table.index(name)] = v
        given.append(vals)
    points = _evaluations(grads, table, random.Random(seed), extra_points, given)
    ranks = [rank_of(rows_from_dense(m), len(gens)) for _, m in points]
    if not ranks:
        raise ExprError(f"independence rank: all {len(given) + extra_points} sample "
                        "points are poles of the invariants' gradients")
    return max(ranks)


@dataclass
class CasimirBasis:
    """Result of the invariant search over one ansatz."""
    solutions: list[LogExpr]
    vectors: list[dict[int, RatFunc]]
    basis: list[BasisElem]
    free_central: list[str]
    ansatz: AnsatzSpec
    corank: int
    independence: int
    rank_report: RankReport
    verified: bool
    system_rows: int
    escalations: list[str] = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return len(self.solutions) + len(self.free_central)

    def contains(self, expr: LogExpr, btable: BracketTable) -> bool:
        """Whether the expression lies in the linear span of the reported
        solutions and the free central generators."""
        table = btable.table
        index = {elem: k for k, elem in enumerate(self.basis)}
        target = map_to_coords(expr, table, index)
        if target is None:
            return False
        span_rows = [dict(v) for v in self.vectors]
        for name in self.free_central:
            pos = btable.generator_names.index(name)
            elem = Mono(_delta(btable.r, pos))
            if elem in index:
                span_rows.append({index[elem]: RatFunc.one(table)})
        n = len(self.basis)
        base_rank = rank_of(span_rows, n)
        return rank_of(span_rows + [target], n) == base_rank


def _reversed_echelon(vectors: list[dict]) -> list[dict[int, object]]:
    """Candidates from sparse nullspace vectors, pivots at the canonically
    simplest monomials.

    The vector of free column f is nonzero only at f and at pivot columns
    before f, and no other vector is nonzero at f.  Scaled to one at their
    last nonzero column and ordered by that column, largest first, the
    vectors are therefore in reduced echelon form over reversed columns.
    Returns coordinate dictionaries in original orientation, ordered by
    ascending pivot complexity.
    """
    rows = []
    for row in vectors:
        last = row[max(row)]
        rows.append(row if last == 1 else {c: v / last for c, v in row.items()})
    rows.sort(key=max, reverse=True)
    return rows


def _reduce_mod_span(row: dict, span: list[dict], ncols: int) -> dict:
    """Reduce a coordinate row modulo reversed-echelon span rows."""
    rev = {ncols - 1 - c: v for c, v in row.items()}
    for srow in span:
        pivot = min(srow)
        if pivot in rev:
            subtract_scaled(rev, rev[pivot] / srow[pivot], srow)
    return {ncols - 1 - c: v for c, v in rev.items()}


def _lowest_grade(expr: LogExpr, gens: Sequence[int]) -> int | None:
    """Lowest total generator degree of an expression that is a polynomial in
    the generators over the parameter field; None for any other expression."""
    den = split_terms(expr.rat.den, gens)
    num = split_terms(expr.rat.num, gens)
    if expr.logs or den is None or any(any(key) for key in den) or not num:
        return None
    return min(sum(key) for key in num)


def _span_of_products(table: VarTable, items: Sequence[LogExpr],
                      index: Mapping[BasisElem, int], max_factors: int,
                      ncols: int) -> list[dict]:
    """Reversed-echelon span of all expandable products of the given invariants.

    Products that cannot lie in the basis are never expanded.  Over an
    integral domain the lowest homogeneous part of a product is the product
    of the lowest parts, so once the factors' lowest grades add up past the
    basis's top grade, the product and every product below it in `rec` have a
    term outside the basis.  An item with no lowest grade (inverse powers,
    logs, generator denominators) can cancel degree that the others add, so
    one such item turns the bound off.
    """
    product_rows: list[dict[int, object]] = []
    grades = [_lowest_grade(e, table.generator_indices) for e in items]
    top = max((_pos_grade(e.exps) for e in index if isinstance(e, Mono)), default=0)
    if None in grades:
        grades, top = [0] * len(items), 0

    def rec(start: int, current: LogExpr | None, depth: int, grade: int) -> None:
        for k in range(start, len(items)):
            if grade + grades[k] > top:
                continue
            try:
                nxt = items[k] if current is None else current * items[k]
            except ExprError:
                continue
            coords = map_to_coords(nxt, table, index)
            if coords:
                product_rows.append({ncols - 1 - c: v for c, v in coords.items()})
            if depth + 1 < max_factors:
                rec(k, nxt, depth + 1, grade + grades[k])

    rec(0, None, 0, 0)
    placed, _ = rref(product_rows, ncols)
    return placed


def _normalize_solution(table: VarTable, coords: dict[int, object]) -> dict[int, RatFunc]:
    """Scale so the canonically first coefficient is one, then clear parameter
    denominators and strip common polynomial content from the coefficients."""
    out = {c: _as_ratfunc(table, v) for c, v in coords.items()}
    lead = out[min(out)]
    out = {c: v / lead for c, v in out.items()}
    distinct = list(dict.fromkeys(v.den for v in out.values() if not v.is_poly()))
    if not distinct:
        return out
    clear = Poly.one(table)
    for d in distinct:
        if clear.divide_exact(d) is not None:
            continue
        quot = d.divide_exact(clear)
        clear = d if quot is not None else clear * d
    factor = RatFunc.from_poly(clear)
    out = {c: v * factor for c, v in out.items()}
    changed = True
    while changed:
        changed = False
        for d in distinct:
            if d.is_constant():
                continue
            parts = {c: v.num.divide_exact(d) for c, v in out.items()}
            if all(p is not None for p in parts.values()) \
                    and all(v.is_poly() for v in out.values()):
                out = {c: RatFunc.from_poly(p) for c, p in parts.items()}
                changed = True
    return out


def solve_casimirs(btable: BracketTable, ansatz: AnsatzSpec | None = None,
                   invertible: Sequence[bool] | None = None,
                   seed: int = DEFAULT_SEED,
                   rank_report: RankReport | None = None) -> CasimirBasis:
    """Exact basis of ansatz invariants of a bracket table.

    Central generators are reported separately as free solutions; nullspace
    vectors reducible to products of previously accepted invariants and
    central generators are pruned.
    """
    table = btable.table
    r = btable.r
    if ansatz is None:
        ansatz = AnsatzSpec()
    if invertible is None:
        invertible = [False] * r
    basis = enumerate_basis(r, ansatz, invertible)
    if not basis:
        raise ExprError("ansatz basis is empty")
    index = {elem: k for k, elem in enumerate(basis)}
    ncols = len(basis)
    kept, keys = graded_columns(btable, basis)
    rows = assemble_system(btable, [basis[c] for c in kept])
    candidates = _reversed_echelon(_block_nullspace(rows, kept, keys, RatFunc.one(table)))
    if rank_report is None:
        rank_report = generic_rank(btable, seed=seed)
    central = btable.central_generators()
    central_exprs = [LogExpr(RatFunc.var(table, n)) for n in central]
    accepted_exprs = list(central_exprs)
    span = None  # built right before the next reduction after an acceptance
    solutions: list[LogExpr] = []
    vectors: list[dict[int, RatFunc]] = []
    for cand in candidates:
        if span is None:
            span = _span_of_products(table, accepted_exprs, index,
                                     ansatz.max_degree, ncols)
        rem = _reduce_mod_span(cand, span, ncols)
        if not rem:
            continue
        norm = _normalize_solution(table, rem)
        expr = coords_to_expression(table, basis, norm)
        solutions.append(expr)
        vectors.append(norm)
        accepted_exprs.append(expr)
        span = None
    verified = all(verify_invariant(s, btable).ok for s in solutions)
    independence = independence_rank(solutions + central_exprs, btable, seed=seed,
                                     witness=rank_report.witness)
    return CasimirBasis(solutions=solutions, vectors=vectors, basis=basis,
                        free_central=central, ansatz=ansatz,
                        corank=rank_report.corank, independence=independence,
                        rank_report=rank_report, verified=verified,
                        system_rows=len(rows))


def solve_with_escalation(btable: BracketTable, ansatz: AnsatzSpec | None = None,
                          invertible: Sequence[bool] | None = None,
                          seed: int = DEFAULT_SEED,
                          ceiling: int = ESCALATION_CEILING) -> CasimirBasis:
    """Solve, raising max_degree one step at a time until the functional
    independence rank reaches the corank or the ceiling is hit."""
    if ansatz is None:
        ansatz = AnsatzSpec()
    rank_report = generic_rank(btable, seed=seed)
    log: list[str] = []
    current = ansatz
    while True:
        result = solve_casimirs(btable, current, invertible, seed=seed,
                                rank_report=rank_report)
        result.escalations = list(log)
        if result.independence >= result.corank or current.max_degree >= ceiling:
            return result
        nxt = AnsatzSpec(current.max_degree + 1, current.inverse_degree,
                         current.allow_log)
        log.append(f"independence {result.independence} < corank {result.corank}: "
                   f"raising max_degree to {nxt.max_degree}")
        current = nxt
