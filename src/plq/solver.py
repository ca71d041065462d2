"""Casimir invariants by graded ansatz and exact nullspace.

An invariant F of a bracket table satisfies sum_i (dF/du_i) f_ij = 0 for every
generator j.  The solver expands F over a graded monomial basis, optionally
extended by inverses and logarithms of invertible generators, assembles the
resulting linear system with entries in the parameter field (numbers on a
table without parameters), and reads off an exact nullspace basis.  The
table's gradings shrink that system: only the monomials of inner weight zero
and of sign +1 under every sign grading are enumerated, and a Lie table gives
only the rows of its generating set.  Columns that share a row join one
block, and each connected block is solved on its own.  Vectors are
echelonized so the simplest monomials lead, reduced modulo products of
accepted solutions (powers and products of known invariants carry no new
information), and normalized so the canonically leading coefficient is one
and parameter denominators are cleared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import add
from fractions import Fraction
from typing import Mapping, Sequence

from .expr import (DEGREE_LIMIT, ExprError, LogExpr, Poly, RatFunc, VarTable, diff,
                   exact_div, generator_monomial, split_terms)
from .linalg import (entry, grouped_rows, nullspace, presolve_forced_zero,
                     rank_of, rref, subtract_scaled)
from .structure import (DEFAULT_SEED, BracketTable, RankReport, RankSample,
                        _evaluations, certify_by_kernel, certify_by_pfaffians,
                        generic_rank, sample_rank)


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
        if max(self.max_degree, self.inverse_degree) > DEGREE_LIMIT:
            raise ExprError(f"ansatz degrees must be at most {DEGREE_LIMIT}")


@dataclass(frozen=True)
class Mono:
    """Basis monomial: one exponent per generator, negatives for inverses."""
    exps: tuple[int, ...]


@dataclass(frozen=True)
class LogElem:
    """Basis element log(u) for the generator at this position."""
    position: int


BasisElem = Mono | LogElem


def enumerate_basis(r: int, ansatz: AnsatzSpec, invertible: Sequence[bool],
                    inner: Sequence[Sequence[int]] = (),
                    signs: Sequence[Sequence[int]] = ()) -> list[BasisElem]:
    """Ansatz basis in canonical order: monomials by descending positive grade
    then descending lexicographic exponents, then log elements.

    Only monomials u^e of weight w.e = 0 under every inner weight w and sign
    prod s_j^e_j = 1 under every sign grading s are enumerated, a sign being
    the parity of the bitmasks {g: s_j = -1} of the odd e_j.  Without
    inverses a branch ends once its degree left cannot cancel its weight.
    """
    lows = [-ansatz.inverse_degree if inv else 0 for inv in invertible]
    prune = bool(inner) and not any(lows)
    masks = [sum(1 << g for g, s in enumerate(signs) if s[j] < 0) for j in range(r)]
    # Each weight's least and largest entry from position k on.
    reach = [[(min(w[k:]), max(w[k:])) for w in inner] for k in range(r)]
    negative = [any(lows[k:]) for k in range(r)] + [False]
    out: list[BasisElem] = []
    exps = [0] * r

    def rec(k: int, left: int, weight: list[int], parity: int) -> None:
        if not (left or negative[k]):  # every exponent from k on is zero
            if not (parity or any(weight)) and any(exps):
                out.append(Mono(tuple(exps)))
            return
        if prune and any(not lo * left <= -x <= hi * left
                           for x, (lo, hi) in zip(weight, reach[k])):
            return
        last = left if k == r - 1 and left else lows[k]
        for v in range(left, last - 1, -1):
            exps[k] = v
            rec(k + 1, left - max(v, 0), [x + v * w[k] for x, w in zip(weight, inner)],
                parity ^ masks[k] if v % 2 else parity)
        exps[k] = 0

    for degree in range(ansatz.max_degree, -1, -1):
        rec(0, degree, [0] * len(inner), 0)
    if ansatz.allow_log:
        out.extend(LogElem(k) for k in range(r) if invertible[k])
    return out


def _delta(r: int, k: int) -> tuple[int, ...]:
    return tuple(1 if i == k else 0 for i in range(r))


def basis_expression(table: VarTable, elem: BasisElem) -> LogExpr:
    """The basis element as an expression over the table."""
    if isinstance(elem, Mono):
        return LogExpr(generator_monomial(table, elem.exps))
    name = table.generator_names[elem.position]
    return LogExpr.log(table, name)


def assemble_system(btable: BracketTable, basis: Sequence[BasisElem],
                    generators: Sequence[int] | None = None) -> list[dict]:
    """Sparse rows of the invariant system over the ansatz columns, from the
    rows of the given generator positions, all of them by default.

    Row j of sum_i (dF/du_i) f_ij = 0 is cleared of denominators once, by
    the product of the distinct f_ij denominators, and each cleared f_ij is
    split once by generator exponent.  Column u^e then takes e_i times split
    f_ij shifted by e - delta_i, column log(u_k) split f_kj shifted by
    -delta_k.  A cell is a number or a Poly in the parameters, so one loop
    adds them on every table.  Rows are keyed by the (possibly negative)
    generator exponent, in descending graded lexicographic order, with
    `linalg.entry` entries: numbers when constant, else parameter RatFuncs.
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
    for j in range(r) if generators is None else generators:
        split = {i: split_terms(p, gens) for i, p in btable.cleared_rows[j][1].items()}
        grouped: dict[tuple[int, ...], dict[int, object]] = {}
        for c, contributions in enumerate(terms):
            for i, scale, shift in contributions:
                for key, cell in split.get(i, {}).items():
                    at = grouped.setdefault(tuple(map(add, key, shift)), {})
                    v = cell if scale == 1 else scale * cell
                    at[c] = at[c] + v if c in at else v
        rows.extend(grouped_rows(grouped))
    return rows


def _block_nullspace(rows: Sequence[dict], ncols: int) -> list[dict]:
    """Nullspace of the system, block by block.

    After the singleton presolve, every two unforced columns that share a
    remaining row join one block (union-find), and each block's nullspace is
    taken over its own columns, ascending, with its rows in their given
    order.  Vectors come back sparse over the system's columns.
    """
    reduced, forced = presolve_forced_zero(rows)
    root = list(range(ncols))

    def find(c: int) -> int:
        while root[c] != c:
            root[c] = c = root[root[c]]
        return c
    for row in reduced:
        first, *rest = map(find, row)
        for c in rest:
            root[c] = first
    blocks: dict[int, tuple[list[int], list[dict]]] = {}
    for c in range(ncols):
        if c not in forced:
            blocks.setdefault(find(c), ([], []))[0].append(c)
    for row in reduced:
        blocks[find(next(iter(row)))][1].append(row)
    vectors = []
    for cols, block_rows in blocks.values():
        local = {c: n for n, c in enumerate(cols)}
        for vec in nullspace([{local[c]: v for c, v in row.items()} for row in block_rows],
                             len(cols)):
            vectors.append({cols[n]: v for n, v in vec.items()})
    return vectors


def _as_ratfunc(table: VarTable, value) -> RatFunc:
    if isinstance(value, RatFunc):
        return value
    return RatFunc.const(table, value)


def map_to_coords(expr: LogExpr, table: VarTable,
                  index: Mapping[BasisElem, int]) -> dict[int, object] | None:
    """Coordinates of an expression over the ansatz basis, as `linalg.entry`
    entries, or None when any part of it falls outside the basis.  The
    denominator must split to one generator key: zero, or its only term's."""
    gens = table.generator_indices
    den_split = split_terms(expr.rat.den, gens)
    if den_split is None or len(den_split) != 1:
        return None
    (key, den), = den_split.items()
    if any(key) and len(expr.rat.den.packed) != 1:
        return None
    grouped = split_terms(expr.rat.num, gens, tuple(-x for x in key))
    if grouped is None or any(Mono(key) not in index for key in grouped):
        return None
    coords = {index[Mono(key)]: entry(cell if den == 1 else exact_div(entry(cell), entry(den)))
              for key, cell in grouped.items()}
    params = set(table.parameter_indices)
    for g, c in expr.logs:
        elem = LogElem(gens.index(g))
        if elem not in index or not (c.num.used_indices() | c.den.used_indices()) <= params:
            return None
        coords[index[elem]] = entry(c)
    return coords


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


def verify_invariant(expr: LogExpr, btable: BracketTable) -> InvariantReport:
    """Check sum_i (dF/du_i) f_ij = 0 for every generator j, with residuals."""
    residuals = list(zip(btable.generator_names, btable.brackets_with_generators(expr)))
    return InvariantReport(all(t.is_zero() for _, t in residuals), residuals)


def independence_rank(exprs: Sequence[LogExpr], btable: BracketTable,
                      seed: int = DEFAULT_SEED,
                      witness: Mapping[str, Fraction] | None = None,
                      extra_points: int = 8) -> int:
    """Maximal exact rank of the Jacobian of the expressions over sampled
    points, the witness first; sampling stops once a point reaches
    min(#expressions, #generators).  ExprError when every point is a pole."""
    if not exprs:
        return 0
    table = btable.table
    gens = table.generator_indices
    cells = {(k, c): g for k, e in enumerate(exprs) for c, i in enumerate(gens)
             if not (g := diff(e, i).as_ratfunc()).is_zero()}
    given = []
    if witness is not None:
        vals = [Fraction(0)] * len(table)
        for name, v in witness.items():
            vals[table.index(name)] = v
        given.append(vals)
    points = _evaluations(cells, len(exprs), table, random.Random(seed), extra_points,
                          given)
    best = -1
    for _, rows in points:
        best = max(best, rank_of(rows, len(gens)))
        if best == min(len(exprs), len(gens)):
            break
    if best < 0:
        raise ExprError(f"independence rank: all {len(given) + extra_points} sample "
                        "points are poles of the invariants' gradients")
    return best


@dataclass
class CasimirBasis:
    """Result of the invariant search over one ansatz.

    `rank_report` is the rank the search was run against: a certified
    `RankReport`, or the `RankSample` a caller passed in.
    """
    solutions: list[LogExpr]
    vectors: list[dict[int, RatFunc]]
    basis: list[BasisElem]
    free_central: list[str]
    ansatz: AnsatzSpec
    corank: int
    independence: int
    rank_report: RankReport | RankSample
    verified: bool
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
        span_rows = [{c: entry(v) for c, v in vec.items()} for vec in self.vectors]
        for name in self.free_central:
            pos = btable.generator_names.index(name)
            elem = Mono(_delta(btable.r, pos))
            if elem in index:
                span_rows.append({index[elem]: 1})
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
        rows.append(row if last == 1 else {c: exact_div(v, last) for c, v in row.items()})
    rows.sort(key=max, reverse=True)
    return rows


def _reduce_mod_span(row: dict, span: list[dict], ncols: int) -> dict:
    """Reduce a coordinate row modulo reversed-echelon span rows."""
    rev = {ncols - 1 - c: v for c, v in row.items()}
    for srow in span:
        pivot = min(srow)
        if pivot in rev:
            subtract_scaled(rev, exact_div(rev[pivot], srow[pivot]), srow)
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
                      index: Mapping[BasisElem, int], max_degree: int,
                      ncols: int) -> list[dict]:
    """Reversed-echelon span of all expandable products of up to max_degree
    of the given invariants, with constant coordinates taken as numbers.

    Products that cannot lie in the basis are never expanded.  The basis
    holds every monomial of positive grade up to max_degree, its top grade,
    that an invariant can carry, and a product of invariants is one.
    Over an integral domain the lowest homogeneous part of a product is the
    product of the lowest parts, so once the factors' lowest grades add up
    past the top grade, the product and every product below it in `rec` have
    a term outside the basis.  An item with no lowest grade (inverse powers,
    logs, generator denominators) can cancel degree that the others add, so
    one such item turns the bound off.
    """
    product_rows: list[dict[int, object]] = []
    grades = [_lowest_grade(e, table.generator_indices) for e in items]
    top = max_degree
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
            if depth + 1 < max_degree:
                rec(k, nxt, depth + 1, grade + grades[k])

    rec(0, None, 0, 0)
    placed, _ = rref(product_rows, ncols)
    return placed


def _normalize_solution(table: VarTable, coords: dict[int, object]) -> dict[int, RatFunc]:
    """Scale so the canonically first coefficient is one, then clear parameter
    denominators and strip common polynomial content from the coefficients."""
    out = {c: _as_ratfunc(table, v) for c, v in coords.items()}
    lead = out[min(out)]
    out = {c: exact_div(v, lead) for c, v in out.items()}
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
            parts = {c: v.num.divide_exact(d) for c, v in out.items()}
            if all(p is not None for p in parts.values()) \
                    and all(v.is_poly() for v in out.values()):
                out = {c: RatFunc.from_poly(p) for c, p in parts.items()}
                changed = True
    return out


def solve_casimirs(btable: BracketTable, ansatz: AnsatzSpec = AnsatzSpec(),
                   invertible: Sequence[bool] | None = None,
                   seed: int = DEFAULT_SEED,
                   rank_report: RankReport | RankSample | None = None) -> CasimirBasis:
    """Exact basis of ansatz invariants of a bracket table.

    The corank and witness come from `rank_report`, which `generic_rank`
    computes when it is not given.

    Central generators are reported separately as free solutions; nullspace
    vectors reducible to products of previously accepted invariants and
    central generators are pruned.
    """
    table = btable.table
    r = btable.r
    if invertible is None:
        invertible = [False] * r
    basis = enumerate_basis(r, ansatz, invertible, btable.inner_gradings,
                            btable.sign_gradings)
    index = {elem: k for k, elem in enumerate(basis)}
    ncols = len(basis)
    rows = assemble_system(btable, basis, btable.generating_set)
    candidates = _reversed_echelon(_block_nullspace(rows, ncols))
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
                        rank_report=rank_report, verified=verified)


def _escalate(btable: BracketTable, ansatz: AnsatzSpec,
              invertible: Sequence[bool] | None, seed: int, ceiling: int,
              rank_report: RankReport | RankSample) -> CasimirBasis:
    """Solve, raising max_degree one step at a time until the functional
    independence rank reaches the report's corank or the ceiling is hit."""
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


def solve_with_escalation(btable: BracketTable, ansatz: AnsatzSpec = AnsatzSpec(),
                          invertible: Sequence[bool] | None = None,
                          seed: int = DEFAULT_SEED,
                          ceiling: int = ESCALATION_CEILING) -> CasimirBasis:
    """Solve with escalation against the sampled corank, then certify the rank.

    The verified solutions and free central generators bound the rank from
    above (`certify_by_kernel`).  When the bounds differ, or a solution fails
    verification, `certify_by_pfaffians` certifies the same sample instead,
    and a rank that differs from the sampled one is escalated against again;
    the result is the same either way.
    """
    sample = sample_rank(btable, seed=seed)
    result = _escalate(btable, ansatz, invertible, seed, ceiling, sample)
    report = (certify_by_kernel(btable, sample, result.independence)
              if result.verified else None)
    if report is None:
        report = certify_by_pfaffians(btable, sample)
        if report.rank != sample.rank:
            result = _escalate(btable, ansatz, invertible, seed, ceiling, report)
    result.rank_report = report
    return result
