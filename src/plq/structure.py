"""Bracket tables and degeneracy analysis of the structure matrix.

A bracket table stores the above-diagonal entries f_ij of a skew matrix of
rational functions in the generators and parameters.  The rank of that matrix
determines how many functionally independent invariants can exist: for r
generators and generic rank p, at most r - p.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, islice
from typing import Iterator, Mapping, Sequence

from .expr import (GENERATOR, PARAMETER, ExprError, LogExpr, Poly, RatFunc,
                   VarTable, clear_denominators, diff, substitute)
from .linalg import nullspace, pfaffian, rank_of, rows_from_dense, rref

DEFAULT_SEED = 20140


class BracketTable:
    """Skew table of generator brackets {u_i, u_j} = f_ij over one variable table."""

    def __init__(self, table: VarTable, entries: Mapping[tuple[int, int], RatFunc]):
        gens = table.generator_indices
        if not gens:
            raise ExprError("bracket table needs at least one generator")
        allowed = set(gens) | set(table.parameter_indices)
        self.table = table
        self.r = len(gens)
        clean: dict[tuple[int, int], RatFunc] = {}
        for (i, j), f in entries.items():
            if not (0 <= i < self.r and 0 <= j < self.r):
                raise ExprError(f"bracket pair ({i}, {j}) out of range")
            if i >= j:
                raise ExprError(f"bracket pair ({i}, {j}) must be above the diagonal")
            if f.table is not table:
                raise ExprError("bracket entry over a different table")
            used = f.num.used_indices() | f.den.used_indices()
            if not used <= allowed:
                bad = sorted(table.names[k] for k in used - allowed)
                raise ExprError(f"bracket entry uses non-generator variables: {bad}")
            if not f.is_zero():
                clean[(i, j)] = f
        self.entries = clean

    @property
    def generator_names(self) -> tuple[str, ...]:
        return self.table.generator_names

    def bracket(self, i: int, j: int) -> RatFunc:
        """Signed entry {u_i, u_j}; skew symmetry fills the lower triangle."""
        if i == j:
            return RatFunc.zero(self.table)
        if i < j:
            return self.entries.get((i, j), RatFunc.zero(self.table))
        f = self.entries.get((j, i))
        return RatFunc.zero(self.table) if f is None else -f

    def brackets_with_generators(self, expr: LogExpr) -> list[LogExpr]:
        """{F, u_j} = sum_i (dF/du_i) f_ij for every generator j, each
        partial dF/du_i taken once."""
        table = self.table
        partials = [diff(expr, g) for g in table.generator_indices]
        out = []
        for j in range(self.r):
            total = LogExpr.zero(table)
            for i in range(self.r):
                f = self.bracket(i, j)
                if not f.is_zero():
                    total = total + partials[i] * LogExpr(f)
            out.append(total)
        return out

    @cached_property
    def cleared_rows(self) -> list[tuple[Poly, dict[int, Poly]]]:
        """Each row j cleared of denominators: the product D of the distinct
        f_ij denominators, and {i: f_ij * D} for every nonzero f_ij."""
        out = []
        for j in range(self.r):
            fs = {i: f for i in range(self.r) if not (f := self.bracket(i, j)).is_zero()}
            common, cleared = clear_denominators(self.table, list(fs.values()))
            out.append((common, dict(zip(fs, cleared))))
        return out

    def outer_gradings(self) -> list[tuple[int, ...]]:
        """Basis of the integer generator weights w that grade the table: with
        some shift c, every nonzero f_ij is homogeneous of weight
        w_i + w_j + c, parameters at weight 0.

        Unknowns are (w, c).  Each numerator term a of f_ij = N/D, against the
        first denominator term d0, gives w.a - w.d0 - w_i - w_j - c = 0; each
        other denominator term d gives w.(d - d0) = 0.
        """
        gens = self.table.generator_indices
        r = self.r
        rows = []
        for (i, j), f in self.entries.items():
            d0, *rest = [[e[g] for g in gens] for e in f.den.terms]
            for e in f.num.terms:
                row = {k: e[g] - d0[k] - (k == i) - (k == j) for k, g in enumerate(gens)}
                row[r] = -1
                rows.append(row)
            rows.extend({k: x - y for k, (x, y) in enumerate(zip(d, d0))} for d in rest)
        rows = [{k: Fraction(v) for k, v in row.items() if v} for row in rows]
        return _integer_weights(v[:r] for v in nullspace(rows, r + 1, Fraction(1)))

    def inner_gradings(self) -> list[tuple[int, ...]]:
        """Basis of the integer weights w of the rational combinations
        h = sum_k a_k u_k that act diagonally, {h, u_j} = w_j u_j.

        Unknowns are (a, w).  Row j, sum_k a_k f_kj = w_j u_j, is cleared of
        denominators and split by full exponent, one equation per monomial.
        """
        gens = self.table.generator_indices
        r = self.r
        rows = []
        for j, (common, cleared) in enumerate(self.cleared_rows):
            g = gens[j]
            grouped: dict[tuple[int, ...], dict[int, Fraction]] = {}
            for k, p in cleared.items():
                for e, c in p.terms.items():
                    grouped.setdefault(e, {})[k] = c
            for e, c in common.terms.items():
                grouped.setdefault(e[:g] + (e[g] + 1,) + e[g + 1:], {})[r + j] = -c
            rows.extend(grouped.values())
        return _integer_weights(v[r:] for v in nullspace(rows, 2 * r, Fraction(1)))

    def structure_matrix(self) -> list[list[RatFunc]]:
        """Dense r x r skew matrix of bracket entries."""
        return [[self.bracket(i, j) for j in range(self.r)] for i in range(self.r)]

    def central_generators(self) -> list[str]:
        """Names of generators whose bracket with every generator vanishes."""
        out = []
        for i in range(self.r):
            if all(self.bracket(i, j).is_zero() for j in range(self.r)):
                out.append(self.table.names[i])
        return out


def _integer_weights(vectors) -> list[tuple[int, ...]]:
    """The nonzero rational vectors, each scaled to coprime integers."""
    out = []
    for w in vectors:
        if any(w):
            scale = math.lcm(*(x.denominator for x in w))
            ints = [int(x * scale) for x in w]
            g = math.gcd(*ints)
            out.append(tuple(x // g for x in ints))
    return out


@dataclass
class JacobiTriple:
    names: tuple[str, str, str]
    ok: bool
    residual: RatFunc


@dataclass
class JacobiReport:
    triples: list[JacobiTriple]

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.triples)

    def failures(self) -> list[JacobiTriple]:
        return [t for t in self.triples if not t.ok]


def jacobi_check(btable: BracketTable) -> JacobiReport:
    """Verify the Jacobi identity for every generator triple i < j < k.

    Only nonzero products are formed and summed, in the order of the full sum
    over m of the jk.i, ki.j and ij.k terms: dropping zeros leaves every
    residual printed as before.
    """
    names = btable.generator_names
    r = btable.r
    zero = RatFunc.zero(btable.table)
    # partial[a, b] = {m: d{u_a, u_b}/du_m}: nonzero partials, each taken once.
    partial: dict[tuple[int, int], dict[int, RatFunc]] = {}
    for (a, b), f in btable.entries.items():
        d = {m: dm for m in range(r) if not (dm := diff(f, m)).is_zero()}
        partial[a, b], partial[b, a] = d, {m: -v for m, v in d.items()}
    rows = [{m: f for m, f in enumerate(row) if not f.is_zero()}
            for row in btable.structure_matrix()]
    triples: list[JacobiTriple] = []
    for i in range(r):
        for j in range(i + 1, r):
            for k in range(j + 1, r):
                pairs = [(partial.get((j, k), {}), rows[i]),
                         (partial.get((k, i), {}), rows[j]),
                         (partial.get((i, j), {}), rows[k])]
                residual = zero
                for m in range(r):
                    products = [d[m] * row[m] for d, row in pairs if m in d and m in row]
                    if products:
                        residual = residual + sum(products[1:], products[0])
                triples.append(JacobiTriple((names[i], names[j], names[k]),
                                            residual.is_zero(), residual))
    return JacobiReport(triples)


def sample_point(table: VarTable, rng: random.Random) -> list[Fraction]:
    """Random rational values for generators and parameters; other variables zero.

    Components have numerators in {-9..9} without 0 and denominators up to 7.
    """
    vals = [Fraction(0)] * len(table)
    for i, kind in enumerate(table.kinds):
        if kind in (GENERATOR, PARAMETER):
            num = rng.choice([n for n in range(-9, 10) if n])
            den = rng.randint(1, 7)
            vals[i] = Fraction(num, den)
    return vals


@dataclass
class RankReport:
    rank: int
    corank: int
    sampled_rank: int
    witness: dict[str, Fraction] | None
    seed: int
    samples: int
    kind: str
    degeneracy: RatFunc

    def summary(self) -> str:
        deg = "0" if self.degeneracy.is_zero() else str(self.degeneracy)
        return (f"rank {self.rank}, corank {self.corank} "
                f"({self.kind} {deg}; sampled max {self.sampled_rank} "
                f"over {self.samples} points, seed {self.seed})")


def _evaluations(matrix: Sequence[Sequence[RatFunc]], table: VarTable,
                 rng: random.Random, attempts: int,
                 given: Sequence[list[Fraction]] = ()
                 ) -> Iterator[tuple[list[Fraction], list[list[Fraction]]]]:
    """The given points, then `attempts` random sample points, each with the
    matrix evaluated there; poles are skipped."""
    draws = (sample_point(table, rng) for _ in range(attempts))
    for point in chain(given, draws):
        try:
            numeric = [[f.evaluate(point) for f in row] for row in matrix]
        except ExprError:
            continue
        yield point, numeric


def _certified_rank(matrix: Sequence[Sequence[RatFunc]], block: list[int],
                    full: RatFunc) -> int:
    """Rank of a skew matrix, given a principal block with nonzero Pfaffian.

    The block grows by two indices whose bordered sub-Pfaffian is not
    identically zero.  When none is left, the block's Schur complement
    vanishes, so the rank is the block's size.  `full` is the Pfaffian of the
    whole matrix, the last border.
    """
    r = len(matrix)
    zero, one = RatFunc.zero(full.table), RatFunc.one(full.table)
    for a, b in combinations([i for i in range(r) if i not in block], 2):
        grown = sorted([*block, a, b])
        pf = full if len(grown) == r else pfaffian(
            [[matrix[i][j] for j in grown] for i in grown], zero, one)
        if not pf.is_zero():
            return _certified_rank(matrix, grown, full)
    return len(block)


def generic_rank(btable: BracketTable, seed: int = DEFAULT_SEED,
                 samples: int = 16) -> RankReport:
    """Generic rank of the structure matrix: random rational sampling bounded
    below, a sub-Pfaffian certificate as the authority.

    The certificate starts from the pivot columns at the first point of
    highest rank in the first block of samples: they index a principal block
    that is nonsingular there.  Blocks are added, up to 12 in all, while no
    point attains the certified rank; the first point that does is the witness.
    """
    table = btable.table
    matrix = btable.structure_matrix()
    r = btable.r
    if r % 2 == 0:
        degeneracy = pfaffian(matrix, RatFunc.zero(table), RatFunc.one(table))
        kind = "pfaffian"
    else:
        degeneracy = RatFunc.zero(table)
        kind = "determinant"
    points = _evaluations(matrix, table, random.Random(seed), 40 * samples)
    ranked = [(rank_of(rows_from_dense(m), r), p, m) for p, m in islice(points, samples)]
    best = max(ranked, key=lambda t: t[0], default=None)
    start = rref(rows_from_dense(best[2]), r)[1] if best else []
    rank = _certified_rank(matrix, start, degeneracy)
    while (0 < len(ranked) < 12 * samples and len(ranked) % samples == 0
           and max(k for k, _, _ in ranked) < rank):
        ranked += [(rank_of(rows_from_dense(m), r), p, m) for p, m in islice(points, samples)]
    witness = next(({table.names[i]: p[i] for i in range(len(table))
                     if table.kinds[i] in (GENERATOR, PARAMETER)}
                    for k, p, _ in ranked if k == rank), None)
    return RankReport(rank=rank, corank=r - rank,
                      sampled_rank=max((k for k, _, _ in ranked), default=0),
                      witness=witness, seed=seed, samples=len(ranked), kind=kind,
                      degeneracy=degeneracy)


def bind_parameters(btable: BracketTable, bindings: Mapping[str, RatFunc]) -> BracketTable:
    """New table with parameters substituted by rational expressions in the rest."""
    table = btable.table
    for name in bindings:
        idx = table.index(name)
        if table.kind(idx) != PARAMETER:
            raise ExprError(f"binding target {name!r} is not a parameter")
    entries = {}
    for key, f in btable.entries.items():
        entries[key] = substitute(f, bindings, table)
    return BracketTable(table, entries)


@dataclass
class ConstraintReport:
    bindings: dict[str, RatFunc]
    degeneracy: RatFunc
    vanishes: bool
    rank: int = field(default=0)
    corank: int = field(default=0)


def verify_parameter_constraint(btable: BracketTable, bindings: Mapping[str, RatFunc],
                                seed: int = DEFAULT_SEED) -> ConstraintReport:
    """Substitute a parameter constraint and re-examine degeneracy and rank."""
    bound = bind_parameters(btable, bindings)
    report = generic_rank(bound, seed=seed)
    return ConstraintReport(bindings=dict(bindings), degeneracy=report.degeneracy,
                            vanishes=report.degeneracy.is_zero(),
                            rank=report.rank, corank=report.corank)
