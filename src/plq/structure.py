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
from functools import cache, cached_property
from itertools import chain, combinations, islice
from typing import Iterator, Mapping, Sequence

from .expr import (GENERATOR, PARAMETER, TERM_LIMIT, ExprError, LogExpr, Poly, RatFunc,
                   VarTable, _multiply_into, _poly_diff_parts, clear_denominators, diff,
                   exact_div, substitute, sum_of_products)
from .linalg import nullspace, pfaffian, pivot_columns, skew_rank, subtract_scaled

DEFAULT_SEED = 20140
BRACKET_TERMS = 2 * TERM_LIMIT  # the most term pairs one bracket {F, u_j} multiplies
SAMPLE_BLOCK = 16  # sample points per block; `sample_rank` ranks the first
rank_of = skew_rank  # `_ranked` calls it by this name, which bench/tracing.py wraps


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
        # columns[j] = {i: f_ij} over the nonzero entries, i ascending; each
        # lower-triangle entry is negated here, once.
        self.columns: list[dict[int, RatFunc]] = [{} for _ in range(self.r)]
        for i, j in sorted(clean):
            self.columns[j][i] = clean[i, j]
            self.columns[i][j] = -clean[i, j]

    @property
    def generator_names(self) -> tuple[str, ...]:
        return self.table.generator_names

    def bracket(self, i: int, j: int) -> RatFunc:
        """Signed entry {u_i, u_j}; skew symmetry fills the lower triangle."""
        return self.columns[j].get(i, RatFunc.zero(self.table))

    def brackets_with_generators(self, expr: LogExpr) -> list[LogExpr]:
        """{F, u_j} = sum_i (dF/du_i) f_ij for every generator j, each
        partial dF/du_i taken once; a sum of polynomial products is fused.
        ExprError, before any product, when some {F, u_j} would multiply more
        than BRACKET_TERMS pairs of numerator terms."""
        table = self.table
        partials = [diff(expr, g) for g in table.generator_indices]
        for name, column in zip(self.generator_names, self.columns):
            if (n := sum(len(partials[i].rat.num.packed) * len(f.num.packed)
                         for i, f in column.items())) > BRACKET_TERMS:
                raise ExprError(f"bracket with {name} would multiply {n} pairs of terms, "
                                f"more than {BRACKET_TERMS}")
        zero = RatFunc.zero(table)
        out = []
        for column in self.columns:
            if any(partials[i].logs for i in column):
                out.append(sum((partials[i] * LogExpr(f) for i, f in column.items()),
                               LogExpr.zero(table)))
            else:
                out.append(LogExpr(sum_of_products(
                    [[(partials[i].rat, f)] for i, f in column.items()], zero)))
        return out

    @cached_property
    def cleared_rows(self) -> list[tuple[Poly, dict[int, Poly]]]:
        """Each row j cleared of denominators: the product D of the distinct
        f_ij denominators, and {i: f_ij * D} for every nonzero f_ij."""
        out = []
        for column in self.columns:
            common, cleared = clear_denominators(self.table, list(column.values()))
            out.append((common, dict(zip(column, cleared))))
        return out

    @cached_property
    def jacobi(self) -> JacobiReport:
        """The Jacobi identity, sum_m (df_jk/du_m f_im + df_ki/du_m f_jm +
        df_ij/du_m f_km) = 0, checked for every generator triple i < j < k.

        Each entry N/D is differentiated once into packed numerators P_m over
        E = D, or D^2 when D uses a generator.  Only a triple {a, b, x} with
        P_m of f_ab and f_xm nonzero has a term, so no other is visited.  The
        terms P_m * N_xm are summed per denominator E * D_xm and decided by
        `_sums_vanish`.  A failing triple gets its residual from the in-order
        sum of `RatFunc` partials, so it prints as the full sum would."""
        r, table, columns, names = self.r, self.table, self.columns, self.generator_names
        dens: dict[Poly, int] = {}  # distinct entry denominators, numbered
        # cells[m][x] = (numerator of f_xm, its denominator as a tuple of numbers)
        cells = [{x: (f.num.packed, () if f.is_poly() else (dens.setdefault(f.den, len(dens)),))
                  for x, f in column.items()} for column in columns]
        partial: dict[tuple[int, int], tuple[tuple, dict[int, dict]]] = {}  # (E, {m: P_m})
        for (a, b), f in self.entries.items():
            num, den, e = f.num, f.den, cells[b][a][1]
            used = [m for m in num.used_indices() | den.used_indices() if m < r]
            if any(den.uses(m) for m in used):
                e, ps = e * 2, [_poly_diff_parts(num, m) * den - num * _poly_diff_parts(den, m)
                                for m in used]
            else:
                ps = [_poly_diff_parts(num, m) for m in used]
            d = {m: p.packed for m, p in zip(used, ps) if p.packed}
            partial[a, b] = e, d
            partial[b, a] = e, {m: {t: -c for t, c in p.items()} for m, p in d.items()}
        # sums[i, j, k][denominator] = the sum of the triple's terms over it;
        # (x, a, b) is in cyclic order i, j, k when two of x < a < b < x hold
        sums: dict[tuple, dict[tuple, dict]] = {}
        for (a, b), (e, d) in partial.items():
            for m, p in d.items():
                for x, (n, q) in cells[m].items():
                    if (x < a) + (a < b) + (b < x) == 2:
                        _multiply_into(sums.setdefault(tuple(sorted((a, b, x))), {})
                                       .setdefault(e + q, {}), table, p, n)

        @cache
        def partials(a: int, b: int) -> dict[int, RatFunc]:
            """The RatFunc partials of f_ab, formed once across the triples."""
            _, used = partial.get((a, b), ((), {}))
            return {m: diff(columns[b][a], m) for m in used}
        bases, failing = list(dens), {}
        for (i, j, k), groups in sorted(sums.items()):
            if _sums_vanish(groups, bases, table):
                continue
            # the residual: products of RatFunc partials grouped by m, summed in order
            pairs = [(partials(a, b), x) for x, a, b in ((i, j, k), (j, k, i), (k, i, j))]
            residual = sum_of_products([[(d[m], column[x]) for d, x in pairs
                                         if m in d and x in column]
                                        for m, column in enumerate(columns)], RatFunc.zero(table))
            if not residual.is_zero():
                failing[i, j, k] = JacobiTriple((names[i], names[j], names[k]), False, residual)
        return JacobiReport(JacobiTriples(table, failing))

    @cached_property
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
            grouped: dict[tuple[int, ...], dict[int, int | Fraction]] = {}
            for k, p in cleared.items():
                for e, c in p.terms.items():
                    grouped.setdefault(e, {})[k] = c
            for e, c in common.terms.items():
                grouped.setdefault(e[:g] + (e[g] + 1,) + e[g + 1:], {})[r + j] = -c
            rows.extend(grouped.values())
        return _integer_weights(nullspace(rows, 2 * r), range(r, 2 * r))

    @cached_property
    def linear_columns(self) -> list[list[dict[int, int | Fraction]]] | None:
        """a[k][j] = {m: coefficient of u_m in {u_j, u_k}} when every entry is
        a rational combination of generators, with no parameter; else None."""
        position = {g: m for m, g in enumerate(self.table.generator_indices)}
        if any(not f.is_poly() or any(sum(e) != 1 or e.index(1) not in position
                                      for e in f.num.terms) for f in self.entries.values()):
            return None
        return [[{position[e.index(1)]: c for e, c in column[j].num.terms.items()}
                 if j in column else {} for j in range(self.r)] for column in self.columns]

    @cached_property
    def generating_set(self) -> list[int]:
        """Positions of generators S whose rows imply every row of the system:
        {F, .} is a derivation, so under the Jacobi identity it vanishes on the
        Lie algebra over Q that S and the linear centre span (Olver 1993, ch.
        2).  From the centre, generators join in table order, the span closed
        under brackets after each, until it holds them all.  Every position on
        a table that is not linear or fails the Jacobi check."""
        a, r = self.linear_columns, self.r
        if a is None or not self.jacobi.ok:
            return list(range(r))
        span: list[dict] = []  # echelon rows, each led by its first column

        def add(v: dict) -> bool:
            """Whether v leaves a remainder on the span; it joins with its
            brackets [v, w] = sum_k w_k [v, u_k] by the rows before it."""
            for row in span:
                if (p := min(row)) in v:
                    subtract_scaled(v, exact_div(v[p], row[p]), row)
            if not v:
                return False
            span.append(v)
            for w in span[:-1]:
                add(_sparse_product([w], {k: _sparse_product([v], a[k])[0] for k in w})[0])
            return True

        # The centre: every v with sum_j v_j {u_j, u_k} = 0 at each u_m.
        for v in nullspace([{j: c[m] for j, c in enumerate(column) if m in c}
                            for column in a for m in range(r)], r):
            add(v)
        return [g for g in range(r) if add({g: 1})]

    @cached_property
    def sign_gradings(self) -> list[tuple[int, ...]]:
        """The distinct diagonals s != 1 of the time-pi maps sigma = I + 2A^2
        of the generators' flows that are diagonal with entries +-1.

        On a table of entries linear in the generators, with no parameter,
        u_k's flow is du_j/dt = {u_j, u_k} = sum_m A_jm u_m.  When A^3 = -A,
        exp(tA) = I + sin t A + (1 - cos t) A^2 (Rodrigues), so sigma is its
        time-pi map, and every invariant F has F o sigma = F (Olver 1993,
        6.2): no monomial u^e with prod s_j^e_j = -1.  Other tables get none.
        """
        out = []
        for a in self.linear_columns or ():
            a2 = _sparse_product(a, a)
            if _sparse_product(a2, a) != [{m: -c for m, c in row.items()} for row in a]:
                continue
            if all(row.keys() <= {j} and row.get(j, 0) in (0, -1) for j, row in enumerate(a2)):
                s = tuple(1 + 2 * row.get(j, 0) for j, row in enumerate(a2))
                if -1 in s and s not in out:
                    out.append(s)
        return out

    @cached_property
    def pfaffian(self) -> RatFunc:
        """Pfaffian of the even-sized structure matrix, formed only here."""
        return pfaffian(self.columns, range(self.r), self.table)

    def central_generators(self) -> list[str]:
        """Names of generators whose bracket with every generator vanishes."""
        return [self.table.names[i] for i, column in enumerate(self.columns) if not column]


def _sparse_product(x: list[dict], y: list[dict]) -> list[dict]:
    """The product of two square matrices of sparse rows {column: entry}."""
    out = []
    for row in x:
        acc: dict = {}
        for m, v in row.items():
            for c, w in y[m].items():
                acc[c] = acc.get(c, 0) + v * w
        out.append({c: v for c, v in acc.items() if v})
    return out


def _integer_weights(vectors, columns: range) -> list[tuple[int, ...]]:
    """The sparse rational vectors read over the columns, each scaled to
    coprime integers; those zero there are skipped."""
    out = []
    for vec in vectors:
        w = [vec.get(c, 0) for c in columns]
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


class JacobiTriples(Sequence):
    """Every generator triple of a table, read-only, in combination order:
    `failing` holds those whose residual is nonzero, by positions i < j < k;
    any other is ok with residual zero."""

    def __init__(self, table: VarTable, failing: dict[tuple[int, int, int], JacobiTriple]):
        self.table, self.failing, self.r = table, failing, len(table.generator_names)
        self.zero = RatFunc.zero(table)  # the residual of every passing triple

    def __len__(self) -> int:
        return math.comb(self.r, 3)

    def __getitem__(self, index: int) -> JacobiTriple:
        if not -len(self) <= index < len(self):
            raise IndexError("triple index out of range")
        index, key, x = index % len(self), (), 0
        for rest in (2, 1, 0):  # comb(r - x - 1, rest) combinations continue from x
            while index >= (c := math.comb(self.r - x - 1, rest)):
                index, x = index - c, x + 1
            key, x = (*key, x), x + 1
        return self._at(key)

    def __iter__(self) -> Iterator[JacobiTriple]:
        return map(self._at, combinations(range(self.r), 3))

    def _at(self, key: tuple[int, ...]) -> JacobiTriple:
        return self.failing.get(key) or JacobiTriple(
            tuple(self.table.generator_names[x] for x in key), True, self.zero)


@dataclass
class JacobiReport:
    triples: JacobiTriples

    @property
    def ok(self) -> bool:
        return not self.triples.failing

    def failures(self) -> list[JacobiTriple]:
        return list(self.triples.failing.values())


def _sums_vanish(groups: dict[tuple, dict], bases: list[Poly], table: VarTable) -> bool:
    """Whether the sum over groups of S / prod(bases[t] for t in key) is zero,
    each S as packed terms: each S times the quotient of the least product of
    bases that every key's product divides, summed."""
    if len(groups) == 1:
        return not next(iter(groups.values()))
    top, total = {t: max(key.count(t) for key in groups) for t in set(chain(*groups))}, {}
    for key, s in groups.items():
        lift = math.prod((bases[t] ** (n - key.count(t)) for t, n in top.items()),
                         start=Poly.one(table))
        _multiply_into(total, table, s, lift.packed)
    return not total


def jacobi_check(btable: BracketTable) -> JacobiReport:
    """The table's Jacobi report, checked once per table (`BracketTable.jacobi`)."""
    return btable.jacobi


_NUMERATORS = tuple(n for n in range(-9, 10) if n)
_VALUES = {(n, d): Fraction(n, d) for n in _NUMERATORS for d in range(1, 8)}


def sample_point(table: VarTable, rng: random.Random) -> list[Fraction]:
    """Random rational values for generators and parameters; other variables zero.

    A numerator in {-9..9} without 0, then a denominator up to 7, index `_VALUES`.
    """
    vals = [Fraction(0)] * len(table)
    for i, kind in enumerate(table.kinds):
        if kind in (GENERATOR, PARAMETER):
            vals[i] = _VALUES[rng.choice(_NUMERATORS), rng.randint(1, 7)]
    return vals


@dataclass
class RankReport:
    """Generic rank of a structure matrix and how it is known.

    `certificate` is "pfaffian" when bordered sub-Pfaffians prove it and
    "casimirs" when verified invariants bound it from above.
    """
    rank: int
    corank: int
    sampled_rank: int
    witness: dict[str, Fraction] | None
    seed: int
    samples: int
    kind: str
    degeneracy: RatFunc
    certificate: str

    def summary(self) -> str:
        deg = "0" if self.degeneracy.is_zero() else str(self.degeneracy)
        return (f"rank {self.rank}, corank {self.corank} "
                f"({self.kind} {deg}; sampled max {self.sampled_rank} "
                f"over {self.samples} points, seed {self.seed})")


def _integer_terms(p: Poly, degree: int) -> tuple[int, list]:
    """(s, terms) with s * p = sum of the terms: s is the lcm of p's
    coefficient denominators and each term (c, ((i, e_i), ...), degree - |e|)
    carries an integer c and the power of D that lifts it to `degree`."""
    s = math.lcm(*(c.denominator for c in p.packed.values()))
    return s, [(c.numerator * (s // c.denominator),
                tuple((i, x) for i, x in enumerate(e) if x), degree - sum(e))
               for e, c in p.terms.items()]


def _lifted_value(terms: list, a: Sequence[int], powers: Sequence[int]) -> int:
    """D^degree * s * p(a / D), from the integer terms of p."""
    total = 0
    for c, factors, k in terms:
        for i, x in factors:
            c *= a[i] if x == 1 else a[i] ** x
        total += c * powers[k]
    return total


def _evaluations(cells: Mapping[tuple[int, int], RatFunc], nrows: int,
                 table: VarTable, rng: random.Random, attempts: int,
                 given: Sequence[list[Fraction]] = (), skew: bool = False
                 ) -> Iterator[tuple[list[Fraction], list[dict[int, int | Fraction]]]]:
    """The given points, then `attempts` random sample points, each with the
    sparse rows of the matrix with nonzero cells {(i, j): f_ij} evaluated
    there, times one nonzero scalar; a skew matrix also gets -f_ij at (j, i).

    A point x is a / D in integers, D the lcm of its denominators; each cell
    N/M is evaluated once, in integers, as D^K * f_ij(x) with K the largest
    numerator degree, from term lists of N and M with integer coefficients
    built once per call.  So each row is D^K times the row of values, and
    ranks and pivot columns are those of the values.  A cell builds at most
    one Fraction and evaluates no constant denominator.  Zero values are left
    out and poles are skipped."""
    degree = max((f.num.degree() for f in cells.values()), default=0)
    lifted = [(key, *_integer_terms(f.num, degree), kd, *_integer_terms(f.den, kd))
              for key, f in cells.items() for kd in [f.den.degree()]]
    top = max([degree, *(cell[3] for cell in lifted)])
    draws = (sample_point(table, rng) for _ in range(attempts))
    for point in chain(given, draws):
        d = math.lcm(*(x.denominator for x in point))
        a = [x.numerator * (d // x.denominator) for x in point]
        powers = [d ** k for k in range(top + 1)]
        rows: list[dict[int, int | Fraction]] = [{} for _ in range(nrows)]
        for (i, j), sn, num, kd, sd, den in lifted:
            m = sn * (_lifted_value(den, a, powers) if kd else den[0][0])
            if not m:
                break
            v = sd * powers[kd] * _lifted_value(num, a, powers)
            v = v if m == 1 else exact_div(v, m)
            if v:
                rows[i][j] = v
                if skew:
                    rows[j][i] = -v
        else:
            yield point, rows


def _certified_rank(btable: BracketTable, block: list[int]) -> int:
    """Rank of the structure matrix, given a principal block with nonzero Pfaffian.

    The block grows by two indices whose bordered sub-Pfaffian is not
    identically zero.  When none is left, the block's Schur complement
    vanishes, so the rank is the block's size.  The last border is the whole
    matrix, whose Pfaffian is `BracketTable.pfaffian`.
    """
    columns, r = btable.columns, btable.r
    while True:
        for a, b in combinations([i for i in range(r) if i not in block], 2):
            grown = sorted([*block, a, b])
            pf = btable.pfaffian if len(grown) == r else pfaffian(columns, grown, btable.table)
            if not pf.is_zero():
                block = grown
                break
        else:
            return len(block)


def _ranked(points: Iterator, r: int) -> list:
    """(rank, point, rows) for the next block of sample points."""
    return [(rank_of(rows, r), p, rows) for p, rows in islice(points, SAMPLE_BLOCK)]


def _witness(table: VarTable, ranked: list, rank: int) -> dict[str, Fraction] | None:
    """The first sample point attaining the rank, by name."""
    return next(({table.names[i]: p[i] for i in range(len(table))
                  if table.kinds[i] in (GENERATOR, PARAMETER)}
                 for k, p, _ in ranked if k == rank), None)


@dataclass
class RankSample:
    """A lower bound on the generic rank, not yet certified: the highest rank
    over the first block of sample points, attained at its witness.  `ranked`
    holds (rank, point, rows) for each point drawn so far; further blocks come
    from `points`, the rest of the same seeded stream."""
    rank: int
    corank: int
    witness: dict[str, Fraction] | None
    seed: int
    ranked: list = field(repr=False)
    points: Iterator = field(repr=False, compare=False)


def sample_rank(btable: BracketTable, seed: int = DEFAULT_SEED) -> RankSample:
    """The sampled lower bound over the first block of seeded sample points."""
    r = btable.r
    points = _evaluations(btable.entries, r, btable.table, random.Random(seed),
                          40 * SAMPLE_BLOCK, skew=True)
    ranked = _ranked(points, r)
    rank = max((k for k, *_ in ranked), default=0)
    return RankSample(rank=rank, corank=r - rank, seed=seed, ranked=ranked,
                      points=points, witness=_witness(btable.table, ranked, rank))


def _rank_report(btable: BracketTable, sample: RankSample, rank: int,
                 certificate: str) -> RankReport:
    """The report of a certified rank over the sample's points; the degeneracy
    is the full Pfaffian at rank r and zero below it, since Pf^2 = det."""
    r, ranked = btable.r, sample.ranked
    return RankReport(rank=rank, corank=r - rank,
                      sampled_rank=max((k for k, *_ in ranked), default=0),
                      witness=_witness(btable.table, ranked, rank), seed=sample.seed,
                      samples=len(ranked), kind="pfaffian" if r % 2 == 0 else "determinant",
                      degeneracy=btable.pfaffian if rank == r else RatFunc.zero(btable.table),
                      certificate=certificate)


def certify_by_kernel(btable: BracketTable, sample: RankSample,
                      kernel_rank: int) -> RankReport | None:
    """The sampled rank certified from above, or None when the bounds differ.

    `kernel_rank` is the Jacobian rank, at some point, of verified
    invariants: their gradients are independent over the rational functions
    and lie in the kernel of the structure matrix, so rank <= r -
    kernel_rank, rounded down to even since the matrix is skew (Weinstein
    1983; Olver 1993, 6.2).  The sample's witness attains its rank, so when
    the two bounds meet that is the rank.
    """
    if sample.witness is None or (btable.r - kernel_rank) // 2 * 2 != sample.rank:
        return None
    return _rank_report(btable, sample, sample.rank, "casimirs")


def certify_by_pfaffians(btable: BracketTable, sample: RankSample) -> RankReport:
    """The generic rank, certified by sub-Pfaffians from the pivot columns at
    the first point of highest rank in the sample, which index a principal
    block nonsingular there.  Blocks from the sample's stream are added, up
    to 12 in all, while no point attains the certified rank; the first point
    that does is the witness."""
    r, ranked = btable.r, sample.ranked
    best = max(ranked, key=lambda t: t[0], default=None)
    rank = _certified_rank(btable, pivot_columns(best[2], r) if best else [])
    while (0 < len(ranked) < 12 * SAMPLE_BLOCK and len(ranked) % SAMPLE_BLOCK == 0
           and max(k for k, *_ in ranked) < rank):
        ranked += _ranked(sample.points, r)
    return _rank_report(btable, sample, rank, "pfaffian")


def generic_rank(btable: BracketTable, seed: int = DEFAULT_SEED) -> RankReport:
    """Generic rank of the structure matrix: random rational sampling bounded
    below, a sub-Pfaffian certificate as the authority."""
    return certify_by_pfaffians(btable, sample_rank(btable, seed))


def bind_parameters(btable: BracketTable, bindings: Mapping[str, RatFunc]) -> BracketTable:
    """New table with parameters substituted by rational expressions in the rest."""
    table = btable.table
    for name in bindings:
        idx = table.index(name)
        if table.kind(idx) != PARAMETER:
            raise ExprError(f"binding target {name!r} is not a parameter")
    return BracketTable(table, {key: substitute(f, bindings, table)
                                for key, f in btable.entries.items()})
