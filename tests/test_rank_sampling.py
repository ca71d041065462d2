"""Sampled ranks against a dense recomputation, seed by seed.

`generic_rank` and `independence_rank` evaluate each stored entry once per
point and take ranks in integers.  Here the same seeded draws are evaluated
as full dense matrices and ranked by `rref` over Fraction; every reported
number must agree.
"""

import random
from fractions import Fraction
from itertools import islice

import pytest

from plq import structure
from plq.corpus import corpus_names, corpus_problem
from plq.expr import GENERATOR, PARAMETER, ExprError, LogExpr, RatFunc, diff
from reference_rref import rref
from dense_rows import dense_matrix, rows_from_dense
from plq.solver import AnsatzSpec, independence_rank, solve_casimirs
from test_solver import bound_quadratic, lie_problem

SEEDS = range(8)


def tables():
    out = {name: corpus_problem(name) for name in corpus_names()}
    problem, bound = bound_quadratic()
    out["sklyanin-bound"] = (problem, bound)
    out["gl3"] = lie_problem("gl3")
    out["so4"] = lie_problem("so4")
    return {name: p if isinstance(p, tuple) else (p, p.brackets)
            for name, p in out.items()}


TABLES = tables()


def draws(table, rng, attempts):
    """The sample points of `structure.sample_point`, drawn in its order."""
    for _ in range(attempts):
        point = [Fraction(0)] * len(table)
        for i, kind in enumerate(table.kinds):
            if kind in (GENERATOR, PARAMETER):
                num = rng.choice([n for n in range(-9, 10) if n])
                point[i] = Fraction(num, rng.randint(1, 7))
        yield point


def dense_values(matrix, points):
    """(point, dense numeric matrix) for every point that is not a pole."""
    for point in points:
        try:
            yield point, [[f.evaluate(point) for f in row] for row in matrix]
        except ExprError:
            continue


def reference_rank(bt, seed, samples=16):
    """`generic_rank`'s sampling and certificate over dense Fraction rref."""
    table, r = bt.table, bt.r
    matrix = dense_matrix(bt)
    points = dense_values(matrix, draws(table, random.Random(seed), 40 * samples))

    def block():
        return [(len(rref(rows_from_dense(m), r)[1]), p, m)
                for p, m in islice(points, samples)]
    ranked = block()
    best = max(ranked, key=lambda t: t[0], default=None)
    start = rref(rows_from_dense(best[2]), r)[1] if best else []
    rank = structure._certified_rank(bt, start)
    while (0 < len(ranked) < 12 * samples and len(ranked) % samples == 0
           and max(k for k, _, _ in ranked) < rank):
        ranked += block()
    witness = next(({table.names[i]: p[i] for i in range(len(table))
                     if table.kinds[i] in (GENERATOR, PARAMETER)}
                    for k, p, _ in ranked if k == rank), None)
    return rank, max((k for k, _, _ in ranked), default=0), witness, len(ranked)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", TABLES)
def test_generic_rank_matches_dense_recomputation(name, seed):
    bt = TABLES[name][1]
    report = structure.generic_rank(bt, seed=seed)
    assert (report.rank, report.sampled_rank, report.witness, report.samples) == \
        reference_rank(bt, seed)


def reference_independence(exprs, bt, seed, witness, extra_points=8):
    """Maximal rank of the dense Jacobian over every usable point."""
    table = bt.table
    gens = table.generator_indices
    grads = [[diff(e, i).as_ratfunc() for i in gens] for e in exprs]
    given = []
    if witness is not None:
        given.append([Fraction(0)] * len(table))
        for n, v in witness.items():
            given[0][table.index(n)] = v
    points = [*given, *draws(table, random.Random(seed), extra_points)]
    return max(len(rref(rows_from_dense(m), len(gens))[1])
               for _, m in dense_values(grads, points))


@pytest.fixture(scope="module")
def expression_sets():
    """Per table: the solved invariants with the free central generators (as
    `solve` ranks them), the generators plus one product (more expressions
    than generators) and the invariants with their squares (dependent)."""
    out = {}
    for name, (problem, bt) in TABLES.items():
        table = bt.table
        found = solve_casimirs(bt, AnsatzSpec(), problem.invertible).solutions
        central = [LogExpr(RatFunc.var(table, n)) for n in bt.central_generators()]
        gens = [LogExpr(RatFunc.var(table, n)) for n in bt.generator_names]
        out[name] = [found + central, gens + [gens[0] * gens[-1]],
                     found + [s * s for s in found]]
    return out


@pytest.mark.parametrize("name", TABLES)
def test_independence_rank_stops_at_the_all_points_maximum(name, expression_sets):
    bt = TABLES[name][1]
    for seed in SEEDS:
        witness = structure.generic_rank(bt, seed=seed).witness
        for exprs in expression_sets[name]:
            if exprs:
                assert independence_rank(exprs, bt, seed=seed, witness=witness) == \
                    reference_independence(exprs, bt, seed, witness)


@pytest.mark.parametrize("name", TABLES)
def test_independence_rank_samples_past_a_degenerate_witness(name):
    """The squares of the generators lose one rank at a witness where a
    generator vanishes; the sampled points after it recover the full rank."""
    bt = TABLES[name][1]
    squares = [LogExpr(RatFunc.var(bt.table, n)) ** 2 for n in bt.generator_names]
    witness = {n: Fraction(k) for k, n in enumerate(bt.generator_names)}
    for seed in SEEDS:
        assert independence_rank(squares, bt, seed=seed, witness=witness) == \
            reference_independence(squares, bt, seed, witness) == bt.r
