"""Canonical position-momentum bracket and realization checks."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from plq.canonical import (CanonicalRealization, NotExpressibleError,
                           canonical_bracket, express_in_generators,
                           verify_closure)
from plq.corpus import corpus_data, corpus_problem
from plq.expr import Poly, RatFunc, VarTable, diff
from plq.parsing import parse_ratfunc
from plq.problem import build_problem


def table_2p():
    return VarTable.make(["G1"], 2, ["c"])


def random_poly(table, rng, degree=2, terms=2):
    names = [table.names[i] for i in (*table.q_indices, *table.p_indices)]
    p = Poly.zero(table)
    for _ in range(terms):
        term = Poly.const(table, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for _ in range(rng.randint(0, degree)):
            term = term * Poly.var(table, rng.choice(names))
        p = p + term
    return RatFunc.from_poly(p)


def test_canonical_pairs():
    """Position pairs with its own momentum and with nothing else."""
    table = table_2p()
    q1 = RatFunc.var(table, "q1")
    q2 = RatFunc.var(table, "q2")
    p1 = RatFunc.var(table, "p1")
    p2 = RatFunc.var(table, "p2")
    one = RatFunc.one(table)
    assert canonical_bracket(q1, p1) == one
    assert canonical_bracket(q2, p2) == one
    assert canonical_bracket(q1, q2).is_zero()
    assert canonical_bracket(p1, p2).is_zero()
    assert canonical_bracket(q1, p2).is_zero()


def test_bracket_laws_random():
    """Antisymmetry, the Leibniz rule, and the Jacobi identity on random polynomials."""
    table = table_2p()
    rng = random.Random(127)
    for _ in range(200):
        f = random_poly(table, rng)
        g = random_poly(table, rng)
        h = random_poly(table, rng)
        assert canonical_bracket(f, g) == -canonical_bracket(g, f)
        assert canonical_bracket(f * g, h) == \
            f * canonical_bracket(g, h) + g * canonical_bracket(f, h)
        jac = (canonical_bracket(f, canonical_bracket(g, h))
               + canonical_bracket(g, canonical_bracket(h, f))
               + canonical_bracket(h, canonical_bracket(f, g)))
        assert jac.is_zero()


def test_bracket_laws_with_quotients():
    table = table_2p()
    rng = random.Random(131)
    for _ in range(20):
        den = random_poly(table, rng, degree=1, terms=1)
        if den.is_zero():
            den = RatFunc.one(table)
        f = random_poly(table, rng) / den
        g = random_poly(table, rng)
        h = random_poly(table, rng)
        assert canonical_bracket(f, g) == -canonical_bracket(g, f)
        jac = (canonical_bracket(f, canonical_bracket(g, h))
               + canonical_bracket(g, canonical_bracket(h, f))
               + canonical_bracket(h, canonical_bracket(f, g)))
        assert jac.is_zero()


def test_bracket_with_radial_element():
    """The radial element differentiates through the chain rule."""
    table = VarTable.make(["G1"], 3, [], "rho")
    rho = RatFunc.var(table, "rho")
    p1 = RatFunc.var(table, "p1")
    assert canonical_bracket(rho, p1) == parse_ratfunc("q1/rho", table)
    assert canonical_bracket(rho, rho).is_zero()


def test_sphere_closure_passes():
    problem = corpus_problem("sphere")
    report = verify_closure(problem.brackets, problem.realization)
    assert report.ok
    assert len(report.pairs) == 3


def corrupted(name, pair, expression):
    """A corpus problem with the entry of one generator pair replaced."""
    data = corpus_data(name)
    for entry in data["brackets"]:
        if {entry["i"], entry["j"]} == pair:
            entry["expression"] = expression
    return build_problem(data)


def test_closure_detects_corruption():
    """A wrong table entry is flagged with the exact residual."""
    problem = corrupted("sphere", {"H", "phi"}, "-3*V")
    report = verify_closure(problem.brackets, problem.realization)
    assert not report.ok
    bad = report.failures()
    assert [p.names for p in bad] == [("H", "phi")]
    expected = problem.realization.realize(
        parse_ratfunc("V", problem.table))
    assert bad[0].residual == expected


def reference_closure(btable, realization):
    """Closure pair by pair: the canonical bracket differentiates both
    realized generators afresh for every pair."""
    table = btable.table
    names = btable.generator_names
    out = []
    for i, j in combinations(range(btable.r), 2):
        f, g = realization.expressions[i], realization.expressions[j]
        lhs = RatFunc.zero(table)
        for qi, pi in zip(table.q_indices, table.p_indices):
            lhs = lhs + (diff(f, qi) * diff(g, pi) - diff(f, pi) * diff(g, qi))
        residual = lhs - realization.realize(btable.bracket(i, j))
        out.append(((names[i], names[j]), residual.is_zero(), str(residual)))
    return out


@pytest.mark.parametrize("make", [
    lambda: corpus_problem("sphere"),
    lambda: corpus_problem("hydrogen"),
    lambda: corrupted("sphere", {"H", "phi"}, "-3*V"),
    lambda: corrupted("hydrogen", {"M1", "M2"}, "-3/m*H*L3"),
], ids=["sphere", "hydrogen", "sphere-corrupted", "hydrogen-corrupted"])
def test_closure_matches_reference_loop(make):
    """Differentiating each realized generator once gives the same pairs,
    verdicts and printed residuals as differentiating per pair."""
    problem = make()
    report = verify_closure(problem.brackets, problem.realization)
    got = [(p.names, p.ok, str(p.residual)) for p in report.pairs]
    assert got == reference_closure(problem.brackets, problem.realization)


def test_hydrogen_closure_all_pairs():
    problem = corpus_problem("hydrogen")
    report = verify_closure(problem.brackets, problem.realization)
    assert report.ok
    assert len(report.pairs) == 21


def test_realization_rejects_canonical_leakage():
    table = VarTable.make(["G1"], 1, [])
    with pytest.raises(Exception):
        CanonicalRealization(table, [parse_ratfunc("G1 + q1", table)])


def test_express_in_generators_roundtrip():
    problem = corpus_problem("sphere")
    target = problem.realization.realize(
        parse_ratfunc("2*phi + 2*R^2", problem.table))
    found = express_in_generators(target, problem.realization, max_degree=1)
    assert problem.realization.realize(found) == target


@pytest.mark.parametrize("name,target,printed", [
    ("hydrogen", "(q1*p2 - q2*p1)^2", "L3^2"),
    ("sphere", "q1^2+q2^2+q3^2", "R^2 + phi"),
    ("sphere", "(q1*p1+q2*p2+q3*p3)^2 - q1^2 - q2^2 - q3^2", "V^2 - R^2 - phi"),
])
def test_express_in_generators_prints_the_first_solution(name, target, printed):
    """The expression found, as printed: the first nullspace vector whose
    realization meets the target, its terms summed in column order."""
    problem = corpus_problem(name)
    target = parse_ratfunc(target, problem.table)
    found = express_in_generators(target, problem.realization)
    assert str(found) == printed
    assert problem.realization.realize(found) == target


def test_express_in_generators_failure():
    problem = corpus_problem("sphere")
    target = parse_ratfunc("q1*p2", problem.table)
    with pytest.raises(NotExpressibleError):
        express_in_generators(target, problem.realization, max_degree=2)


def test_kepler_vector_identity():
    """M^2 - (2 H / m) L^2 - kappa^2 vanishes identically under the realization."""
    problem = corpus_problem("hydrogen")
    expr = parse_ratfunc(
        "M1^2 + M2^2 + M3^2 - 2/m*H*(L1^2 + L2^2 + L3^2) - kappa^2",
        problem.table)
    assert problem.realization.realize(expr).is_zero()
