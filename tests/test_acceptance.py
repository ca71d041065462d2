"""Acceptance suite: one checked criterion per test, one printed line each."""

import functools
import math
import random
import time
from fractions import Fraction

from plq.canonical import canonical_bracket, verify_closure
from plq.cli import main
from plq.corpus import corpus_problem
from plq.expr import Poly, RatFunc, VarTable
from plq.flow import FlowConfig, abstract_flow, canonical_flow
from dense_rows import dense_nullspace, rows_from_dense
from plq.parsing import parse_expression, parse_ratfunc
from plq.solver import (AnsatzSpec, solve_casimirs, solve_with_escalation,
                        verify_invariant)
from plq.structure import BracketTable, bind_parameters, generic_rank


def criterion(n, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(capsys):
            start = time.monotonic()
            try:
                fn(capsys)
            except BaseException:
                with capsys.disabled():
                    print(f"criterion {n} FAIL: {description}", flush=True)
                raise
            elapsed = time.monotonic() - start
            with capsys.disabled():
                print(f"criterion {n} PASS: {description} "
                      f"({elapsed:.2f}s)", flush=True)
        return run
    return wrap


@criterion(1, "sphere constraint algebra: corank 1 and the exact invariant")
def test_sphere_end_to_end(capsys):
    start = time.monotonic()
    problem = corpus_problem("sphere")
    rank = generic_rank(problem.brackets)
    assert (rank.rank, rank.corank) == (2, 1)
    result = solve_casimirs(problem.brackets, problem.ansatz,
                            problem.invertible)
    assert result.dimension == 1
    expected = parse_expression("(phi + R^2)*H - 1/2*V^2", problem.table)
    assert (result.solutions[0] - expected).is_zero()
    assert main(["rank", "sphere"]) == 0
    out = capsys.readouterr().out
    assert "odd" in out and "determinant" in out
    assert time.monotonic() - start < 1.0


@criterion(2, "quadratic table: exact pfaffian, bound solve, both invariants")
def test_quadratic_table_end_to_end(capsys):
    start = time.monotonic()
    problem = corpus_problem("sklyanin")
    rank = generic_rank(problem.brackets)
    pf = parse_ratfunc("(a1*b1 - a2*b2 + a3*b3)*u1*u2*u3*u4", problem.table)
    assert rank.degeneracy in (pf, -pf)
    binding = {"a3": parse_ratfunc("(a2*b2 - a1*b1)/b3", problem.table)}
    bound = bind_parameters(problem.brackets, binding)
    result = solve_casimirs(bound, AnsatzSpec(max_degree=2),
                            problem.invertible)
    assert result.dimension == 2
    c1 = parse_expression(
        "(a2*b2 - a1*b1)/b3*u1^2 - b2*u2^2 + b1*u3^2", problem.table)
    c2 = parse_expression("a1*u1^2 - b3*u3^2 + b2*u4^2", problem.table)
    assert result.contains(c1, bound)
    assert result.contains(c2, bound)
    assert main(["check", "sklyanin", "--bind", "a3=(a2*b2 - a1*b1)/b3",
                 "--invariant", "a3*u1^2 - b2*u2^2 + b1*u3^2"]) == 0
    assert main(["check", "sklyanin", "--bind", "a3=(a2*b2 - a1*b1)/b3",
                 "--invariant", "a1*u1^2 - b3*u3^2 + b2*u4^2"]) == 0
    capsys.readouterr()
    assert time.monotonic() - start < 5.0


@criterion(3, "Laurent invariant found; its misprinted square variant fails")
def test_laurent_invariant_and_misprint(capsys):
    problem = corpus_problem("spinchain")
    result = solve_casimirs(problem.brackets, problem.ansatz,
                            problem.invertible)
    expected = parse_expression("u1*u2^-1 - 1/2*u3", problem.table)
    assert any((s - expected).is_zero() for s in result.solutions)
    assert result.free_central == ["u4"]
    wrong = parse_expression("u1*u2^-1 - 1/2*u3^2", problem.table)
    assert not verify_invariant(wrong, problem.brackets).ok


@criterion(4, "logarithmic invariant recovered exactly")
def test_log_invariant(capsys):
    problem = corpus_problem("galilei")
    result = solve_casimirs(problem.brackets, problem.ansatz,
                            problem.invertible)
    assert result.dimension == 1
    expected = parse_expression("a*u1*u2^-1 - b*log(u2) - a/2*u3",
                                problem.table)
    assert (result.solutions[0] - expected).is_zero()


@criterion(5, "central extension: quadratic invariant plus free center")
def test_central_extension(capsys):
    problem = corpus_problem("nappi-witten")
    result = solve_casimirs(problem.brackets, problem.ansatz,
                            problem.invertible)
    expected = parse_expression("P1^2 + P2^2 + 2*J*T", problem.table)
    assert any((s - expected).is_zero() for s in result.solutions)
    assert result.free_central == ["T"]
    assert main(["check", "nappi-witten", "--invariant",
                 "a*(P1^2 + P2^2 + 2*J*T) + b*T^2"]) == 0
    capsys.readouterr()


@criterion(6, "radial realization: closure, escalated solve, exact identity")
def test_radial_realization_end_to_end(capsys):
    start = time.monotonic()
    problem = corpus_problem("hydrogen")
    closure = verify_closure(problem.brackets, problem.realization)
    assert closure.ok
    assert len(closure.pairs) == 21
    result = solve_with_escalation(problem.brackets, problem.ansatz,
                                   problem.invertible)
    assert result.corank == 3
    assert result.independence == 3
    h = parse_expression("H", problem.table)
    pairing = parse_expression("L1*M1 + L2*M2 + L3*M3", problem.table)
    kepler = parse_expression(
        "H*(L1^2 + L2^2 + L3^2) - m/2*(M1^2 + M2^2 + M3^2)", problem.table)
    assert result.contains(h, problem.brackets)
    assert result.contains(pairing, problem.brackets)
    assert result.contains(kepler, problem.brackets)
    assert main(["check", "hydrogen", "--invariant",
                 "H*(L1^2 + L2^2 + L3^2) - m/2*(M1^2 + M2^2 + M3^2)"]) == 0
    capsys.readouterr()
    identity = parse_ratfunc(
        "M1^2 + M2^2 + M3^2 - 2/m*H*(L1^2 + L2^2 + L3^2) - kappa^2",
        problem.table)
    assert problem.realization.realize(identity).is_zero()
    assert time.monotonic() - start < 60.0


@criterion(7, "property suites: bracket laws, rotation invariant, nullspace")
def test_property_suites(capsys):
    table = VarTable.make(["G1"], 2, ["c"])
    names = [table.names[i] for i in (*table.q_indices, *table.p_indices)]
    rng = random.Random(211)

    def rand_poly():
        p = Poly.zero(table)
        for _ in range(2):
            term = Poly.const(table, Fraction(rng.randint(-3, 3), 2))
            for _ in range(rng.randint(0, 2)):
                term = term * Poly.var(table, rng.choice(names))
            p = p + term
        return RatFunc.from_poly(p)

    for _ in range(200):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert canonical_bracket(f, g) == -canonical_bracket(g, f)
        assert canonical_bracket(f * g, h) == \
            f * canonical_bracket(g, h) + g * canonical_bracket(f, h)
        jac = (canonical_bracket(f, canonical_bracket(g, h))
               + canonical_bracket(g, canonical_bracket(h, f))
               + canonical_bracket(h, canonical_bracket(f, g)))
        assert jac.is_zero()

    so3 = VarTable.make(["u1", "u2", "u3"], 0, [])
    brackets = BracketTable(so3, {
        (0, 1): parse_ratfunc("u3", so3),
        (0, 2): parse_ratfunc("-u2", so3),
        (1, 2): parse_ratfunc("u1", so3),
    })
    result = solve_casimirs(brackets)
    assert [str(s) for s in result.solutions] == ["u1^2 + u2^2 + u3^2"]

    def dense_rank(matrix):
        a = [list(r) for r in matrix]
        rank = 0
        for col in range(len(a[0])):
            hit = next((k for k in range(rank, len(a)) if a[k][col] != 0),
                       None)
            if hit is None:
                continue
            a[rank], a[hit] = a[hit], a[rank]
            pv = a[rank][col]
            for k in range(len(a)):
                if k != rank and a[k][col] != 0:
                    fac = a[k][col] / pv
                    a[k] = [x - fac * y for x, y in zip(a[k], a[rank])]
            rank += 1
        return rank

    for _ in range(25):
        matrix = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                   for _ in range(8)] for _ in range(5)]
        basis = dense_nullspace(rows_from_dense(matrix), 8)
        assert len(basis) == 8 - dense_rank(matrix)
        for vec in basis:
            assert all(sum(row[c] * vec[c] for c in range(8)) == 0
                       for row in matrix)


@criterion(8, "flow cross-checks: invariant drift, convergence order, level sets")
def test_flow_cross_checks(capsys):
    runs = []

    sphere = corpus_problem("sphere")
    sphere_c = parse_expression("H*phi + R^2*H - 1/2*V^2", sphere.table)
    runs.append((sphere.brackets, "H",
                 {"H": 1.0, "phi": 2.0, "V": 3.0, "R": 1.0}, [sphere_c]))

    sklyanin = corpus_problem("sklyanin")
    binding = {"a3": parse_ratfunc("(a2*b2 - a1*b1)/b3", sklyanin.table)}
    bound = bind_parameters(sklyanin.brackets, binding)
    solved = solve_casimirs(bound, AnsatzSpec(max_degree=2),
                            sklyanin.invertible)
    assert solved.dimension == 2
    runs.append((bound, "u1",
                 {"u1": 0.5, "u2": 0.4, "u3": 0.3, "u4": 0.2,
                  "a1": 2.0, "a2": 1.0, "b1": 1.0, "b2": -1.0, "b3": -1.0},
                 list(solved.solutions)))

    spin = corpus_problem("spinchain")
    runs.append((spin.brackets, "u2",
                 {"u1": 1.0, "u2": 2.0, "u3": 0.5, "u4": 1.5, "a": 1.0},
                 [parse_expression("u1*u2^-1 - 1/2*u3", spin.table),
                  parse_expression("u4", spin.table)]))

    galilei = corpus_problem("galilei")
    runs.append((galilei.brackets, "u2",
                 {"u1": 1.0, "u2": 2.0, "u3": 0.5, "a": 1.0, "b": 1.0},
                 [parse_expression("a*u1*u2^-1 - b*log(u2) - a/2*u3",
                                   galilei.table)]))

    nappi = corpus_problem("nappi-witten")
    runs.append((nappi.brackets, "J",
                 {"P1": 1.0, "P2": 0.5, "J": 0.25, "T": 2.0,
                  "a": 1.0, "b": 1.0},
                 [parse_expression("P1^2 + P2^2 + 2*J*T", nappi.table),
                  parse_expression("T", nappi.table)]))

    hydrogen = corpus_problem("hydrogen")
    runs.append((hydrogen.brackets, "L3 + M1",
                 {"H": -0.5, "L1": 0.3, "L2": -0.2, "L3": 0.4,
                  "M1": 0.1, "M2": 0.25, "M3": -0.15,
                  "m": 1.0, "kappa": 1.0},
                 [parse_expression("H", hydrogen.table),
                  parse_expression("L1*M1 + L2*M2 + L3*M3", hydrogen.table),
                  parse_expression("H*(L1^2 + L2^2 + L3^2)"
                                   " - m/2*(M1^2 + M2^2 + M3^2)",
                                   hydrogen.table)]))

    for brackets, observable, init, monitors in runs:
        cfg = FlowConfig(parse_expression(observable, brackets.table),
                         init, 1e-3, 10000, monitors)
        result = abstract_flow(brackets, cfg)
        assert result.drift.worst() < 1e-8, observable

    observable = parse_expression("V + H", sphere.table)
    init = {"H": 1.0, "phi": 2.0, "V": 3.0, "R": 1.0}
    coarse = abstract_flow(sphere.brackets,
                           FlowConfig(observable, init, 2e-2, 500,
                                      [sphere_c]))
    fine = abstract_flow(sphere.brackets,
                         FlowConfig(observable, init, 1e-2, 1000,
                                    [sphere_c]))
    assert fine.drift.worst() > 0
    assert coarse.drift.worst() / fine.drift.worst() >= 8.0

    start = {"q1": 1.0, "q2": 0.0, "q3": 0.0,
             "p1": 0.0, "p2": 1.0, "p3": 0.0, "R": 1.0}
    cfg = FlowConfig(sphere_c, start, 1e-3, 10000,
                     [parse_expression("phi + R^2", sphere.table),
                      parse_expression("V", sphere.table)],
                     ["U", "V"])
    result = canonical_flow(sphere.realization, cfg)
    by = result.drift.by_label()
    assert by["U"].max_drift < 1e-10
    assert by["V"].max_drift < 1e-10
