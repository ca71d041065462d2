"""The solve's two-sided rank certificate.

`solve_with_escalation` escalates against the sampled rank (`sample_rank`)
and certifies it from above with the verified solutions and free central
generators (`certify_by_kernel`): rank <= r - k, rounded down to even.  When
the bounds do not meet, or a solution fails verification, the sub-Pfaffian
certificate (`certify_by_pfaffians`) decides on the same sample, and the
output is the one `generic_rank` gives.
"""

import contextlib
import io
import json
from dataclasses import replace

import pytest

from plq import solver, structure
from plq.cli import _rank_json, main
from plq.corpus import corpus_names, corpus_problem
from plq.expr import RatFunc
from plq.solver import (AnsatzSpec, independence_rank, solve_casimirs,
                        solve_with_escalation, verify_invariant)
from plq.structure import certify_by_kernel, generic_rank, sample_rank
from test_cli_golden import CASES, GOLDEN, problem_files
from test_solver import bound_quadratic, lie_problem


def problems():
    out = {name: corpus_problem(name) for name in corpus_names()}
    out["gl3"] = lie_problem("gl3")
    out["so4"] = lie_problem("so4")
    return out


PROBLEMS = problems()
SOLVED = {name: (p, p.brackets) for name, p in PROBLEMS.items() if name != "sklyanin"}
SOLVED["sklyanin-bound"] = bound_quadratic()


@pytest.mark.parametrize("name", [*PROBLEMS, "sklyanin-bound"])
def test_kernel_certificate_reports_what_the_pfaffians_report(name):
    """Given the corank as the kernel rank, the certified report is
    `generic_rank`'s field for field, degeneracy included: the full Pfaffian
    at rank r (sklyanin), zero below it."""
    bt = SOLVED[name][1] if name in SOLVED else PROBLEMS[name].brackets
    want = generic_rank(bt)
    got = certify_by_kernel(bt, sample_rank(bt), want.corank)
    assert got is not None and got.certificate == "casimirs"
    assert replace(got, certificate="pfaffian") == want
    assert got.summary() == want.summary()


@pytest.mark.parametrize("name", SOLVED)
def test_solve_certifies_by_casimirs_with_the_pfaffian_rank(name):
    problem, bt = SOLVED[name]
    result = solve_with_escalation(bt, problem.ansatz, problem.invertible)
    want = generic_rank(bt)
    assert result.rank_report.certificate == "casimirs"
    assert replace(result.rank_report, certificate="pfaffian") == want


def test_parity_certifies_with_a_casimir_missing():
    """gl(3) at degree 2 finds tr X and tr X^2 but not tr X^3: 9 - 2 = 7
    rounds down to the sampled rank 6, as for so(7) at degree 4."""
    problem = PROBLEMS["gl3"]
    result = solve_with_escalation(problem.brackets, AnsatzSpec(2), problem.invertible,
                                   ceiling=2)
    assert (result.independence, result.corank) == (2, 3)
    assert (result.rank_report.rank, result.rank_report.certificate) == (6, "casimirs")


def corrupt_first_solution(monkeypatch):
    """Change one coefficient of the first solution of every solve by one."""
    normalize, solve = solver._normalize_solution, solver.solve_casimirs
    fresh = []

    def corrupted(table, coords):
        out = normalize(table, coords)
        if fresh:
            fresh.clear()
            first = min(out)
            out[first] = out[first] + RatFunc.one(table)
        return out

    def solve_casimirs(*args, **kwargs):
        fresh.append(True)
        return solve(*args, **kwargs)
    monkeypatch.setattr(solver, "_normalize_solution", corrupted)
    monkeypatch.setattr(solver, "solve_casimirs", solve_casimirs)


@pytest.mark.parametrize("name", ["sphere", "hydrogen", "gl3", "so4"])
def test_corrupted_invariant_never_certifies(name, monkeypatch):
    """A solution with one wrong coefficient fails verification; the rank
    then comes from the sub-Pfaffians, and it is the same rank."""
    problem, bt = SOLVED[name]
    corrupt_first_solution(monkeypatch)
    certify = []
    monkeypatch.setattr(solver, "certify_by_kernel",
                        lambda *args: certify.append(args))
    result = solve_with_escalation(bt, problem.ansatz, problem.invertible)
    assert not result.verified
    assert not verify_invariant(result.solutions[0], bt).ok
    assert certify == []
    assert result.rank_report.certificate == "pfaffian"
    assert result.rank_report == generic_rank(bt)


def test_corrupted_invariant_fails_the_solve_command(monkeypatch, tmp_path):
    corrupt_first_solution(monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["solve", "sphere", "--json", str(tmp_path / "r.json")])
    report = json.loads((tmp_path / "r.json").read_text())
    assert code == 1 and "verified: NO" in out.getvalue()
    assert report["rank"]["certificate"] == "pfaffian"
    assert (report["rank"]["rank"], report["rank"]["corank"]) == (2, 1)


@pytest.mark.parametrize("name", ["sphere", "hydrogen", "gl3", "so4"])
def test_dependent_invariants_do_not_lower_the_bound(name):
    """F with 2F, with F^2, and with both have kernel rank one: they bound
    the rank by r - 1 rounded down to even, never below the true rank, so a
    sampled rank below it is never certified."""
    problem, bt = SOLVED[name]
    r = bt.r
    found = solve_casimirs(bt, AnsatzSpec(), problem.invertible).solutions
    F = found[0]
    sample = sample_rank(bt)
    rank = generic_rank(bt).rank
    for exprs in ([F, 2 * F], [F, F * F], [F, 2 * F, F * F, 3 * F * F]):
        k = independence_rank(exprs, bt, witness=sample.witness)
        assert k == 1
        assert (r - k) // 2 * 2 >= rank
        got = certify_by_kernel(bt, sample, k)
        assert got is None or got.rank == rank
        for low in range(0, rank, 2):
            assert certify_by_kernel(bt, replace(sample, rank=low, corank=r - low), k) is None


def missing_first_block(monkeypatch):
    """Patch the sampler so that each generator's first 16 points are the
    origin, where every Lie-Poisson entry vanishes; the draws themselves are
    taken as before, so later points are unchanged."""
    draw = structure.sample_point

    def sample_point(table, rng):
        point = draw(table, rng)
        rng.plq_draws = getattr(rng, "plq_draws", 0) + 1
        return [0 * x for x in point] if rng.plq_draws <= 16 else point
    monkeypatch.setattr(structure, "sample_point", sample_point)


@pytest.mark.parametrize("name", ["gl3", "so4"])
def test_sampler_missing_the_rank_takes_the_fallback(name, monkeypatch):
    """The first block ranks 0, so the Casimirs cannot certify it; the
    sub-Pfaffians find the rank and the solve is redone against it, exactly
    as solving against `generic_rank` from the start."""
    problem = PROBLEMS[name]
    bt = problem.brackets
    missing_first_block(monkeypatch)
    assert sample_rank(bt).rank == 0
    want_report = generic_rank(bt)
    assert want_report.rank > 0 and want_report.samples == 32
    want = solver._escalate(bt, problem.ansatz, problem.invertible,
                            structure.DEFAULT_SEED, solver.ESCALATION_CEILING, want_report)
    got = solve_with_escalation(bt, problem.ansatz, problem.invertible)
    assert got.rank_report == want_report
    assert [str(s) for s in got.solutions] == [str(s) for s in want.solutions]
    assert (got.escalations, got.independence, got.corank, got.verified) == \
        (want.escalations, want.independence, want.corank, want.verified)


@pytest.mark.parametrize("name", ["gl3", "so4"])
def test_sampler_missing_the_rank_prints_the_pinned_output(name, monkeypatch, tmp_path):
    """Through the command line: the golden standard output, and in JSON
    the sub-Pfaffian report drawn with the patched sampler."""
    want = json.loads(GOLDEN.read_text())[f"solve-{name}"]
    path = problem_files(tmp_path)[name]
    missing_first_block(monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["solve", path, "--json", str(tmp_path / "r.json")])
    report = json.loads((tmp_path / "r.json").read_text())
    assert (code, out.getvalue()) == (want["exit"], want["stdout"])
    assert report["solve"] == want["report"]["solve"]
    assert report["rank"] == _rank_json(generic_rank(lie_problem(name).brackets))
    assert report["rank"]["certificate"] == "pfaffian"


def test_rank_without_a_witness_says_so(monkeypatch, tmp_path):
    """Every one of the 12 blocks of gl(3) draws is the origin, where each
    entry vanishes: the sub-Pfaffians still certify rank 6, and `rank`
    prints that no sampled point attains it; the JSON witness is null."""
    draw, draws = structure.sample_point, []

    def origin(table, rng):
        draws.append(draw(table, rng))
        return [0 * x for x in draws[-1]]
    monkeypatch.setattr(structure, "sample_point", origin)
    path = problem_files(tmp_path)["gl3"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["rank", path, "--json", str(tmp_path / "r.json")])
    rank = json.loads((tmp_path / "r.json").read_text())["rank"]
    assert (code, len(draws)) == (0, 12 * structure.SAMPLE_BLOCK)
    assert (rank["rank"], rank["sampled_rank"], rank["samples"], rank["witness"]) == \
        (6, 0, 192, None)
    assert out.getvalue().splitlines()[-2:] == [
        "sampled max 0 over 192 points (seed 20140)",
        "witness: none (no sampled point attains rank 6)"]


def test_every_golden_solve_certifies_by_casimirs():
    golden = json.loads(GOLDEN.read_text())
    solves = [name for name, argv in CASES.items()
              if argv[0] == "solve" and golden[name]["exit"] == 0]
    assert len(solves) == 18
    for name in solves:
        assert golden[name]["report"]["rank"]["certificate"] == "casimirs", name
    for name, argv in CASES.items():
        if argv[0] == "rank" and golden[name]["exit"] == 0:
            assert golden[name]["report"]["rank"]["certificate"] == "pfaffian", name
