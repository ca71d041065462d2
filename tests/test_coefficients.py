"""Coefficients are ints when integral and Fractions otherwise; no float
ever reaches the exact kernel or the linear algebra over it."""

import random
from fractions import Fraction

import pytest

from plq import linalg, solver
from plq.expr import Poly, exact_div, normal_coeff
from plq.linalg import nullspace, rref
from reference_columns import graded_columns
from test_cli_golden import CASES, problem_files, run_case
from test_solver import lie_problem

# verify, rank, solve and check of every corpus problem (sklyanin bound and
# unbound), gl(3) and so(4).
SYMBOLIC = [name for name, argv in CASES.items()
            if argv[0] in ("verify", "rank", "solve", "check")
            and not name.startswith("error-")]


def normal(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def test_exact_div_keeps_ints_and_never_floats():
    assert exact_div(6, 3) == 2 and type(exact_div(6, 3)) is int
    assert exact_div(-7, 2) == Fraction(-7, 2)
    assert exact_div(Fraction(3, 2), Fraction(1, 2)) == 3
    assert type(exact_div(Fraction(3, 2), Fraction(1, 2))) is int
    assert exact_div(1, Fraction(2, 3)) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)


def test_linalg_on_int_rows_is_exact():
    placed, pivots = rref([{0: 2, 1: 4}, {1: 3}], 2)
    assert (placed, pivots) == ([{0: 1}, {1: 1}], [0, 1])
    assert all(type(v) is int for row in placed for v in row.values())
    assert nullspace([{0: 2, 1: 4}, {1: 3}], 2) == []
    placed, _ = rref([{0: 3, 1: 1}], 2)
    assert placed == [{0: 1, 1: Fraction(1, 3)}]
    (vec,) = nullspace([{0: 2, 1: 3}], 2)
    assert vec == {0: 1, 1: Fraction(-2, 3)}
    assert all(normal(v) for v in vec.values())


def test_numeric_rref_and_nullspace_hold_no_integral_fraction():
    """Integral results are ints, also on rows where Fraction elimination
    leaves Fraction(1, 1) and Fraction(2, 1) behind."""
    half = Fraction(1, 2)
    rows = [{0: half, 1: half, 2: half}, {0: half, 1: 3 * half, 2: 5 * half}]
    placed, _ = rref(rows, 3)
    assert placed == [{0: 1, 2: -1}, {1: 1, 2: 2}]
    assert all(normal(v) for row in placed for v in row.values())
    (vec,) = nullspace(rows, 3)
    assert vec == {0: 1, 1: -2, 2: 1}
    assert all(normal(v) for v in vec.values())


def test_random_numeric_rref_and_nullspace_hold_no_integral_fraction():
    rng = random.Random(23)
    for _ in range(200):
        ncols = rng.randint(1, 7)
        rows = [{c: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for c in range(ncols)}
                for _ in range(rng.randint(1, 7))]
        rows = [{c: normal_coeff(v) for c, v in row.items() if v} for row in rows]
        placed, _ = rref(rows, ncols)
        assert all(normal(v) for row in placed for v in row.values())
        assert all(normal(v) for vec in nullspace(rows, ncols) for v in vec.values())


def test_solver_blocks_hold_no_integral_fraction(monkeypatch):
    """The nullspace vectors of gl(3) at degree 4, block by block, and those
    that `solve_casimirs` builds its candidates from."""
    problem = lie_problem("gl3")
    btable = problem.brackets
    basis = solver.enumerate_basis(btable.r, solver.AnsatzSpec(4), problem.invertible)
    kept = graded_columns(btable, basis)
    rows = solver.assemble_system(btable, [basis[c] for c in kept])
    vectors = solver._block_nullspace(rows, len(kept))
    assert vectors
    assert all(normal(v) for vec in vectors for v in vec.values())
    captured = []
    echelon = solver._reversed_echelon

    def recorded(vectors):
        captured.append(vectors)
        return echelon(vectors)
    monkeypatch.setattr(solver, "_reversed_echelon", recorded)
    solver.solve_casimirs(btable, solver.AnsatzSpec(4), problem.invertible)
    (solved,) = captured
    assert solved
    assert all(normal(v) for vec in solved for v in vec.values())


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return problem_files(tmp_path_factory.mktemp("coefficients"))


@pytest.mark.parametrize("name", SYMBOLIC)
def test_commands_build_only_normal_coefficients(name, files, tmp_path, monkeypatch):
    bad_terms: list = []
    bad_rows: list = []

    init = Poly.__init__

    def checked_init(self, table, terms):
        init(self, table, terms)
        bad_terms.extend(c for c in self.terms.values() if not normal(c))

    def watch_rows(f):
        def checked(*args):
            for a in args:
                values = a.values() if isinstance(a, dict) else [a]
                bad_rows.extend(v for v in values if isinstance(v, float))
            out = f(*args)
            if isinstance(out, float):
                bad_rows.append(out)
            return out
        return checked

    monkeypatch.setattr(Poly, "__init__", checked_init)
    for module in (linalg, solver):
        monkeypatch.setattr(module, "subtract_scaled", watch_rows(module.subtract_scaled))
        monkeypatch.setattr(module, "exact_div", watch_rows(module.exact_div))
    got = run_case(CASES[name], files, tmp_path / "report.json")
    assert got["exit"] in (0, 1), got["stderr"]
    assert bad_terms == []
    assert bad_rows == []
