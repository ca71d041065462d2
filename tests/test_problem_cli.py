"""Problem documents and the command-line interface."""

import json
import shutil
import subprocess

import pytest

from plq.cli import main
from plq.corpus import corpus_data, corpus_names, corpus_problem
from plq.parsing import parse_expression
from plq.problem import (ProblemError, build_problem, load_problem,
                         problem_to_data, save_problem)
from plq.solver import verify_invariant
from plq.structure import bind_parameters
from test_solver import lie_module


def minimal_data():
    return {
        "name": "toy",
        "variables": {"pairs": 0, "parameters": [], "invertible": []},
        "generators": [{"name": "u1"}, {"name": "u2"}],
        "brackets": [{"i": "u1", "j": "u2", "expression": "1"}],
    }


def test_corpus_names_complete():
    assert corpus_names() == ["sphere", "sklyanin", "spinchain", "galilei",
                              "nappi-witten", "hydrogen"]


def test_minimal_problem_builds():
    problem = build_problem(minimal_data())
    assert problem.generator_names == ["u1", "u2"]
    assert problem.realization is None
    assert problem.ansatz.max_degree == 2


def test_unknown_generator_in_bracket():
    data = minimal_data()
    data["brackets"][0]["i"] = "u9"
    with pytest.raises(ProblemError, match="u9"):
        build_problem(data)


def test_duplicate_bracket_rejected():
    data = minimal_data()
    data["brackets"].append({"i": "u1", "j": "u2", "expression": "2"})
    with pytest.raises(ProblemError, match="duplicate"):
        build_problem(data)


def test_reversed_bracket_order_rejected():
    data = minimal_data()
    data["brackets"][0] = {"i": "u2", "j": "u1", "expression": "1"}
    with pytest.raises(ProblemError, match="earlier generator first"):
        build_problem(data)


def test_self_bracket_rejected():
    data = minimal_data()
    data["brackets"][0] = {"i": "u1", "j": "u1", "expression": "1"}
    with pytest.raises(ProblemError):
        build_problem(data)


def test_mixed_realization_rejected():
    data = minimal_data()
    data["variables"]["pairs"] = 1
    data["generators"][0]["canonical"] = "q1*p1"
    with pytest.raises(ProblemError, match="u2"):
        build_problem(data)


def test_bad_expression_names_field():
    data = minimal_data()
    data["brackets"][0]["expression"] = "u1 +"
    with pytest.raises(ProblemError, match="bracket"):
        build_problem(data)


def test_load_missing_file(tmp_path):
    with pytest.raises(ProblemError):
        load_problem(tmp_path / "absent.json")


def test_load_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ProblemError):
        load_problem(path)


def test_save_load_roundtrip(tmp_path):
    """Every corpus document survives a save and reload unchanged."""
    for name in corpus_names():
        problem = corpus_problem(name)
        path = tmp_path / f"{name}.json"
        save_problem(problem, path)
        again = load_problem(path)
        assert again.generator_names == problem.generator_names
        assert again.ansatz == problem.ansatz
        assert problem_to_data(again) == problem_to_data(problem)


def test_cli_verify_ok(capsys):
    assert main(["verify", "sphere"]) == 0
    out = capsys.readouterr().out
    assert "closure: ok" in out
    assert "jacobi: ok" in out


def test_cli_verify_flags_unconstrained_table(capsys):
    assert main(["verify", "sklyanin"]) == 1
    out = capsys.readouterr().out
    assert "jacobi: FAILED" in out
    assert "a1*b1" in out


def test_cli_verify_with_binding(capsys):
    assert main(["verify", "sklyanin",
                 "--bind", "a3=(a2*b2 - a1*b1)/b3"]) == 0
    out = capsys.readouterr().out
    assert "jacobi: ok" in out


def test_cli_unknown_problem(capsys):
    assert main(["verify", "no-such-problem"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_rank_reports_degeneracy(capsys):
    assert main(["rank", "sklyanin"]) == 0
    out = capsys.readouterr().out
    assert "rank: 4, corank: 0" in out
    assert "pfaffian" in out
    assert main(["rank", "sphere"]) == 0
    out = capsys.readouterr().out
    assert "rank: 2, corank: 1" in out
    assert "odd" in out


def test_cli_solve_prints_invariant(capsys):
    assert main(["solve", "sphere"]) == 0
    out = capsys.readouterr().out
    assert "H*R^2 + H*phi - 1/2*V^2" in out
    assert "verified: yes" in out


def test_cli_solve_json_report_roundtrips(tmp_path, capsys):
    """Solutions in the report re-parse and re-verify against the table."""
    path = tmp_path / "report.json"
    assert main(["solve", "spinchain", "--json", str(path)]) == 0
    capsys.readouterr()
    report = json.loads(path.read_text())
    problem = corpus_problem("spinchain")
    solve = report["solve"]
    assert solve["free_central"] == ["u4"]
    for text in solve["solutions"]:
        expr = parse_expression(text, problem.table)
        assert verify_invariant(expr, problem.brackets).ok


def test_cli_solve_bound_quadratic(capsys):
    assert main(["solve", "sklyanin", "--bind", "a3=(a2*b2 - a1*b1)/b3",
                 "--max-degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "casimir basis: dimension 2" in out


def test_cli_check_accepts_invariant(capsys):
    assert main(["check", "galilei", "--invariant",
                 "a*u1*u2^-1 - b*log(u2) - a/2*u3"]) == 0
    out = capsys.readouterr().out
    assert "verified: true" in out


def test_cli_check_rejects_non_invariant(capsys):
    assert main(["check", "sphere", "--invariant", "V"]) == 1
    out = capsys.readouterr().out
    assert "verified: false" in out
    assert "2*H" in out


def test_cli_check_parse_error_is_usage(capsys):
    assert main(["check", "sphere", "--invariant", "V +"]) == 2


def test_cli_overlong_integer_literal_is_usage(capsys):
    """A literal past Python's int() digit limit is a parse error, exit 2,
    not a ValueError traceback; leading zeros do not count."""
    assert main(["check", "sphere", "--invariant", "9" * 5000 + "*H"]) == 2
    assert "integer literal longer than 4300 digits" in capsys.readouterr().err
    assert main(["check", "sphere", "--invariant", "1/" + "9" * 4301 + "*H"]) == 2
    assert "integer literal longer than 4300 digits" in capsys.readouterr().err
    assert main(["check", "sphere", "--invariant", "0" * 5000 + "2*H - 2*H"]) == 0


def test_cli_flow_defaults(capsys):
    assert main(["flow", "sphere"]) == 0
    out = capsys.readouterr().out
    assert "drift" in out


def test_cli_flow_pole_exit(capsys, tmp_path):
    data = minimal_data()
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(data))
    assert main(["flow", str(path), "--observable", "1/2*u2^2",
                 "--init", "u1=1,u2=-1", "--steps", "2000",
                 "--dt", "0.001", "--monitor", "1/(u1 - 1/2)"]) == 1
    err = capsys.readouterr().err
    assert "step 500" in err or "aborted" in err


def test_cli_flow_non_finite_exit(capsys, tmp_path):
    """A trajectory that overflows fails with exit 1 and writes no report
    (a report would hold Infinity, which is not JSON)."""
    report = tmp_path / "flow.json"
    assert main(["flow", "sphere", "--dt", "1", "--steps", "400",
                 "--json", str(report)]) == 1
    captured = capsys.readouterr()
    assert "not finite" in captured.err
    assert captured.out == ""
    assert not report.exists()


def test_cli_flow_overflowing_init_is_usage(capsys):
    assert main(["flow", "sphere", "--observable", "V",
                 "--init", "H=1e400,phi=0,V=0,R=1",
                 "--dt", "0.001", "--steps", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --init value for 'H' overflows a float: '1e400'\n"
    assert captured.out == ""


@pytest.mark.parametrize("dt", ["inf", "nan", "1e400"])
def test_cli_flow_non_finite_step_size_is_usage(capsys, dt):
    assert main(["flow", "sphere", "--dt", dt, "--steps", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: step size must be finite\n"
    assert captured.out == ""


def test_cli_flow_unknown_init_name_is_usage(capsys):
    """A name that is neither a variable nor a parameter is not ignored."""
    assert main(["flow", "sphere", "--init", "h=2", "--steps", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --init names an unknown variable: 'h'\n"
    assert captured.out == ""
@pytest.mark.parametrize("init, name, mode", [
    ("q1=1,q2=0,q3=0,p1=0,p2=0.8,p3=0.1,m=1,kappa=1,H=3", "H", "canonical"),
    ("q1=1,q2=0,q3=0,p1=0,p2=0.8,p3=0.1,m=1,kappa=1,rho=7", "rho", "canonical"),
    ("H=-0.5,L1=0.3,L2=-0.2,L3=0.4,M1=0.1,M2=0.25,M3=-0.15,m=1,kappa=1,rho=2",
     "rho", "abstract"),
])
def test_cli_flow_init_value_the_mode_ignores_is_usage(capsys, init, name, mode):
    """Canonical runs take q, p and parameters, abstract runs generators and
    parameters; a value the run would drop is an error."""
    assert main(["flow", "hydrogen", "--observable", "H", "--init", init,
                 "--dt", "0.001", "--steps", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: --init value for {name!r} is not used by "
                            f"the {mode} flow\n")
    assert captured.out == ""


def test_cli_flow_checks_only_the_given_init_names(capsys):
    """The sphere's default state names generators; a canonical --init on top
    of it is not rejected for them."""
    assert main(["flow", "sphere", "--init", "q1=1,q2=0,q3=0,p1=0,p2=1,p3=0",
                 "--steps", "10"]) == 0
    assert "flow (canonical)" in capsys.readouterr().out


def test_cli_pinned_degree_does_not_escalate(tmp_path, capsys):
    """gl(3) at degree 2 falls short of its corank 3 and stays there; without
    the pin it escalates to degree 3."""
    path = tmp_path / "gl3.json"
    path.write_text(json.dumps(lie_module().documents()["gl3"][0]))
    assert main(["solve", str(path), "--max-degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "escalation:" not in out
    assert "independence rank: 2 (corank 3)" in out
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert ("escalation: independence 2 < corank 3: raising max_degree to 3"
            in out)
    assert "independence rank: 3 (corank 3)" in out


def test_cli_examples_listing_and_emit(tmp_path, capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    for name in corpus_names():
        assert name in out
    target = tmp_path / "sphere.json"
    assert main(["examples", "sphere", "--emit", str(target)]) == 0
    capsys.readouterr()
    reloaded = load_problem(target)
    assert reloaded.generator_names == ["H", "phi", "V"]


def test_cli_seed_echoed(capsys):
    assert main(["solve", "sphere", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "seed: 7" in out


def test_binding_applies_to_check_invariant(capsys):
    """A bound parameter may appear in the checked invariant."""
    assert main(["check", "sklyanin", "--bind", "a3=(a2*b2 - a1*b1)/b3",
                 "--invariant", "a3*u1^2 - b2*u2^2 + b1*u3^2"]) == 0
    out = capsys.readouterr().out
    assert "verified: true" in out


def test_console_script_entry_point():
    """The installed executable answers a solve request end to end."""
    exe = shutil.which("plq")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run([exe, "solve", "sphere"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "H*R^2 + H*phi - 1/2*V^2" in proc.stdout
