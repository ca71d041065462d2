"""Problem documents and the command-line interface."""

import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from plq import linalg, problem as problem_module
from plq.cli import main
from plq.corpus import corpus_data, corpus_names, corpus_problem
from plq.expr import PAIR_LIMIT
from plq.parsing import parse_expression, parse_ratfunc
from plq.problem import ProblemError, build_problem, load_problem
from plq.solver import verify_invariant
from plq.structure import BracketTable, bind_parameters
from test_solver import lie_module

SRC = str(Path(__file__).resolve().parents[1] / "src")


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


def test_repeated_texts_are_parsed_once(monkeypatch):
    """gl(3) has 11 distinct texts among its 21 brackets: each is parsed once
    and the table equals one whose texts are each parsed on their own."""
    doc = lie_module().gl_document(3)
    texts = [entry["expression"] for entry in doc["brackets"]]
    calls = []
    monkeypatch.setattr(problem_module, "parse_ratfunc",
                        lambda text, table: calls.append(text) or parse_ratfunc(text, table))
    shared = build_problem(doc).brackets
    assert (len(texts), len(calls), len(set(calls))) == (21, 11, 11)
    table, names = shared.table, list(shared.generator_names)
    separate = BracketTable(table, {(names.index(e["i"]), names.index(e["j"])):
                                    parse_ratfunc(e["expression"], table) for e in doc["brackets"]})
    assert shared.entries == separate.entries
    assert {k: str(f) for k, f in shared.entries.items()} == \
        {k: str(f) for k, f in separate.entries.items()}


def test_repeated_bad_text_names_its_first_bracket():
    data = minimal_data()
    data["generators"].append({"name": "u3"})
    data["brackets"] = [{"i": "u1", "j": "u2", "expression": "u3"},
                        {"i": "u1", "j": "u3", "expression": "u2 +"},
                        {"i": "u2", "j": "u3", "expression": "u2 +"}]
    with pytest.raises(ProblemError, match=r"^brackets\[1\]\.expression: "):
        build_problem(data)


def test_load_missing_file(tmp_path):
    with pytest.raises(ProblemError):
        load_problem(tmp_path / "absent.json")


def test_load_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ProblemError):
        load_problem(path)


def same_expression(f, g):
    """The same terms, over equal tables of two builds; `==` compares
    expressions of one table only."""
    return (f.table == g.table and f.num.packed == g.num.packed
            and f.den.packed == g.den.packed)


@pytest.mark.parametrize("name", corpus_names())
def test_emit_writes_the_printed_document(name, tmp_path, capsys):
    target = tmp_path / f"{name}.json"
    assert main(["examples", name]) == 0
    printed = capsys.readouterr().out
    assert main(["examples", name, "--emit", str(target)]) == 0
    assert capsys.readouterr().out == f"wrote {target}\n"
    assert target.read_bytes() == printed.encode()


def test_emitted_document_loads_to_the_corpus_problem(tmp_path, capsys):
    """A file written by `--emit` is the problem its corpus name is."""
    for name in corpus_names():
        target = tmp_path / f"{name}.json"
        assert main(["examples", name, "--emit", str(target)]) == 0
        again, problem = load_problem(target), corpus_problem(name)
        assert again.name == problem.name
        assert again.generator_names == problem.generator_names
        assert again.brackets.entries.keys() == problem.brackets.entries.keys()
        for key, value in problem.brackets.entries.items():
            assert same_expression(again.brackets.entries[key], value)
        assert (again.realization is None) == (problem.realization is None)
        if problem.realization is not None:
            pairs = zip(again.realization.expressions,
                        problem.realization.expressions, strict=True)
            assert all(same_expression(f, g) for f, g in pairs)
        assert again.invertible == problem.invertible
        assert again.ansatz == problem.ansatz
        assert again.flow_defaults == problem.flow_defaults


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


@pytest.mark.parametrize("problem, text", [("sphere", "q1"), ("hydrogen", "rho"),
                                           ("hydrogen", "p1*q2"), ("hydrogen", "L1 + p3/m")])
def test_cli_check_refuses_canonical_variables(problem, text, tmp_path, capsys):
    """{q1, H} = p1 under the sphere realization, so q1 is no observable of
    the bracket table, whatever its residuals against the generators read:
    `check` refuses it as `flow` does, exit 2 and nothing on stdout."""
    report = tmp_path / "report.json"
    assert main(["check", problem, "--invariant", text, "--json", str(report)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the invariant must use only generators and parameters\n"
    assert json.loads(report.read_text())["error"] == \
        "the invariant must use only generators and parameters"


@pytest.mark.parametrize("text, message", [
    ("log(u2)*log(u2)", "product of two expressions with log terms leaves the ring at position 7"),
    ("a*u1 + log(u2)*(1 + log(u3))",
     "product of two expressions with log terms leaves the ring at position 14"),
    ("u2/log(u2)", "division by an expression with log terms at position 2"),
    ("log(u2)^2", "powers of expressions with log terms leave the ring at position 7")])
def test_cli_log_operator_errors_name_the_operator(text, message, capsys):
    assert main(["check", "galilei", "--invariant", text]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_check_parse_error_is_usage(capsys):
    assert main(["check", "sphere", "--invariant", "V +"]) == 2


@pytest.mark.parametrize("text, message", [
    ("2*²", "unexpected character '²'"), ("٣*H", "unexpected character '٣'"),
    ("(" * 3000 + "H" + ")" * 3000, "expression nested too deeply"),
    ("-" * 3000 + "H", "expression nested too deeply")],
    ids=["superscript", "arabic-indic", "parentheses", "minus"])
def test_cli_hostile_expression_is_one_error_line(text, message, tmp_path, capsys):
    """Non-ASCII digits and nesting past the recursion limit are parse
    errors, in `check --invariant` and in a document's bracket expression:
    exit 2 with one `error:` line, not a traceback."""
    data = corpus_data("sphere")
    data["brackets"][0]["expression"] = text
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(data))
    for argv in (["check", "sphere", f"--invariant={text}"], ["verify", str(path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


@pytest.mark.parametrize("argv", [
    ["check", "sphere", "--invariant=--"], ["check", "sphere", "--invariant=H", "--bind=--"],
    ["flow", "sphere", "--monitor=H", "--monitor=--"], ["flow", "sphere", "--dt=--"],
    ["flow", "sphere", "--steps=--"], ["solve", "sphere", "--max-degree=--"],
    ["flow", "sphere", "--observable=--"]])
def test_cli_option_given_as_double_dash_is_a_usage_error(argv, capsys):
    """`--option=--` exits 2.  argparse reads it as the value "--" or, in
    some versions, as an empty list, which `main` reports as a missing
    argument instead of failing on the list or ignoring it."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "error: " in capsys.readouterr().err


def test_cli_power_past_the_term_limit_is_one_error_line(tmp_path, capsys):
    """A power whose expansion could have more than TERM_LIMIT terms is a
    parse error, exit 2 with one `error:` line, before it is expanded: on
    gl(3) the sum of all nine generators to the 16th would have 735,471
    terms."""
    path = tmp_path / "gl3.json"
    path.write_text(json.dumps(lie_module().gl_document(3)))
    total = " + ".join(f"x{i}{j}" for i in range(1, 4) for j in range(1, 4))
    assert main(["check", str(path), "--invariant", f"({total})^16"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: power to the 16 could have 735471 terms, more than 20000 "
                   "at position 53"]
    assert main(["check", "sphere", "--invariant", "(H + phi + V)^64 - (V + H + phi)^64"]) == 0


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
    """A trajectory that overflows fails with exit 1, and its report is the
    error record, not the states (which would hold Infinity, not JSON)."""
    report = tmp_path / "flow.json"
    assert main(["flow", "sphere", "--dt", "1", "--steps", "400",
                 "--json", str(report)]) == 1
    captured = capsys.readouterr()
    assert "not finite" in captured.err
    assert captured.out == ""
    assert json.loads(report.read_text()) == {
        "command": "flow", "error": captured.err.removeprefix("error: ").rstrip("\n")}


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


def test_cli_examples_prints_the_document(capsys):
    assert main(["examples", "hydrogen"]) == 0
    assert json.loads(capsys.readouterr().out) == corpus_data("hydrogen")


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


def test_cli_emit_without_a_name_is_usage(tmp_path, capsys):
    """`examples --emit PATH` without a NAME has no document to write."""
    target = tmp_path / "out.json"
    assert main(["examples", "--emit", str(target)]) == 2
    assert capsys.readouterr() == ("", "error: --emit needs a problem NAME\n")
    assert not target.exists()


def run_with_stdout_closed(argv):
    """Exit code and standard error of `python -m plq.cli ARGV` whose standard
    output is a pipe with no reader, so its first write fails."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "plq.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": SRC})
    finally:
        os.close(write)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("argv", [["examples"], ["solve", "sphere"]])
def test_closed_stdout_ends_the_process_quietly(argv):
    """`plq examples | head -1` and `plq solve FILE | head -3`: no traceback,
    and the exit status a shell gives a process that SIGPIPE ends."""
    assert run_with_stdout_closed(argv) == (141, "")


def test_main_in_process_leaves_a_broken_pipe_to_its_caller(monkeypatch):
    """Only the process entry point handles a closed standard output; `main`
    raises, and the caller's own standard output is left as it was."""
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")
    monkeypatch.setattr(sys, "stdout", Closed())
    with pytest.raises(BrokenPipeError):
        main(["examples"])


@pytest.mark.parametrize("path, expected", [
    ("", "name, variables, generators, brackets, solver, flow"),
    ("variables.", "pairs, parameters, invertible, algebraic"),
    ("generators[1].", "name, canonical"),
    ("brackets[2].", "i, j, expression"),
    ("solver.", "max_degree, inverse_degree, allow_log"),
    ("flow.", "observable, init, dt, steps, monitors"),
], ids=["document", "variables", "generators", "brackets", "solver", "flow"])
def test_unknown_key_is_usage(path, expected, capsys, tmp_path):
    """A misspelt key is an error naming its path (exit 2), not a default
    used in silence: `"solver": {"max_degre": 3}` solved at degree 2."""
    data = corpus_data("sphere")
    block = data
    for part in path.replace("[", ".").replace("]", "").split(".")[:-1]:
        block = block[int(part)] if part.isdigit() else block[part]
    block["max_degre"] = 3
    file = tmp_path / "sphere.json"
    file.write_text(json.dumps(data))
    assert main(["solve", str(file)]) == 2
    key = repr(path + "max_degre")
    assert capsys.readouterr() == (
        "", f"error: unknown key {key}; expected one of: {expected}\n")


def test_documents_carry_only_known_keys():
    """Every corpus and benchmark document still loads."""
    for name in corpus_names():
        build_problem(corpus_data(name))
    for doc, _ in lie_module().documents().values():
        build_problem(doc)


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


@pytest.mark.parametrize("argv, code", [
    (["rank", "sklyanin"], 2),
    (["flow", "toy.json", "--observable", "1/2*u2^2", "--init", "u1=1,u2=-1",
      "--steps", "2000", "--dt", "0.001", "--monitor", "1/(u1 - 1/2)"], 1),
])
def test_cli_error_writes_its_report(argv, code, capsys, tmp_path, monkeypatch):
    """An error raised inside the computation, a sub-Pfaffian past its term
    guard (exit 2) or a flow that reaches a pole (exit 1), still writes the
    `--json` report: the command and the printed error."""
    monkeypatch.setattr(linalg, "PFAFFIAN_TERMS", 0)
    (tmp_path / "toy.json").write_text(json.dumps(minimal_data()))
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--json", "report.json"]) == code
    err = capsys.readouterr().err
    assert json.loads((tmp_path / "report.json").read_text()) == {
        "command": argv[0], "error": err.removeprefix("error: ").rstrip("\n")}


@pytest.mark.parametrize("argv, err", [
    (["check", "sphere", "--bind", "R=2", "--bind", "R=3",
      "--invariant", "(phi + R^2)*H - 1/2*V^2"], "--bind gives 'R' twice"),
    (["verify", "sphere", "--bind", "R=2", "--bind", " R =2"],
     "--bind gives 'R' twice"),
    (["flow", "sphere", "--init", "H=1,H=2,phi=0,V=0,R=1", "--steps", "3"],
     "--init gives 'H' twice"),
])
def test_cli_name_given_twice_is_usage(argv, err, capsys, tmp_path):
    """A repeated `--bind` or `--init` name is an error (exit 2), not a value
    that silently replaces the first; `--json` receives the error record."""
    report = tmp_path / "report.json"
    assert main([*argv, "--json", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {err}\n"
    assert captured.out == ""
    assert json.loads(report.read_text()) == {"command": argv[0], "error": err}


def malformed(command, block, field, value, err, label):
    return pytest.param(command, block, field, value, err, id=label)


@pytest.mark.parametrize("command, block, field, value, err", [
    malformed("flow", "flow", "observable", 3,
              "flow.observable must be a string, got int", "observable-int"),
    malformed("flow", "flow", "init", "x",
              "flow.init must be an object, got str", "init-str"),
    malformed("flow", "flow", "init", {"H": "0.5"},
              "flow.init.H must be a number, got str", "init-value-str"),
    malformed("flow", "flow", "init", {"H": True},
              "flow.init.H must be a number, got bool", "init-value-bool"),
    malformed("flow", "flow", "init", {"H": 10**400},
              "flow.init.H overflows a float", "init-value-huge"),
    malformed("flow", "flow", "dt", "fast",
              "flow.dt must be a number, got str", "dt-str"),
    malformed("flow", "flow", "dt", "0.5",
              "flow.dt must be a number, got str", "dt-numeric-str"),
    malformed("flow", "flow", "dt", 10**400, "flow.dt overflows a float", "dt-huge"),
    malformed("flow", "flow", "steps", [1],
              "flow.steps must be an integer, got list", "steps-list"),
    malformed("flow", "flow", "steps", True,
              "flow.steps must be an integer, got bool", "steps-bool"),
    malformed("flow", "flow", "monitors", 5,
              "flow.monitors must be a list of strings", "monitors-int"),
    malformed("flow", "flow", "monitors", ["H", 1],
              "flow.monitors must be a list of strings", "monitors-item-int"),
    malformed("solve", "solver", "max_degree", 2.9,
              "solver.max_degree must be an integer, got float", "max_degree-float"),
    malformed("solve", "solver", "max_degree", True,
              "solver.max_degree must be an integer, got bool", "max_degree-bool"),
    malformed("solve", "solver", "inverse_degree", False,
              "solver.inverse_degree must be an integer, got bool",
              "inverse_degree-bool"),
    malformed("solve", "solver", "allow_log", "false",
              "solver.allow_log must be true or false, got str", "allow_log-str"),
    malformed("verify", "variables", "pairs", True,
              "variables.pairs must be a nonnegative integer", "pairs-bool"),
])
def test_cli_malformed_document_field_is_usage(command, block, field, value, err,
                                                capsys, tmp_path):
    """A field of the wrong type is an error that names it (exit 2), not a
    traceback or a value coerced into another: `bool("false")` is True."""
    data = corpus_data("sphere")
    data[block][field] = value
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(data))
    report = tmp_path / "report.json"
    assert main([command, str(path), "--json", str(report)]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")
    assert json.loads(report.read_text()) == {"command": command, "error": err}


@pytest.mark.parametrize("command", ["verify", "solve"])
def test_cli_pairs_past_the_limit_is_one_error_line(command, capsys, tmp_path):
    """`variables.pairs` past `expr.PAIR_LIMIT` is exit 2 with one `error:`
    line naming the field, before a table is built: 1,000,000 pairs took
    2.4 s and 283 MB, and 10,000,000 ended in a MemoryError traceback.  The
    limit itself still builds."""
    data = corpus_data("sphere")
    path = tmp_path / "sphere.json"
    for pairs in (PAIR_LIMIT + 1, 10_000_000):
        data["variables"]["pairs"] = pairs
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        assert main([command, str(path)]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == (
            "", f"error: variables.pairs must be at most {PAIR_LIMIT}\n")
    data["variables"]["pairs"] = PAIR_LIMIT
    assert len(build_problem(data).table) == 2 * PAIR_LIMIT + 4


# A binding reaches the bracket table, the realization and the command's own
# expressions.
SKLYANIN_BIND = ["--bind", "a3=(a2*b2 - a1*b1)/b3"]


def flow_report(tmp_path, argv):
    """Exit code and `--json` report of one flow."""
    path = tmp_path / "flow.json"
    code = main(["flow", *argv, "--json", str(path)])
    return code, json.loads(path.read_text())


@pytest.mark.parametrize("argv, pairs", [
    (["sphere", "--bind", "R=2"], 3),
    (["hydrogen", "--bind", "m=1"], 21),
])
def test_binding_reaches_the_realization(argv, pairs, capsys):
    """The realization is bound with the table, so closure holds."""
    assert main(["verify", *argv]) == 0
    assert f"closure: ok ({pairs} pairs)" in capsys.readouterr().out


def test_bound_solve_checks_closure(capsys):
    assert main(["solve", "sphere", "--bind", "R=2"]) == 0
    assert "closure: ok (3 pairs)" in capsys.readouterr().out


def test_binding_to_a_generator_drops_the_realization(capsys):
    """R = H cannot bind a canonical realization: the problem has none, so
    `verify` checks Jacobi alone."""
    assert main(["rank", "sphere", "--bind", "R=H"]) == 0
    assert main(["solve", "sphere", "--bind", "R=H"]) == 0
    capsys.readouterr()
    assert main(["verify", "sphere", "--bind", "R=H"]) == 0
    out = capsys.readouterr().out
    assert "closure" not in out
    assert "jacobi: ok (1 triple)" in out


def test_bound_flow_monitors_the_bound_invariant(tmp_path, capsys):
    """The default monitor reads R from the binding, not from --init, and
    stays constant."""
    code, report = flow_report(tmp_path, ["sphere", "--bind", "R=2"])
    assert code == 0
    (monitor,) = report["flow"]["monitors"]
    assert monitor["initial"] == 4.0
    assert monitor["max_drift"] < 1e-13


def test_bound_flow_takes_bound_parameters_in_expressions(tmp_path, capsys):
    """a3 is bound, so a monitor may use it with no value in --init."""
    code, report = flow_report(tmp_path, [
        "sklyanin", *SKLYANIN_BIND, "--observable", "u1*u2",
        "--monitor", "a3*u1^2 - b2*u2^2 + b1*u3^2",
        "--init", "u1=1,u2=0.5,u3=0.25,u4=2,a1=1,a2=2,b1=1,b2=1,b3=1",
        "--dt", "0.001", "--steps", "200"])
    assert code == 0
    assert report["flow"]["monitors"][0]["max_drift"] < 1e-11


def test_bound_canonical_flow(capsys):
    """A canonical run realizes phi with R = 2, not with the R = 1 of the
    document's default state."""
    assert main(["flow", "sphere", "--bind", "R=2", "--observable", "H",
                 "--init", "q1=1,q2=0,q3=0,p1=0,p2=1,p3=0", "--dt", "0.001",
                 "--steps", "100", "--monitor", "phi"]) == 0
    assert "monitor phi: initial -3," in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--observable", "H", "--init", "q1=1,q2=0,q3=0,p1=0,p2=1,p3=0,R=1",
     "--dt", "0.001", "--steps", "100", "--monitor", "phi"],
    ["--init", "R=1"],
])
def test_cli_flow_init_value_for_a_bound_parameter_is_usage(argv, capsys, tmp_path):
    """`--bind R=2` fixes R, so an `--init` value for R would be dropped."""
    report = tmp_path / "report.json"
    assert main(["flow", "sphere", "--bind", "R=2", *argv,
                 "--json", str(report)]) == 2
    err = "--init value for 'R' is not used: --bind gives it"
    assert capsys.readouterr() == ("", f"error: {err}\n")
    assert json.loads(report.read_text()) == {"command": "flow", "error": err}


def test_bound_flow_prints_the_bound_observable(tmp_path, capsys):
    code, report = flow_report(tmp_path, ["sphere", "--bind", "R=2",
                                          "--observable", "R^2*V", "--steps", "10"])
    assert code == 0
    assert "flow (abstract): observable 4*V, 10 steps" in capsys.readouterr().out
    assert report["flow"]["observable"] == "4*V"


def test_console_script_entry_point():
    """The installed executable answers a solve request end to end."""
    exe = shutil.which("plq")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run([exe, "solve", "sphere"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "H*R^2 + H*phi - 1/2*V^2" in proc.stdout
