"""Pinned output of the command line on a fixed set of commands.

Each case runs `plq.cli.main` in-process and compares its exit code, standard
output, standard error and `--json` report (key order included, without the
wall-clock `timings.total`) with `tests/golden/cli.json`.  All cases share the
parser that `main` builds on its first call, so the tests at the end replay
them in other orders and check that no call sees another's values.  After a
deliberate output change, rewrite that file from the repository root with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from plq import cli
from plq.cli import main
from test_solver import lie_module

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
BIND = ["--bind", "a3=(a2*b2 - a1*b1)/b3"]
SKLYANIN = ["sklyanin", *BIND]
HYDROGEN_STATE = "H=-0.5,L1=0.3,L2=-0.2,L3=0.4,M1=0.1,M2=0.25,M3=-0.15,m=1,kappa=1"
KEPLER_STATE = "q1=1,q2=0,q3=0,p1=0,p2=0.8,p3=0.1,m=1,kappa=1"
SHORT = ["--dt", "0.001", "--steps", "20"]

# Case name -> argv; {gl3}, {gl4}, {so4} and {so5} stand for generated problem files.
CASES = {
    **{f"{command}-{name.strip('{}')}": [command, name, *bind]
       for name, bind in [("sphere", []), ("sklyanin", BIND), ("spinchain", []),
                          ("galilei", []), ("nappi-witten", []), ("hydrogen", []),
                          ("{gl3}", []), ("{so4}", [])]
       for command in ("verify", "rank", "solve")},
    **{f"solve-{name}-degree-3": ["solve", name, *bind, "--max-degree", "3"]
       for name, bind in [("sphere", []), ("sklyanin", BIND), ("spinchain", []),
                          ("galilei", []), ("nappi-witten", []), ("hydrogen", [])]},
    "verify-sklyanin-unbound": ["verify", "sklyanin"],
    "solve-galilei-log": ["solve", "galilei", "--inverse-degree", "1", "--allow-log"],
    "check-sphere": ["check", "sphere", "--invariant", "(phi + R^2)*H - 1/2*V^2"],
    "check-sklyanin": ["check", *SKLYANIN, "--invariant", "a3*u1^2 - b2*u2^2 + b1*u3^2"],
    "check-spinchain-fails": ["check", "spinchain", "--invariant", "u1*u2^-1 - 1/2*u3^2"],
    "check-galilei-log": ["check", "galilei", "--invariant",
                          "a*u1*u2^-1 - b*log(u2) - a/2*u3"],
    "check-nappi-witten": ["check", "nappi-witten", "--invariant", "P1^2 + P2^2 + 2*J*T"],
    "check-hydrogen": ["check", "hydrogen", "--invariant", "L1*M1 + L2*M2 + L3*M3"],
    "check-gl3-fails": ["check", "{gl3}", "--invariant", "x12"],
    "flow-sphere-default": ["flow", "sphere"],
    "flow-sklyanin": ["flow", *SKLYANIN, "--observable", "u1*u2", "--init",
                      "u1=1,u2=0.5,u3=0.25,u4=2,a1=1,a2=2,b1=1,b2=1,b3=1", *SHORT],
    "flow-spinchain": ["flow", "spinchain", "--observable", "u3^2", "--init",
                       "u1=1,u2=0.5,u3=0.25,u4=2,a=1", *SHORT],
    "flow-galilei-log": ["flow", "galilei", "--observable", "log(u2)", "--init",
                         "u1=1,u2=2,u3=0.5,a=1,b=1", *SHORT],
    "flow-nappi-witten": ["flow", "nappi-witten", "--observable", "J", "--init",
                          "P1=1,P2=0.5,J=0.25,T=2,a=1,b=1", *SHORT,
                          "--monitor", "P1^2 + P2^2 + 2*J*T"],
    "flow-hydrogen-abstract": ["flow", "hydrogen", "--observable", "L1*M2 + M1^2",
                               "--init", HYDROGEN_STATE, *SHORT, "--monitor", "H"],
    "flow-hydrogen-canonical": ["flow", "hydrogen", "--observable", "H", "--init",
                                KEPLER_STATE, *SHORT, "--monitor", "L3"],
    "solve-so5-escalated": ["solve", "{so5}"],
    "solve-gl3-degree-5": ["solve", "{gl3}", "--max-degree", "5"],
    "solve-gl4-degree-4": ["solve", "{gl4}", "--max-degree", "4"],
    "error-unknown-problem": ["verify", "nosuch"],
    "error-bind-syntax": ["solve", "sphere", "--bind", "x"],
    "error-bind-target": ["rank", "sphere", "--bind", "H=1"],
    "error-parse": ["check", "sphere", "--invariant", "H +"],
    "error-degree": ["solve", "sphere", "--max-degree", "0"],
    "error-flow-observable": ["flow", "spinchain"],
    "error-missing-argument": ["check", "sphere"],
}


def run_case(argv: list[str], files: dict[str, str], report: Path) -> dict:
    """Exit code, output and report of one command."""
    argv = [files.get(a.strip("{}"), a) if a.startswith("{") else a for a in argv]
    report.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--json", str(report)])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    data = json.loads(report.read_text()) if report.exists() else None
    if data and "timings" in data:
        del data["timings"]["total"]
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "report": data}


def problem_files(directory: Path) -> dict[str, str]:
    lie = lie_module()
    docs = {name: doc for name, (doc, _) in lie.documents().items()}
    docs["gl4"] = lie.gl_document(4)
    files = {}
    for name in ("gl3", "gl4", "so4", "so5"):
        path = directory / f"{name}.json"
        path.write_text(json.dumps(docs[name]))
        files[name] = str(path)
    return files


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return problem_files(tmp_path_factory.mktemp("golden"))


def test_golden_covers_every_case(golden):
    assert list(golden) == list(CASES)


def assert_pinned(name, golden, files, report):
    got = run_case(CASES[name], files, report)
    want = golden[name]
    assert (got["exit"], got["stdout"], got["stderr"]) == \
        (want["exit"], want["stdout"], want["stderr"]), name
    # Dumped text compares key order too.
    assert json.dumps(got["report"]) == json.dumps(want["report"]), name


@pytest.mark.parametrize("name", CASES)
def test_cli_output_is_pinned(name, golden, files, tmp_path):
    assert_pinned(name, golden, files, tmp_path / "report.json")


def test_calls_after_the_first_build_no_parser(golden, files, tmp_path,
                                               monkeypatch):
    """Every case after a warm-up call, with `ArgumentParser` construction
    counted: the cached parser serves them all."""
    report = tmp_path / "report.json"
    run_case(CASES["verify-sphere"], files, report)
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for name in CASES:
        assert_pinned(name, golden, files, report)
    assert not built
    assert cli._build_parser() is cli._build_parser()


def test_a_usage_error_leaves_later_calls_pinned(golden, files, tmp_path):
    """argparse's exit on a missing argument, then the corpus cases in
    reverse order: each still gives its pinned output."""
    report = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc, \
            contextlib.redirect_stderr(io.StringIO()):
        main(CASES["error-missing-argument"])
    assert exc.value.code == 2
    corpus = [name for name, argv in CASES.items()
              if not any(a.startswith("{") for a in argv)]
    for name in reversed(corpus):
        assert_pinned(name, golden, files, report)


def test_a_call_without_bind_has_no_bindings(files, tmp_path):
    """`--bind` appends to no list the parser keeps."""
    report = tmp_path / "report.json"
    bound = run_case(["verify", *SKLYANIN], files, report)["report"]
    assert list(bound["bindings"]) == ["a3"]
    assert run_case(["verify", "sphere"], files, report)["report"][
        "bindings"] == {}


@pytest.mark.parametrize("command", [
    [], ["verify"], ["rank"], ["solve"], ["check"], ["flow"], ["examples"]])
def test_help_exits_0_with_its_usage_line(command):
    """`--help` twice in one process: exit 0 and the same text both times,
    opening with this command's usage line."""
    texts = []
    for _ in range(2):
        out = io.StringIO()
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(out):
            main([*command, "--help"])
        assert exc.value.code == 0
        texts.append(out.getvalue())
    assert texts[0] == texts[1]
    assert texts[0].startswith(" ".join(["usage: plq", *command, "[-h]"]))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = problem_files(Path(tmp))
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(
            {name: run_case(argv, paths, Path(tmp) / "report.json")
             for name, argv in CASES.items()}, indent=1) + "\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}", file=sys.stderr)
