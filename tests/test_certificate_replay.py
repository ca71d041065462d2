"""Replay the Casimir rank certificate of `solve --json` reports in sympy.

For every pinned solve whose report says `"certificate": "casimirs"`, the
structure matrix is rebuilt in sympy from the problem document, with the
report's bindings, and the certificate is checked from outside the engine:
the rank at the reported witness, the exact residuals {F, u_j} of every
solution, the Jacobian rank of the solutions and free central generators at
the witness, and rank = r - independence rounded down to even.
"""

import json

import pytest

sympy = pytest.importorskip("sympy")
from sympy.parsing.sympy_parser import (convert_xor, parse_expr,  # noqa: E402
                                        standard_transformations)

from plq.corpus import corpus_data, corpus_names  # noqa: E402
from test_cli_golden import CASES, problem_files, run_case  # noqa: E402

SOLVES = [name for name, argv in CASES.items()
          if argv[0] == "solve" and not name.startswith("error-")]


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    files = problem_files(tmp_path_factory.mktemp("replay"))
    docs = {name: corpus_data(name) for name in corpus_names()}
    for name, path in files.items():
        with open(path) as f:
            docs[name] = json.load(f)
    return files, docs


def parser(doc):
    """Text of the package grammar to sympy, over the document's names."""
    variables = doc.get("variables", {})
    names = [g["name"] for g in doc["generators"]] + list(variables.get("parameters", []))
    symbols = {n: sympy.Symbol(n) for n in names}
    symbols["log"] = sympy.log

    def parse(text):
        return parse_expr(text, local_dict=symbols,
                          transformations=standard_transformations + (convert_xor,))
    return parse, [symbols[g["name"]] for g in doc["generators"]], symbols


def replay(doc, report):
    parse, gens, symbols = parser(doc)
    r = len(gens)
    bind = {symbols[k]: parse(v) for k, v in report["bindings"].items()}
    position = {g: k for k, g in enumerate(gens)}
    f = sympy.zeros(r, r)
    for entry in doc["brackets"]:
        i, j = position[symbols[entry["i"]]], position[symbols[entry["j"]]]
        f[i, j] = parse(entry["expression"]).subs(bind)
        f[j, i] = -f[i, j]
    rank, solve = report["rank"], report["solve"]
    at = {symbols[k]: sympy.Rational(v) for k, v in rank["witness"].items()}
    assert f.subs(at).rank() == rank["rank"]
    solutions = [parse(s) for s in solve["solutions"]]
    for F in solutions:
        for j in range(r):
            residual = sum(sympy.diff(F, gens[i]) * f[i, j] for i in range(r))
            assert sympy.cancel(sympy.together(residual)) == 0, (F, gens[j])
    exprs = solutions + [symbols[n] for n in solve["free_central"]]
    jacobian = sympy.Matrix([[sympy.diff(F, g) for g in gens] for F in exprs])
    assert jacobian.subs(bind).subs(at).rank() == solve["independence"]
    assert rank["rank"] == (r - solve["independence"]) // 2 * 2
    assert rank["corank"] == r - rank["rank"] == solve["corank"]


@pytest.mark.parametrize("name", SOLVES)
def test_casimir_certificate_replays_in_sympy(name, documents, tmp_path):
    files, docs = documents
    got = run_case(CASES[name], files, tmp_path / "report.json")
    report = got["report"]
    assert report["rank"]["certificate"] == "casimirs"
    replay(docs[report["problem"]], report)


@pytest.mark.parametrize("tamper", ["rank", "independence", "solution"])
def test_tampered_report_fails_the_replay(tamper, documents, tmp_path):
    """The checker is not vacuous: a report with a rank raised by two, an
    independence raised by one or a coefficient changed is refused."""
    files, docs = documents
    report = run_case(CASES["solve-so4"], files, tmp_path / "report.json")["report"]
    if tamper == "rank":
        report["rank"]["rank"] += 2
    elif tamper == "independence":
        report["solve"]["independence"] += 1
    else:
        report["solve"]["solutions"][0] = "2*" + report["solve"]["solutions"][0]
    with pytest.raises(AssertionError):
        replay(docs["so4"], report)
