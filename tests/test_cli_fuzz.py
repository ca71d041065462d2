"""Fuzzed input boundary of the whole command line.

Hypothesis mutates the corpus documents (keys dropped, renamed or retyped,
huge numbers and long strings included, expressions replaced) and draws
expressions over the grammar's alphabet, with non-ASCII digits and letters
and deep nesting, for bracket expressions, `--bind`, `--invariant` and
`--init`.  `plq.cli.main` runs each case in-process at `--max-degree` 2 or
below: every run ends with exit 0, 1 or 2 and no uncaught exception, within
the deadline.

Two size blowups stay out of the draws, since they exhaust time or memory
rather than raise: a huge `variables.pairs` and a table of thousands of
generators.  Integer pieces are 0, 1, 2, 4, 6 and 7, so drawn exponents reach
64, the parser's largest; a power that could expand past
`plq.expr.TERM_LIMIT` terms is a parse error.  `(u1+u2+u3+u4)^47` parses,
but its brackets with sklyanin's generators would multiply more pairs of
terms than `plq.structure.BRACKET_TERMS`, so `check` exits 2 before forming
them.
"""

import copy
import json
import time
from datetime import timedelta

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from plq.cli import main  # noqa: E402
from plq.corpus import corpus_data, corpus_names  # noqa: E402
from test_flow_fuzz import run  # noqa: E402

DEEP = ["(" * 3000 + "H" + ")" * 3000, "-" * 3000 + "u1", "(" * 3000,
        "-(" * 1500 + "1" + ")" * 1500, "(" * 30 + "u1 + 2" + ")" * 30]
NAMES = ["H", "V", "phi", "R", "u1", "u2", "u3", "q1", "p2", "a", "zz"]
PIECES = NAMES + ["log", "0", "1", "2", "4", "6", "7", "+", "-", "*", "/", "^", "(", ")",
                  " ", "²", "٣", "é", "Ⅻ", "\u3000", "\u00a0", "$"]
LONG = ["u1 + " * 2000 + "u1", "x" * 10000]
VALID = ["H", "-2*V", "2*H + 1/2", "phi + R^2", "u1*u2 - u3", "u2^-1",
         "log(u2)", "q1*p2 - q2*p1", "(u1 + u2)^7", "a*u1", "0", "(u1+u2+u3+u4)^47"]
EXPRESSIONS = (st.sampled_from(VALID + LONG) | st.sampled_from(DEEP)
               | st.lists(st.sampled_from(PIECES), max_size=12).map("".join))
VALUES = ["0", "1", "-0.5", "1/3", "1e400", "nan", "٣", "²", "x", ""]
SMALL = [None, True, 0, -1, 3, 2.5, ""]
RETYPED = SMALL + ["u1", [], {}, ["u1"], {"u1": 1}, 127, 10**30, -10**30, 1e308, *LONG]


def _slots(node) -> list:
    """(container, key) for every value inside a document, depth first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    out = []
    for key, value in items:
        out.append((node, key))
        out.extend(_slots(value))
    return out


@st.composite
def documents(draw):
    """A corpus document with up to three mutations."""
    doc = copy.deepcopy(corpus_data(draw(st.sampled_from(corpus_names()))))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["drop", "rename", "retype", "expression"]))
        slots = [(node, key) for node, key in _slots(doc)
                 if op != "expression" or key in ("expression", "canonical")]
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        if op == "drop":
            del node[key]
        elif op == "rename":
            if isinstance(node, dict):
                new = draw(st.sampled_from(["nam", "i", "j", "expression", "parameters"]))
                node[new] = node.pop(key)
        elif op == "retype":
            # a huge pair count is a known blowup, not a type error
            node[key] = copy.deepcopy(draw(st.sampled_from(SMALL if key == "pairs"
                                                           else RETYPED)))
        else:
            node[key] = draw(EXPRESSIONS)
    return doc


def _assignments(draw, values) -> str:
    names = draw(st.lists(st.sampled_from(NAMES), max_size=4))
    return ",".join(f"{n}={draw(values)}" for n in names)


@st.composite
def command_lines(draw, file: str):
    command = draw(st.sampled_from(["verify", "rank", "solve", "check", "flow"]))
    argv = [command, file]
    if draw(st.integers(0, 3)) == 0:
        argv.append("--bind=" + _assignments(draw, EXPRESSIONS))
    if command == "solve":
        argv.append(f"--max-degree={draw(st.integers(0, 2))}")
    elif command == "check":
        argv.append("--invariant=" + draw(EXPRESSIONS))
    elif command == "flow":
        argv += ["--steps=3", "--dt=0.1"]
        if draw(st.booleans()):
            argv.append("--init=" + _assignments(draw, st.sampled_from(VALUES)))
    return argv


FUZZ = settings(max_examples=150, deadline=timedelta(seconds=2), derandomize=True)


@pytest.fixture(scope="module")
def problem_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "problem.json"


@FUZZ
@given(data=st.data())
def test_mutated_documents_exit_cleanly(problem_file, data):
    doc = data.draw(documents())
    problem_file.write_text(json.dumps(doc))
    argv = data.draw(command_lines(str(problem_file)))
    assert run(argv) in (0, 1, 2), (doc, argv)


@FUZZ
@given(data=st.data())
def test_drawn_expressions_on_corpus_problems_exit_cleanly(data):
    argv = data.draw(command_lines(data.draw(st.sampled_from(corpus_names()))))
    assert run(argv) in (0, 1, 2), argv


def test_a_bracket_past_the_budget_exits_2_within_the_deadline(capsys):
    """The drawn power that parses but whose brackets would pass the budget:
    sklyanin's {F, u_j} would multiply 3 * 18424 pairs of terms."""
    start = time.perf_counter()
    assert main(["check", "sklyanin", "--invariant", "(u1+u2+u3+u4)^47"]) == 2
    assert time.perf_counter() - start < FUZZ.deadline.total_seconds()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: bracket with u1 would multiply 55272 pairs of "
                            "terms, more than 40000\n")
