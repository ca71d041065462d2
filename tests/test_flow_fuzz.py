"""Fuzzed input boundary of `plq flow`.

Hypothesis draws `--init`, `--dt`, `--steps`, `--observable` and `--monitor`
for the sphere, hydrogen and galilei problems, valid and hostile alike, and
`plq.cli.main` runs each in-process: every run ends with exit 0, 1 or 2 and
no uncaught exception.  Step counts stay small, so no example runs long.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from plq.cli import main  # noqa: E402
from plq.corpus import corpus_problem  # noqa: E402

PROBLEMS = ("sphere", "hydrogen", "galilei")
VALUES = ["0", "-0", "1", "-1", "0.5", "-0.5", "0.8", "1/3", "2", "1e-300",
          "1e400", "-1e400", "nan", "inf", "abc", "1/0", "", " 3 "]
NAMES = ["", "x", "q9", "H", "u2", "q1", "p2", "m", "R", "a"]
EXPRESSIONS = ["H", "V", "phi + R^2", "(phi + R^2)*H - 1/2*V^2", "L3", "M1",
               "L1*M2 + 1/2*L3^2", "H*(L1^2 + L2^2 + L3^2) - m/2*M1^2",
               "u1 + u3^2", "log(u2)", "a*u1*u2^-1 - b*log(u2)", "q1*p2 - q2*p1",
               "1/q1", "1/(q1 - 1)", "H^-1", "1/0", "log(q1)", "u2^-3", "(",
               "H +", "zz", "2", "0", "u1^120*u2^120", "1e5000", "H^40"]
DTS = ["0.001", "0.1", "1", "100", "0", "-0.1", "nan", "inf", "1e308",
       "1e-320", "x", ""]
STEPS = ["1", "3", "20", "60", "0", "-2", "x", "1.5", "2e1", ""]


@st.composite
def flow_argv(draw):
    problem = draw(st.sampled_from(PROBLEMS))
    names = list(corpus_problem(problem).table.names) + NAMES
    entries = draw(st.lists(st.tuples(st.sampled_from(names),
                                      st.sampled_from(VALUES),
                                      st.sampled_from(["=", ""])),
                            max_size=10))
    argv = ["flow", problem]
    if draw(st.booleans()):
        argv.append("--init=" + ",".join(n + s + v for n, v, s in entries))
    for flag, pool in (("--observable", EXPRESSIONS), ("--dt", DTS),
                       ("--steps", STEPS)):
        value = draw(st.none() | st.sampled_from(pool))
        if value is not None:
            argv.append(f"{flag}={value}")
    for text in draw(st.lists(st.sampled_from(EXPRESSIONS), max_size=3)):
        argv.append(f"--monitor={text}")
    return argv


def run(argv):
    """Exit status of `main(argv)`, with an argparse exit taken as its code."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=50, deadline=None, derandomize=True)
@given(flow_argv())
def test_flow_arguments_exit_cleanly(argv):
    assert run(argv) in (0, 1, 2), argv


@pytest.mark.parametrize("argv", [
    ["flow", "hydrogen", "--init=q1=1,q2=0,q3=0,p1=0,p2=0.8,p3=0.1,m=1,kappa=1",
     "--observable=H", "--dt=0.01", "--steps=20", "--monitor=H",
     "--monitor=L3"],
    ["flow", "galilei", "--init=u1=1,u2=2,u3=0.5,a=1,b=1",
     "--observable=log(u2)", "--dt=0.001", "--steps=5"],
    ["flow", "sphere"],
])
def test_valid_flow_arguments_exit_zero(argv):
    """The fuzzed boundary also reaches runs that succeed."""
    assert run(argv) == 0
