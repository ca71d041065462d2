"""The benchmark's tracer against the names it wraps.

`bench/tracing.Tracer.install` replaces module and class attributes of `plq`
by name, so renaming or deleting one of them breaks only traced benchmark
runs unless a test installs the tracer too.
"""

import importlib
from pathlib import Path

import plq.cli
import plq.flow
import plq.linalg
import plq.solver
import plq.structure
from plq.expr import Poly, RatFunc

OWNERS = (plq.cli, plq.flow, plq.linalg, plq.solver, plq.structure, Poly, RatFunc)


def test_tracer_installs_and_uninstalls_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = importlib.import_module("tracing").Tracer()
    try:
        tracer.install()
        wrapped = [{name for name, value in vars(owner).items() if value is not was.get(name)}
                   for owner, was in zip(OWNERS, before)]
    finally:
        tracer.uninstall()
    assert {"nullspace", "presolve_forced_zero", "assemble_system"} <= wrapped[3]
    assert all(wrapped)
    for owner, was in zip(OWNERS, before):
        now = vars(owner)
        assert now.keys() == was.keys()
        assert all(now[name] is value for name, value in was.items()), owner
