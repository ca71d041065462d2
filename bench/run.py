"""Seeded benchmark of the `plq` command line: time to a verified result.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, a closed loop: each workload is a fixed list of
`plq` commands replayed in-process through `plq.cli.main`, one after the
other, with standard output captured and the `--json` report read back and
checked against known answers.  Passes over the list repeat until `--seconds`
have elapsed (at least one pass).  The seed is passed as `--seed` to every
command and jitters the initial states of flows; no expected answer depends
on it.

Times are reported in reference seconds.  On a shared host the same code
runs at one of two speeds about 1.7 apart, and the share of time at each
drifts over minutes; every piece of code slows alike.  So `HostMeter` times
a fixed reference loop (`_reference_work`) around and, from a timer signal,
inside every command and set-up, and rescales each one's wall time by the
host speed it saw, to a host on which that loop takes REF_SECONDS.  A
command's time in a run is its median over the passes.  The record line
keeps the wall-clock medians and the reference loop's median time beside
them.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` passes alternate between untraced and
traced, and it carries the per-layer metrics of the traced passes (see
`tracing.py`).  The line before it is a record of the run: Python version, git
revision, processor count, seed, passes and samples per metric.  Problem
files, reports and spans are written under `.bench_run/` in the repository
root.  See `bench/README.md` for why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import lie
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
# Reported times are reference seconds: wall seconds rescaled to a host on
# which `_reference_work` takes REF_SECONDS (see the module docstring).
REF_SECONDS = 0.0015
BRACKET = 3  # reference samples between timed sections
SAMPLE_PERIOD = 0.05  # seconds between reference samples inside a section
DRIFT_BOUND = 1e-8  # tests/test_acceptance.py, criterion 8
KINDS = ("verify", "rank", "solve", "check", "flow")


# -- commands and their checks ------------------------------------------------

Expect = Callable[[int, dict], list[str]]


@dataclass
class Cmd:
    kind: str
    argv: list[str]
    expect: Expect


def _exit(code: int, want: int) -> list[str]:
    return [] if code == want else [f"exit {code}, expected {want}"]


def verified(jacobi: bool = True, closure_pairs: int | None = None) -> Expect:
    def check(code: int, rep: dict) -> list[str]:
        errs = _exit(code, 0 if jacobi else 1)
        if rep["jacobi"]["ok"] is not jacobi:
            errs.append(f"jacobi ok is {rep['jacobi']['ok']}")
        if closure_pairs is None:
            if "closure" in rep:
                errs.append("unexpected closure report")
        elif (rep["closure"]["ok"], rep["closure"]["pairs"]) != (True, closure_pairs):
            errs.append(f"closure {rep['closure']['ok']} over "
                        f"{rep['closure']['pairs']} pairs")
        return errs
    return check


def ranked(rank: int, corank: int, pfaffian: tuple[str, str] | None = None) -> Expect:
    """Rank and corank; `pfaffian` is (problem, expression) when the
    degeneracy is a nonzero Pfaffian, compared up to sign."""
    def check(code: int, rep: dict) -> list[str]:
        errs = _exit(code, 0)
        got = rep["rank"]
        if (got["rank"], got["corank"]) != (rank, corank):
            errs.append(f"rank {got['rank']}, corank {got['corank']}")
        if pfaffian is None:
            if got["degeneracy"] != "0":
                errs.append(f"degeneracy {got['degeneracy']}, expected 0")
        else:
            from plq.corpus import corpus_problem
            from plq.parsing import parse_ratfunc
            table = corpus_problem(pfaffian[0]).table
            value = parse_ratfunc(got["degeneracy"], table)
            want = parse_ratfunc(pfaffian[1], table)
            if got["kind"] != "pfaffian" or value not in (want, -want):
                errs.append(f"degeneracy {got['degeneracy']}")
        return errs
    return check


def solved(dimension: int, corank: int) -> Expect:
    def check(code: int, rep: dict) -> list[str]:
        errs = _exit(code, 0)
        s = rep["solve"]
        if (s["dimension"], s["corank"], s["independence"]) != \
                (dimension, corank, corank):
            errs.append(f"dimension {s['dimension']}, corank {s['corank']}, "
                        f"independence {s['independence']}")
        if s["verified"] is not True:
            errs.append("not verified")
        return errs
    return check


def invariant(holds: bool = True) -> Expect:
    def check(code: int, rep: dict) -> list[str]:
        errs = _exit(code, 0 if holds else 1)
        if rep["check"]["verified"] is not holds:
            errs.append(f"verified is {rep['check']['verified']}")
        return errs
    return check


def flowed(mode: str, steps: int, monitors: int,
           exact: dict[str, float] | None = None) -> Expect:
    """Exit 0, monitor drift below DRIFT_BOUND, and, where the flow has a
    closed form, a final state within 1e-8 relative of it."""
    def check(code: int, rep: dict) -> list[str]:
        errs = _exit(code, 0)
        f = rep["flow"]
        if (rep["mode"], f["steps"], len(f["monitors"])) != (mode, steps, monitors):
            errs.append(f"{rep['mode']} flow of {f['steps']} steps, "
                        f"{len(f['monitors'])} monitors")
        for m in f["monitors"]:
            if not m["max_drift"] < DRIFT_BOUND:
                errs.append(f"monitor {m['label']} drifts {m['max_drift']}")
        if not all(math.isfinite(v) for v in f["final_state"].values()):
            errs.append("final state not finite")
        for name, want in (exact or {}).items():
            got = f["final_state"][name]
            if not abs(got - want) <= 1e-8 * max(1.0, abs(want)):
                errs.append(f"final {name} = {got}, exact {want}")
        return errs
    return check


def _init(rng: random.Random, state: dict[str, float],
          params: dict[str, float]) -> str:
    """`--init` text: state values jittered by up to 0.02, parameters kept."""
    values = {k: v + rng.uniform(-0.02, 0.02) for k, v in state.items()}
    values.update(params)
    return ",".join(f"{k}={v:.6f}" for k, v in values.items())


def _values(init: str) -> dict[str, float]:
    return {k: float(v) for k, v in (item.split("=") for item in init.split(","))}


SKLYANIN_BIND = "a3=(a2*b2 - a1*b1)/b3"
HYDROGEN = {"m": 1.0, "kappa": 1.0}
HYDROGEN_MONITORS = ["H", "L1*M1 + L2*M2 + L3*M3",
                     "H*(L1^2 + L2^2 + L3^2) - m/2*(M1^2 + M2^2 + M3^2)"]
SPHERE_INVARIANT = "(phi + R^2)*H - 1/2*V^2"
NAPPI_WITTEN_INVARIANT = "P1^2 + P2^2 + 2*J*T"


def _flow(problem: str, observable: str, init: str, steps: int,
          monitors: list[str], mode: str = "abstract",
          exact: dict[str, float] | None = None) -> Cmd:
    return Cmd("flow", ["flow", problem, "--observable", observable,
                        "--init", init, "--dt", "0.001", "--steps", str(steps),
                        *(a for m in monitors for a in ("--monitor", m))],
               flowed(mode, steps, len(monitors), exact))


def _sphere_flow(rng: random.Random, steps: int) -> Cmd:
    """Flow of V on the sphere algebra, which has a closed form:
    H = H0*exp(-2t), phi + R^2 = (phi0 + R^2)*exp(2t), V constant."""
    init = _init(rng, {"H": 1.0, "phi": 0.0, "V": 0.0}, {"R": 1.0})
    v = _values(init)
    t = steps * 0.001
    exact = {"H": v["H"] * math.exp(-2 * t),
             "phi": (v["phi"] + 1.0) * math.exp(2 * t) - 1.0, "V": v["V"]}
    return _flow("sphere", "V", init, steps, [SPHERE_INVARIANT], exact=exact)


def _rigid_body(rng: random.Random, path: str, doc: dict,
                casimirs: list[str], steps: int) -> Cmd:
    """Abstract flow of sum_k L_k^2/k on a generated table, monitoring its
    Casimirs; the coadjoint orbits of so(n) are compact, so it stays bounded."""
    names = [g["name"] for g in doc["generators"]]
    observable = " + ".join(f"1/{k}*{g}^2" for k, g in enumerate(names, 1))
    start = {g: 0.5 * math.cos(k) for k, g in enumerate(names, 1)}
    return _flow(path, observable, _init(rng, start, {}), steps, casimirs)


def corpus_cli(rng: random.Random, t: "Tables") -> list[Cmd]:
    b = ["--bind", SKLYANIN_BIND]
    return [
        Cmd("verify", ["verify", "sphere"], verified(closure_pairs=3)),
        Cmd("verify", ["verify", "sklyanin"], verified(jacobi=False)),
        Cmd("verify", ["verify", "sklyanin", *b], verified()),
        Cmd("verify", ["verify", "spinchain"], verified()),
        Cmd("verify", ["verify", "galilei"], verified()),
        Cmd("verify", ["verify", "nappi-witten"], verified()),
        Cmd("verify", ["verify", "hydrogen"], verified(closure_pairs=21)),
        Cmd("rank", ["rank", "sphere"], ranked(2, 1)),
        Cmd("rank", ["rank", "sklyanin"], ranked(4, 0, (
            "sklyanin", "(a1*b1 - a2*b2 + a3*b3)*u1*u2*u3*u4"))),
        Cmd("rank", ["rank", "spinchain"], ranked(2, 2)),
        Cmd("rank", ["rank", "galilei"], ranked(2, 1)),
        Cmd("rank", ["rank", "nappi-witten"], ranked(2, 2)),
        Cmd("rank", ["rank", "hydrogen"], ranked(4, 3)),
        Cmd("solve", ["solve", "sphere"], solved(1, 1)),
        Cmd("solve", ["solve", "sklyanin", *b], solved(2, 2)),
        Cmd("solve", ["solve", "spinchain"], solved(2, 2)),
        Cmd("solve", ["solve", "galilei"], solved(1, 1)),
        Cmd("solve", ["solve", "nappi-witten"], solved(2, 2)),
        Cmd("solve", ["solve", "hydrogen"], solved(3, 3)),
        Cmd("check", ["check", "sphere", "--invariant", SPHERE_INVARIANT],
            invariant()),
        Cmd("check", ["check", "sklyanin", *b, "--invariant",
                      "a3*u1^2 - b2*u2^2 + b1*u3^2"], invariant()),
        Cmd("check", ["check", "sklyanin", *b, "--invariant",
                      "a1*u1^2 - b3*u3^2 + b2*u4^2"], invariant()),
        Cmd("check", ["check", "spinchain", "--invariant",
                      "u1*u2^-1 - 1/2*u3"], invariant()),
        Cmd("check", ["check", "spinchain", "--invariant",
                      "u1*u2^-1 - 1/2*u3^2"], invariant(holds=False)),
        Cmd("check", ["check", "galilei", "--invariant",
                      "a*u1*u2^-1 - b*log(u2) - a/2*u3"], invariant()),
        Cmd("check", ["check", "nappi-witten", "--invariant",
                      f"a*({NAPPI_WITTEN_INVARIANT}) + b*T^2"], invariant()),
        *(Cmd("check", ["check", "hydrogen", "--invariant", m], invariant())
          for m in HYDROGEN_MONITORS[1:]),
        _sphere_flow(rng, 20000),
    ]


def _checks(t: "Tables", name: str) -> list[Cmd]:
    """Every known Casimir of a generated table holds; its second
    generator (x12, L13) does not."""
    path = t.paths[name]
    other = t.docs[name]["generators"][1]["name"]
    return [*(Cmd("check", ["check", path, "--invariant", c], invariant())
              for c in t.casimirs[name]),
            Cmd("check", ["check", path, "--invariant", other],
                invariant(holds=False))]


def lie_solve(rng: random.Random, t: "Tables") -> list[Cmd]:
    gl3, so4 = t.paths["gl3"], t.paths["so4"]
    return [
        Cmd("verify", ["verify", gl3], verified()),
        Cmd("verify", ["verify", so4], verified()),
        Cmd("verify", ["verify", t.paths["gl2"]], verified(closure_pairs=6)),
        Cmd("rank", ["rank", gl3], ranked(*lie.EXPECTED_RANK["gl3"])),
        Cmd("rank", ["rank", so4], ranked(*lie.EXPECTED_RANK["so4"])),
        Cmd("solve", ["solve", gl3], solved(3, 3)),
        Cmd("solve", ["solve", so4], solved(2, 2)),
        Cmd("solve", ["solve", gl3, "--max-degree", "4"], solved(3, 3)),
        *_checks(t, "gl3"),
        *_checks(t, "so4"),
        _rigid_body(rng, so4, t.docs["so4"], t.casimirs["so4"], 100000),
    ]


def so5_rank(rng: random.Random, t: "Tables") -> list[Cmd]:
    so4, so5 = t.paths["so4"], t.paths["so5"]
    return [
        Cmd("rank", ["rank", so5], ranked(*lie.EXPECTED_RANK["so5"])),
        Cmd("rank", ["rank", so4], ranked(*lie.EXPECTED_RANK["so4"])),
        Cmd("verify", ["verify", so5], verified()),
        Cmd("verify", ["verify", so4], verified()),
        Cmd("verify", ["verify", t.paths["gl2"]], verified(closure_pairs=6)),
        *_checks(t, "so5"),
        *_checks(t, "so4"),
        Cmd("solve", ["solve", so4], solved(2, 2)),
        Cmd("solve", ["solve", so4, "--max-degree", "4"], solved(2, 2)),
        _rigid_body(rng, so5, t.docs["so5"], t.casimirs["so5"], 100000),
        _rigid_body(rng, so4, t.docs["so4"], t.casimirs["so4"], 100000),
    ]


def flow_runs(rng: random.Random, t: "Tables") -> list[Cmd]:
    hydrogen = _init(rng, {"H": -0.5, "L1": 0.3, "L2": -0.2, "L3": 0.4,
                           "M1": 0.1, "M2": 0.25, "M3": -0.15}, HYDROGEN)
    kepler = _init(rng, {"q1": 1.0, "q2": 0.0, "q3": 0.0,
                         "p1": 0.0, "p2": 0.8, "p3": 0.1}, HYDROGEN)
    nappi = _init(rng, {"P1": 1.0, "P2": 0.5, "J": 0.25, "T": 2.0},
                  {"a": 1.0, "b": 1.0})
    return [
        Cmd("verify", ["verify", "sphere"], verified(closure_pairs=3)),
        Cmd("verify", ["verify", "hydrogen"], verified(closure_pairs=21)),
        Cmd("rank", ["rank", "sphere"], ranked(2, 1)),
        Cmd("rank", ["rank", "hydrogen"], ranked(4, 3)),
        Cmd("rank", ["rank", "nappi-witten"], ranked(2, 2)),
        Cmd("solve", ["solve", "sphere"], solved(1, 1)),
        Cmd("solve", ["solve", "nappi-witten"], solved(2, 2)),
        Cmd("check", ["check", "sphere", "--invariant", SPHERE_INVARIANT],
            invariant()),
        *(Cmd("check", ["check", "hydrogen", "--invariant", m], invariant())
          for m in HYDROGEN_MONITORS[1:]),
        Cmd("check", ["check", "nappi-witten", "--invariant",
                      NAPPI_WITTEN_INVARIANT], invariant()),
        _sphere_flow(rng, 100000),
        _flow("hydrogen", "L1*M2 + 1/2*L3^2 + M1^2 - 1/3*H*L2", hydrogen,
              100000, HYDROGEN_MONITORS),
        _flow("hydrogen", "H", kepler, 100000, ["H", "L3", "M1"],
              mode="canonical"),
        _flow("nappi-witten", "J", nappi, 20000, [NAPPI_WITTEN_INVARIANT, "T"]),
    ]


# Workload name -> (generated tables it needs, function making its commands).
WORKLOADS = {
    "corpus-cli": ((), corpus_cli),
    "lie-solve": (("gl2", "gl3", "so4"), lie_solve),
    "so5-rank": (("gl2", "so4", "so5"), so5_rank),
    "flow": ((), flow_runs),
}


# -- set-up ---------------------------------------------------------------

@dataclass
class Tables:
    """Generated problem documents by table name: the files written, the
    documents and their known Casimirs."""
    paths: dict[str, str] = field(default_factory=dict)
    docs: dict[str, dict] = field(default_factory=dict)
    casimirs: dict[str, list[str]] = field(default_factory=dict)


def _setup(names: tuple[str, ...], workdir: Path) -> Tables:
    """Import `plq` afresh, then generate and write the problem documents."""
    for name in [m for m in sys.modules if m == "plq" or m.startswith("plq.")]:
        del sys.modules[name]
    importlib.import_module("plq.cli")
    docs = lie.documents()
    tables = Tables()
    for name in names:
        doc, tables.casimirs[name] = docs[name]
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        tables.paths[name] = str(path)
        tables.docs[name] = doc
    return tables


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


# -- passes ---------------------------------------------------------------

@dataclass
class Pass:
    """One pass over a command list: each command's wall time (`times`) and
    reference seconds (`scaled`), and the reference loop's samples (`refs`,
    see `HostMeter`)."""
    times: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)
    flow_steps: int = 0
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def total(self) -> float:
        return sum(self.scaled)


def _reference_work(n: int = 200) -> None:
    """A fixed piece of pure-Python work in the mix `plq` spends its time on:
    dict updates with tuple keys, Fraction and float arithmetic."""
    acc: dict = {}
    x = Fraction(1, 3)
    y = 0.5
    for i in range(n):
        k = (i % 17, i % 5)
        acc[k] = acc.get(k, 0) + i * i
        x = (x * 3 + Fraction(i % 7, 11)) % 5
        y = y * 0.999 + 1e-3 * (i & 7)


class HostMeter:
    """Samples the host's speed as the wall time of `_reference_work`.

    `bracket` takes BRACKET samples between timed sections.  Inside
    `timed`, a SIGALRM handler takes one every SAMPLE_PERIOD seconds, and
    the time the handler took is left out of the section's.  Section k runs
    between brackets k and k + 1, and `scale(k)` rescales its wall seconds
    to reference seconds by the mean speed of every sample from its opening
    bracket to its closing one.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.marks: list[int] = []
        self.handler_seconds = 0.0

    def _sample(self) -> None:
        start = time.perf_counter()
        _reference_work()
        self.samples.append(time.perf_counter() - start)

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self._sample()
        self.handler_seconds += time.perf_counter() - start

    def bracket(self) -> None:
        self.marks.append(len(self.samples))
        for _ in range(BRACKET):
            self._sample()

    @contextlib.contextmanager
    def timed(self, walls: list[float]):
        """Runs the body with sampling on and appends its wall seconds, less
        the handler's, to `walls`, also when it raises."""
        spent = self.handler_seconds
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            walls.append(time.perf_counter() - start
                         - (self.handler_seconds - spent))
            signal.signal(signal.SIGALRM, previous)

    def scale(self, k: int) -> float:
        window = self.samples[self.marks[k]:self.marks[k + 1] + BRACKET]
        return REF_SECONDS * statistics.fmean(1 / r for r in window)


def run_pass(main, cmds: list[Cmd], seed: int, report: Path, tracer=None) -> Pass:
    out = Pass()
    meter = HostMeter()
    for cmd in cmds:
        argv = [*cmd.argv, "--seed", str(seed), "--json", str(report)]
        report.unlink(missing_ok=True)
        gc.collect()
        meter.bracket()
        sink = io.StringIO()
        try:
            with meter.timed(out.times), contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                if tracer is None:
                    code = main(argv)
                else:
                    code = tracer.call(f"cli.{cmd.kind}", main, (argv,), {})
        except Exception as exc:  # a crash is a failed command, not a lost pass
            code, crash = None, f"{type(exc).__name__}: {exc}"
        else:
            crash = None
        out.attempted += 1
        label = " ".join(cmd.argv)[:120]
        if crash is not None:
            out.failed += 1
            out.failures.append(f"{label}: {crash}")
            continue
        try:
            rep = json.loads(report.read_text())
            errs = cmd.expect(code, rep)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            errs = [f"unreadable report ({type(exc).__name__}: {exc})"]
        if not errs and cmd.kind == "flow":
            out.flow_steps += rep["flow"]["steps"]
        if not errs and cmd.kind == "solve" and tracer is not None:
            tracer.count("solver.escalations", len(rep["solve"]["escalations"]))
        out.failed += bool(errs)
        out.failures.extend(f"{label}: {e}" for e in errs)
    gc.collect()
    meter.bracket()
    out.scaled = [wall * meter.scale(k) for k, wall in enumerate(out.times)]
    out.refs = meter.samples
    return out


def _by_kind(cmds: list[Cmd], values: list[float]) -> dict[str, float]:
    return {k: sum(v for c, v in zip(cmds, values) if c.kind == k) for k in KINDS}


def end_to_end(cmds: list[Cmd], passes: list[Pass],
               setups: list[float]) -> dict[str, tuple[float, str, int]]:
    """(value, unit, samples) per metric.  A kind's time is the sum, over
    its commands, of each command's median over the passes."""
    typical = [statistics.median(p.scaled[i] for p in passes)
               for i in range(len(cmds))]
    seconds = _by_kind(cmds, typical)
    n = len(passes)
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "pass_s": (sum(typical), "s", n),
        **{f"{k}_s": (seconds[k], "s", n) for k in KINDS},
        "rk4_steps_per_s": (statistics.median(p.flow_steps for p in passes)
                            / seconds["flow"], "1/s", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", 1),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer) -> dict[str, float]:
    """Per-layer values of one traced pass."""
    total = tracer.totals()
    own = tracer.self_times()
    n = tracer.counts.get

    def t(name: str) -> float:
        return total.get(name, 0.0)
    return {
        "cli.self_s": sum(v for k, v in own.items() if k.startswith("cli.")),
        "problem.build_s": t("problem.build"),
        "problem.builds": n("problem.builds", 0),
        "structure.jacobi_s": t("structure.jacobi"),
        "structure.jacobi_triples": n("structure.jacobi_triples", 0),
        "structure.rank_s": t("structure.rank"),
        "structure.pfaffian_s": t("structure.pfaffian"),
        "structure.rank_symbolic_s": t("structure.rank_symbolic"),
        "structure.rank_samples_s": t("structure.rank_sample"),
        "structure.rank_samples": n("structure.rank_samples", 0),
        "canonical.closure_s": t("canonical.closure"),
        "canonical.closure_pairs": n("canonical.closure_pairs", 0),
        "solver.assemble_s": t("solver.assemble"),
        "solver.echelon_s": t("solver.echelon"),
        "solver.span_s": t("solver.span"),
        "solver.normalize_s": t("solver.normalize"),
        "solver.verify_s": t("solver.verify"),
        "solver.independence_s": t("solver.independence"),
        "solver.columns": n("solver.columns", 0),
        "solver.rows": n("solver.rows", 0),
        "solver.span_calls": n("solver.span_calls", 0),
        "solver.candidates": n("solver.candidates", 0),
        "solver.escalations": n("solver.escalations", 0),
        "solver.span_products": n("solver.span_products", 0),
        "solver.span_useful_ratio": _ratio(n("solver.span_useful", 0),
                                           n("solver.span_products", 0)),
        "solver.accepted_ratio": _ratio(n("solver.accepted", 0),
                                        n("solver.candidates", 0)),
        "linalg.presolve_s": t("linalg.presolve"),
        "linalg.forced_cols": n("linalg.forced_cols", 0),
        "linalg.nullspace_s": t("linalg.nullspace"),
        "linalg.nullity": n("linalg.nullity", 0),
        "linalg.rref_calls": n("linalg.rref_calls", 0),
        "linalg.pivots": n("linalg.pivots", 0),
        "expr.ratfunc_make": n("expr.ratfunc_make", 0),
        "expr.poly_mul": n("expr.poly_mul", 0),
        "expr.divide_exact": n("expr.divide_exact", 0),
        "expr.divide_exact_hit_ratio": _ratio(n("expr.divide_exact.hits", 0),
                                              n("expr.divide_exact", 0)),
        "flow.compile_s": t("flow.compile"),
        "flow.integrate_s": t("flow.integrate"),
        "flow.steps": n("flow.steps", 0),
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "plq" / "cli.py").is_file():
        print(f"error: no plq sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)

    tables, build = WORKLOADS[args.workload]
    setup_walls = []
    meter = HostMeter()
    meter.bracket()
    for _ in range(SETUP_REPEATS):
        with meter.timed(setup_walls):
            generated = _setup(tables, workdir)
        meter.bracket()
    setups = [wall * meter.scale(k) for k, wall in enumerate(setup_walls)]
    from plq.cli import main as plq_main

    cmds = build(random.Random(args.seed), generated)
    report = workdir / "report.json"
    tracer = Tracer() if args.trace else None
    plain: list[Pass] = []
    traced: list[Pass] = []
    layers: list[dict[str, float]] = []
    deadline = time.perf_counter() + args.seconds
    while not plain or (tracer and not traced) or time.perf_counter() < deadline:
        if tracer and len(traced) < len(plain):
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_pass(plq_main, cmds, args.seed, report, tracer))
            finally:
                tracer.uninstall()
            scale = REF_SECONDS / statistics.median(traced[-1].refs)
            layers.append({k: v * scale if k.endswith("_s") else v
                           for k, v in per_layer(tracer).items()})
        else:
            plain.append(run_pass(plq_main, cmds, args.seed, report))

    every = plain + traced
    failures = [f for p in every for f in p.failures]
    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every)
    if tracer:
        series = {k: [row[k] for row in layers] for k in layers[0]}
        traced_s = [p.total for p in traced]
        series["trace.pass_s"] = traced_s
        series["trace.overhead_s"] = [statistics.median(traced_s)
                                      - statistics.median(p.total for p in plain)]
        results = {k: (statistics.median(v), _unit(k), len(v))
                   for k, v in series.items()}
        (workdir / "spans.json").write_text(json.dumps(tracer.dump()) + "\n")
    else:
        results = end_to_end(cmds, plain, setups)
    metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in results.items()}
    walls = [_by_kind(cmds, p.times) for p in plain]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "git_revision": _git_revision(), "nproc": len(os.sched_getaffinity(0)),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "commands_per_pass": len(cmds),
        "reference_loop_s": {"scale": REF_SECONDS, "median": statistics.median(
            r for p in plain for r in p.refs)},
        "wall_s": {"setup_s": statistics.median(setup_walls),
                   "pass_s": statistics.median(sum(p.times) for p in plain),
                   **{f"{k}_s": statistics.median(w[k] for w in walls)
                      for k in KINDS}},
        "failed_ops": failed / attempted,
        "samples": {k: n for k, (_, _, n) in results.items()},
        "failures": failures[:20],
    }
    (workdir / "result.json").write_text(json.dumps(
        {"record": record, "metrics": metrics, "kinds": [c.kind for c in cmds],
         "wall_per_command": [p.times for p in plain],
         "scaled_per_command": [p.scaled for p in plain],
         "reference_samples": [p.refs for p in plain]}, indent=2) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
