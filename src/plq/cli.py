"""Command line interface: verify, rank, solve, check, flow, examples.

Problems come from JSON files or from the built-in corpus (a corpus name may
stand in for a file path).  Human-readable text goes to standard output;
`--json PATH` additionally writes the full machine-readable report.  Exit
codes: 0 success, 1 verification failure, 2 usage or input error, and, for
the `plq` process only, 141 when standard output is closed early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

from .canonical import CanonicalRealization, verify_closure
from .corpus import corpus_data, corpus_names, corpus_problem
from .expr import (CANONICAL_P, CANONICAL_Q, GENERATOR, PARAMETER, ExprError,
                   LogExpr, RatFunc, substitute)
from .flow import FlowConfig, FlowPoleError, abstract_flow, canonical_flow, check_abstract_domain
from .parsing import ParseError, parse_expression, parse_ratfunc, to_string
from .problem import Problem, ProblemError, load_problem
# solve_casimirs is unused here but stays bound: bench/tracing.py wraps it.
from .solver import (ESCALATION_CEILING, AnsatzSpec, CasimirBasis, solve_casimirs,
                     solve_with_escalation, verify_invariant)
from .structure import (DEFAULT_SEED, BracketTable, bind_parameters,
                        generic_rank, jacobi_check)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def _load(spec: str) -> Problem:
    path = Path(spec)
    if path.is_file():
        return load_problem(path)
    if spec in corpus_names():
        return corpus_problem(spec)
    raise ProblemError(f"{spec!r} is neither a problem file nor one of the "
                       f"built-in problems ({', '.join(corpus_names())})")


def _parse_bindings(problem: Problem, pairs: list[str]) -> dict[str, RatFunc]:
    bindings: dict[str, RatFunc] = {}
    for raw in pairs:
        name, sep, text = raw.partition("=")
        if not sep or not name or not text:
            raise ProblemError(f"--bind needs NAME=EXPR, got {raw!r}")
        name = name.strip()
        if name in bindings:
            raise ProblemError(f"--bind gives {name!r} twice")
        bindings[name] = parse_ratfunc(text, problem.table)
    return bindings


def _start(args, command: str
           ) -> tuple[Problem, Callable[[str], LogExpr], dict]:
    """The problem with its `--bind` bindings applied, a parser that applies
    them to the command's own expressions, and the report header.

    The bindings go into the bracket table and into each expression of the
    realization; a binding that uses a generator leaves the problem without
    a realization, since a canonical realization cannot name generators."""
    problem = _load(args.file)
    table = problem.table
    bindings = _parse_bindings(problem, args.bind or [])
    report = {"problem": problem.name, "command": command, "seed": args.seed,
              "bindings": {k: to_string(v) for k, v in bindings.items()}}
    if not bindings:
        return problem, lambda text: parse_expression(text, table), report
    btable = bind_parameters(problem.brackets, bindings)
    generators = set(table.generator_indices)
    realization = problem.realization
    if realization is None or any(
            generators & (f.num.used_indices() | f.den.used_indices())
            for f in bindings.values()):
        realization = None
    else:
        realization = CanonicalRealization(
            table, [substitute(f, bindings, table) for f in realization.expressions])
    bound = replace(problem, brackets=btable, realization=realization)
    return (bound, lambda text: substitute(parse_expression(text, table),
                                           bindings, table), report)


def _degeneracy_note(rank_report) -> str:
    if rank_report.kind == "pfaffian":
        return f"pfaffian {to_string(rank_report.degeneracy)}"
    return ("determinant identically 0 (skew structure matrix of odd "
            "dimension is always singular)")


def _rank_json(rank_report) -> dict:
    witness = None
    if rank_report.witness is not None:
        witness = {k: str(v) for k, v in rank_report.witness.items()}
    return {"rank": rank_report.rank, "corank": rank_report.corank,
            "sampled_rank": rank_report.sampled_rank,
            "samples": rank_report.samples, "seed": rank_report.seed,
            "kind": rank_report.kind,
            "degeneracy": to_string(rank_report.degeneracy),
            "note": _degeneracy_note(rank_report), "witness": witness,
            "certificate": rank_report.certificate}


def _solve_json(basis: CasimirBasis) -> dict:
    return {"solutions": [to_string(s) for s in basis.solutions],
            "free_central": list(basis.free_central),
            "dimension": basis.dimension,
            "independence": basis.independence,
            "corank": basis.corank,
            "verified": basis.verified,
            "escalations": list(basis.escalations),
            "ansatz": {"max_degree": basis.ansatz.max_degree,
                       "inverse_degree": basis.ansatz.inverse_degree,
                       "allow_log": basis.ansatz.allow_log}}


def _write_json(path: str | None, report: dict) -> None:
    if path:
        Path(path).write_text(json.dumps(report, indent=2) + "\n")


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}" + ("" if n == 1 else "s")


def _report_check(report: dict, label: str, noun: str, result) -> bool:
    """Print a closure or Jacobi result, whose cases are `result.<noun>s`,
    and add it to the report under `label`."""
    total = len(getattr(result, noun + "s"))
    failures = result.failures()
    if result.ok:
        print(f"{label}: ok ({_count(total, noun)})")
    else:
        print(f"{label}: FAILED ({len(failures)} of {_count(total, noun)})")
    for f in failures:
        print(f"  ({', '.join(f.names)}): residual {to_string(f.residual)}")
    report[label] = {"ok": result.ok, noun + "s": total,
                     "failures": [{noun: list(f.names),
                                   "residual": to_string(f.residual)}
                                  for f in failures]}
    return result.ok


def _check_brackets(btable: BracketTable, realization, report: dict) -> bool:
    """Closure of the realization, when there is one, then the Jacobi
    identity, each printed and reported; whether both hold."""
    ok = True
    if realization is not None:
        ok = _report_check(report, "closure", "pair",
                           verify_closure(btable, realization))
    return _report_check(report, "jacobi", "triple", jacobi_check(btable)) and ok


def _cmd_verify(args) -> int:
    problem, _, report = _start(args, "verify")
    print(f"problem: {problem.name} ({problem.brackets.r} generators)")
    ok = _check_brackets(problem.brackets, problem.realization, report)
    _write_json(args.json, report)
    return EXIT_OK if ok else EXIT_FAILED


def _cmd_rank(args) -> int:
    problem, _, report = _start(args, "rank")
    rank_report = generic_rank(problem.brackets, seed=args.seed)
    print(f"problem: {problem.name} ({problem.brackets.r} generators)")
    print(f"rank: {rank_report.rank}, corank: {rank_report.corank}")
    print(_degeneracy_note(rank_report))
    print(f"sampled max {rank_report.sampled_rank} over "
          f"{rank_report.samples} points (seed {rank_report.seed})")
    if rank_report.witness is None:
        print(f"witness: none (no sampled point attains rank {rank_report.rank})")
    report["rank"] = _rank_json(rank_report)
    _write_json(args.json, report)
    return EXIT_OK


def _cmd_solve(args) -> int:
    t0 = time.monotonic()
    problem, _, report = _start(args, "solve")
    btable = problem.brackets
    base = problem.ansatz
    ansatz = AnsatzSpec(
        base.max_degree if args.max_degree is None else args.max_degree,
        base.inverse_degree if args.inverse_degree is None else args.inverse_degree,
        base.allow_log or args.allow_log)
    print(f"problem: {problem.name} ({btable.r} generators)")
    ok = _check_brackets(btable, problem.realization, report)
    # A pinned degree is also the ceiling, so the solve does not escalate.
    ceiling = ESCALATION_CEILING if args.max_degree is None else args.max_degree
    basis = solve_with_escalation(btable, ansatz, problem.invertible,
                                  seed=args.seed, ceiling=ceiling)
    rank_report = basis.rank_report
    print(f"rank: {rank_report.rank}, corank: {rank_report.corank}")
    print(_degeneracy_note(rank_report))
    for line in basis.escalations:
        print(f"escalation: {line}")
    n_free = len(basis.free_central)
    print(f"casimir basis: dimension {basis.dimension} "
          f"({len(basis.solutions)} solved + {n_free} free central)")
    for k, sol in enumerate(basis.solutions, start=1):
        print(f"  {k}: {to_string(sol)}")
    if basis.free_central:
        print("free central generators: " + ", ".join(basis.free_central))
    print(f"independence rank: {basis.independence} (corank "
          f"{basis.corank})")
    print(f"verified: {'yes' if basis.verified else 'NO'}")
    print(f"seed: {args.seed}")
    ok = ok and basis.verified
    report["rank"] = _rank_json(rank_report)
    report["solve"] = _solve_json(basis)
    report["timings"] = {"total": time.monotonic() - t0}
    _write_json(args.json, report)
    return EXIT_OK if ok else EXIT_FAILED


def _cmd_check(args) -> int:
    problem, parse, report = _start(args, "check")
    expr = parse(args.invariant)
    check_abstract_domain(problem.table, expr, "the invariant")
    result = verify_invariant(expr, problem.brackets)
    print(f"problem: {problem.name}")
    print(f"invariant: {to_string(expr)}")
    print(f"verified: {'true' if result.ok else 'false'}")
    residuals = {}
    for gen, residual in result.residuals:
        residuals[gen] = to_string(residual)
        if not residual.is_zero():
            print(f"  residual against {gen}: {to_string(residual)}")
    report["check"] = {"invariant": to_string(expr), "verified": result.ok,
                       "residuals": residuals}
    _write_json(args.json, report)
    return EXIT_OK if result.ok else EXIT_FAILED


def _parse_init(text: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, raw = item.partition("=")
        if not sep:
            raise ProblemError(f"--init entries need NAME=VALUE, got {item!r}")
        name = name.strip()
        if name in values:
            raise ProblemError(f"--init gives {name!r} twice")
        try:
            values[name] = float(Fraction(raw.strip()))
        except (ValueError, ZeroDivisionError):
            raise ProblemError(f"--init value for {name!r} is not "
                               f"a number: {raw.strip()!r}") from None
        except OverflowError:
            raise ProblemError(f"--init value for {name!r} overflows "
                               f"a float: {raw.strip()!r}") from None
    return values


def _cmd_flow(args) -> int:
    problem, parse, report = _start(args, "flow")
    defaults = problem.flow_defaults or {}
    observable_text = args.observable or defaults.get("observable")
    if not observable_text:
        raise ProblemError("flow needs --observable (no default in the "
                           "problem file)")
    given = _parse_init(args.init) if args.init else {}
    init = {**defaults.get("init", {}), **given}
    if not init:
        raise ProblemError("flow needs --init values")
    for name in init:
        if not problem.table.has(name):
            raise ProblemError(f"--init names an unknown variable: {name!r}")
    dt = args.dt if args.dt is not None else defaults.get("dt")
    steps = args.steps if args.steps is not None else defaults.get("steps")
    if dt is None or steps is None:
        raise ProblemError("flow needs --dt and --steps (no defaults in "
                           "the problem file)")
    monitor_texts = list(args.monitor or defaults.get("monitors", []))
    observable = parse(observable_text)
    monitors = [parse(m) for m in monitor_texts]
    cfg = FlowConfig(observable, init, float(dt), int(steps), monitors,
                     monitor_texts or None)
    table = problem.table
    kind = {name: table.kind(table.index(name)) for name in init}
    wants_canonical = any(kind[name] in (CANONICAL_Q, CANONICAL_P) for name in init)
    if wants_canonical and problem.realization is None:
        raise ProblemError("initial state uses canonical variables but the "
                           "problem has no realization")
    mode = "canonical" if wants_canonical else "abstract"
    takes = ((CANONICAL_Q, CANONICAL_P, PARAMETER) if wants_canonical
             else (GENERATOR, PARAMETER))
    for name in given:
        if name in report["bindings"]:
            raise ProblemError(f"--init value for {name!r} is not used: "
                               "--bind gives it")
        if kind[name] not in takes:
            raise ProblemError(f"--init value for {name!r} is not used by "
                               f"the {mode} flow")
    if wants_canonical:
        result = canonical_flow(problem.realization, cfg)
    else:
        result = abstract_flow(problem.brackets, cfg)
    print(f"problem: {problem.name}")
    print(f"flow ({mode}): observable {to_string(observable)}, "
          f"{steps} steps of {dt}")
    final = result.final_map()
    print("final state: " + ", ".join(f"{k}={v:.9g}" for k, v in final.items()))
    for m in result.drift.monitors:
        print(f"monitor {m.label}: initial {m.initial:.9g}, "
              f"max drift {m.max_drift:.3g}, final drift {m.final_drift:.3g}")
    # The flow report names its mode right after the command.
    report = {"problem": problem.name, "command": "flow", "mode": mode, **report,
              "flow": {"observable": to_string(observable), "dt": float(dt),
                       "steps": int(steps),
                       "final_state": {k: v for k, v in final.items()},
                       "monitors": [{"label": m.label, "initial": m.initial,
                                     "max_drift": m.max_drift,
                                     "final_drift": m.final_drift}
                                    for m in result.drift.monitors]}}
    _write_json(args.json, report)
    return EXIT_OK


def _cmd_examples(args) -> int:
    if args.name is None and args.emit:
        raise ProblemError("--emit needs a problem NAME")
    if args.name is None:
        for name in corpus_names():
            problem = corpus_problem(name)
            realized = ("canonical realization"
                        if problem.realization is not None
                        else "abstract table")
            params = [problem.table.names[i]
                      for i in problem.table.parameter_indices]
            print(f"{name}: {problem.brackets.r} generators, {realized}"
                  + (f", parameters {', '.join(params)}" if params else ""))
        return EXIT_OK
    # `--emit` writes the text that `examples NAME` prints.
    data = corpus_data(args.name)
    if args.emit:
        _write_json(args.emit, data)
        print(f"wrote {args.emit}")
    else:
        print(json.dumps(data, indent=2))
    return EXIT_OK


# Built on the first call to `main` and reused by every later one. It owns no
# mutable default (`--bind` defaults to None), so no call sees another's values.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plq",
        description="Exact invariants of finite-dimensional bracket algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", metavar="FILE",
                       help="problem file path or built-in problem name")
        p.add_argument("--bind", action="append", default=None,
                       metavar="NAME=EXPR",
                       help="substitute a parameter before computing")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="random seed for sampling (echoed in reports)")
        p.add_argument("--json", metavar="PATH",
                       help="write the full report as JSON")

    p = sub.add_parser("verify", help="check closure and the Jacobi identity")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("rank", help="rank, corank, and degeneracy of the "
                                    "structure matrix")
    common(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("solve", help="solve for the invariants")
    common(p)
    p.add_argument("--max-degree", type=int, default=None,
                   help="pin the ansatz degree (disables auto-escalation)")
    p.add_argument("--inverse-degree", type=int, default=None,
                   help="largest inverse power of invertible generators")
    p.add_argument("--allow-log", action="store_true", default=False,
                   help="allow logarithms of invertible generators")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="verify one invariant expression")
    common(p)
    p.add_argument("--invariant", required=True, metavar="EXPR",
                   help="expression to test against every generator")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("flow", help="integrate the flow of an observable")
    common(p)
    p.add_argument("--observable", metavar="EXPR", default=None,
                   help="generator of the flow")
    p.add_argument("--init", metavar="ASSIGNMENTS", default=None,
                   help="comma-separated NAME=VALUE initial state "
                        "(generator values, or q/p values for a canonical "
                        "run; include parameter values)")
    p.add_argument("--dt", type=float, default=None, help="step size")
    p.add_argument("--steps", type=int, default=None, help="step count")
    p.add_argument("--monitor", action="append", metavar="EXPR",
                   help="expression whose drift is tracked (repeatable)")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("examples", help="list or export built-in problems")
    p.add_argument("name", nargs="?", default=None,
                   help="built-in problem name")
    p.add_argument("--emit", metavar="PATH",
                   help="write the problem document to a file")
    p.set_defaults(func=_cmd_examples)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; an error it raises is printed and, with `--json`,
    written as the report `{"command": ..., "error": ...}`."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    # argparse (3.11 at least) reads `--option=--` as an empty list, not a value.
    for name, value in vars(args).items():
        if value == [] or isinstance(value, list) and [] in value:
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    try:
        return args.func(args)
    except (ProblemError, ParseError, ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        _write_json(getattr(args, "json", None),
                    {"command": args.command, "error": str(exc)})
        return EXIT_FAILED if isinstance(exc, FlowPoleError) else EXIT_USAGE


def entry() -> int:
    """`main` as the `plq` process; see "Note on SIGPIPE" in Python's `signal` docs."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the flush at exit goes to devnull, not the pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a process SIGPIPE ends
    return code


if __name__ == "__main__":
    sys.exit(entry())
