"""Numerical flow cross-checks: drift of conserved quantities under RK4."""

import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from plq.canonical import CanonicalRealization
from plq.corpus import corpus_problem
from plq import flow as flow_module
from plq.expr import PARAMETER, ExprError, Poly, VarTable, sigma_poly
from plq.flow import (NOT_FINITE, DriftReport, FlowConfig, FlowPoleError,
                      FlowResult, _abstract_system, _as_logexpr,
                      _canonical_system, _factor_base, _NotFiniteSignal,
                      _PoleSignal, _poly_src, _split,
                      abstract_flow, canonical_flow, compile_evaluator,
                      generator_trajectory)
from plq.parsing import parse_expression, parse_ratfunc
from plq.structure import BracketTable
from test_solver import lie_module, lie_problem


def sphere():
    return corpus_problem("sphere")


def sphere_invariant(table):
    return parse_expression("H*phi + R^2*H - 1/2*V^2", table)


def test_characteristics_match_closed_form():
    """Along the scaling flow, H decays and phi + R^2 grows exponentially."""
    problem = sphere()
    cfg = FlowConfig(parse_expression("V", problem.table),
                     {"H": 1.0, "phi": 0.0, "V": 0.0, "R": 1.0},
                     1e-3, 1000,
                     [sphere_invariant(problem.table)])
    result = abstract_flow(problem.brackets, cfg)
    end = result.final_map()
    assert abs(end["H"] - math.exp(-2.0)) < 1e-9
    assert abs(end["phi"] + 1.0 - math.exp(2.0)) < 1e-9
    assert result.drift.worst() < 1e-10


def test_invariant_generates_no_drift_on_itself():
    problem = sphere()
    invariant = sphere_invariant(problem.table)
    cfg = FlowConfig(invariant,
                     {"H": 0.5, "phi": 0.0, "V": 0.0, "R": 1.0},
                     1e-3, 10000, [invariant], ["F"])
    result = abstract_flow(problem.brackets, cfg)
    assert result.drift.worst() < 1e-10


def test_canonical_flow_conserves_known_quantities():
    """Geodesic motion keeps the constraint, the scaling charge, and L^2."""
    problem = sphere()
    table = problem.table
    ham = sphere_invariant(table)
    init = {"q1": 1.0, "q2": 0.0, "q3": 0.0,
            "p1": 0.0, "p2": 1.0, "p3": 0.0, "R": 1.0}
    lsq = parse_expression(
        "(q1*p2 - q2*p1)^2 + (q2*p3 - q3*p2)^2 + (q3*p1 - q1*p3)^2", table)
    cfg = FlowConfig(ham, init, 1e-3, 10000,
                     [parse_expression("phi + R^2", table),
                      parse_expression("V", table), ham, lsq],
                     ["U", "V", "Hcal", "Lsq"])
    result = canonical_flow(problem.realization, cfg)
    by = result.drift.by_label()
    assert by["U"].max_drift < 1e-10
    assert by["V"].max_drift < 1e-10
    assert by["Hcal"].max_drift < 1e-10
    assert abs(by["Lsq"].initial - 1.0) < 1e-15
    assert by["Lsq"].max_drift < 1e-10


def test_abstract_flow_matches_realized_canonical_flow():
    """Generator trajectories agree between the two integrations at t = 1."""
    problem = sphere()
    table = problem.table
    ham = sphere_invariant(table)
    init = {"q1": 1.0, "q2": 0.0, "q3": 0.0,
            "p1": 0.0, "p2": 1.0, "p3": 0.0, "R": 1.0}
    res_a = abstract_flow(problem.brackets,
                          FlowConfig(ham, {"H": 0.5, "phi": 0.0, "V": 0.0,
                                           "R": 1.0}, 1e-3, 1000, []))
    res_c = canonical_flow(problem.realization,
                           FlowConfig(ham, init, 1e-3, 1000, []))
    generators = generator_trajectory(problem.realization, res_c, init)
    err = max(abs(a - b) for a, b in zip(res_a.final_state, generators[-1]))
    assert err < 1e-8


def test_free_flow_leaves_level_set():
    """Dropping the constraint term lets the trajectory leave the surface."""
    problem = sphere()
    table = problem.table
    free = parse_expression("H", table)
    init = {"q1": 1.0, "q2": 0.0, "q3": 0.0,
            "p1": 0.0, "p2": 1.0, "p3": 0.0, "R": 1.0}
    cfg = FlowConfig(free, init, 1e-3, 1000,
                     [parse_expression("phi", table)], ["phi"])
    result = canonical_flow(problem.realization, cfg)
    final = result.drift.monitors[0].final_drift
    assert abs(final - 1.0) < 1e-6


def test_halving_step_scales_drift_as_fourth_order():
    problem = sphere()
    table = problem.table
    observable = parse_expression("V + H", table)
    init = {"H": 1.0, "phi": 2.0, "V": 3.0, "R": 1.0}
    monitor = [sphere_invariant(table)]
    coarse = abstract_flow(problem.brackets,
                           FlowConfig(observable, init, 2e-2, 500, monitor))
    fine = abstract_flow(problem.brackets,
                         FlowConfig(observable, init, 1e-2, 1000, monitor))
    d1 = coarse.drift.worst()
    d2 = fine.drift.worst()
    assert d2 > 0
    assert d1 / d2 >= 8.0


def test_radial_table_quadratic_flow_conserves_invariants():
    """A generic quadratic observable preserves all three solved invariants."""
    problem = corpus_problem("hydrogen")
    table = problem.table
    observable = parse_expression(
        "1/2*L1^2 - 1/3*L2*M3 + 1/4*M1^2 + H*L3 - 1/5*M2", table)
    monitors = [
        parse_expression("H", table),
        parse_expression("L1*M1 + L2*M2 + L3*M3", table),
        parse_expression(
            "H*(L1^2 + L2^2 + L3^2) - m/2*(M1^2 + M2^2 + M3^2)", table),
    ]
    init = {"H": -0.5, "L1": 0.3, "L2": -0.2, "L3": 0.4,
            "M1": 0.1, "M2": 0.25, "M3": -0.15, "m": 1.0, "kappa": 1.0}
    cfg = FlowConfig(observable, init, 1e-3, 10000, monitors,
                     ["H", "LM", "K"])
    result = abstract_flow(problem.brackets, cfg)
    assert result.drift.worst() < 1e-8


def test_pole_abort_reports_step():
    table = VarTable.make(["u1", "u2"], 0, [])
    brackets = BracketTable(table, {(0, 1): parse_ratfunc("1", table)})
    cfg = FlowConfig(parse_expression("1/2*u2^2", table),
                     {"u1": 1.0, "u2": -1.0}, 1e-3, 2000,
                     [parse_expression("1/(u1 - 1/2)", table)], ["pole"])
    with pytest.raises(FlowPoleError) as info:
        abstract_flow(brackets, cfg)
    assert 400 <= info.value.step <= 600
    assert abs(info.value.time - info.value.step * 1e-3) < 1e-12


def test_flow_config_validation():
    problem = sphere()
    table = problem.table
    good = parse_expression("V", table)
    with pytest.raises(ExprError):
        FlowConfig(good, {"H": 1.0}, -1e-3, 10, [])
    with pytest.raises(ExprError):
        FlowConfig(good, {"H": 1.0}, 1e-3, 0, [])
    cfg = FlowConfig(good, {"H": 1.0, "phi": 0.0, "V": 0.0}, 1e-3, 5, [])
    with pytest.raises(ExprError):
        abstract_flow(problem.brackets, cfg)


def test_abstract_flow_rejects_canonical_observable():
    problem = sphere()
    cfg = FlowConfig(parse_expression("q1*p1", problem.table),
                     {"H": 1.0, "phi": 0.0, "V": 0.0, "R": 1.0},
                     1e-3, 5, [])
    with pytest.raises(ExprError):
        abstract_flow(problem.brackets, cfg)


def test_monitor_labels_default_to_expression_text():
    problem = sphere()
    cfg = FlowConfig(parse_expression("V", problem.table),
                     {"H": 1.0, "phi": 0.0, "V": 0.0, "R": 1.0},
                     1e-2, 10, [parse_expression("H", problem.table)])
    result = abstract_flow(problem.brackets, cfg)
    assert result.drift.monitors[0].label == "H"


def test_state_leaving_finite_range_aborts():
    """RK4 with dt = 1 multiplies phi + R^2 by 7 per step: the run stops at
    the first step whose state is infinite instead of reporting inf."""
    problem = sphere()
    init = {"H": 1.0, "phi": 0.0, "V": 0.0, "R": 1.0}
    observable = parse_expression("V", problem.table)
    monitors = [sphere_invariant(problem.table)]
    cfg = FlowConfig(observable, init, 1.0, 400, monitors)
    with pytest.raises(FlowPoleError, match="not finite") as info:
        abstract_flow(problem.brackets, cfg)
    step = info.value.step
    assert 300 < step < 400
    assert info.value.time == float(step)
    shorter = abstract_flow(problem.brackets,
                            FlowConfig(observable, init, 1.0, step - 1, monitors))
    assert all(map(math.isfinite, shorter.final_state))


def test_overflowing_monitor_aborts_before_the_state_does():
    """phi^2 overflows (a float power raises) about halfway to phi = inf."""
    problem = sphere()
    init = {"H": 1.0, "phi": 0.0, "V": 0.0, "R": 1.0}
    cfg = FlowConfig(parse_expression("V", problem.table), init, 1.0, 400,
                     [parse_expression("phi^2", problem.table)])
    with pytest.raises(FlowPoleError, match="not finite") as info:
        abstract_flow(problem.brackets, cfg)
    assert 150 < info.value.step < 200


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_start_aborts_at_step_zero(value):
    problem = sphere()
    cfg = FlowConfig(parse_expression("V", problem.table),
                     {"H": value, "phi": 0.0, "V": 0.0, "R": 1.0}, 1e-3, 10)
    with pytest.raises(FlowPoleError, match="not finite") as info:
        abstract_flow(problem.brackets, cfg)
    assert (info.value.step, info.value.time) == (0, 0.0)


def reference_power(name, x):
    return name if x == 1 else f"({name}*{name})" if x == 2 else f"{name}**{x}"


def reference_poly_src(p, names):
    """Term-by-term source: every coefficient written, signs added, a square
    written as a product."""
    parts = []
    for e, c in sorted(p.terms.items()):
        coef = (f"{c.numerator}.0" if c.denominator == 1
                else f"({c.numerator}/{c.denominator})")
        factors = [coef] + [reference_power(names[i], x)
                            for i, x in enumerate(e) if x]
        parts.append("*".join(factors))
    return "(" + " + ".join(parts) + ")"


def reference_evaluator(table, exprs, state_indices, values, base=()):
    """Term-by-term evaluator: every denominator computed and guarded where
    it occurs, parameters read from `values`.  A denominator that `_split`
    factors over `base` is the product of its factors, each computed and
    guarded the same way.  Each expression is the sum of its `_parts`, the
    radial element is the square root of q1^2 + q2^2 + q3^2 summed as that
    denominator is (the value of the emitter's local of it), and a value
    that is not finite raises `_NotFiniteSignal`."""
    names = {i: f"x{i}" for i in range(len(table))}
    # The emitter's names, without the parameters whose value is 1.0.
    emitted = {i: x for i, x in names.items()
               if table.kind(i) != PARAMETER
               or float(values.get(table.names[i], 0.0)) != 1.0}
    lines = ["def _compiled(state):"]
    lines += [f"    x{i} = state[{k}]" for k, i in enumerate(state_indices)]
    lines += [f"    x{i} = {float(values[table.names[i]])!r}"
              for i in table.parameter_indices if table.names[i] in values]
    if table.alg_index is not None and set(table.q_indices) <= set(state_indices):
        sigma = reference_poly_src(sigma_poly(table), names)
        lines.append(f"    x{table.alg_index} = math.sqrt({sigma})")

    def den(p):
        split = _split(p, base, emitted)
        if split is None:
            value = reference_poly_src(p, names)
        else:
            b, r, shared = split
            value = den(b) + " * " + (den(r) if shared
                                      else reference_poly_src(r, names))
        dvar = f"d{len(lines)}"
        lines.append(f"    {dvar} = {value}")
        lines.append(f"    if abs({dvar}) < 1e-12: raise _PoleSignal()")
        return dvar

    def part(rf):
        src = reference_poly_src(rf.num, names) if not rf.num.is_zero() else "0.0"
        if rf.is_poly():
            return src
        return f"({src} / {den(rf.den)})"

    def guarded(rf):
        srcs = [part(p) for p in flow_module._parts(rf)]
        return srcs[0] if len(srcs) == 1 else "(" + " + ".join(srcs) + ")"

    outputs = []
    for le in map(_as_logexpr, exprs):
        src = guarded(le.rat)
        for g, c in le.logs:
            lines.append(f"    if x{g} <= 1e-12: raise _PoleSignal()")
            src = f"({src} + {guarded(c)}*math.log(x{g}))"
        outputs.append(src + ",")
    lines.append("    out = (" + " ".join(outputs) + ")")
    lines.append("    if not all(map(math.isfinite, out)): raise _NotFiniteSignal()")
    lines.append("    return out")
    namespace = {}
    exec("\n".join(lines), {"math": math, "_PoleSignal": _PoleSignal,
                             "_NotFiniteSignal": _NotFiniteSignal}, namespace)
    return namespace["_compiled"]


def reference_integrate(rhs, mon, y0, h, steps):
    """RK4 one step at a time over two evaluators: times, states, initial
    monitors, max and final drifts."""
    y = tuple(y0)
    try:
        base = mon(y)
    except _PoleSignal:
        raise FlowPoleError(0, 0.0) from None
    times = [0.0]
    states = [y]
    max_drift = [0.0] * len(base)
    current = base
    half = h / 2.0
    sixth = h / 6.0
    for n in range(1, steps + 1):
        try:
            k1 = rhs(y)
            k2 = rhs(tuple(a + half * b for a, b in zip(y, k1)))
            k3 = rhs(tuple(a + half * b for a, b in zip(y, k2)))
            k4 = rhs(tuple(a + h * b for a, b in zip(y, k3)))
            y = tuple(a + sixth * (p + 2.0 * (q + r) + s)
                      for a, p, q, r, s in zip(y, k1, k2, k3, k4))
            current = mon(y)
        except _PoleSignal:
            raise FlowPoleError(n, n * h) from None
        except _NotFiniteSignal:
            raise FlowPoleError(n, n * h, NOT_FINITE) from None
        times.append(n * h)
        states.append(y)
        for i in range(len(base)):
            d = abs(current[i] - base[i])
            if d > max_drift[i]:
                max_drift[i] = d
    final = [abs(a - b) for a, b in zip(current, base)]
    return times, states, list(base), max_drift, final


def pole_table():
    table = VarTable.make(["u1", "u2"], 0, [])
    return BracketTable(table, {(0, 1): parse_ratfunc("1", table)})


def oracle_case(name):
    """(system builder, flow function, config) of one oracle case."""
    if name in ("sphere", "no-monitors"):
        problem = sphere()
        table = problem.table
        monitors = [sphere_invariant(table)] if name == "sphere" else []
        cfg = FlowConfig(parse_expression("V + H", table),
                         {"H": 1.0, "phi": 2.0, "V": 3.0, "R": 1.0},
                         1e-2, 1000, monitors)
        return problem.brackets, cfg, "abstract"
    # The benchmark's flows: "sphere-of-V", "hydrogen-unit" and
    # "hydrogen-kepler" run at the unit parameters R = 1 and m = kappa = 1.
    if name == "sphere-of-V":
        problem = sphere()
        cfg = FlowConfig(parse_expression("V", problem.table),
                         {"H": 1.0, "phi": 0.0, "V": 0.0, "R": 1.0}, 1e-3,
                         2000, [sphere_invariant(problem.table)])
        return problem.brackets, cfg, "abstract"
    if name in ("hydrogen-abstract", "hydrogen-unit"):
        problem = corpus_problem("hydrogen")
        table = problem.table
        unit = name == "hydrogen-unit"
        observable = ("L1*M2 + 1/2*L3^2 + M1^2 - 1/3*H*L2" if unit else
                      "1/2*L1^2 - 1/3*L2*M3 + 1/4*M1^2 + H*L3 - 1/5*M2")
        cfg = FlowConfig(
            parse_expression(observable, table),
            {"H": -0.5, "L1": 0.3, "L2": -0.2, "L3": 0.4, "M1": 0.1,
             "M2": 0.25, "M3": -0.15, "m": 1.0 if unit else 1.5,
             "kappa": 1.0 if unit else 0.75},
            1e-3, 2000,
            [parse_expression(m, table) for m in (
                "H", "L1*M1 + L2*M2 + L3*M3",
                "H*(L1^2 + L2^2 + L3^2) - m/2*(M1^2 + M2^2 + M3^2)")])
        return problem.brackets, cfg, "abstract"
    if name in ("hydrogen-kepler", "kepler-mass", "kepler-radius"):
        # At m = 1.5 the monitors' denominator m*Q is the local of Q times m.
        # The radius alone is a monitor with no denominator: its square root
        # sums Q where no local of Q is placed yet.
        problem = corpus_problem("hydrogen")
        table = problem.table
        mass = 1.5 if name == "kepler-mass" else 1.0
        monitors = ["rho"] if name == "kepler-radius" else ["H", "L3", "M1"]
        cfg = FlowConfig(parse_expression("H", table),
                         {"q1": 1.0, "q2": 0.0, "q3": 0.0, "p1": 0.0,
                          "p2": 0.8, "p3": 0.1, "m": mass, "kappa": 1.0},
                         1e-3, 2000,
                         [parse_expression(m, table) for m in monitors])
        return problem.realization, cfg, "canonical"
    if name == "nappi-witten":
        problem = corpus_problem("nappi-witten")
        table = problem.table
        cfg = FlowConfig(parse_expression("J + P1*P2", table),
                         {"P1": 1.0, "P2": 0.5, "J": 0.25, "T": 2.0,
                          "a": 1.0, "b": 1.0}, 1e-3, 2000,
                         [parse_expression(m, table)
                          for m in ("P1^2 + P2^2 + 2*J*T", "T")])
        return problem.brackets, cfg, "abstract"
    if name == "log-monitor":
        problem = corpus_problem("galilei")
        table = problem.table
        cfg = FlowConfig(parse_expression("u1 + u3^2", table),
                         {"u1": 0.3, "u2": 1.2, "u3": -0.4, "a": 1.0, "b": 2.0},
                         1e-3, 2000,
                         [parse_expression("a*u1*u2^-1 - b*log(u2) - a/2*u3",
                                           table)])
        return problem.brackets, cfg, "abstract"
    if name == "parameter-power-log":
        problem = corpus_problem("galilei")
        table = problem.table
        cfg = FlowConfig(parse_expression("u1 + a^2*u3^2", table),
                         {"u1": 0.3, "u2": 1.2, "u3": -0.4, "a": 1.5, "b": 2.0},
                         1e-3, 2000,
                         [parse_expression(m, table) for m in (
                             "a*u1*u2^-1 - b*log(u2) - a/2*u3",
                             "u3^2 + a^3/b^2*log(u2)")])
        return problem.brackets, cfg, "abstract"
    if name.endswith("parameter-pole"):
        table = VarTable.make(["u1", "u2"], 0, ["a"])
        bt = BracketTable(table, {(0, 1): parse_ratfunc("1", table)})
        monitor = "1/2*u2^2/a" if name.startswith("monitor") else "u1"
        cfg = FlowConfig(parse_expression("1/2*u2^2/a", table),
                         {"u1": 1.0, "u2": -1.0, "a": 1e-13}, 1e-3, 2000,
                         [parse_expression(monitor, table)])
        return bt, cfg, "abstract"
    bt = pole_table()
    if name == "log-pole":
        cfg = FlowConfig(parse_expression("u1", bt.table),
                         {"u1": 1.0, "u2": 0.5}, 1e-3, 2000,
                         [parse_expression("log(u2)", bt.table)])
    elif name == "rhs-log-pole":
        # du2/dt = log(u2): a logarithm that only the right-hand sides take
        # of a variable that the monitor reads.
        cfg = FlowConfig(parse_expression("-u1*log(u2)", bt.table),
                         {"u1": 1.0, "u2": 0.6}, 1e-3, 2000,
                         [parse_expression("u2", bt.table)])
    else:
        cfg = FlowConfig(parse_expression("1/2*u2^2", bt.table),
                         {"u1": 1.0, "u2": -1.0}, 1e-3, 2000,
                         [parse_expression("1/(u1 - 1/2)", bt.table)])
    return bt, cfg, "abstract"


def outcome(run):
    try:
        return run()
    except FlowPoleError as exc:
        return ("pole", exc.step, exc.time)


def materialized(result):
    """An outcome with its times and states as lists, so that `repr` shows
    every value."""
    if result[0] == "pole":
        return result
    times, states, *monitors = result
    return (list(times), [list(y) for y in states], *monitors)


# Oracle cases whose only denominator uses only parameters, with the step at
# which the per-step loop first evaluates it.
EARLY_POLES = {"rhs-parameter-pole": 1, "monitor-parameter-pole": 0}


def generated_and_reference(source, cfg, mode):
    """Outcomes of the generated run and of the per-step loop over
    term-by-term evaluators: times, states, monitor values and drifts, or
    the pole step."""
    if mode == "abstract":
        system = _abstract_system(source, cfg)
        flow = lambda: abstract_flow(source, cfg)
    else:
        system = _canonical_system(source, cfg)
        flow = lambda: canonical_flow(source, cfg)
    table, state, rhs_exprs, monitors = system
    base = _factor_base([*rhs_exprs, *monitors])
    rhs = reference_evaluator(table, rhs_exprs, state, cfg.initial_state, base)
    mon = reference_evaluator(table, monitors, state, cfg.initial_state, base)
    y0 = [float(cfg.initial_state[table.names[i]]) for i in state]
    want = outcome(lambda: reference_integrate(rhs, mon, y0, cfg.step_size,
                                               cfg.steps))

    def got_run():
        result = flow()
        m = result.drift.monitors
        return (result.times, result.states, [d.initial for d in m],
                [d.max_drift for d in m], [d.final_drift for d in m])
    return outcome(got_run), want


@pytest.mark.parametrize("name", [
    "sphere", "sphere-of-V", "hydrogen-abstract", "hydrogen-unit",
    "hydrogen-kepler", "kepler-mass", "kepler-radius", "nappi-witten",
    "no-monitors", "log-monitor", "log-pole", "rhs-log-pole", "pole",
    "parameter-power-log", *EARLY_POLES])
def test_generated_run_matches_reference_loop(name):
    """The one generated run reproduces the per-step loop over term-by-term
    evaluators bit for bit: every state and time, the monitor values and
    drifts, and pole steps."""
    source, cfg, mode = oracle_case(name)
    got, want = generated_and_reference(source, cfg, mode)
    assert got == want
    # == takes -0.0 for 0.0 and fails on NaN; repr tells both apart.
    assert repr(materialized(got)) == repr(materialized(want))
    if name in EARLY_POLES:
        assert got[:2] == ("pole", EARLY_POLES[name])
    elif name.endswith("pole"):
        assert 400 <= got[1] <= 600
    else:
        assert len(got[1]) == cfg.steps + 1


def test_zero_right_hand_side_moves_by_adding_zero():
    """V has the zero right-hand side in the flow of V: its stages and
    update add 0.0, as half * 0.0 and sixth * 0.0 do, so a start at -0.0
    moves to +0.0 as in the per-step loop."""
    problem = sphere()
    cfg = FlowConfig(parse_expression("V", problem.table),
                     {"H": 1.0, "phi": 0.0, "V": -0.0, "R": 1.0}, 1e-3, 3,
                     [sphere_invariant(problem.table)])
    got, want = generated_and_reference(problem.brackets, cfg, "abstract")
    assert repr([list(x) for x in got]) == repr([list(x) for x in want])
    assert [repr(state[2]) for state in got[1]] == ["-0.0"] + ["0.0"] * 3


def test_right_hand_side_pole_at_the_final_state_is_the_next_step():
    """u1 grows as exp(t) whatever c is, and c enters only denominators of
    the right-hand sides, which vanish at u1 = c.  With c the value u1
    reaches after N steps, an N-step run finishes, as the per-step loop
    does, since the right-hand sides are never evaluated at the final state;
    one step more aborts at step N + 1, where stage 1 evaluates them."""
    table = VarTable.make(["u1", "u2", "u3", "u4"], 0, ["c"])
    bt = BracketTable(table, {(0, 1): parse_ratfunc("u1", table),
                              (2, 3): parse_ratfunc("1", table)})

    def config(c, steps):
        return FlowConfig(parse_expression("u2 + u4/(u1 - c)", table),
                          {"u1": 1.0, "u2": 0.5, "u3": 0.0, "u4": 1.0,
                           "c": c}, 0.1, steps,
                          [parse_expression(m, table) for m in ("u1^2", "u4")])
    steps = 10
    far = abstract_flow(bt, config(100.0, steps)).final_map()["u1"]
    assert abs(far - math.exp(1.0)) < 1e-5
    got, want = generated_and_reference(bt, config(far, steps), "abstract")
    assert got == want
    assert len(got[1]) == steps + 1 and got[1][-1][0] == far
    got, want = generated_and_reference(bt, config(far, steps + 1), "abstract")
    assert got == want
    assert got[:2] == ("pole", steps + 1)


def test_simplified_polynomial_source_is_exact():
    """Dropping unit coefficients and subtracting negative terms changes no
    bit of the value, signed zeros included."""
    rng = random.Random(11)
    table = VarTable.make(["u1", "u2", "u3"], 0, [])
    names = {i: f"x{i}" for i in range(3)}
    coefficients = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-3),
                    Fraction(1, 3), Fraction(-2, 7)]
    values = [0.0, -0.0, 1.0, -1.0, 0.1, -2.5, 1e-300, 3.7e150]
    for _ in range(300):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            e = tuple(rng.randint(0, 2) for _ in range(3))
            terms[e] = rng.choice(coefficients)
        p = Poly.from_terms(table, terms.items())
        new, old = _poly_src(p, names), reference_poly_src(p, names)
        for _ in range(10):
            point = {f"x{i}": rng.choice(values) * rng.choice([1.0, 1.3])
                     for i in range(3)}
            a, b = eval(new, {}, dict(point)), eval(old, {}, dict(point))
            assert repr(a) == repr(b)
            assert math.isnan(a) or math.copysign(1, a) == math.copysign(1, b)


def flow_system(source, cfg, mode):
    if mode == "abstract":
        return _abstract_system(source, cfg)
    return _canonical_system(source, cfg)


@pytest.mark.parametrize("name", [
    "hydrogen-kepler", "hydrogen-abstract", "hydrogen-unit", "sphere-of-V",
    "log-monitor", "rhs-log-pole"])
def test_run_computes_powers_once_per_point_and_parameter_work_once(
        name, monkeypatch):
    """Inside the step loop, no radial element, power (a square is a
    product) or denominator is computed twice at one state and every
    logarithm is guarded there, nothing that uses only parameters is
    computed at all, no unit parameter is read and no zero stage is
    stored."""
    source, cfg, mode = oracle_case(name)
    table, state, rhs_exprs, monitors = flow_system(source, cfg, mode)
    _, loop = emitted_run(monkeypatch, table, rhs_exprs, monitors, state,
                          cfg.initial_state)
    # The lines of one point run from one move of the state locals to the next.
    points = [[]]
    for line in loop:
        if re.fullmatch(r"x\d+ = y\d+.*", line):
            points.append([])
        else:
            points[-1].append(line)
    assert len(points) >= 5
    # Stage 1 at the top of the loop evaluates the state that the monitors
    # at its end evaluated one step before.
    points[0] += points.pop()
    for point in points:
        text = "\n".join(point)
        powers = [m[0] for m in re.finditer(r"\(x(\d+)\*x\1\)|x\d+\*\*\d+", text)]
        assert len(powers) == len(set(powers)), point
        assert text.count("sqrt(") <= 1, point
        dens = [l.partition(" = ")[2] for l in point if re.match(r"d\d+ = ", l)]
        assert len(dens) == len(set(dens)), point
        for g in re.findall(r"log\((x\d+)\)", text):
            assert f"if {g} <= 1e-12" in text, point
    params = {str(i) for i in table.parameter_indices}
    units = {str(i) for i in table.parameter_indices
             if cfg.initial_state[table.names[i]] == 1.0}
    for line in loop:
        assert not any(f"x{i}**" in line or f"(x{i}*x{i})" in line
                       for i in params), line
        value = line.partition(" = ")[2]
        used = set(re.findall(r"\bx(\d+)", value))
        assert not used or not used <= params, line
        assert not set(re.findall(r"\bx(\d+)", line)) & units, line
        assert not re.fullmatch(r"k\d+_\d+ = 0\.0", line), line


def evaluated(fn, point):
    try:
        return fn(point)
    except (_PoleSignal, _NotFiniteSignal, OverflowError) as exc:
        return type(exc).__name__


def test_compiled_evaluator_matches_reference_evaluator():
    """The shared emitter reproduces the term-by-term evaluator bit for bit on
    the hydrogen realization, signed zeros, poles and overflows included; a
    square that overflows is a product, so it signals a value that is not
    finite rather than raising OverflowError."""
    problem = corpus_problem("hydrogen")
    table = problem.table
    exprs = list(problem.realization.expressions)
    state = list(table.q_indices) + list(table.p_indices)
    values = {"m": 1.5, "kappa": 0.75}
    fast = compile_evaluator(table, exprs, state, values)
    slow = reference_evaluator(table, exprs, state, values)
    rng = random.Random(5)
    choices = [0.0, -0.0, 1.0, -1.0, 0.1, -2.5, 1e-300, 3.7e150, 1e200]
    kinds = set()
    for _ in range(3000):
        point = tuple(rng.choice(choices) * rng.choice([1.0, 1.3])
                      for _ in state)
        got, want = evaluated(fast, point), evaluated(slow, point)
        assert repr(got) == repr(want), point
        kinds.add(want if isinstance(want, str) else "value")
    assert kinds == {"value", "_PoleSignal", "_NotFiniteSignal"}


def hydrogen_path(bad_state, index):
    """A three-point canonical path of the hydrogen realization with
    `bad_state` at `index`."""
    states = [(1.0, 0.0, 0.0, 0.0, 0.8, 0.1), (0.9, 0.1, 0.0, 0.05, 0.8, 0.1),
              (0.8, 0.2, 0.0, 0.1, 0.7, 0.1)]
    states[index] = bad_state
    names = ["q1", "q2", "q3", "p1", "p2", "p3"]
    return FlowResult(names, [0.0, 0.25, 0.5], states, DriftReport([]))


def test_generator_trajectory_reports_the_point_at_a_pole():
    problem = corpus_problem("hydrogen")
    path = hydrogen_path((0.0, 0.0, 0.0, 0.1, 0.8, 0.1), 2)
    with pytest.raises(FlowPoleError, match="within 1e-12") as info:
        generator_trajectory(problem.realization, path,
                             {"m": 1.0, "kappa": 1.0})
    assert (info.value.step, info.value.time) == (2, 0.5)


def test_generator_trajectory_reports_an_overflow_as_not_finite():
    problem = corpus_problem("hydrogen")
    path = hydrogen_path((1.0, 0.0, 0.0, 1e200, 0.8, 0.1), 1)
    with pytest.raises(FlowPoleError, match="not finite") as info:
        generator_trajectory(problem.realization, path,
                             {"m": 1.0, "kappa": 1.0})
    assert (info.value.step, info.value.time) == (1, 0.25)


def test_generator_trajectory_reports_a_product_overflow_as_not_finite():
    """x11 = q1*p1 on the gl(2) Jordan-Schwinger realization overflows as a
    product, which raises nothing: the infinite value, not an exception,
    ends the trajectory as not finite."""
    path = FlowResult(["q1", "q2", "p1", "p2"], [0.0, 0.25],
                      [(1.0, 0.5, 1.0, 0.5), (1e200, 0.5, 1e200, 0.5)],
                      DriftReport([]))
    with pytest.raises(FlowPoleError, match="not finite") as info:
        generator_trajectory(lie_problem("gl2").realization, path, {})
    assert (info.value.step, info.value.time) == (1, 0.25)


def oracle_flow(name):
    source, cfg, mode = oracle_case(name)
    if mode == "abstract":
        return abstract_flow(source, cfg), cfg
    return canonical_flow(source, cfg), cfg


@pytest.mark.parametrize("name", [
    "sphere", "hydrogen-abstract", "hydrogen-kepler", "nappi-witten",
    "no-monitors", "log-monitor", "parameter-power-log"])
def test_replayed_last_state_is_the_final_state(name):
    result, _ = oracle_flow(name)
    final = result.final_state
    assert repr(list(result.states)[-1]) == repr(final)
    assert result.states[-1] is final


def test_final_state_and_length_do_not_replay(monkeypatch):
    """A run that records its states (is given `append`) is a replay."""
    replays = []
    compile_run = flow_module._compile_run

    def counting_compile(*args):
        run = compile_run(*args)

        def counted(start, h, steps, append=None):
            if append is not None:
                replays.append(steps)
            return run(start, h, steps, append)
        return counted
    monkeypatch.setattr(flow_module, "_compile_run", counting_compile)
    result, cfg = oracle_flow("hydrogen-kepler")
    assert len(result.states) == cfg.steps + 1
    assert result.states[cfg.steps] is result.final_state
    assert list(result.final_map().values()) == list(result.final_state)
    assert replays == []
    first = result.states[0]
    assert replays == [cfg.steps]
    assert result.states[1] != first and result.states[:2][0] == first
    assert replays == [cfg.steps]


def test_times_are_step_multiples():
    result, cfg = oracle_flow("sphere")
    h = cfg.step_size
    assert result.times[-1] == cfg.steps * h
    assert result.times == [i * h for i in range(cfg.steps + 1)]
    assert len(result.times) == cfg.steps + 1


def test_long_run_memory_does_not_grow_with_steps():
    """200,000 stored states of four floats would take about 35 MB."""
    problem = sphere()
    cfg = FlowConfig(parse_expression("V", problem.table),
                     {"H": 1.0, "phi": 0.0, "V": 0.0, "R": 1.0}, 1e-6, 200000,
                     [sphere_invariant(problem.table)])
    tracemalloc.start()
    try:
        result = abstract_flow(problem.brackets, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.states) == 200001
    assert peak < 2_000_000


# Observable and monitors per mode: the benchmark's flows (bench/run.py) and
# the canonical sphere flow of test_canonical_flow_conserves_known_quantities.
BENCH_ABSTRACT = {
    "sphere": ("V", ["(phi + R^2)*H - 1/2*V^2"]),
    "hydrogen": ("L1*M2 + 1/2*L3^2 + M1^2 - 1/3*H*L2",
                 ["H", "L1*M1 + L2*M2 + L3*M3",
                  "H*(L1^2 + L2^2 + L3^2) - m/2*(M1^2 + M2^2 + M3^2)"]),
    "nappi-witten": ("J", ["P1^2 + P2^2 + 2*J*T", "T"]),
}
BENCH_CANONICAL = {"sphere": ("(phi + R^2)*H - 1/2*V^2", ["phi + R^2", "V"]),
                   "hydrogen": ("H", ["H", "L3", "M1"])}


def exactness_systems():
    """(name, mode, source, config) for the flow of every generator of every
    corpus problem, abstract, and of sphere and hydrogen, canonical, each
    monitoring every generator, plus the benchmark's flows."""
    from plq.corpus import corpus_names
    for name in corpus_names():
        problem = corpus_problem(name)
        table = problem.table
        modes = [("abstract", problem.brackets, BENCH_ABSTRACT)]
        if name in BENCH_CANONICAL:
            modes.append(("canonical", problem.realization, BENCH_CANONICAL))
        for mode, source, bench in modes:
            observable, monitors = bench.get(name, (None, []))
            texts = list(table.generator_names) + monitors
            for text in [*table.generator_names, *filter(None, [observable])]:
                cfg = FlowConfig(parse_expression(text, table), {}, 0.1, 1,
                                 [parse_expression(m, table) for m in texts])
                yield name, mode, source, cfg


def test_split_parts_sum_to_the_expression():
    """Each right-hand side and monitor, and each coefficient of a
    logarithm, is the sum of its `_parts`; the Kepler run's H and M1 split
    into a polynomial over m and a remainder over m*Q."""
    split = set()
    for name, mode, source, cfg in exactness_systems():
        _, _, rhs_exprs, monitors = flow_system(source, cfg, mode)
        for le in rhs_exprs + monitors:
            for rf in (le.rat, *(c for _, c in le.logs)):
                parts = flow_module._parts(rf)
                assert sum(parts[1:], parts[0]) == rf, (name, mode, str(rf))
                if len(parts) > 1:
                    split.add((name, mode))
    assert ("hydrogen", "canonical") in split
    source, cfg, mode = oracle_case("hydrogen-kepler")
    monitors = flow_system(source, cfg, mode)[3]
    assert [[str(p) for p in flow_module._parts(m.rat)] for m in monitors] == [
        ["(1/2*p1^2 + 1/2*p2^2 + 1/2*p3^2)/(m)",
         "(-m*kappa*rho)/(q1^2*m + q2^2*m + q3^2*m)"],
        ["q1*p2 - q2*p1"],
        ["(q1*p2^2 + q1*p3^2 - q2*p1*p2 - q3*p1*p3)/(m)",
         "(-q1*m*kappa*rho)/(q1^2*m + q2^2*m + q3^2*m)"]]


def test_parts_cancel_a_denominator_factor_that_divides():
    """Where the monomial content of D uses the state, D is not split, yet
    its non-monomial part C is cancelled when it divides N exactly."""
    table = VarTable.make(["u1", "u2"], 0, ["c"])
    for text, want in [("(u2*u1 - u2*c)/(u1^2 - u1*c)", ["u1^-1*u2"]),
                       ("(u2*u1^2 - u2*c^2)/(u1^2*c - u1*c^2)", ["(u1*u2 + u2*c)/(u1*c)"]),
                       ("(u2*u1 - u2)/(u1^2 - u1*c)", ["(u1*u2 - u2)/(u1^2 - u1*c)"])]:
        rf = parse_ratfunc(text, table)
        parts = flow_module._parts(rf)
        assert [str(p) for p in parts] == want
        assert sum(parts[1:], parts[0]) == rf


def test_a_parameter_only_in_a_cancelled_factor_needs_no_value():
    """G = u4 (u1 - c) / (u1 (u1 - c)) flows as u4/u1 does, with no value
    for c: the emitter reads only the variables of the parts it writes."""
    table = VarTable.make(["u1", "u2", "u3", "u4"], 0, ["c"])
    bt = BracketTable(table, {(0, 1): parse_ratfunc("u1", table),
                              (2, 3): parse_ratfunc("1", table)})
    init = {"u1": 1.0, "u2": 0.5, "u3": 0.0, "u4": 1.0}
    final = [abstract_flow(bt, FlowConfig(parse_expression(text, table), init, 0.1, 10,
                                          [])).final_state
             for text in ("(u4*u1 - u4*c)/(u1^2 - u1*c)", "u4/u1")]
    assert final[0] == final[1]


def benchmark_runs():
    """(name, source, config, mode) of the benchmark's five flow kernels:
    sphere, hydrogen, Kepler and Nappi-Witten, and the so(4) rigid body."""
    for name in ("sphere-of-V", "hydrogen-unit", "hydrogen-kepler"):
        yield (name, *oracle_case(name))
    problem = corpus_problem("nappi-witten")
    observable, monitors = BENCH_ABSTRACT["nappi-witten"]
    yield ("nappi-witten", problem.brackets,
           FlowConfig(parse_expression(observable, problem.table),
                      {"P1": 1.0, "P2": 0.5, "J": 0.25, "T": 2.0, "a": 1.0,
                       "b": 1.0}, 1e-3, 10,
                      [parse_expression(m, problem.table) for m in monitors]),
           "abstract")
    lie = lie_module()
    problem = lie_problem("so4")
    names = problem.table.generator_names
    observable = " + ".join(f"1/{k}*{g}^2" for k, g in enumerate(names, 1))
    yield ("so4", problem.brackets,
           FlowConfig(parse_expression(observable, problem.table),
                      {g: 0.5 for g in names}, 1e-3, 10,
                      [parse_expression(c, problem.table)
                       for c in lie.so_casimirs(4)]), "abstract")


@pytest.mark.parametrize("name", ["sphere-of-V", "hydrogen-unit",
                                  "hydrogen-kepler", "nappi-witten", "so4"])
def test_benchmark_loops_write_squares_as_products(name, monkeypatch):
    """No benchmark kernel's step loop takes a square with `**`."""
    [(_, source, cfg, mode)] = [r for r in benchmark_runs() if r[0] == name]
    table, state, rhs_exprs, monitors = flow_system(source, cfg, mode)
    _, loop = emitted_run(monkeypatch, table, rhs_exprs, monitors, state,
                          cfg.initial_state)
    assert not any("**2" in line for line in loop), name
    assert any(re.search(r"\(x(\d+)\*x\1\)", line) for line in loop), name


def test_reduced_systems_equal_the_unreduced_ones(monkeypatch):
    """The parts the emitter sums for each right-hand side and monitor, the
    non-monomial part of its denominator cancelled where it divides, add up
    to the unreduced expression; the Kepler run's dq/dt loses its factor Q."""
    def parts(system):
        return [flow_module._parts(rf) for le in system[2] + system[3]
                for rf in (le.rat, *(c for _, c in le.logs))]
    cases = list(exactness_systems())
    reduced = [parts(flow_system(source, cfg, mode)) for _, mode, source, cfg in cases]
    monkeypatch.setattr(flow_module, "_parts", lambda rf: [rf])
    changed = set()
    for (name, mode, source, cfg), new in zip(cases, reduced):
        old = parts(flow_system(source, cfg, mode))
        for got, want in zip(new, old):
            assert sum(got[1:], got[0]) == want[0], (name, mode, str(got), str(want))
            if list(map(str, got)) != list(map(str, want)):
                changed.add((name, mode))
    assert ("hydrogen", "canonical") in changed
    source, cfg, mode = oracle_case("hydrogen-kepler")
    monkeypatch.undo()
    rhs = flow_system(source, cfg, mode)[2]
    assert [str(p) for e in rhs[:3] for p in flow_module._parts(e.rat)] == [
        "(p1)/(m)", "(p2)/(m)", "(p3)/(m)"]


def emitted_run(monkeypatch, table, rhs_exprs, monitors, state, values):
    """The stripped source lines of the generated `_run` and of its loop."""
    lines = []
    define = flow_module._define

    def capture(src, fn):
        lines.extend(line.strip() for line in src)
        return define(src, fn)
    monkeypatch.setattr(flow_module, "_define", capture)
    flow_module._compile_run(table, rhs_exprs, monitors, state, values)
    loop = lines[lines.index("for n in range(1, steps + 1):") + 1:
                 lines.index("except _PoleSignal:")]
    return lines, loop


def assert_denominators_guarded(lines):
    for i, line in enumerate(lines):
        found = re.match(r"(d\d+) = ", line)
        if found:
            guard = f"if abs({found[1]}) < 1e-12: raise _PoleSignal()"
            assert lines[i + 1] == guard, line


def test_kepler_run_squares_q_as_a_product(monkeypatch):
    """dp/dt's denominator Q^2 is one local of Q times itself in each of the
    four stages, no fourth power is written, Q sums products, the radial
    element is the square root of Q's local, and every denominator local is
    guarded."""
    source, cfg, mode = oracle_case("hydrogen-kepler")
    table, state, rhs_exprs, monitors = flow_system(source, cfg, mode)
    lines, loop = emitted_run(monkeypatch, table, rhs_exprs, monitors, state,
                              cfg.initial_state)
    assert not any("**4" in line for line in lines)
    squares = [m for m in map(re.compile(r"d\d+ = (d\d+) \* \1").fullmatch,
                              loop) if m]
    assert len(squares) == 4
    q = {m[1] for m in squares}
    assert len(q) == 1
    [q] = q
    assert any(re.fullmatch(rf"{q} = \(((\(x(\d+)\*x\3\)|x\d+_2)( \+ )?){{3}}\)", l)
               for l in lines)
    radial = [l for l in loop if "sqrt(" in l]
    assert len(radial) == 4 and all(re.fullmatch(rf"x\d+ = sqrt\({q}\)", l)
                                    for l in radial)
    assert_denominators_guarded(lines)


def test_radius_monitor_squares_q_as_a_product(monkeypatch):
    """With `rho` the only monitor no run denominator is Q itself, yet Q is a
    local: dp/dt's Q^2 is that local times itself in each of the four
    stages, with no fourth power, and the radial element is its square root
    where the local is placed before it."""
    source, cfg, mode = oracle_case("kepler-radius")
    table, state, rhs_exprs, monitors = flow_system(source, cfg, mode)
    lines, loop = emitted_run(monkeypatch, table, rhs_exprs, monitors, state,
                              cfg.initial_state)
    assert not any("**4" in line for line in lines)
    assert loop.count("d1 = d0 * d0") == 4
    assert any(re.fullmatch(r"x\d+ = sqrt\(d0\)", l) for l in loop)
    assert_denominators_guarded(lines)


def test_power_of_a_base_factor_is_emitted_as_a_product(monkeypatch):
    """The flow of u2 + u4/(u1 - c) has the denominators u1 - c and its
    square: the square is the local of u1 - c times itself."""
    table = VarTable.make(["u1", "u2", "u3", "u4"], 0, ["c"])
    bt = BracketTable(table, {(0, 1): parse_ratfunc("u1", table),
                              (2, 3): parse_ratfunc("1", table)})
    cfg = FlowConfig(parse_expression("u2 + u4/(u1 - c)", table),
                     {"u1": 1.0, "u2": 0.5, "u3": 0.0, "u4": 1.0, "c": 3.0},
                     0.1, 10, [parse_expression("u4/(u1 - c)", table)])
    table, state, rhs_exprs, monitors = _abstract_system(bt, cfg)
    dens = {str(rf.den) for le in rhs_exprs for rf in
            (le.rat, *(c for _, c in le.logs)) if not rf.is_poly()}
    assert dens == {"u1^2 - 2*u1*c + c^2", "u1 - c"}
    lines, loop = emitted_run(monkeypatch, table, rhs_exprs, monitors, state,
                              cfg.initial_state)
    assert "d0 = (-x4 + x0)" in lines
    assert loop.count("d1 = d0 * d0") == 4
    assert not any("**2" in line for line in loop)
    assert_denominators_guarded(lines)


def test_kepler_run_stays_close_to_the_unreduced_system(monkeypatch):
    """Over 20,000 steps the reduced, factored run ends within 1e-8 of the
    term-by-term loop over the unreduced system, and no monitor drifts by
    1e-10."""
    source, cfg, mode = oracle_case("hydrogen-kepler")
    cfg = FlowConfig(cfg.observable, cfg.initial_state, cfg.step_size, 20000,
                     cfg.monitors)
    result = canonical_flow(source, cfg)
    table, state, rhs_exprs, monitors = flow_system(source, cfg, mode)
    monkeypatch.setattr(flow_module, "_parts", lambda rf: [rf])
    rhs = reference_evaluator(table, rhs_exprs, state, cfg.initial_state)
    mon = reference_evaluator(table, monitors, state, cfg.initial_state)
    y0 = [float(cfg.initial_state[table.names[i]]) for i in state]
    _, states, *_ = reference_integrate(rhs, mon, y0, cfg.step_size, cfg.steps)
    assert result.final_state != states[-1]
    assert max(abs(a - b) for a, b in zip(result.final_state, states[-1])) < 1e-8
    assert result.drift.worst() < 1e-10
