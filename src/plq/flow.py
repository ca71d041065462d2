"""Numeric cross-checks: fixed-step RK4 flows generated by observables.

The flow of an observable G moves the generators by du_k/dt = {u_k, G}; in a
canonical realization the motion is Hamilton's equations for the realized
observable.  Integration runs in binary64 floating point: exactness lives in
the symbolic modules, and flows serve as numerical witnesses that monitors
(Casimirs, constraints, the observable itself) stay constant.

Each run is compiled once into one generated Python function that holds the
whole step loop: the state, the four RK4 stages, the monitors and their drift
live in scalar locals, and parameter values are constants.  Each state is
evaluated once: stage 1 of a step reads what the monitors computed at the
end of the step before.  The emitted source drops unit coefficients and
parameters equal to 1.0 (a*1.0 and a/1.0 are a), writes negative
coefficients as subtractions, computes each distinct denominator and each
repeated power once per point, and those that use only parameters once per
run, and moves a component whose right-hand side is zero by + 0.0 (what
h/2*0.0 and h/6*0.0 add for a valid step); each of these is exact in IEEE
round-to-nearest arithmetic.  The deliberate departures from term-by-term
rounding are exact symbolically: reduced right-hand sides and monitors; a
denominator divisible by the non-monomial part of another as that local
times the quotient ((q1^2+q2^2+q3^2)^2 is d0 * d0); N/D as polynomial part
plus remainder, Q/g + R/D for D = g*C and N = Q*C + R (Kepler's energy is
p^2/2 - rho/d0); a square as a product, correctly rounded where ** calls
libm pow, so inf on overflow; the radial element as sqrt(d0).  Every
denominator is guarded, so a trajectory that approaches a pole aborts with
the step index, and so does one whose state or monitors, or an evaluator
whose values, leave the finite range.  A run keeps only its current state,
so its memory does not grow with the step count; a result's states and
times are rebuilt, by replaying the run, only when something reads them.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Mapping, Sequence
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .canonical import CanonicalRealization
from .expr import (PARAMETER, ExprError, LogExpr, Poly, RatFunc, VarTable,
                   add_terms, diff, exact_div, sigma_poly)
from .parsing import to_string
from .structure import BracketTable

POLE_TOLERANCE = 1e-12
NOT_FINITE = "state or monitor value is not finite"


class FlowPoleError(ExprError):
    """A denominator or logarithm argument degenerated along the trajectory,
    or a state or monitor value left the finite range."""

    def __init__(self, step: int, time: float,
                 reason: str = "denominator within 1e-12 of zero"):
        super().__init__(f"flow aborted at step {step} (t = {time:.6g}): "
                         + reason)
        self.step = step
        self.time = time


class _PoleSignal(Exception):
    """Internal marker raised by compiled evaluators at a near-pole point."""


class _NotFiniteSignal(Exception):
    """Internal marker raised by compiled code at an infinite or NaN value."""


@dataclass
class FlowConfig:
    """One flow run: its generator, start point, grid, and monitors.

    The initial state maps variable names to numbers and must also supply a
    value for every parameter the run uses.
    """
    observable: LogExpr
    initial_state: Mapping[str, float]
    step_size: float
    steps: int
    monitors: Sequence[LogExpr] = ()
    monitor_labels: Sequence[str] | None = None

    def __post_init__(self):
        if self.step_size <= 0:
            raise ExprError("step size must be positive")
        if not math.isfinite(self.step_size):
            raise ExprError("step size must be finite")
        if self.steps < 1:
            raise ExprError("step count must be at least 1")
        if self.monitor_labels is not None \
                and len(self.monitor_labels) != len(self.monitors):
            raise ExprError("monitor labels do not match the monitors")

    def labels(self) -> list[str]:
        if self.monitor_labels is not None:
            return list(self.monitor_labels)
        return [to_string(m) for m in self.monitors]


@dataclass
class MonitorDrift:
    """Deviation of one monitored quantity from its initial value."""
    label: str
    initial: float
    max_drift: float
    final_drift: float


@dataclass
class DriftReport:
    monitors: list[MonitorDrift]

    def worst(self) -> float:
        return max((m.max_drift for m in self.monitors), default=0.0)

    def by_label(self) -> dict[str, MonitorDrift]:
        return {m.label: m for m in self.monitors}


class _Lazy(Sequence):
    """A list built on the first read of an item other than its last; its
    length and last item are known without building it."""

    def __init__(self, build: Callable[[], list], length: int, last):
        self._build, self._length, self._last = build, length, last

    @cached_property
    def _items(self) -> list:
        return self._build()

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i):
        return self._last if i in (-1, self._length - 1) else self._items[i]

    def __iter__(self):
        return iter(self._items)

    def __eq__(self, other):
        return self._items == other


@dataclass
class FlowResult:
    """RK4 trajectory with the drift report of its monitors.  A run's result
    holds only its final state: reading any other state replays the run,
    which gives the same states bit for bit."""
    state_names: list[str]
    times: Sequence[float]
    states: Sequence[tuple[float, ...]]
    drift: DriftReport

    @property
    def final_state(self) -> tuple[float, ...]:
        return self.states[-1]

    def final_map(self) -> dict[str, float]:
        return dict(zip(self.state_names, self.final_state))


def _frac_src(c: int | Fraction) -> str:
    if c.denominator == 1:
        return f"{c.numerator}.0"
    return f"({c.numerator}/{c.denominator})"


def _power(name: str, x: int) -> str:
    """name to the power x; a square is a product, correctly rounded."""
    return name if x == 1 else f"({name}*{name})" if x == 2 else f"{name}**{x}"


def _poly_src(p: Poly, names: Mapping[int, str],
              bound: Mapping[str, str] = {}) -> str:
    """Source of a polynomial: a unit coefficient is dropped and a negative
    one becomes a subtraction, both exact in floating point.  A variable
    missing from `names` is a parameter whose value is 1.0 and is dropped as
    a factor, also exact.  A power with a local in `bound` is read from that
    local."""
    if p.is_zero():
        return "0.0"
    src = ""
    for e, c in sorted(p.terms.items()):
        factors = [bound.get(f, f) for f in (_power(names[i], x)
                   for i, x in enumerate(e) if x and i in names)]
        if abs(c) != 1 or not factors:
            factors.insert(0, _frac_src(abs(c)))
        term = "*".join(factors)
        if not src:
            src = "-" + term if c < 0 else term
        else:
            src += (" - " if c < 0 else " + ") + term
    return "(" + src + ")"


def _as_logexpr(expr) -> LogExpr:
    if isinstance(expr, LogExpr):
        return expr
    if isinstance(expr, RatFunc):
        return LogExpr(expr)
    raise ExprError(f"cannot integrate a {type(expr).__name__}")


def _used_indices(exprs: Sequence[LogExpr]) -> set[int]:
    used: set[int] = set()
    for e in exprs:
        used |= e.rat.num.used_indices() | e.rat.den.used_indices()
        for g, c in e.logs:
            used.add(g)
            used |= c.num.used_indices() | c.den.used_indices()
    return used


def _content_free(p: Poly) -> Poly:
    """p divided by its monomial content."""
    g = p.table.meet(p.packed)
    return p.shift(g) if g else p


def _divided(n: Poly, c: Poly) -> tuple[Poly, Poly]:
    """(Q, R) with n = Q*c + R, c free of the radial element, by the descent
    of `Poly.divide_exact` moving to R what c's leading term does not divide."""
    (de, dc), guard = c.leading(), n.table.guard
    rem, q, r = dict(n.packed), {}, {}
    while rem:
        e = max(rem)
        if ((e | guard) - de) & guard != guard:
            r[e] = rem.pop(e)
        else:
            q[e - de] = x = exact_div(rem[e], dc)
            add_terms(rem, {k + e - de: -v * x for k, v in c.packed.items()})
    return Poly(n.table, q), Poly(n.table, r)


def _parts(rf: RatFunc) -> list[RatFunc]:
    """The terms the emitter sums for rf = N/D, D = g*C with g a monomial
    and C its non-monomial part: (N/C)/g when C divides N exactly, else
    Q/g + R/D when g uses only parameters, C uses the state and `_divided`
    gives Q nonzero."""
    g = Poly(rf.table, {rf.table.meet(rf.den.packed): 1})
    c, params = _content_free(rf.den), set(rf.table.parameter_indices)
    if not c.is_constant() and (n := rf.num.divide_exact(c)) is not None:
        return [RatFunc.make(n, g)]
    if c.used_indices() <= params or not g.used_indices() <= params:
        return [rf]
    q, r = _divided(rf.num, c)
    rest = [] if r.is_zero() else [RatFunc(r, rf.den, _normalized=True)]
    return [rf] if q.is_zero() else [RatFunc.make(q, g), *rest]


def _expr_parts(le: LogExpr) -> list[list[RatFunc]]:
    """The `_parts` of le's rational part, then of each log's coefficient."""
    return [_parts(f) for f in (le.rat, *(c for _, c in le.logs))]


def _factor_base(parts: Sequence[list[list[RatFunc]]]) -> list[Poly]:
    """The distinct non-monomial parts of the denominators of `parts`, as
    `_expr_parts` gives them, that use a variable other than a parameter,
    the highest degree first."""
    base: dict[Poly, None] = {}
    for rf in (p for expr_parts in parts for ps in expr_parts for p in ps):
        c = _content_free(rf.den)
        if any(c.table.kind(i) != PARAMETER for i in c.used_indices()):
            base.setdefault(c)
    for c in list(base):  # sigma^k (k >= 2) as a power of sigma's local
        if (k := c.degree() // 2) >= 2 and c == sigma_poly(c.table) ** k:
            base.setdefault(sigma_poly(c.table))
    return sorted(base, key=Poly.degree, reverse=True)


def _split(den: Poly, base: Sequence[Poly], names: Mapping[int, str]
           ) -> tuple[Poly, Poly, bool] | None:
    """(B, R, whether R is in `base`) with den = B * R, for the first B in
    `base` that prints differently from den under `names` and leaves a
    quotient R that is not constant; None when den is written out."""
    src = _poly_src(den, names)
    for b in base:
        if _poly_src(b, names) != src:
            r = den.divide_exact(b)
            if r is not None and not r.is_constant():
                shared = _poly_src(r, names) in {_poly_src(x, names)
                                                 for x in base}
                return b, r, shared
    return None


def _emit(table: VarTable, groups: Sequence[Sequence[LogExpr]],
          parts: Sequence[Sequence[list[list[RatFunc]]]],
          state_indices: Sequence[int], values: Mapping[str, float],
          dens: dict[str, str], base: Sequence[Poly] = ()
          ) -> list[tuple[list[str], list[str], list[str]]]:
    """Source that evaluates groups of expressions at a point in locals x{i};
    `parts` holds `_expr_parts` of each expression, by position.

    Returns, for each group, the lines run once (parameter values, then the
    powers and guarded denominators that use only parameters), the lines run
    once per point (the radial element, repeated powers, denominator and
    logarithm guards; guards raise `_PoleSignal`), and one output expression
    per input expression.  A group's lines are those it would have alone,
    in the same order, less what an earlier group computes: its outputs read
    those locals.  A parameter-only denominator whose value is 1.0 is dropped
    with its guard, since `a/1.0` is `a`.  `dens` names the denominator
    locals, so emissions that share it name a denominator alike.  A
    denominator that `_split` factors over `base` is B's local, placed first
    with its guard, times R, read from its local when R is in `base`.
    """
    rats = [[p for expr_parts in group for ps in expr_parts for p in ps]
            for group in parts]
    # Each group reads its parts' variables and its logarithms' generators.
    reads = [{g for le in norm for g, _ in le.logs}.union(
        *(p.num.used_indices() | p.den.used_indices() for p in group))
        for norm, group in zip(groups, rats)]
    used = set().union(*reads)
    params: dict[int, float] = {}
    state_set = set(state_indices)
    ia = table.alg_index
    for i in sorted(used - state_set - {ia}):
        name = table.names[i]
        if table.kind(i) != PARAMETER:
            raise ExprError(f"variable {name!r} is not part of the flow state")
        if name not in values:
            raise ExprError(f"no value given for parameter {name!r}")
        params[i] = float(values[name])
    if ia in used and not set(table.q_indices) <= state_set:
        raise ExprError("the radial element needs the position variables "
                        "in the flow state")
    names = {i: f"x{i}" for i in range(len(table)) if params.get(i) != 1.0}
    # Count each power once per polynomial written, a shared denominator once.
    den_polys = {_poly_src(rf.den, names): rf.den
                 for group in rats for rf in group if not rf.is_poly()}
    splits: dict[str, tuple | None] = {}

    def written(p: Poly) -> list[Poly]:
        # The polynomials that denominator p's local writes out.
        src = _poly_src(p, names)
        if src in splits:
            return []
        split = splits[src] = _split(p, base, names)
        if split is None:
            return [p]
        b, r, shared = split
        return written(b) + (written(r) if shared else [r])
    polys = [rf.num for group in rats for rf in group]
    polys += [q for p in den_polys.values() for q in written(p)]
    uses = Counter((i, x) for p in polys for e in p.terms
                   for i, x in enumerate(e) if x > 1 and i in names)
    bound = {_power(f"x{i}", x): f"x{i}_{x}" for (i, x), count in uses.items()
             if count > 1 or i in params}
    env = {names[i]: v for i, v in params.items() if i in names}
    ones = set()
    for den, p in den_polys.items():
        with suppress(OverflowError):  # the run raises it where it occurs
            if p.used_indices() <= params.keys() and eval(den, {}, env) == 1.0:
                ones.add(den)
    unplaced = dict(bound)
    placed: set[str] = set()
    logged: set[int] = set()

    def place(p: Poly, lines: list[str]) -> None:
        # A bound power goes just before its first use, so the operations
        # that can raise (powers, guards) keep their term-by-term order.
        for e in sorted(p.terms):
            for i, x in enumerate(e):
                if local := unplaced.pop(power := _power(f"x{i}", x), None):
                    (constants if i in params else lines).append(f"{local} = {power}")

    def local(p: Poly) -> str:
        # The local of denominator p, computed and guarded at its first use.
        den = _poly_src(p, names)
        if den not in placed:
            placed.add(den)
            lines = constants if p.used_indices() <= params.keys() else point
            b, r, shared = splits[den] or (None, p, False)
            value = "" if b is None else local(b) + " * "
            if shared:
                value += local(r)
            else:
                place(r, lines)
                value += _poly_src(r, names, bound)
            dvar = dens.setdefault(den, f"d{len(dens)}")
            lines.append(f"{dvar} = {value}")
            lines.append(f"if abs({dvar}) < {POLE_TOLERANCE!r}: "
                         "raise _PoleSignal()")
        return dens[den]

    def guarded(ps: list[RatFunc]) -> str:
        srcs = [_poly_src(p.num, names, bound)
                if p.is_poly() or _poly_src(p.den, names) in ones else
                f"({_poly_src(p.num, names, bound)} / {local(p.den)})"
                for p in ps]
        return srcs[0] if len(srcs) == 1 else "(" + " + ".join(srcs) + ")"

    sigma = _poly_src(sigma_poly(table), names)
    emitted = []
    seen: set[int] = set()
    for norm, group_parts, group_rats, group_reads in zip(groups, parts, rats, reads):
        # `place` and `guarded` append to this group's lines.
        new = group_reads - seen
        seen |= new
        constants = [f"x{i} = {params[i]!r}" for i in sorted(new)
                     if i in params and i in names]
        point, outputs = [], []
        for le, (rat, *logs) in zip(norm, group_parts):
            src = guarded(rat)
            for (g, _), c in zip(le.logs, logs):
                if g not in logged:
                    logged.add(g)
                    point.append(f"if x{g} <= {POLE_TOLERANCE!r}: "
                                 "raise _PoleSignal()")
                src = f"({src} + {guarded(c)}*log(x{g}))"
            outputs.append(src)
        for rf in group_rats:
            place(rf.num, point)
        if ia in new:  # sqrt(q1^2+q2^2+q3^2): its local if placed, else the same sum
            point.append(f"x{ia} = sqrt({dens[sigma] if sigma in placed else sigma})")
        emitted.append((constants, point, outputs))
    return emitted


_NAMESPACE = {"sqrt": math.sqrt, "log": math.log, "isfinite": math.isfinite,
              "_PoleSignal": _PoleSignal, "_NotFiniteSignal": _NotFiniteSignal,
              "FlowPoleError": FlowPoleError, "NOT_FINITE": NOT_FINITE}


def _define(lines: list[str], name: str) -> Callable:
    namespace: dict = {}
    exec("\n".join(lines), dict(_NAMESPACE), namespace)
    return namespace[name]


def _tuple_src(items: Sequence[str]) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def compile_evaluator(table: VarTable, exprs: Sequence[object],
                      state_indices: Sequence[int],
                      values: Mapping[str, float]) -> Callable[[tuple], tuple]:
    """Compile expressions into one function from a state tuple to a tuple of
    finite values, else `_NotFiniteSignal`: parameters baked in, poles guarded."""
    norm = [_as_logexpr(e) for e in exprs]
    [(constants, point, outputs)] = _emit(
        table, [norm], [[_expr_parts(le) for le in norm]], state_indices, values, {})
    body = [f"x{i} = state[{k}]" for k, i in enumerate(state_indices)]
    body += constants + point + ["out = " + _tuple_src(outputs),
                                 "if not all(map(isfinite, out)): "
                                 "raise _NotFiniteSignal()", "return out"]
    return _define(["def _compiled(state):"] + ["    " + l for l in body],
                   "_compiled")


def _compile_run(table: VarTable, rhs_exprs: Sequence[LogExpr],
                 monitors: Sequence[LogExpr], state_indices: Sequence[int],
                 values: Mapping[str, float]) -> Callable:
    """Compile a whole RK4 run into one function
    `_run(start, h, steps, append=None)`.

    It keeps only the current state and returns the final state and the
    monitors' initial values, largest drifts and final values; given
    `append`, it also passes it the state after each step.  A guard that
    trips raises `FlowPoleError` with the step (0 for the start point); so
    does an infinite or NaN state or monitor value.  Stage 1 of step n + 1,
    at the top of the loop, computes only what the monitors did not at the
    end of step n, so its guards report step n + 1 and the final state never
    evaluates the right-hand sides.  Parameter-only work runs before step 0
    for the monitors and before step 1 for the right-hand sides.
    """
    dens: dict[str, str] = {}
    mparts, rparts = ([_expr_parts(e) for e in exprs] for exprs in (monitors, rhs_exprs))
    base = _factor_base([*rparts, *mparts])
    (mconst, mpoint, mout), (rconst, rfirst, rout1) = _emit(
        table, [monitors, rhs_exprs], [mparts, rparts], state_indices, values, dens, base)
    [(_, rpoint, rout)] = _emit(table, [rhs_exprs], [rparts], state_indices,
                                values, dens, base)
    n = len(state_indices)
    ys = [f"y{k}" for k in range(n)]
    zero = [src == "0.0" for src in rout]
    base = [f"b{j}" for j in range(len(mout))]
    current = [f"c{j}" for j in range(len(mout))]
    drift = [f"m{j}" for j in range(len(mout))]

    def at(offsets: Sequence[str]) -> list[str]:
        return [f"x{i} = {y}{o}" for i, y, o in zip(state_indices, ys, offsets)]

    def stage(s: int, point: list[str], outputs: list[str]) -> list[str]:
        return point + [f"k{s}_{k} = {src}" for k, src in enumerate(outputs)
                        if not zero[k]]

    def moved(scale: str, s: int) -> list[str]:
        return at([" + 0.0" if z else f" + {scale} * k{s}_{k}"
                   for k, z in enumerate(zero)])

    def monitored(names: list[str]) -> list[str]:
        lines = mpoint + [f"{v} = {src}" for v, src in zip(names, mout)]
        checked = ys + names
        lines.append("s = " + " + ".join(checked))
        lines.append("if s - s != 0.0 and not all(map(isfinite, "
                     f"{_tuple_src(checked)})): raise _NotFiniteSignal()")
        return lines

    step = stage(1, rfirst, rout1)
    step += moved("half", 1) + stage(2, rpoint, rout)
    step += moved("half", 2) + stage(3, rpoint, rout)
    step += moved("h", 3) + stage(4, rpoint, rout)
    step += [f"{y} = {y} + 0.0" if z else
             f"{y} = {y} + sixth * (k1_{k} + 2.0 * (k2_{k} + k3_{k}) + k4_{k})"
             for k, (y, z) in enumerate(zip(ys, zero))]
    step += at([""] * n) + monitored(current)
    step.append(f"if append is not None: append({_tuple_src(ys)})")
    for b, c, m in zip(base, current, drift):
        step += [f"d = abs({c} - {b})", f"if d > {m}: {m} = d"]
    body = ["try:"]
    body += ["    " + l for l in mconst + at([""] * n) + monitored(base)]
    body += [f"    {m} = 0.0" for m in drift]
    body += ["    " + l for l in ["n = 1"] + rconst]
    body += ["    for n in range(1, steps + 1):"]
    body += ["        " + l for l in step]
    lines = ["def _run(start, h, steps, append=None):"]
    lines += ["    " + _tuple_src(ys) + " = start",
              "    half = h / 2.0", "    sixth = h / 6.0", "    n = 0"]
    lines += ["    " + l for l in body]
    lines += ["    except _PoleSignal:",
              "        raise FlowPoleError(n, n * h) from None",
              "    except (_NotFiniteSignal, OverflowError):",
              "        raise FlowPoleError(n, n * h, NOT_FINITE) from None",
              f"    return ({_tuple_src(ys)}, {_tuple_src(base)}, "
              f"{_tuple_src(drift)}, {_tuple_src(current)})"]
    return _define(lines, "_run")


def _initial_vector(table: VarTable, state_indices: Sequence[int],
                    values: Mapping[str, float]) -> list[float]:
    out = []
    for i in state_indices:
        name = table.names[i]
        if name not in values:
            raise ExprError(f"no initial value given for {name!r}")
        out.append(float(values[name]))
    return out


def _integrate(run: Callable, y0: Sequence[float], h: float, steps: int,
               labels: Sequence[str],
               state_names: Sequence[str]) -> FlowResult:
    start = tuple(y0)
    last, base, max_drift, current = run(start, h, steps)
    final = [abs(a - b) for a, b in zip(current, base)]
    report = DriftReport([MonitorDrift(l, b, md, fd) for l, b, md, fd
                          in zip(labels, base, max_drift, final)])

    def replay() -> list[tuple[float, ...]]:
        states = [start]
        run(start, h, steps, states.append)
        return states
    times = _Lazy(lambda: [i * h for i in range(steps + 1)], steps + 1,
                  steps * h)
    return FlowResult(list(state_names), times,
                      _Lazy(replay, steps + 1, last), report)


def check_abstract_domain(table: VarTable, expr: LogExpr, what: str) -> None:
    """ExprError unless `expr` uses only generators and parameters."""
    allowed = set(table.generator_indices) | set(table.parameter_indices)
    if not _used_indices([expr]) <= allowed:
        raise ExprError(f"{what} must use only generators and parameters")


def _abstract_system(btable: BracketTable, cfg: FlowConfig):
    """The table, state indices, right-hand sides and monitors of the flow
    du_k/dt = {u_k, G} on the generators."""
    table = btable.table
    observable = _as_logexpr(cfg.observable)
    check_abstract_domain(table, observable, "the flow observable")
    monitors = [_as_logexpr(m) for m in cfg.monitors]
    for m in monitors:
        check_abstract_domain(table, m, "a flow monitor")
    # du_k/dt = {u_k, G} = -{G, u_k}
    rhs_exprs = [-b for b in btable.brackets_with_generators(observable)]
    return table, list(table.generator_indices), rhs_exprs, monitors


def _canonical_system(real: CanonicalRealization, cfg: FlowConfig):
    """The table, state indices (q then p), Hamilton's equations for the
    realized observable, and the realized monitors."""
    table = real.table
    realized = real.realize(_as_logexpr(cfg.observable))
    qs = list(table.q_indices)
    ps = list(table.p_indices)
    rhs_exprs = [_as_logexpr(diff(realized, p)) for p in ps]
    rhs_exprs += [_as_logexpr(-diff(realized, q)) for q in qs]
    monitors = [_as_logexpr(real.realize(_as_logexpr(m))) for m in cfg.monitors]
    return table, qs + ps, rhs_exprs, monitors


def _flow(table: VarTable, state: list[int], rhs_exprs: list,
          monitors: list, cfg: FlowConfig) -> FlowResult:
    run = _compile_run(table, rhs_exprs, monitors, state, cfg.initial_state)
    y0 = _initial_vector(table, state, cfg.initial_state)
    return _integrate(run, y0, cfg.step_size, cfg.steps, cfg.labels(),
                      [table.names[i] for i in state])


def abstract_flow(btable: BracketTable, cfg: FlowConfig) -> FlowResult:
    """RK4 trajectory of the generator vector under du_k/dt = {u_k, G}."""
    return _flow(*_abstract_system(btable, cfg), cfg)


def canonical_flow(real: CanonicalRealization, cfg: FlowConfig) -> FlowResult:
    """RK4 on Hamilton's equations for the realized `cfg.observable`.

    Monitors given over the generators are realized first; monitors already
    over the canonical variables are integrated as written.
    """
    return _flow(*_canonical_system(real, cfg), cfg)


def generator_trajectory(real: CanonicalRealization, result: FlowResult,
                         values: Mapping[str, float]) -> list[tuple[float, ...]]:
    """Generator values along a canonical trajectory, via the realization; a
    point at a pole or an overflow raises `FlowPoleError` with its index."""
    table = real.table
    state = list(table.q_indices) + list(table.p_indices)
    fn = compile_evaluator(table, list(real.expressions), state, values)
    out = []
    for n, point in enumerate(result.states):
        try:
            out.append(fn(point))
        except _PoleSignal:
            raise FlowPoleError(n, result.times[n]) from None
        except (_NotFiniteSignal, OverflowError):
            raise FlowPoleError(n, result.times[n], NOT_FINITE) from None
    return out
