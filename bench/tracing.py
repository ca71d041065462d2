"""Spans and counters recorded around calls into each `plq` module.

Tracing lives in the benchmark only.  `Tracer.install` replaces the
module-level names that `plq` looks up at call time (for example
`plq.solver.assemble_system`, which `solve_casimirs` calls through its module
globals) with wrappers that record a span or bump a counter, and
`Tracer.uninstall` puts the originals back, so untraced passes run the
unmodified program.  Spans (name, start, end, parent) stay in memory until
the run writes them out.  A span's self time is its duration minus the
durations of its direct children; child spans never outlive their parent.

A span is named `<layer>.<stage>`; its layer is the `src/plq` module whose
work it times.  The `rank_of` calls made by `generic_rank` are attributed to
`structure` (as the symbolic rank and the numeric sample ranks), since that
is the stage they implement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def active(self, name: str) -> bool:
        """Whether a span of this name is open."""
        return any(self.spans[i].name == name for i in self._stack)

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def reset(self) -> None:
        self.spans = []
        self.counts = {}

    # -- wrapping ------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _span(self, owner, attr: str, name: str, after=None) -> None:
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = self.call(name, orig, args, kwargs)
            if after is not None:
                after(args, result)
            return result
        self._replace(owner, attr, wrapper)

    def _counter(self, owner, attr: str, name: str, hit=None,
                 static: bool = False) -> None:
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = orig(*args, **kwargs)
            self.count(name)
            if hit is not None and hit(result):
                self.count(name + ".hits")
            return result
        self._replace(owner, attr, staticmethod(wrapper) if static else wrapper)

    def install(self) -> None:
        """Wrap the entry points the CLI reaches; see the module docstring."""
        import plq.cli as cli
        import plq.flow as flow
        import plq.linalg as linalg
        import plq.solver as solver
        import plq.structure as structure
        from plq.expr import Poly, RatFunc

        for attr in ("load_problem", "corpus_problem"):
            self._span(cli, attr, "problem.build",
                       lambda a, r: self.count("problem.builds"))
        self._span(cli, "jacobi_check", "structure.jacobi",
                   lambda a, r: self.count("structure.jacobi_triples",
                                           len(r.triples)))
        self._span(cli, "verify_closure", "canonical.closure",
                   lambda a, r: self.count("canonical.closure_pairs",
                                           len(r.pairs)))
        for owner in (cli, solver):
            self._span(owner, "generic_rank", "structure.rank")
            self._span(owner, "verify_invariant", "solver.verify")
        self._span(structure, "pfaffian", "structure.pfaffian")
        rank_of = structure.rank_of

        def structure_rank_of(rows, ncols):
            # Symbolic when any entry is a rational function, numeric otherwise.
            symbolic = any(isinstance(v, RatFunc) for row in rows
                           for v in row.values())
            if symbolic:
                return self.call("structure.rank_symbolic", rank_of,
                                 (rows, ncols), {})
            self.count("structure.rank_samples")
            return self.call("structure.rank_sample", rank_of, (rows, ncols), {})
        self._replace(structure, "rank_of", structure_rank_of)

        for attr in ("solve_with_escalation", "solve_casimirs"):
            self._span(cli, attr, "solver.solve")
        self._span(solver, "assemble_system", "solver.assemble",
                   lambda a, r: (self.count("solver.columns", len(a[1])),
                                 self.count("solver.rows", len(r))))
        self._span(solver, "presolve_forced_zero", "linalg.presolve",
                   lambda a, r: self.count("linalg.forced_cols", len(r[1])))
        self._span(solver, "nullspace", "linalg.nullspace",
                   lambda a, r: self.count("linalg.nullity", len(r)))
        self._span(solver, "_reversed_echelon", "solver.echelon",
                   lambda a, r: self.count("solver.candidates", len(r)))
        self._span(solver, "_span_of_products", "solver.span",
                   lambda a, r: self.count("solver.span_calls"))
        self._span(solver, "_normalize_solution", "solver.normalize",
                   lambda a, r: self.count("solver.accepted"))
        self._span(solver, "independence_rank", "solver.independence")
        map_to_coords = solver.map_to_coords

        def counted_map_to_coords(*args, **kwargs):
            coords = map_to_coords(*args, **kwargs)
            if self.active("solver.span"):
                self.count("solver.span_products")
                if coords:
                    self.count("solver.span_useful")
            return coords
        self._replace(solver, "map_to_coords", counted_map_to_coords)
        for owner in (linalg, solver):
            rref = owner.rref

            def counted_rref(rows, ncols, _rref=rref):
                placed, pivots = _rref(rows, ncols)
                self.count("linalg.rref_calls")
                self.count("linalg.pivots", len(pivots))
                return placed, pivots
            self._replace(owner, "rref", counted_rref)

        for attr in ("abstract_flow", "canonical_flow"):
            self._span(cli, attr, "flow.run")
        self._span(flow, "compile_evaluator", "flow.compile")
        integrate = flow._integrate

        def counted_integrate(*args):
            result = self.call("flow.integrate", integrate, args, {})
            self.count("flow.steps", len(result.states) - 1)
            return result
        self._replace(flow, "_integrate", counted_integrate)

        self._counter(RatFunc, "make", "expr.ratfunc_make", static=True)
        self._counter(Poly, "__mul__", "expr.poly_mul")
        self._counter(Poly, "__rmul__", "expr.poly_mul")
        self._counter(Poly, "divide_exact", "expr.divide_exact",
                      hit=lambda r: r is not None)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- analysis ------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - c
        return out

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name (no span nests in its own name)."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.end - s.start
        return out

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent} for s in self.spans]
