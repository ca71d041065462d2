"""Canonical realizations and the canonical Poisson bracket.

The bracket convention is fixed once for the whole package:

    {f, g} = sum_i (df/dq_i * dg/dp_i - df/dp_i * dg/dq_i)

A realization assigns to every generator a rational expression in canonical
variables; closure holds when every bracket of realized generators equals the
realized table entry.

`verify_closure` decides each pair by one polynomial identity.  A realized
generator R = N / D, D = g * C with g its monomial content, has its partials
over one shared denominator E = g * C^2 (times sigma = sum q_k^2 when N uses
rho and C is not sigma).  The bracket is then S / (E_i E_j), and it equals
the realized entry A / B iff S * B == A * E_i * E_j: the denominators are free
of rho, so none is a zero divisor.  A failing pair, or a generator whose g
uses a canonical variable, gets its residual from `canonical_bracket`.  On
hydrogen this is about 2.4x faster than summing `RatFunc` partials.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .expr import (ExprError, LogExpr, Poly, RatFunc, VarTable, _multiply_into,
                   _poly_diff_parts, _reduce_algebraic, diff, generator_monomial,
                   monomial_exponents, sigma_poly, substitute, sum_of_products)
from .linalg import collect_rows, nullspace
from .structure import BracketTable


class NotExpressibleError(ExprError):
    """Raised when no rational expression in the generators matches a target."""

    def __init__(self, max_degree: int, inverse_degree: int):
        super().__init__(f"target is not expressible in the generators within "
                         f"degree {max_degree} and inverse degree {inverse_degree}")
        self.max_degree = max_degree
        self.inverse_degree = inverse_degree


def canonical_bracket(f: RatFunc, g: RatFunc) -> RatFunc:
    """Canonical Poisson bracket of two rational expressions, its products
    fused for polynomials."""
    table = f.table
    if g.table is not table:
        raise ExprError("bracket arguments over different tables")
    return sum_of_products([((diff(f, qi), diff(g, pi)), (-diff(f, pi), diff(g, qi)))
                            for qi, pi in zip(table.q_indices, table.p_indices)],
                           RatFunc.zero(table))


class CanonicalRealization:
    """Assignment of a canonical-variable expression to every generator."""

    def __init__(self, table: VarTable, expressions: Sequence[RatFunc]):
        gens = table.generator_indices
        if len(expressions) != len(gens):
            raise ExprError("realization must cover every generator exactly once")
        allowed = (set(table.q_indices) | set(table.p_indices)
                   | set(table.parameter_indices))
        if table.alg_index is not None:
            allowed.add(table.alg_index)
        for expr in expressions:
            if expr.table is not table:
                raise ExprError("realization expression over a different table")
            used = expr.num.used_indices() | expr.den.used_indices()
            if not used <= allowed:
                bad = sorted(table.names[k] for k in used - allowed)
                raise ExprError(f"realization uses non-canonical variables: {bad}")
        self.table = table
        self.expressions = tuple(expressions)
        self.binding = dict(zip(table.generator_names, self.expressions))

    def realize(self, expr) -> RatFunc:
        """Substitute every generator by its canonical expression."""
        out = substitute(expr, self.binding, self.table)
        return out.as_ratfunc() if isinstance(out, LogExpr) else out


@dataclass
class ClosurePair:
    names: tuple[str, str]
    ok: bool
    residual: RatFunc


@dataclass
class ClosureReport:
    pairs: list[ClosurePair]

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.pairs)

    def failures(self) -> list[ClosurePair]:
        return [p for p in self.pairs if not p.ok]


def _shared_partials(f: RatFunc) -> tuple[Poly, list[tuple[dict, dict, dict]]] | None:
    """(E, [(P_qk, P_pk, -P_pk)]) with df/dx = P_x / E, each P_x as packed
    terms; None when the monomial content of f's denominator uses a
    canonical variable."""
    table, num, den = f.table, f.num, f.den
    g = table.meet(den.packed)
    if any(table.unpack(g)[k] for k in (*table.q_indices, *table.p_indices)):
        return None
    c = den.shift(g)
    radical = Poly(table, {e: v for e, v in num.packed.items() if e & table.rho_mask})  # N_rho*rho
    sigma = sigma_poly(table)
    # d(rho)/dq = q * rho / sigma: E takes sigma unless C is sigma already
    factor, chain = (sigma, c) if radical.packed and c != sigma else (1, 1)
    out = []
    for qi, pi in zip(table.q_indices, table.p_indices):
        pq, pp = (_poly_diff_parts(num, x) if c.is_one() else
                  _poly_diff_parts(num, x) * c - num * _poly_diff_parts(c, x) for x in (qi, pi))
        if radical.packed:
            pq, pp = pq * factor + radical * Poly.var(table, table.names[qi]) * chain, pp * factor
        out.append((pq.packed, pp.packed, (-pp).packed))
    return den * c * factor, out


def _closes(fi: tuple, fj: tuple, target: RatFunc) -> bool:
    """Whether {f_i, f_j} = S / (E_i E_j) equals target = A / B, from the
    shared partials of f_i and f_j: S * B == A * E_i * E_j."""
    table = target.table
    acc: dict = {}
    for (iq, _, inp), (jq, jp, _) in zip(fi[1], fj[1]):
        _multiply_into(acc, table, iq, jp)
        _multiply_into(acc, table, inp, jq)
    s = Poly(table, _reduce_algebraic(table, acc))
    ee, a, b = fi[0] * fj[0], target.num, target.den
    if not b.is_one():
        h = table.meet((*ee.packed, *b.packed))
        ee, b = ee.shift(h), b.shift(h)
        q = ee.divide_exact(b)
        ee, s = (ee, s * b) if q is None else (q, s)
    return s == (a if ee.is_one() else a * ee)


def verify_closure(btable: BracketTable,
                   realization: CanonicalRealization) -> ClosureReport:
    """Check {R_i, R_j} = f_ij(R) for every generator pair by the
    cross-multiplied identity of the module docstring; a pair that fails it
    gets its exact residual from `canonical_bracket`."""
    exprs = realization.expressions
    shared = [_shared_partials(e) for e in exprs]
    names = btable.generator_names
    pairs: list[ClosurePair] = []
    for i, j in combinations(range(btable.r), 2):
        target = realization.realize(btable.bracket(i, j))
        closes = shared[i] and shared[j] and _closes(shared[i], shared[j], target)
        residual = (RatFunc.zero(btable.table) if closes
                    else canonical_bracket(exprs[i], exprs[j]) - target)
        pairs.append(ClosurePair((names[i], names[j]), residual.is_zero(), residual))
    return ClosureReport(pairs)


def express_in_generators(target: RatFunc, realization: CanonicalRealization,
                          invertible: Sequence[bool] | None = None,
                          max_degree: int = 3, inverse_degree: int = 0) -> RatFunc:
    """Search for a rational expression in the generators whose realization
    equals the target; raises NotExpressibleError when the bounded search fails."""
    table = realization.table
    r = len(realization.expressions)
    if invertible is None:
        invertible = [False] * r
    n_exps = monomial_exponents(r, max_degree, inverse_degree, invertible, True)
    d_exps = [e for e in monomial_exponents(r, inverse_degree, 0, [False] * r, True)
              if all(x == 0 or invertible[k] for k, x in enumerate(e))]
    n_cols = [realization.realize(generator_monomial(table, e)) for e in n_exps]
    d_cols = [realization.realize(generator_monomial(table, e)) * target * -1
              for e in d_exps]
    rows = collect_rows(n_cols + d_cols)
    n = len(n_exps)
    for vec in nullspace(rows, n + len(d_exps)):
        num_gen = den_gen = den_real = RatFunc.zero(table)
        for k, c in vec.items():
            if k < n:
                num_gen = num_gen + c * generator_monomial(table, n_exps[k])
            else:
                mono = generator_monomial(table, d_exps[k - n])
                den_gen = den_gen + c * mono
                den_real = den_real + c * realization.realize(mono)
        if den_real.is_zero():
            continue
        result = num_gen / den_gen
        if realization.realize(result) == target:
            return result
    raise NotExpressibleError(max_degree, inverse_degree)
