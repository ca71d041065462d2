"""Canonical realizations and the canonical Poisson bracket.

The bracket convention is fixed once for the whole package:

    {f, g} = sum_i (df/dq_i * dg/dp_i - df/dp_i * dg/dq_i)

A realization assigns to every generator a rational expression in canonical
variables; closure holds when every bracket of realized generators equals the
realized table entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .expr import (ExprError, LogExpr, RatFunc, VarTable, diff,
                   generator_monomial, monomial_exponents, substitute, sum_of_products)
from .linalg import collect_rows, nullspace
from .structure import BracketTable


class NotExpressibleError(ExprError):
    """Raised when no rational expression in the generators matches a target."""

    def __init__(self, max_degree: int, inverse_degree: int):
        super().__init__(f"target is not expressible in the generators within "
                         f"degree {max_degree} and inverse degree {inverse_degree}")
        self.max_degree = max_degree
        self.inverse_degree = inverse_degree


def _partials(f: RatFunc) -> list[tuple[RatFunc, RatFunc]]:
    """(df/dq_k, df/dp_k) for every canonical pair k."""
    table = f.table
    return [(diff(f, qi), diff(f, pi)) for qi, pi in zip(table.q_indices, table.p_indices)]


def _bracket_of_partials(df: list[tuple[RatFunc, RatFunc]],
                         dg: list[tuple[RatFunc, RatFunc]], zero: RatFunc) -> RatFunc:
    """sum_k (df/dq_k dg/dp_k + (-df/dp_k) dg/dq_k), fused for polynomials."""
    return sum_of_products([((fq, gp), (-fp, gq)) for (fq, fp), (gq, gp) in zip(df, dg)],
                           zero)


def canonical_bracket(f: RatFunc, g: RatFunc) -> RatFunc:
    """Canonical Poisson bracket of two rational expressions."""
    if g.table is not f.table:
        raise ExprError("bracket arguments over different tables")
    return _bracket_of_partials(_partials(f), _partials(g), RatFunc.zero(f.table))


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

    def binding(self) -> dict[str, RatFunc]:
        names = self.table.generator_names
        return {names[k]: self.expressions[k] for k in range(len(names))}

    def realize(self, expr) -> RatFunc:
        """Substitute every generator by its canonical expression."""
        out = substitute(expr, self.binding(), self.table)
        if isinstance(out, LogExpr):
            return out.as_ratfunc()
        return out


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


def verify_closure(btable: BracketTable,
                   realization: CanonicalRealization) -> ClosureReport:
    """Check {R_i, R_j} = f_ij(R) for every generator pair by its exact
    residual; each realized generator is differentiated once."""
    partials = [_partials(e) for e in realization.expressions]
    zero = RatFunc.zero(btable.table)
    names = btable.generator_names
    pairs: list[ClosurePair] = []
    for i, j in combinations(range(btable.r), 2):
        residual = (_bracket_of_partials(partials[i], partials[j], zero)
                    - realization.realize(btable.bracket(i, j)))
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
