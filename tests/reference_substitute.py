"""Reference substitution: `plq.expr.substitute` as it was before it skipped
`x ** 1`, `1 * x` and `0 + x`.  Each term starts from its coefficient as a
constant, multiplies in every variable's value to its power, and is added
onto zero; the package must give the same terms, in the same order."""

from __future__ import annotations

from typing import Mapping

from plq.expr import ExprError, LogExpr, Poly, RatFunc, VarTable


def reference_substitute(expr, bindings: Mapping[str, "RatFunc"],
                         target: VarTable | None = None):
    """Simultaneous substitution of variables by rational expressions.

    Unbound variables must exist by name in the target table and map to
    themselves.  Substituting into a logged generator is rejected.
    """
    table = expr.table
    if target is None:
        target = next(iter(bindings.values())).table if bindings else table
    values: dict[int, RatFunc] = {}
    for name, val in bindings.items():
        if val.table is not target:
            raise ExprError(f"binding for {name!r} is over the wrong table")
        values[table.index(name)] = val
    def value_of(i: int) -> RatFunc:
        if i in values:
            return values[i]
        values[i] = RatFunc.var(target, table.names[i])
        return values[i]
    if isinstance(expr, Poly):
        total = RatFunc.zero(target)
        for k, c in expr.packed.items():
            term = RatFunc.const(target, c)
            for i, x in enumerate(table.unpack(k)):
                if x:
                    term = term * value_of(i) ** x
            total = total + term
        return total
    if isinstance(expr, RatFunc):
        den = reference_substitute(expr.den, bindings, target)
        if den.is_zero():
            raise ExprError("substitution sends a denominator to zero")
        return reference_substitute(expr.num, bindings, target) / den
    if isinstance(expr, LogExpr):
        rat = reference_substitute(expr.rat, bindings, target)
        logs = []
        for g, c in expr.logs:
            name = expr.table.names[g]
            if name in bindings and bindings[name] != RatFunc.var(target, name):
                raise ExprError(f"cannot substitute into log argument {name!r}")
            logs.append((target.index(name), reference_substitute(c, bindings, target)))
        return LogExpr(rat, logs)
    raise ExprError(f"cannot substitute into {type(expr).__name__}")
