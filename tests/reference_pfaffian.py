"""The recursive Pfaffian, for tests that check `plq.linalg.pfaffian` against
an independent reference.

First-row expansion with memoization, each product formed on its own and
added onto the running sum in order.  `PFAFFIAN_TERMS` is this module's own
copy of the guard, so a test patches it here and in `plq.linalg` alike.
"""

from typing import Sequence, TypeVar

from plq.expr import ExprError, RatFunc

E = TypeVar("E")
PFAFFIAN_TERMS = 50_000  # the most numerator terms of a RatFunc sub-Pfaffian


def pfaffian(matrix: Sequence[Sequence[E]], zero: E, one: E) -> E:
    """Pfaffian of a skew matrix of even size, by first-row expansion with
    memoization; ExprError once a RatFunc sub-Pfaffian passes PFAFFIAN_TERMS
    numerator terms, since the terms swell long before the memo grows."""
    n = len(matrix)
    if n % 2:
        raise ValueError("pfaffian requires an even-sized matrix")
    memo: dict[tuple[int, ...], E] = {(): one}

    def pf(active: tuple[int, ...]) -> E:
        if active in memo:
            return memo[active]
        i0 = active[0]
        rest = active[1:]
        total = zero
        for pos, j in enumerate(rest):
            a = matrix[i0][j]
            if a != 0:
                sub = tuple(x for x in rest if x != j)
                term = a * pf(sub)
                total = total + term if pos % 2 == 0 else total - term
        if isinstance(total, RatFunc) and len(total.num.packed) > PFAFFIAN_TERMS:
            raise ExprError(f"pfaffian of a {n} x {n} matrix: a sub-Pfaffian has "
                            f"more than {PFAFFIAN_TERMS} terms")
        memo[active] = total
        return total

    return pf(tuple(range(n)))
