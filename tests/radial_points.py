"""Rational points on which the radial element squares consistently, for
tests that evaluate expressions containing `rho`."""

import random
from fractions import Fraction

from plq.expr import ALGEBRAIC, VarTable


def canonical_point(table: VarTable, rng: random.Random) -> list[Fraction]:
    """Random rational point where the algebraic element squares consistently.

    The last position variable is chosen as (t^2 - s)/(2t) for a random t, so
    that s + q_n^2 is the square of the rational (t^2 + s)/(2t).
    """
    vals = [Fraction(0)] * len(table)
    def draw() -> Fraction:
        num = rng.choice([n for n in range(-5, 6) if n])
        return Fraction(num, rng.randint(1, 3))
    for i, kind in enumerate(table.kinds):
        if kind != ALGEBRAIC:
            vals[i] = draw()
    qs = table.q_indices
    ia = table.alg_index
    if ia is not None and qs:
        partial = sum(vals[i] ** 2 for i in qs[:-1])
        t = abs(draw()) + 1
        vals[qs[-1]] = (t * t - partial) / (2 * t)
        vals[ia] = (t * t + partial) / (2 * t)
    return vals
