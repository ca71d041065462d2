"""Reference column filter for the invariant ansatz, by definition.

An invariant F has {h, F} = 0 for every inner weight's h, and F o sigma = F
for every sign grading's involution sigma, so its coefficients vanish at
every monomial of nonzero inner weight and at every monomial of sign -1.
This filter keeps the log columns and the other monomials of the whole
basis, one at a time; `plq.solver.enumerate_basis` enumerates them directly.
"""

from plq.solver import Mono


def _dot(w, e):
    return sum(a * b for a, b in zip(w, e))


def graded_columns(btable, basis):
    """The positions in `basis` of the columns that can carry an invariant."""
    inner = btable.inner_gradings
    signs = btable.sign_gradings
    kept = []
    for c, elem in enumerate(basis):
        if isinstance(elem, Mono):
            e = elem.exps
            if any(_dot(w, e) for w in inner):
                continue
            if any(sum(x for s, x in zip(sign, e) if s < 0) % 2 for sign in signs):
                continue
        kept.append(c)
    return kept
