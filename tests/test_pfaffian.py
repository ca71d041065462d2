"""`linalg.pfaffian`, the iterative first-row expansion over bracket columns,
against the recursive `reference_pfaffian` over the dense matrix.

On drawn skew matrices of ints (as constant `RatFunc`s), of polynomial
`RatFunc`s over tables with and without a radial element, and of `RatFunc`s
some of whose entries have parameter denominators, both must print the same
Pfaffian, its coefficients of the same types, and with a small patched
`PFAFFIAN_TERMS` both must stop with the same message.  The memo must be
released when the call returns, even with the cyclic collector off.
"""

import gc
import random
import tracemalloc
from fractions import Fraction

import pytest

import reference_pfaffian
from plq import linalg
from plq.expr import ExprError, Poly, RatFunc, VarTable
from plq.linalg import pfaffian
from plq.problem import build_problem
from dense_rows import columns_from_dense
from test_solver import lie_module

# u v q1 p1 a b rho, with rho^2 = q1^2
TABLE = VarTable.make(["u", "v"], 1, ["a", "b"], algebraic="rho")
ZERO, ONE = RatFunc.zero(TABLE), RatFunc.one(TABLE)
ATOMS = [Poly.var(TABLE, name) for name in ("u", "v", "q1", "p1", "a", "rho")]
PLAIN = VarTable.make(["u", "v", "w"], 0, [])
PLAIN_ATOMS = [Poly.var(PLAIN, name) for name in ("u", "v", "w")]
DENOMINATORS = [Poly.var(TABLE, "a") + 1, Poly.var(TABLE, "a") * Poly.var(TABLE, "b") - 2,
                Poly.var(TABLE, "b") ** 2 + Poly.var(TABLE, "a")]


def drawn_poly(rng: random.Random, atoms=ATOMS) -> Poly:
    """Up to three terms, each a coefficient times up to two atoms."""
    total = Poly.zero(atoms[0].table)
    for _ in range(rng.randint(1, 3)):
        c = rng.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
        term = Poly.const(atoms[0].table, c)
        for _ in range(rng.randint(0, 2)):
            term = term * rng.choice(atoms)
        total = total + term
    return total


def skew(n: int, draw, zero):
    """An n x n skew matrix whose entries above the diagonal are `draw()`."""
    m = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = draw()
            m[j][i] = -m[i][j]
    return m


def int_matrix(rng: random.Random, n: int):
    """Ints as constant RatFuncs, the one entry type `pfaffian` takes."""
    zero = RatFunc.zero(PLAIN)
    return skew(n, lambda: RatFunc.const(PLAIN, rng.choice([0, 0, 1, -1, 2, -3, 5])),
                zero), zero, RatFunc.one(PLAIN)


def poly_matrix(rng: random.Random, n: int, atoms=ATOMS):
    zero = RatFunc.zero(atoms[0].table)

    def draw():
        return zero if rng.random() < 0.3 else RatFunc.from_poly(drawn_poly(rng, atoms))
    return skew(n, draw, zero), zero, RatFunc.one(atoms[0].table)


def plain_matrix(rng: random.Random, n: int):
    return poly_matrix(rng, n, PLAIN_ATOMS)


def rational_matrix(rng: random.Random, n: int):
    """Polynomial entries with, now and then, one over a parameter
    denominator, so sums switch from the fused to the in-order branch."""
    def draw():
        if rng.random() < 0.2:
            return ZERO
        num = RatFunc.from_poly(drawn_poly(rng))
        return num / RatFunc.from_poly(rng.choice(DENOMINATORS)) if rng.random() < 0.3 else num
    return skew(n, draw, ZERO), ZERO, ONE


KINDS = {"ints": int_matrix, "polynomials": poly_matrix, "plain": plain_matrix,
         "rationals": rational_matrix}


def columns_pfaffian(matrix, zero, one):
    """`pfaffian` of the dense matrix's columns, over its whole index range."""
    return pfaffian(columns_from_dense(matrix, zero.table), range(len(matrix)), zero.table)


def outcome(kernel, matrix, zero, one) -> str:
    """The printed value, with each coefficient's type, or the error."""
    try:
        value = kernel(matrix, zero, one)
    except ExprError as exc:
        return f"ExprError {exc}"
    types = [(k, type(c)) for p in (value.num, value.den) for k, c in sorted(p.packed.items())]
    return f"{value} {types}"


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("seed", range(6))
def test_pfaffian_prints_as_the_recursive_reference(kind, seed):
    rng = random.Random(1000 * seed + len(kind))
    for n in (0, 2, 4, 6, 8):
        matrix, zero, one = KINDS[kind](rng, n)
        want = outcome(reference_pfaffian.pfaffian, matrix, zero, one)
        assert outcome(columns_pfaffian, matrix, zero, one) == want
        assert not want.startswith("ExprError")


@pytest.mark.parametrize("kind", ["polynomials", "plain", "rationals"])
@pytest.mark.parametrize("limit", [1, 3, 8])
def test_term_guard_stops_as_the_recursive_reference(kind, limit, monkeypatch):
    monkeypatch.setattr(linalg, "PFAFFIAN_TERMS", limit)
    monkeypatch.setattr(reference_pfaffian, "PFAFFIAN_TERMS", limit)
    rng = random.Random(limit)
    stopped = 0
    for n in (2, 4, 6):
        for _ in range(4):
            matrix, zero, one = KINDS[kind](rng, n)
            want = outcome(reference_pfaffian.pfaffian, matrix, zero, one)
            assert outcome(columns_pfaffian, matrix, zero, one) == want
            stopped += want == (f"ExprError pfaffian of a {n} x {n} matrix: "
                                f"a sub-Pfaffian has more than {limit} terms")
    assert stopped


def test_memo_is_released_on_return():
    """With the cyclic collector off, traced memory after a gl(4) 14 x 14
    border is back near its level before the call: the memo is no cycle."""
    bt = build_problem(lie_module().gl_document(4)).brackets
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = pfaffian(bt.columns, range(14), bt.table)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert value.is_zero()
    assert peak - before > 250_000
    assert after - before < 150_000
