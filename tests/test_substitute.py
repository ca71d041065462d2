"""`substitute` against `reference_substitute`, the substitution that
multiplies every term from its constant coefficient and adds it onto zero.

Skipping `x ** 1`, `1 * x` and `0 + x` must leave every result the same,
term for term, in term order and with the same coefficient types: on drawn
polynomials, quotients and log expressions over a table with rho, under
drawn polynomial and rational bindings, and on every realized bracket entry
and generator of the corpus.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from plq.corpus import corpus_names, corpus_problem  # noqa: E402
from plq.expr import ExprError, Poly, RatFunc, VarTable, substitute  # noqa: E402
from plq.parsing import parse_expression, parse_ratfunc  # noqa: E402
from reference_substitute import reference_substitute  # noqa: E402

# u v q1 q2 p1 p2 a rho, with rho^2 = q1^2 + q2^2
TABLE = VarTable.make(["u", "v"], 2, ["a"], algebraic="rho")
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)
COEFFS = st.one_of(st.just(1), st.integers(-3, 3),
                   st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
# expressions in the generators and the parameter, coefficient one included
EXPONENTS = st.tuples(st.integers(0, 3), st.integers(0, 2), *[st.just(0)] * 4,
                      st.integers(0, 1), st.just(0))
POLYS = st.lists(st.tuples(EXPONENTS, COEFFS), max_size=4).map(
    lambda raw: Poly.from_terms(TABLE, raw))
EXPRS = st.one_of(POLYS, st.sampled_from(["u/(v + 1)", "(u^2 - a)/(u*v - 2)", "u^-2*v",
                                          "3/2*v*log(u) - u/(v + a)", "1", "0"])
                  .map(lambda text: parse_expression(text, TABLE)))
VALUES = st.sampled_from(["q1", "1", "0", "rho", "q1*p2 - 3/2", "(p1 + 1)/(q2 - 1)",
                          "rho/(q1^2 + q2^2)", "a*q1/rho", "2*p1^2 + q2", "1/(2*a)*p1^2",
                          "(q1 + rho)/(q2*p1)"]).map(lambda text: parse_ratfunc(text, TABLE))


def typed(r: RatFunc) -> list:
    return [[(k, type(c), c) for k, c in p.packed.items()] for p in (r.num, r.den)]


def shape(x) -> list:
    if isinstance(x, Poly):
        x = RatFunc.from_poly(x)
    if isinstance(x, RatFunc):
        return typed(x)
    return [typed(x.rat), [(i, typed(c)) for i, c in x.logs]]


def outcome(subst, expr, bindings):
    """The shape and print of the substitution, or its error."""
    try:
        out = subst(expr, bindings, TABLE)
    except ExprError as exc:
        return str(exc)
    return shape(out), str(out)


@SETTINGS
@given(EXPRS, VALUES, VALUES, st.booleans())
def test_substitute_equals_the_reference(expr, u, v, bind_u):
    """A logged generator may be bound to itself only, so u is left unbound
    in some draws."""
    bindings = {"v": v, **({"u": u} if bind_u else {})}
    assert outcome(substitute, expr, bindings) == outcome(reference_substitute, expr, bindings)


def test_realized_corpus_entries_equal_the_reference():
    realized = [p for p in map(corpus_problem, corpus_names()) if p.realization]
    for problem in realized:
        btable, table, binding = problem.brackets, problem.table, problem.realization.binding
        exprs = [btable.bracket(i, j) for i in range(btable.r) for j in range(btable.r)]
        exprs += [parse_expression(g, table) for g in table.generator_names]
        for f in exprs:
            got = substitute(f, binding, table)
            assert shape(got) == shape(reference_substitute(f, binding, table)), str(f)
    assert {p.name for p in realized} == {"sphere", "hydrogen"}
