"""Fused sums of polynomial products, and the parser that keeps polynomials
as `Poly`, against the sequential `RatFunc` and `LogExpr` arithmetic.

`sum_of_products` must equal the sequential sum of `RatFunc` products key
for key, on a table with a radial element and a parameter, and must decline
(None) any sum with a rational operand.  A kernel that skips the algebraic
reduction must fail that comparison.  The bracket checks that call it must
print what they print with the kernel switched off.  The package parser must
equal `reference_parser`, which builds every node as a LogExpr, on random
grammar strings and on every corpus and benchmark document.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, find, given, settings, strategies as st  # noqa: E402

from plq import canonical, expr, structure  # noqa: E402
from plq.canonical import verify_closure  # noqa: E402
from plq.corpus import corpus_data, corpus_names, corpus_problem  # noqa: E402
from plq.expr import (ExprError, LogExpr, Poly, RatFunc, VarTable,  # noqa: E402
                      normal_coeff, sum_of_products)
from plq.parsing import ParseError, parse_expression  # noqa: E402
from plq.problem import build_problem  # noqa: E402
from plq.solver import verify_invariant  # noqa: E402
from plq.structure import jacobi_check  # noqa: E402
from reference_parser import reference_parse  # noqa: E402
from test_solver import lie_module  # noqa: E402

# u v q1 q2 p1 p2 a rho, with rho^2 = q1^2 + q2^2
TABLE = VarTable.make(["u", "v"], 2, ["a"], algebraic="rho")
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
COEFFS = st.one_of(st.integers(-6, 6),
                   st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
POLYS = st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * len(TABLE)), COEFFS),
                 max_size=4).map(lambda raw: RatFunc.from_poly(Poly.from_terms(TABLE, raw)))
PAIRS = st.lists(st.tuples(POLYS, POLYS), max_size=5)


def terms(p: Poly) -> dict:
    return {k: (type(c), c) for k, c in p.packed.items()}


def matches_sequential(kernel, pairs) -> bool:
    got = kernel(TABLE, pairs)
    want = sum((a * b for a, b in pairs), RatFunc.zero(TABLE))
    return got.is_poly() and terms(got.num) == terms(want.num)


@SETTINGS
@given(PAIRS)
def test_kernel_equals_the_sequential_sum(pairs):
    assert matches_sequential(sum_of_products, pairs)


@SETTINGS
@given(PAIRS, st.data())
def test_kernel_declines_a_rational_operand(pairs, data):
    rational, one = RatFunc.make(Poly.var(TABLE, "u"), Poly.var(TABLE, "v") + 1), RatFunc.one(TABLE)
    k = data.draw(st.integers(0, len(pairs)))
    pair = (rational, one) if data.draw(st.booleans()) else (one, rational)
    assert sum_of_products(TABLE, [*pairs[:k], pair, *pairs[k:]]) is None


def test_a_kernel_that_skips_the_reduction_fails(monkeypatch):
    def unreduced(table, acc):
        return {e: normal_coeff(c) for e, c in acc.items() if c != 0}

    def mutant(table, pairs):
        with monkeypatch.context() as m:
            m.setattr(expr, "_reduce_algebraic", unreduced)
            return sum_of_products(table, pairs)
    found = find(PAIRS, lambda pairs: not matches_sequential(mutant, pairs),
                 settings=settings(SETTINGS, phases=[Phase.generate]))
    assert found and matches_sequential(sum_of_products, found)


def bracket_checks(problem):
    """Printed Jacobi residuals, closure residuals and the residuals of each
    generator as an invariant."""
    bt = problem.brackets
    out = [str(t.residual) for t in jacobi_check(bt).triples]
    if problem.realization is not None:
        out += [str(p.residual) for p in verify_closure(bt, problem.realization).pairs]
    for name in bt.generator_names:
        report = verify_invariant(parse_expression(name, problem.table), bt)
        out += [str(r) for _, r in report.residuals]
    return out


def problems():
    return ([corpus_problem(n) for n in corpus_names()]
            + [build_problem(doc) for doc, _ in lie_module().documents().values()])


def test_bracket_checks_print_as_the_sequential_sums(monkeypatch):
    """Every corpus and benchmark table prints the same Jacobi, closure and
    invariant residuals with the kernel on and with every sum sequential."""
    fused = [bracket_checks(p) for p in problems()]
    for module in (structure, canonical):
        monkeypatch.setattr(module, "sum_of_products", lambda table, pairs: None)
    assert fused == [bracket_checks(p) for p in problems()]
    assert any(r != "0" for checks in fused for r in checks)


def outcome(parse, text, table):
    """The parse of `text`, term by term in insertion order, or its error."""
    try:
        v = parse(text, table)
    except (ParseError, ExprError) as exc:
        return type(exc).__name__, str(exc)
    parts = [v.rat, *(c for _, c in v.logs)]
    return (type(v).__name__, str(v), [i for i, _ in v.logs],
            [(list(terms(r.num).items()), list(terms(r.den).items())) for r in parts])


ATOMS = st.sampled_from(["u", "v", "a", "q1", "p2", "rho", "0", "1", "2", "3/2",
                         "log(u)", "log(v)", "u^-1", "v^-2", "u^2", "q1^3"])


def joined(part, ops, most):
    """Strings `x op x op ...` of one to most + 1 parts."""
    return st.tuples(part, st.lists(st.tuples(st.sampled_from(ops), part), max_size=most)).map(
        lambda t: t[0] + "".join(f" {op} {x}" for op, x in t[1]))


def nested(inner):
    factor = st.one_of(ATOMS, inner.map("({})".format), inner.map("-({})".format),
                       st.tuples(inner, st.integers(0, 2)).map("({0[0]})^{0[1]}".format))
    return joined(joined(factor, ["*", "*", "/"], 2), ["+", "-"], 4)


# sums of products of atoms, nested in parentheses, powers and negations
EXPRESSIONS = st.recursive(joined(joined(ATOMS, ["*", "*", "/"], 2), ["+", "-"], 4),
                           nested, max_leaves=12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(EXPRESSIONS)
def test_parser_equals_the_logexpr_reference(text):
    assert outcome(parse_expression, text, TABLE) == outcome(reference_parse, text, TABLE)


def document_texts(doc):
    """Every expression string of a problem document."""
    flow = doc.get("flow", {})
    return ([b["expression"] for b in doc["brackets"]]
            + [g["canonical"] for g in doc["generators"] if "canonical" in g]
            + ([flow["observable"]] if "observable" in flow else [])
            + flow.get("monitors", []))


def test_parser_equals_the_reference_on_every_document():
    docs = [(corpus_data(n), []) for n in corpus_names()]
    docs += list(lie_module().documents().values())
    count = 0
    for doc, casimirs in docs:
        table = build_problem(doc).table
        for text in document_texts(doc) + casimirs:
            got = outcome(parse_expression, text, table)
            assert got == outcome(reference_parse, text, table), text
            assert isinstance(parse_expression(text, table), LogExpr)
            count += 1
    assert count > 100
