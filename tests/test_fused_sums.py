"""Fused sums of polynomial products, and the parser that keeps polynomials
as `Poly`, against the sequential `RatFunc` and `LogExpr` arithmetic.

`sum_of_products` must equal the sequential sum of `RatFunc` products key
for key, on a table with a radial element and a parameter, and must print
any sum with a rational operand as the in-order sum, group by group.  A
kernel that skips the algebraic reduction must fail that comparison.  The
bracket checks that call it must print what they print when every sum is
forced into the in-order branch.  The package parser must
equal `reference_parser`, which builds every node as a LogExpr, on random
grammar strings, on every corpus and benchmark document and on quotients
where one make would differ from it, and fail as it does, with the same
message and position, on random malformed strings.
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
GROUPS = st.lists(st.lists(st.tuples(POLYS, POLYS), max_size=3), max_size=3)
ZERO = RatFunc.zero(TABLE)
U, V = Poly.var(TABLE, "u"), Poly.var(TABLE, "v")
# operands with a denominator: sums of their products can print differently
# when added in another order
RATIONALS = [RatFunc.make(V + 1, U - 1), RatFunc.make(U * U - 1, V + 1),
             RatFunc.make(V, U * U - 2)]


def terms(p: Poly) -> dict:
    return {k: (type(c), c) for k, c in p.packed.items()}


def matches_sequential(kernel, groups) -> bool:
    got = kernel(groups, ZERO)
    want = sum((a * b for group in groups for a, b in group), ZERO)
    return got.is_poly() and terms(got.num) == terms(want.num)


def in_order(groups):
    """Each nonempty group summed left to right, then the groups onto zero."""
    total = ZERO
    for group in groups:
        if group:
            products = [a * b for a, b in group]
            total = total + sum(products[1:], products[0])
    return total


@SETTINGS
@given(GROUPS)
def test_kernel_equals_the_sequential_sum(groups):
    assert matches_sequential(sum_of_products, groups)


@SETTINGS
@given(GROUPS, st.lists(st.tuples(st.sampled_from(RATIONALS),
                                  st.one_of(POLYS, st.sampled_from(RATIONALS)), st.booleans()),
                        min_size=1, max_size=3), st.data())
def test_a_rational_operand_gives_the_in_order_sum(groups, rationals, data):
    """Rational operands anywhere, in groups of their own or inside drawn
    groups, give the in-order sum, printed identically."""
    for rational, p, first in rationals:
        pair = (rational, p) if first else (p, rational)
        g = data.draw(st.integers(0, len(groups)))
        if g < len(groups) and data.draw(st.booleans()):
            group = groups[g]
            k = data.draw(st.integers(0, len(group)))
            groups = [*groups[:g], [*group[:k], pair, *group[k:]], *groups[g + 1:]]
        else:
            groups = [*groups[:g], [pair], *groups[g:]]
    got, want = sum_of_products(groups, ZERO), in_order(groups)
    assert str(got) == str(want)
    assert (terms(got.num), terms(got.den)) == (terms(want.num), terms(want.den))


def test_the_in_order_sum_keeps_the_group_order():
    """Three rational sums whose total prints differently added last to
    first: the kernel adds them first to last."""
    r1, r2, r3 = RATIONALS
    groups = [[(RatFunc.from_poly(V - 1), r1)], [(r2, r3)], [(r1, r3)]]
    got = str(sum_of_products(groups, ZERO))
    assert got == str(in_order(groups)) != str(in_order(groups[::-1]))


def test_a_kernel_that_skips_the_reduction_fails(monkeypatch):
    def unreduced(table, acc):
        return {e: normal_coeff(c) for e, c in acc.items() if c != 0}

    def mutant(groups, zero):
        with monkeypatch.context() as m:
            m.setattr(expr, "_reduce_algebraic", unreduced)
            return sum_of_products(groups, zero)
    found = find(GROUPS, lambda groups: not matches_sequential(mutant, groups),
                 settings=settings(SETTINGS, phases=[Phase.generate]))
    assert found and matches_sequential(sum_of_products, found)


def test_the_kernel_drops_a_sum_as_it_cancels():
    """(u + v)(u - v) leaves no u*v key at zero, and adding (u + v)(v - u)
    leaves nothing: a packed sum is zero exactly when it is empty."""
    acc = expr._multiply_into({}, TABLE, (U + V).packed, (U - V).packed)
    assert acc == (U * U - V * V).packed
    assert 0 not in acc.values()
    assert expr._multiply_into(acc, TABLE, (U + V).packed, (V - U).packed) == {}


def test_from_terms_drops_a_sum_as_it_cancels():
    """Raw terms that cancel, with int coefficients that the reduction copies
    as they are, leave no zero coefficient."""
    u, v = [tuple(int(i == k) for i in range(len(TABLE))) for k in range(2)]
    p = Poly.from_terms(TABLE, [(u, 2), (v, 1), (u, -2), (v, 0), (u, 3), (u, -3)])
    assert p.packed == V.packed
    assert Poly.from_terms(TABLE, [(u, 1), (u, -1)]).is_zero()


def test_int_terms_reduce_to_a_copy():
    """Int terms with nothing to rewrite come back equal, in a new dict: a
    sum whose keys cancelled keeps no spare room in the result."""
    acc = (U * U - 3 * V).packed
    out = expr._reduce_algebraic(TABLE, acc)
    assert out == acc
    assert out is not acc


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
    invariant residuals with the kernel on and with every sum sequential.
    A trailing group (u / (v + 1)) * 0 forces the kernel's in-order branch
    and adds an exact zero."""
    fused = [bracket_checks(p) for p in problems()]

    def sequential(groups, zero):
        rational = RatFunc.make(Poly.var(zero.table, zero.table.generator_names[0]),
                                Poly.var(zero.table, zero.table.generator_names[-1]) + 1)
        return sum_of_products([*groups, [(rational, zero)]], zero)
    for module in (structure, canonical):
        monkeypatch.setattr(module, "sum_of_products", sequential)
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


# token soup: mostly malformed strings, with stray operators, unclosed
# groups, bad exponents and characters, and log operands
PIECES = st.sampled_from(["u", "v", "q1", "rho", "w", "log", "log(", "log(u)", "log(q1)", "log(2)",
                          "(", ")", "+", "-", "*", "/", "^", "^-", "^65", "^u", "2", "0", "3/",
                          "²", "/0", "/(u - u)", "*log(v)", "/log(v)", "(u+v)^-1", "(u+v)"])
MALFORMED = st.lists(PIECES, max_size=8).map(" ".join)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(MALFORMED)
def test_malformed_strings_fail_as_the_reference_does(text):
    """The same ParseError or ExprError, message and position, as the
    reference, or the same value."""
    assert outcome(parse_expression, text, TABLE) == outcome(reference_parse, text, TABLE)


ONE_PAIR = VarTable.make(["u", "v"], 1, ["a"], algebraic="rho")  # rho^2 = q1^2


@pytest.mark.parametrize("table, a, b", [
    (TABLE, "u + v", "(u + 1)/((u + 1)*(v + 1))"),
    (TABLE, "u/(v + 2)", "(u + 1)/((u + 1)*(v + 1))"),
    (TABLE, "v + u", "rho/(q1^2 + q2^2)"),
    (TABLE, "1/(u + v)", "rho"),
    (ONE_PAIR, "0", "rho - q1")], ids=["exact-inverse", "exact-inverse-over-rational",
                                       "rho-inverse", "rho-over-rational", "zero-norm"])
def test_quotients_one_make_would_change(table, a, b):
    """Quotients where one make(a.num * b.den, a.den * b.num) differs from
    the reference's a * (1 / b), in term order, kept terms or a raised
    error: the parser must still equal the reference on them."""
    text = f"({a}) / ({b})"
    want = outcome(reference_parse, text, table)
    assert outcome(parse_expression, text, table) == want

    def one_make(text, table):
        return LogExpr(parse_expression(a, table).rat / parse_expression(b, table).rat)
    assert outcome(one_make, text, table) != want


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
