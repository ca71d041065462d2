"""Exact expression tower: polynomials, rational functions, logs, parsing."""

import random
import sys
from fractions import Fraction

import pytest

from plq.expr import (TERM_LIMIT, ExprError, LogExpr, Poly, RatFunc, VarTable,
                      clear_denominators, diff, monomial_exponents, sigma_poly,
                      split_terms, substitute)
from plq.parsing import ParseError, parse_expression, parse_ratfunc, to_string
from plq.solver import Mono, map_to_coords
from radial_points import canonical_point


def table_uv():
    return VarTable.make(["u1", "u2", "u3"], 0, ["a", "b"])


def random_poly(table, rng, degree=2, terms=3):
    p = Poly.zero(table)
    names = [table.names[i] for i in
             (*table.generator_indices, *table.parameter_indices)]
    for _ in range(terms):
        term = Poly.const(table, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(0, degree)):
            term = term * Poly.var(table, rng.choice(names))
        p = p + term
    return p


def random_point(table, rng):
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for _ in range(len(table))]


def test_poly_arithmetic_matches_exact_evaluation():
    """Ring operations commute with evaluation at random rational points."""
    table = table_uv()
    rng = random.Random(7)
    for _ in range(40):
        f = random_poly(table, rng)
        g = random_poly(table, rng)
        h = random_poly(table, rng)
        x = random_point(table, rng)
        lhs = (f * g + h - f).evaluate(x)
        rhs = f.evaluate(x) * g.evaluate(x) + h.evaluate(x) - f.evaluate(x)
        assert lhs == rhs


def test_poly_power_and_shift():
    table = table_uv()
    u1 = Poly.var(table, "u1")
    u2 = Poly.var(table, "u2")
    assert (u1 + u2) ** 2 == u1 * u1 + 2 * u1 * u2 + u2 * u2
    with pytest.raises(ExprError):
        (u1 + u2) ** -1


def test_radical_square_reduces_to_position_square():
    table = VarTable.make(["H"], 2, ["kappa"], "rho")
    rho = Poly.var(table, "rho")
    assert rho * rho == sigma_poly(table)
    assert rho ** 3 == sigma_poly(table) * rho


def test_ratfunc_denominator_is_radical_free_and_monic():
    table = VarTable.make(["H"], 2, ["kappa"], "rho")
    f = parse_ratfunc("kappa/rho", table)
    assert not f.den.uses(table.alg_index)
    assert f == parse_ratfunc("kappa*rho/(q1^2 + q2^2)", table)
    lead_coeff = f.den.leading()[1]
    assert lead_coeff == 1


@pytest.mark.parametrize("table, text, printed", [
    (VarTable.make(["u1", "u2"], 0, ["a"]), "2*u1^2 - 3*a*u2 + 1",
     {1: "2*u1^2 - 3*u2*a + 1", 3: "2/3*u1^2 - u2*a + 1/3"}),
    (VarTable.make(["H"], 2, ["kappa"], "rho"), "kappa*rho*q1 - 2*H + 3",
     {1: "q1*kappa*rho - 2*H + 3", 3: "1/3*q1*kappa*rho - 2/3*H + 1"}),
])
def test_ratfunc_make_constant_denominator(table, text, printed):
    """A constant denominator scales the numerator, as exact division would."""
    num = parse_ratfunc(text, table).num
    for d in (1, 3):
        den = Poly.const(table, d)
        f = RatFunc.make(num, den)
        assert f.den == Poly.one(table)
        assert f.num == num.divide_exact(den)
        assert str(f) == printed[d]


def test_ratfunc_compares_with_zero_by_numerator():
    """A comparison with 0 reads the numerator; other constants still compare
    by value."""
    table = table_uv()
    zero = RatFunc.zero(table)
    f = parse_ratfunc("(u1 - u2)/(u1 + u3)", table)
    assert zero == 0 and zero == Fraction(0)
    assert f != 0 and f != Fraction(0)
    assert (f - f) == 0
    assert RatFunc.const(table, 2) == 2
    assert RatFunc.const(table, 2) != 0


def test_ratfunc_equality_by_cross_multiplication():
    """Equivalent quotients compare equal regardless of representation."""
    table = table_uv()
    rng = random.Random(11)
    for _ in range(30):
        num = random_poly(table, rng)
        den = random_poly(table, rng)
        if den.is_zero():
            continue
        scale = random_poly(table, rng, degree=1, terms=2)
        if scale.is_zero():
            continue
        f = RatFunc(num, den)
        g = RatFunc(num * scale, den * scale)
        assert f == g


def test_ratfunc_arithmetic_matches_exact_evaluation():
    table = table_uv()
    rng = random.Random(13)
    checked = 0
    while checked < 30:
        f = RatFunc(random_poly(table, rng), Poly.one(table))
        dn = random_poly(table, rng, degree=1, terms=2)
        if dn.is_zero():
            continue
        g = RatFunc(random_poly(table, rng), dn)
        x = random_point(table, rng)
        try:
            lhs = (f * g - g / (f + RatFunc.one(table))).evaluate(x)
            rhs = (f.evaluate(x) * g.evaluate(x)
                   - g.evaluate(x) / (f.evaluate(x) + 1))
        except (ExprError, ZeroDivisionError):
            continue
        assert lhs == rhs
        checked += 1


def test_diff_radial_chain_rule():
    """d/dq1 of kappa/rho is -kappa*q1*rho/(q1^2+q2^2)^2."""
    table = VarTable.make(["H"], 2, ["kappa"], "rho")
    f = parse_ratfunc("kappa/rho", table)
    expected = parse_ratfunc("-kappa*q1*rho/((q1^2 + q2^2)^2)", table)
    assert diff(f, table.index("q1")) == expected


def test_diff_radial_consistency_at_rational_points():
    """Derivatives of rho-expressions agree with the rho^2 = sum q_i^2 constraint."""
    table = VarTable.make(["H"], 3, [], "rho")
    rng = random.Random(17)
    rho = RatFunc.var(table, "rho")
    q1 = RatFunc.var(table, "q1")
    f = rho * q1 + rho * rho
    g = diff(f, table.index("q1"))
    for _ in range(10):
        point = canonical_point(table, rng)
        sigma = sum(point[i] ** 2 for i in table.q_indices)
        assert point[table.alg_index] ** 2 == sigma
        # oracle: d/dq1 (rho*q1 + sigma) = rho + q1^2/rho + 2 q1
        expect = (point[table.alg_index]
                  + point[table.index("q1")] ** 2 / point[table.alg_index]
                  + 2 * point[table.index("q1")])
        assert g.evaluate(point) == expect


def test_diff_quotient_rule_against_formula():
    table = table_uv()
    rng = random.Random(19)
    i = table.index("u2")
    for _ in range(20):
        num = random_poly(table, rng)
        den = random_poly(table, rng, degree=1, terms=2)
        if den.is_zero():
            continue
        f = RatFunc(num, den)
        dn = diff(num, i)
        dd = diff(den, i)
        expected = (dn * RatFunc.from_poly(den)
                    - RatFunc.from_poly(num) * dd) / RatFunc.from_poly(den * den)
        assert diff(f, i) == expected


def test_log_differentiation():
    table = VarTable.make(["u1", "u2"], 0, ["a"])
    f = parse_expression("a*log(u2) + u1*u2", table)
    df = diff(f, table.index("u2"))
    assert df == parse_expression("a/u2 + u1", table)


def test_substitute_generators_by_expressions():
    source = VarTable.make(["G"], 0, ["c"])
    target = VarTable.make(["x", "y"], 0, ["c"])
    f = parse_ratfunc("G^2 + c*G", source)
    g = substitute(f, {"G": parse_ratfunc("x + y", target)}, target)
    assert g == parse_ratfunc("(x + y)^2 + c*(x + y)", target)


def test_substitute_rejects_logged_generator():
    table = VarTable.make(["u1", "u2"], 0, [])
    f = parse_expression("log(u2)", table)
    with pytest.raises(ExprError):
        substitute(f, {"u2": parse_ratfunc("u1 + 1", table)}, table)


def test_parse_rational_maximal_munch():
    table = table_uv()
    assert parse_ratfunc("1/2*u1", table) == parse_ratfunc("u1/2", table)
    assert parse_ratfunc("3/4", table).num.constant_value() == Fraction(3, 4)
    assert parse_ratfunc("-a/2*u2^2", table) == \
        parse_ratfunc("(-1/2)*a*u2^2", table)


def test_parse_precedence_and_power():
    table = table_uv()
    assert parse_ratfunc("u1 + u2*u3^2", table) == \
        parse_ratfunc("u1 + (u2*(u3^2))", table)
    assert parse_ratfunc("-u1^2", table) == \
        parse_ratfunc("-(u1^2)", table)
    assert parse_ratfunc("u1^-2", table) == \
        parse_ratfunc("1/(u1^2)", table)


def test_power_term_bound():
    """A power of t terms to the n can have C(t + n - 1, n) terms: one that
    could pass TERM_LIMIT raises before it is expanded, in the parser at its
    caret, and the largest admitted power of u1 + u2 + u3 + b has exactly
    that many terms."""
    table = table_uv()
    assert len(parse_ratfunc("(u1 + u2 + u3 + b)^47", table).num.packed) == 19600
    with pytest.raises(ParseError, match="could have 20825 terms, more than "
                       f"{TERM_LIMIT} at position 18"):
        parse_ratfunc("(u1 + u2 + u3 + b)^48", table)
    with pytest.raises(ExprError, match="power to the 48 could have 20825 terms"):
        (Poly.var(table, "u1") + Poly.var(table, "u2") + Poly.var(table, "u3")
         + Poly.var(table, "a")) ** 48
    assert parse_ratfunc("(2*u1*u2)^63", table) == parse_ratfunc("2^63*u1^63*u2^63", table)
    assert parse_ratfunc("(u1 + u2)^0 + 0^0", table) == 2


def test_parse_errors():
    table = table_uv()
    with pytest.raises(ParseError):
        parse_ratfunc("u9 + 1", table)
    with pytest.raises(ParseError):
        parse_ratfunc("(u1 + u2)^-1", table)
    with pytest.raises(ParseError):
        parse_ratfunc("a^-1", table)
    with pytest.raises(ParseError):
        parse_ratfunc("1/0", table)
    with pytest.raises(ParseError):
        parse_ratfunc("u1 *", table)
    with pytest.raises(ParseError):
        parse_expression("log(a)", table)
    with pytest.raises(ParseError):
        parse_expression("log(u1 + u2)", table)


def test_parse_position_reported():
    table = table_uv()
    try:
        parse_ratfunc("u1 + $", table)
    except ParseError as exc:
        assert exc.position == 5
    else:
        raise AssertionError("expected a parse error")


@pytest.mark.parametrize("text, char, position", [
    ("2*²", "²", 2), ("٣*u1", "٣", 0), ("u1^٢", "٢", 3), ("é + u1", "é", 0),
    ("u1 + uⅫ", "Ⅻ", 6)])
def test_parse_rejects_non_ascii_identifiers_and_digits(text, char, position):
    with pytest.raises(ParseError, match=f"unexpected character {char!r}") as err:
        parse_expression(text, table_uv())
    assert err.value.position == position


def test_parse_skips_unicode_whitespace():
    """Every character `str.isspace` accepts separates tokens."""
    table = table_uv()
    spaces = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
    spaced = f"{spaces}u1{spaces}+{spaces}u2*a{spaces}"
    assert parse_expression(spaced, table) == parse_expression("u1 + u2*a", table)


@pytest.mark.parametrize("text", ["(" * 3000 + "u1" + ")" * 3000, "-" * 3000 + "u1",
                                  "(" * 3000], ids=["parentheses", "minus", "open"])
def test_parse_nesting_past_the_recursion_limit_is_a_parse_error(text):
    with pytest.raises(ParseError, match="expression nested too deeply"):
        parse_expression(text, table_uv())


def test_parse_moderate_nesting():
    table = table_uv()
    assert parse_expression("(" * 100 + "u1" + ")" * 100, table) == \
        parse_expression("u1", table)
    assert parse_expression("-" * 101 + "u1", table) == parse_expression("-u1", table)


def test_log_arithmetic_restrictions():
    table = VarTable.make(["u1", "u2"], 0, [])
    f = parse_expression("log(u1)", table)
    g = parse_expression("log(u2)", table)
    with pytest.raises(ExprError):
        f * g
    with pytest.raises(ExprError):
        parse_expression("u1", table) / f


def test_print_parse_roundtrip_fixed():
    table = VarTable.make(["u1", "u2"], 3, ["a", "kappa"], "rho")
    cases = [
        "u1^2 + u2^2",
        "-u1^2 - 1/2*u2",
        "u1*u2^-1 - 1/2*u2",
        "a*u1*u2^-2",
        "kappa*rho/(q1^2 + q2^2 + q3^2)",
        "(u1 + u2)/(u1 - u2)",
        "2*log(u1) - a*log(u2) + u1",
        "-3/4",
        "q1*p2 - q2*p1",
    ]
    for text in cases:
        expr = parse_expression(text, table)
        again = parse_expression(to_string(expr), table)
        assert (again - expr).is_zero(), text


def test_print_parse_roundtrip_random():
    """Printed expressions re-parse to the same value."""
    table = table_uv()
    rng = random.Random(23)
    for _ in range(60):
        num = random_poly(table, rng)
        den = random_poly(table, rng, degree=1, terms=2)
        if den.is_zero():
            den = Poly.one(table)
        f = LogExpr(RatFunc(num, den))
        if rng.random() < 0.4:
            coeff = RatFunc.const(table, Fraction(rng.randint(-3, 3) or 1, 2))
            f = f + LogExpr(RatFunc.zero(table),
                            [(table.index("u2"), coeff)])
        again = parse_expression(to_string(f), table)
        assert (again - f).is_zero()


def test_monomial_exponent_enumeration():
    """Exponent vectors match a brute-force enumeration."""
    invertible = [False, True]
    got = set(monomial_exponents(2, 2, 1, invertible, include_constant=False))
    expected = set()
    for e1 in range(0, 3):
        for e2 in range(-1, 3):
            if (e1, e2) == (0, 0):
                continue
            if e1 + max(e2, 0) > 2:
                continue
            expected.add((e1, e2))
    assert got == expected


def test_variable_table_validation():
    with pytest.raises(ExprError):
        VarTable.make(["u1", "u1"], 0, [])
    with pytest.raises(ExprError):
        VarTable.make(["q1"], 1, [])
    with pytest.raises(ExprError):
        VarTable.make(["x"], 0, [], "rho")


def test_split_terms_mixed_generator_and_parameter_terms():
    """Terms group by generator exponent; a parameter-free cell is a number,
    any other a Poly in the parameters."""
    table = table_uv()
    p = parse_ratfunc("3*a*b*u1^2 - a*u1^2 + u1^2 + 2*u2 - b", table).num
    split = split_terms(p, table.generator_indices)
    assert split == {
        (2, 0, 0): Poly.from_terms(table, [((0, 0, 0, 1, 1), 3), ((0, 0, 0, 1, 0), -1),
                                           ((0, 0, 0, 0, 0), 1)]),
        (0, 1, 0): 2,
        (0, 0, 0): Poly.from_terms(table, [((0, 0, 0, 0, 1), -1)]),
    }
    assert [type(cell) for cell in split.values()] == [Poly, int, Poly]


def test_split_terms_negative_generator_exponents():
    """A shift moves keys below zero, as for inverse and log columns."""
    table = table_uv()
    p = parse_ratfunc("a*u1*u3 + u2^2", table).num
    split = split_terms(p, table.generator_indices, (-2, -1, 0))
    assert split == {(-1, -1, 1): Poly.from_terms(table, [((0, 0, 0, 1, 0), 1)]),
                     (-2, 1, 0): 1}
    assert type(split[(-2, 1, 0)]) is int


def test_split_terms_rejects_canonical_variables():
    """A q, p or rho variable is neither generator nor parameter: no split by
    generators and no coordinates, though it can itself be a key."""
    table = VarTable.make(["H"], 1, ["kappa"], "rho")
    gens = table.generator_indices
    index = {Mono((1,)): 0, Mono((2,)): 1}
    for text in ("H*q1", "p1 + H", "kappa*rho*H^2"):
        expr = parse_expression(text, table)
        assert split_terms(expr.rat.num, gens) is None
        assert map_to_coords(expr, table, index) is None
    coords = map_to_coords(parse_expression("kappa*H^2 - H", table), table, index)
    assert coords == {1: RatFunc.var(table, "kappa"), 0: -1} and type(coords[0]) is int
    keys = [i for i, kind in enumerate(table.kinds) if kind != "parameter"]
    assert split_terms(parse_ratfunc("kappa*q1", table).num, keys) == {
        (0, 1, 0, 0): Poly.from_terms(table, [((0, 0, 0, 1, 0), 1)])}


def test_equal_polys_hash_equal_whatever_their_term_order():
    table = table_uv()
    a, b = Poly.var(table, "u1"), Poly.var(table, "a").scale(Fraction(-1, 2))
    p, q = a * a + b, b + a * a
    assert list(p.terms) != list(q.terms)
    assert p == q and hash(p) == hash(q)
    assert len({p, q, Poly(table, dict(reversed(list(p.packed.items()))))}) == 1
    assert len({Poly.const(table, Fraction(3, 2)), Fraction(3, 2)}) == 1
    assert len({Poly.zero(table), 0}) == 1


def test_clear_denominators_takes_a_repeated_denominator_once():
    table = table_uv()
    fs = [parse_ratfunc(text, table)
          for text in ("u1/(u2 + a)", "u3/(u2 + a)", "b/u3", "u1 - 2")]
    assert fs[0].den == fs[1].den and fs[0].den is not fs[1].den
    common, cleared = clear_denominators(table, fs)
    assert common == parse_ratfunc("(u2 + a)*u3", table).num
    assert all(RatFunc.from_poly(c) == f * RatFunc.from_poly(common)
               for f, c in zip(fs, cleared))
    assert clear_denominators(table, []) == (Poly.one(table), [])


def test_divide_exact_terminates_on_a_radial_divisor():
    """Reducing rho^2 to q1^2 + q2^2 can raise the leading term, so
    leading-term descent by a divisor with rho need not end; this pair once
    never returned."""
    table = VarTable.make([], 2, [], algebraic="rho")
    n = parse_ratfunc("-2*q1^4*q2*p1*p2^2 - 2*q1^2*q2^3*p1*p2^2"
                      " - 1/3*q2^2*p2^2*rho", table).num
    d = parse_ratfunc("-2*q1*q2 - q2*rho", table).num
    assert n.divide_exact(d) is None
    q = parse_ratfunc("q1^3*p1 - 1/3*q2*p2*rho + 2", table).num
    assert (q * d).divide_exact(d) == q
