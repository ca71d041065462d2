"""The fused Jacobi decision on drawn tables, against the per-triple loop.

Each table is a Nambu bracket on u1, u2, u3, {u_i, u_j} = F * eps_ijk *
dC/du_k, which satisfies the Jacobi identity for any rational F and C; u4 and
u5, when present, are central, so F and C may use them.  Three kinds draw the
denominators of F and C from no factor, parameter factors or generator
factors, and each is drawn intact and with one entry broken by an extra term.
`jacobi_check` must give the names, ok flags and printed residuals of
`reference_jacobi`, and form a residual only for a failing triple.  Two
mutants of the decision, one that drops a term and one that drops the
cross-multipliers, must fail that comparison.  sympy recomputes every
residual from the entries.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, find, given, settings, strategies as st  # noqa: E402

from plq import structure  # noqa: E402
from plq.expr import RatFunc, VarTable, diff, sum_of_products  # noqa: E402
from plq.parsing import parse_ratfunc  # noqa: E402
from plq.structure import BracketTable, jacobi_check  # noqa: E402
from test_structure import reference_jacobi  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
DENOMINATORS = {"polynomial": [], "parameter": ["c", "c + 2", "d", "c*d - 1"],
                "generator": ["u1 + 2", "u2", "u1*u3", "u2 - u4", "u3^2 + c"]}


@st.composite
def rationals(draw, names: list[str], dens: list[str], factors: int = 2) -> str:
    """A monomial with a nonzero coefficient, over a drawn denominator or none."""
    mono = "*".join([str(draw(st.sampled_from([-3, -1, 1, 2]))),
                     *draw(st.lists(st.sampled_from(names), max_size=factors))])
    den = draw(st.sampled_from([None, *dens]))
    return mono if den is None else f"{mono}/({den})"


@st.composite
def tables(draw, kind: str | None = None, broken: bool | None = None):
    kind = kind or draw(st.sampled_from(sorted(DENOMINATORS)))
    broken = draw(st.booleans()) if broken is None else broken
    gens = [f"u{k}" for k in range(1, draw(st.integers(3, 5)) + 1)]
    table = VarTable.make(gens, 0, ["c", "d"])
    dens = [d for d in DENOMINATORS[kind] if "u4" not in d or "u4" in gens]
    names = [*gens, "c", "d"]
    casimir = " + ".join(draw(st.lists(rationals(names, dens, 3), min_size=1, max_size=3)))
    c, f = parse_ratfunc(casimir, table), parse_ratfunc(draw(rationals(names, dens)), table)
    entries = {(0, 1): f * diff(c, 2), (0, 2): -f * diff(c, 1), (1, 2): f * diff(c, 0)}
    if broken:
        pair = draw(st.sampled_from([(i, j) for j in range(len(gens)) for i in range(j)]))
        extra = parse_ratfunc(draw(rationals(names, dens)), table)
        entries[pair] = entries.get(pair, RatFunc.zero(table)) + extra
    return BracketTable(table, entries), broken


def checked(bt: BracketTable) -> tuple[list, int]:
    """The report's (names, ok, printed residual) per triple, and how many
    residuals it formed."""
    calls = []

    def counted(groups, zero):
        calls.append(None)
        return sum_of_products(groups, zero)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(structure, "sum_of_products", counted)
        report = BracketTable(bt.table, bt.entries).jacobi
    return [(t.names, t.ok, str(t.residual)) for t in report.triples], len(calls)


def matches_reference(bt: BracketTable) -> bool:
    got, residuals = checked(bt)
    return got == reference_jacobi(bt) and residuals == sum(not ok for _, ok, _ in got)


@pytest.mark.parametrize("kind", sorted(DENOMINATORS))
@pytest.mark.parametrize("broken", [False, True], ids=["intact", "broken"])
@SETTINGS
@given(data=st.data())
def test_jacobi_matches_reference_loop_on_drawn_tables(kind, broken, data):
    bt, _ = data.draw(tables(kind, broken))
    got, residuals = checked(bt)
    assert got == reference_jacobi(bt)
    assert residuals == sum(not ok for _, ok, _ in got)
    assert len(got) == len(jacobi_check(bt).triples)
    assert broken or all(ok for _, ok, _ in got)


def test_the_draws_break_the_identity_and_mix_denominators():
    """Some broken draw fails, and some intact draw has entries over two or
    more distinct denominators that use generators, so the cross-multiplied
    branch of the decision runs."""
    find(tables(broken=True), lambda t: not t[0].jacobi.ok,
         settings=settings(SETTINGS, phases=[Phase.generate]))
    find(tables("generator", False),
         lambda t: len({f.den for f in t[0].entries.values() if not f.is_poly()}) > 1,
         settings=settings(SETTINGS, phases=[Phase.generate]))


def mutant_fails(monkeypatch, name: str, mutant) -> None:
    monkeypatch.setattr(structure, name, mutant)
    bt, _ = find(tables(), lambda t: not matches_reference(t[0]),
                 settings=settings(SETTINGS, phases=[Phase.generate]))
    monkeypatch.undo()
    assert matches_reference(bt)


def test_a_decision_that_drops_a_term_fails(monkeypatch):
    """The first product into each fresh sum is left out."""
    kernel = structure._multiply_into
    mutant_fails(monkeypatch, "_multiply_into",
                 lambda acc, table, a, b: acc if not acc else kernel(acc, table, a, b))


def test_a_decision_that_drops_the_cross_multipliers_fails(monkeypatch):
    """The sums over distinct denominators are added as they stand."""
    decide = structure._sums_vanish

    def mutant(groups, bases, table):
        total: dict = {}
        for s in groups.values():
            for key, v in s.items():
                total[key] = total.get(key, 0) + v
        return decide({(): total}, bases, table)
    mutant_fails(monkeypatch, "_sums_vanish", mutant)


@settings(SETTINGS, max_examples=30)
@given(drawn=tables())
def test_jacobi_residuals_match_sympy(drawn):
    sympy = pytest.importorskip("sympy")
    bt = drawn[0]
    symbols = {n: sympy.Symbol(n) for n in bt.table.names}

    def sym(f: RatFunc):
        return sympy.sympify(str(f).replace("^", "**"), locals=symbols)
    u = [symbols[n] for n in bt.generator_names]
    f = [[sym(bt.bracket(i, j)) for j in range(bt.r)] for i in range(bt.r)]
    for t in jacobi_check(bt).triples:
        i, j, k = (bt.generator_names.index(n) for n in t.names)
        want = sum(sympy.diff(f[j][k], u[m]) * f[i][m] + sympy.diff(f[k][i], u[m]) * f[j][m]
                   + sympy.diff(f[i][j], u[m]) * f[k][m] for m in range(bt.r))
        assert sympy.cancel(want - sym(t.residual)) == 0
        assert t.ok == t.residual.is_zero()
