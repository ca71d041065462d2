"""Rows of a generating set: `BracketTable.generating_set` and the system
`assemble_system` builds from its rows.

{F, .} is a derivation, so under the Jacobi identity {F, u} = 0 on a set of
generators whose brackets span the Lie algebra (with its linear centre)
gives {F, u} = 0 on every generator.  The kernel of the rows of that set is
then the kernel of every row, and `nullspace` reads its vectors off the
unique RREF of that kernel's annihilator, so the vectors agree one for one.
"""

import random
from fractions import Fraction

import pytest

from plq import solver
from plq.corpus import corpus_names, corpus_problem
from plq.linalg import nullspace, rref
from plq.problem import build_problem
from plq.solver import (AnsatzSpec, _block_nullspace, assemble_system, enumerate_basis,
                        solve_casimirs)
from plq.structure import jacobi_check
from test_solver import lie_module

# Table -> (size of the generating set, number of generators, top Casimir degree).
SIZES = {"gl3": (5, 9, 3), "gl4": (7, 16, 4), "gl5": (9, 25, 5),
         "so4": (3, 6, 2), "so5": (4, 10, 4), "so6": (5, 15, 4), "so7": (6, 21, 6)}


def lie_table(name):
    lie = lie_module()
    document = lie.gl_document if name.startswith("gl") else lie.so_document
    return build_problem(document(int(name[2:]))).brackets


def graded_basis(btable, degree):
    """The basis `solve_casimirs` assembles at this degree."""
    return enumerate_basis(btable.r, AnsatzSpec(degree), [False] * btable.r,
                           btable.inner_gradings, btable.sign_gradings)


def both_nullspaces(btable, basis, generators):
    """Nullspace vectors of the all-row system and of the given rows."""
    return (_block_nullspace(assemble_system(btable, basis), len(basis)),
            _block_nullspace(assemble_system(btable, basis, generators), len(basis)))


@pytest.mark.parametrize("name", SIZES)
def test_generating_set_sizes(name):
    """2n - 1 generators of gl(n), the trace joining as the centre, and
    n - 1 of so(n), each a subset in table order."""
    btable = lie_table(name)
    size, r, _ = SIZES[name]
    chosen = btable.generating_set
    assert (len(chosen), btable.r) == (size, r)
    assert chosen == sorted(set(chosen)) and set(chosen) <= set(range(r))


@pytest.mark.parametrize("name", [n for n in SIZES if n != "so7"])
def test_generating_rows_give_every_row_nullspace(name):
    """Vector for vector, at each table's top Casimir degree."""
    btable = lie_table(name)
    basis = graded_basis(btable, SIZES[name][2])
    full, restricted = both_nullspaces(btable, basis, btable.generating_set)
    assert full and restricted == full


def test_gl3_degree_4_row_counts():
    btable = lie_table("gl3")
    basis = graded_basis(btable, 4)
    assert [len(assemble_system(btable, basis, rows))
            for rows in (range(btable.r), btable.generating_set)] == [276, 184]


def test_the_linear_centre_joins_the_span_for_free():
    """With gl(3)'s off-diagonal generators first, x12, x13, x21 and x31
    generate: their brackets give x11 - x22 and x11 - x33, and the central
    trace the rest of the diagonal, so no diagonal generator's row is
    assembled.  On a table with no brackets every generator is central, and
    no row is needed at all."""
    document = lie_module().gl_document(3)
    names = [g["name"] for g in document["generators"]]
    order = [n for n in names if n[1] != n[2]] + [n for n in names if n[1] == n[2]]
    document["generators"] = [{"name": n} for n in order]
    document["brackets"] = [b if order.index(b["i"]) < order.index(b["j"]) else
                            {"i": b["j"], "j": b["i"], "expression": f"-({b['expression']})"}
                            for b in document["brackets"]]
    btable = build_problem(document).brackets
    assert [btable.generator_names[g] for g in btable.generating_set] == [
        "x12", "x13", "x21", "x31"]
    full, restricted = both_nullspaces(btable, graded_basis(btable, 3), btable.generating_set)
    assert len(full) == 6 and restricted == full
    free = build_problem({"name": "free", "variables": {}, "brackets": [],
                          "generators": [{"name": f"g{k}"} for k in range(5)]}).brackets
    assert free.generating_set == []


def changed_basis(name, seed):
    """The table over v = P u for a random integer matrix P of nonzero
    determinant, the identity plus r entries in -2..2 off the diagonal:
    {v_a, v_b} = sum P_ac P_bd C_cd^m u_m with u = P^-1 v, so the entries are
    linear in v with rational coefficients."""
    btable = lie_table(name)
    r, a = btable.r, btable.linear_columns
    rng = random.Random(seed)
    while True:
        p = [[Fraction(i == j) for j in range(r)] for i in range(r)]
        for _ in range(r):
            i, j = rng.sample(range(r), 2)
            p[i][j] = Fraction(rng.choice([-2, -1, 1, 2]))
        inverse = invert(p)
        if inverse is not None:
            break
    gens = [f"v{k}" for k in range(r)]
    brackets = []
    for x in range(r):
        for y in range(x + 1, r):
            u = [0] * r  # coefficients of {v_x, v_y} over u
            for c, pc in enumerate(p[x]):
                for d, pd in enumerate(p[y]):
                    for m, coeff in a[d][c].items():
                        u[m] += pc * pd * coeff
            v = [sum(u[m] * inverse[m][k] for m in range(r)) for k in range(r)]
            if any(v):
                brackets.append({"i": gens[x], "j": gens[y], "expression": " + ".join(
                    f"({c})*{g}" for c, g in zip(v, gens) if c)})
    return build_problem({"name": f"{name}-changed", "variables": {},
                          "generators": [{"name": g} for g in gens],
                          "brackets": brackets}).brackets


def invert(p):
    """The inverse of a square Fraction matrix, or None when it is singular."""
    n = len(p)
    m = [row[:] + [Fraction(i == j) for j in range(n)] for i, row in enumerate(p)]
    for col in range(n):
        pivot = next((k for k in range(col, n) if m[k][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for k in range(n):
            if k != col and m[k][col]:
                m[k] = [x - m[k][col] * y for x, y in zip(m[k], m[col])]
    return [row[n:] for row in m]


@pytest.mark.parametrize("name,degree", [("gl3", 3), ("so4", 2), ("so5", 3)])
def test_a_change_of_basis_keeps_the_nullspace(name, degree):
    """In other coordinates the set comes out differently, and its rows
    still give the all-row vectors, as many as in the original coordinates.
    (so(5) stops at degree 3: without gradings its degree-4 system has 1000
    columns of long fractions, about 11 s.)"""
    btable = changed_basis(name, seed=7)
    original = lie_table(name)
    assert jacobi_check(btable).ok
    assert btable.generating_set != original.generating_set
    assert len(btable.generating_set) < btable.r
    basis = graded_basis(btable, degree)
    full, restricted = both_nullspaces(btable, basis, btable.generating_set)
    assert restricted == full
    assert len(full) == len(both_nullspaces(original, graded_basis(original, degree),
                                            original.generating_set)[0])


def test_a_table_failing_jacobi_keeps_every_row():
    """{a, b} = d, {a, d} = -b, {b, d} = -b, {c, d} = b + d: linear and
    parameter-free, but not a Lie algebra.  The closure alone would drop d's
    row, and the rows of a, b and c admit a linear F that d's row refuses."""
    pairs = [("a", "b", "d"), ("a", "d", "-b"), ("b", "d", "-b"), ("c", "d", "b + d")]
    btable = build_problem({"name": "not-lie", "variables": {},
                            "generators": [{"name": g} for g in "abcd"],
                            "brackets": [{"i": i, "j": j, "expression": e}
                                         for i, j, e in pairs]}).brackets
    assert btable.linear_columns is not None and not btable.jacobi.ok
    assert btable.generating_set == [0, 1, 2, 3]
    full, without_d = both_nullspaces(btable, graded_basis(btable, 1), [0, 1, 2])
    assert (len(full), len(without_d)) == (0, 1)
    btable.__dict__.pop("generating_set")
    btable.__dict__["jacobi"] = lie_table("so4").jacobi  # a report that passes
    assert btable.generating_set == [0, 1, 2]


def closure_dimension(btable, chosen):
    """Dimension of the Lie algebra over Q that the chosen generators and the
    linear centre span: the brackets of every pair of RREF rows are added
    until the RREF stops growing."""
    a, r = btable.linear_columns, btable.r
    centre = {}
    for k, column in enumerate(a):
        for j, coeffs in enumerate(column):
            for m, c in coeffs.items():
                centre.setdefault((k, m), {})[j] = c
    span = rref([{g: 1} for g in chosen] + nullspace(list(centre.values()), r), r)[0]
    while True:
        brackets = []
        for v in span:
            for w in span:
                bracket = {}
                for k, y in w.items():
                    for j, x in v.items():
                        for m, c in a[k][j].items():
                            bracket[m] = bracket.get(m, 0) + x * y * c
                brackets.append({m: c for m, c in bracket.items() if c})
        grown = rref(span + brackets, r)[0]
        if len(grown) == len(span):
            return len(span)
        span = grown


@pytest.mark.parametrize("name", ["gl3", "gl4", "so4", "so5", "so6"])
def test_every_generator_of_the_set_but_x11_is_needed(name):
    """The set closes to the whole algebra, and without any one of its
    generators to a proper subalgebra, except x11 on gl(n): the greedy rule
    takes it first, and x1k, xk1 (k > 1) with the trace generate it
    afterwards, [x1k, xk1] = x11 - xkk summing with tr to n x11."""
    btable = lie_table(name)
    chosen = btable.generating_set
    assert closure_dimension(btable, chosen) == btable.r
    short = [closure_dimension(btable, [k for k in chosen if k != g]) < btable.r
             for g in chosen]
    assert short == [not name.startswith("gl") or g != 0 for g in chosen]


def test_dropping_any_generator_of_the_so5_set_enlarges_the_nullspace():
    """Over all 65 monomials of degree at most 2, each mutant set admits
    three vectors where the set admits the one quadratic Casimir.  (On gl(3)
    no such mutant shows in the nullspace: the polynomial invariants of the
    proper subalgebras left are the Casimirs, at every degree tried.)"""
    btable = lie_table("so5")
    basis = enumerate_basis(btable.r, AnsatzSpec(2), [False] * btable.r)
    chosen = btable.generating_set
    full = both_nullspaces(btable, basis, chosen)[0]
    assert len(full) == 1
    for g in chosen:
        mutant = both_nullspaces(btable, basis, [k for k in chosen if k != g])[1]
        assert len(mutant) == 3, g


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_tables_keep_every_row_but_nappi_witten(name):
    """Every corpus table carries a parameter or a nonlinear entry except
    Nappi-Witten's, whose central T joins the span: P1, P2 and J generate."""
    btable = corpus_problem(name).brackets
    want = [0, 1, 2] if name == "nappi-witten" else list(range(btable.r))
    assert btable.generating_set == want


def test_solve_assembles_the_generating_rows_and_checks_every_generator(monkeypatch):
    """`solve_casimirs` asks for the set's rows; verification still brackets
    each solution with all nine generators of gl(3)."""
    btable = lie_table("gl3")
    asked, verified = [], []
    assemble, verify = solver.assemble_system, solver.verify_invariant

    def recorded(bt, basis, *generators):
        asked.append(generators)
        return assemble(bt, basis, *generators)

    def counted(expr, bt):
        report = verify(expr, bt)
        verified.append(len(report.residuals))
        return report
    monkeypatch.setattr(solver, "assemble_system", recorded)
    monkeypatch.setattr(solver, "verify_invariant", counted)
    result = solve_casimirs(btable, AnsatzSpec(3))
    assert asked == [(btable.generating_set,)] and len(btable.generating_set) == 5
    assert result.verified and verified == [9, 9, 9]


def test_jacobi_is_checked_once_per_table():
    btable = lie_table("so4")
    assert jacobi_check(btable) is jacobi_check(btable) is btable.jacobi
    btable.generating_set
    assert btable.__dict__["jacobi"] is jacobi_check(btable)
