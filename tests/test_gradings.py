"""Sign gradings and the graded enumeration of the ansatz.

A sign grading is the diagonal of sigma = I + 2A^2, A = ad(u_k), the time-pi
map of u_k's linear flow when A^3 = -A.  `enumerate_basis` enumerates only
the monomials that the inner weights and sign gradings leave to an
invariant; `reference_columns.graded_columns` filters the whole basis one
column at a time, and the two must agree column for column.
"""

from fractions import Fraction

import pytest

from plq.corpus import corpus_names, corpus_problem
from plq.expr import VarTable, diff, monomial_exponents, substitute
from plq.parsing import parse_ratfunc, to_string
from plq.problem import build_problem
from plq.solver import (AnsatzSpec, Mono, _block_nullspace, _reversed_echelon,
                        assemble_system, coords_to_expression,
                        enumerate_basis, solve_casimirs, solve_with_escalation)
from plq.structure import BracketTable
from reference_columns import graded_columns
from test_solver import bound_quadratic, lie_module, lie_problem


def so_table(n):
    return build_problem(lie_module().so_document(n)).brackets


def gl_table(n):
    return build_problem(lie_module().gl_document(n)).brackets


def ad_matrix(btable, k):
    """Dense A with du_j/dt = {u_j, u_k} = sum_m A_jm u_m on a linear table."""
    r = btable.r
    rows = []
    for j in range(r):
        f = btable.bracket(j, k)
        rows.append([Fraction(diff(f, m).num.constant_value()) for m in range(r)])
    return rows


def matmul(a, b):
    return [[sum(x * b[m][c] for m, x in enumerate(row)) for c in range(len(b[0]))]
            for row in a]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_so_sign_gradings_are_involutions_of_the_flows(n):
    """For every generator of so(n), A^3 = -A and sigma = I + 2A^2 is
    diagonal with entries +-1 and squares to I; the distinct sigma other
    than I are the table's sign gradings."""
    btable = so_table(n)
    r = btable.r
    eye = [[int(i == j) for j in range(r)] for i in range(r)]
    diagonals = []
    for k in range(r):
        a = ad_matrix(btable, k)
        a2 = matmul(a, a)
        assert matmul(a2, a) == [[-x for x in row] for row in a]
        sigma = [[eye[i][j] + 2 * a2[i][j] for j in range(r)] for i in range(r)]
        assert matmul(sigma, sigma) == eye
        assert all(sigma[i][j] == 0 for i in range(r) for j in range(r) if i != j)
        s = tuple(sigma[i][i] for i in range(r))
        assert set(s) <= {1, -1}
        if -1 in s and s not in diagonals:
            diagonals.append(s)
    assert btable.sign_gradings == diagonals
    assert diagonals


def test_sigma_is_the_time_pi_map():
    """exp(pi A) = I + 2A^2 exactly, for every generator of so(4)."""
    sympy = pytest.importorskip("sympy")
    btable = so_table(4)
    for k in range(btable.r):
        a = sympy.Matrix(ad_matrix(btable, k)).applyfunc(sympy.nsimplify)
        want = sympy.eye(btable.r) + 2 * a * a
        assert sympy.simplify((sympy.pi * a).exp() - want) == sympy.zeros(btable.r)


def flipped(table, f, sign, names):
    """f (text or a RatFunc) and f with u_j replaced by s_j u_j."""
    if isinstance(f, str):
        f = parse_ratfunc(f, table)
    bindings = {name: parse_ratfunc(f"-{name}", table)
                for name, s in zip(names, sign) if s < 0}
    return f, substitute(f, bindings, table)


@pytest.mark.parametrize("name", ["so4", "so5"])
def test_listed_casimirs_are_sign_invariant(name):
    problem = lie_problem(name)
    btable = problem.brackets
    names = btable.generator_names
    casimirs = lie_module().documents()[name][1]
    assert casimirs
    for sign in btable.sign_gradings:
        for text in casimirs:
            f, g = flipped(problem.table, text, sign, names)
            assert (f - g).is_zero(), (sign, text)
        # A generator that some grading flips is no invariant, and flips.
        j = sign.index(-1)
        f, g = flipped(problem.table, names[j], sign, names)
        assert (f + g).is_zero()


def test_so6_solutions_are_sign_invariant():
    btable = so_table(6)
    result = solve_with_escalation(btable)
    assert len(result.solutions) == 3 and result.verified
    names = btable.generator_names
    for sign in btable.sign_gradings:
        for sol in result.solutions:
            f, g = flipped(btable.table, sol.as_ratfunc(), sign, names)
            assert (f - g).is_zero(), (sign, to_string(sol))


def test_only_linear_parameter_free_tables_get_sign_gradings():
    for n in (2, 3, 4):
        assert gl_table(n).sign_gradings == []
    assert corpus_problem("hydrogen").brackets.sign_gradings == []
    assert corpus_problem("sklyanin").brackets.sign_gradings == []
    assert bound_quadratic()[1].sign_gradings == []
    assert corpus_problem("nappi-witten").brackets.sign_gradings == [(-1, -1, 1, 1)]


def test_a_flow_with_a_nilpotent_part_gives_no_sign_grading():
    """u5 rotates (u1, u2) and sends u3 to u4: A^2 = diag(-1, -1, 0, 0, 0)
    is diagonal, but A^3 != -A, and exp(pi A) = I + 2A^2 + pi N is not
    rational, so no sign grading comes from it."""
    table = VarTable.make(["u1", "u2", "u3", "u4", "u5"], 0, [])
    btable = BracketTable(table, {(0, 4): parse_ratfunc("u2", table),
                                  (1, 4): parse_ratfunc("-u1", table),
                                  (2, 4): parse_ratfunc("u4", table)})
    a = ad_matrix(btable, 4)
    a2 = matmul(a, a)
    assert all(a2[i][j] == (-1 if i == j < 2 else 0) for i in range(5) for j in range(5))
    assert matmul(a2, a) != [[-x for x in row] for row in a]
    assert btable.sign_gradings == []


def test_a_solve_over_no_column_finds_nothing():
    """Every generator of so(3) is flipped by some sign grading, so at
    degree 1 no column is left, and the solve reports no solution."""
    btable = so_table(3)
    assert enumerate_basis(3, AnsatzSpec(1), [False] * 3, btable.inner_gradings,
                           btable.sign_gradings) == []
    result = solve_casimirs(btable, AnsatzSpec(1))
    assert (result.solutions, result.basis, result.corank) == ([], [], 1)


def enumeration_cases():
    for name in corpus_names():
        problem = corpus_problem(name)
        for degree in (2, 3, 4):
            yield pytest.param(name, AnsatzSpec(degree), id=f"{name}-{degree}")
            if any(problem.invertible):
                yield pytest.param(name, AnsatzSpec(degree, 1, True),
                                   id=f"{name}-{degree}-inverse-log")
    for name in ("gl3", "gl4", "so4", "so5", "so6"):
        for degree in (2, 3, 4):
            yield pytest.param(name, AnsatzSpec(degree), id=f"{name}-{degree}")


def case_table(name):
    """(bracket table, invertible flags) of a corpus or generated problem."""
    if name.startswith(("gl", "so")):
        n = int(name[2:])
        btable = gl_table(n) if name.startswith("gl") else so_table(n)
        return btable, [False] * btable.r
    problem = corpus_problem(name)
    return problem.brackets, problem.invertible


def test_enumeration_without_gradings_is_the_sorted_full_basis():
    """Descending positive grade, then descending lexicographic exponents."""
    for r, ansatz, invertible in [(3, AnsatzSpec(4), [False] * 3),
                                  (3, AnsatzSpec(3, 2, True), [True, False, True]),
                                  (4, AnsatzSpec(2, 1), [False, True, False, True])]:
        exps = monomial_exponents(r, ansatz.max_degree, ansatz.inverse_degree,
                                  invertible, include_constant=False)
        exps.sort(key=lambda e: (-sum(x for x in e if x > 0), tuple(-x for x in e)))
        basis = enumerate_basis(r, ansatz, invertible)
        assert basis[:len(exps)] == [Mono(e) for e in exps]
        assert len(basis) == len(exps) + (sum(invertible) if ansatz.allow_log else 0)


@pytest.mark.parametrize("name,ansatz", list(enumeration_cases()))
def test_enumeration_matches_the_filtered_full_basis(name, ansatz):
    """The graded enumeration is the full basis filtered by inner weight 0
    and sign +1, in the same order, and the system over it has the
    candidates that the system over the full basis has."""
    btable, invertible = case_table(name)
    full = enumerate_basis(btable.r, ansatz, invertible)
    kept = graded_columns(btable, full)
    basis = enumerate_basis(btable.r, ansatz, invertible, btable.inner_gradings,
                            btable.sign_gradings)
    assert basis == [full[c] for c in kept]

    def printed_candidates(columns):
        rows = assemble_system(btable, columns)
        vectors = _block_nullspace(rows, len(columns))
        return [to_string(coords_to_expression(btable.table, columns, cand))
                for cand in _reversed_echelon(vectors)]
    assert printed_candidates(basis) == printed_candidates(full)
