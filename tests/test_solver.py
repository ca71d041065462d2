"""Invariant solver: ansatz enumeration, nullspace solve, verification."""

import importlib.util
import time

import pytest

from fractions import Fraction
from pathlib import Path

from plq import solver
from plq.cli import main
from plq.corpus import corpus_data, corpus_names, corpus_problem
from plq.expr import DEGREE_LIMIT, ExprError, RatFunc, VarTable, exact_div
from plq.linalg import nullspace, presolve_forced_zero, rank_of, rref
from plq.parsing import parse_expression, parse_ratfunc, to_string
from plq.problem import ProblemError, build_problem
from plq.solver import (AnsatzSpec, _normalize_solution, _reversed_echelon,
                        _span_of_products, assemble_system,
                        coords_to_expression, enumerate_basis,
                        independence_rank, map_to_coords, solve_casimirs,
                        solve_with_escalation, verify_invariant)
from plq.structure import BracketTable, bind_parameters
from reference_columns import graded_columns


def so3_table():
    table = VarTable.make(["u1", "u2", "u3"], 0, [])
    return BracketTable(table, {
        (0, 1): parse_ratfunc("u3", table),
        (0, 2): parse_ratfunc("-u2", table),
        (1, 2): parse_ratfunc("u1", table),
    })


def bound_quadratic():
    problem = corpus_problem("sklyanin")
    binding = {"a3": parse_ratfunc("(a2*b2 - a1*b1)/b3", problem.table)}
    return problem, bind_parameters(problem.brackets, binding)


def test_ansatz_validation():
    with pytest.raises(ExprError):
        AnsatzSpec(max_degree=0)
    with pytest.raises(ExprError):
        AnsatzSpec(max_degree=2, inverse_degree=-1)


def test_ansatz_degree_past_the_monomial_limit_exits_2(capsys):
    """No monomial of degree 128 packs, so the ansatz refuses it at once,
    from the command line and from a problem file."""
    AnsatzSpec(max_degree=DEGREE_LIMIT, inverse_degree=DEGREE_LIMIT)
    for spec in ({"max_degree": DEGREE_LIMIT + 1}, {"inverse_degree": DEGREE_LIMIT + 1}):
        with pytest.raises(ExprError):
            AnsatzSpec(**spec)
    start = time.perf_counter()
    assert main(["solve", "sphere", "--max-degree", "128"]) == 2
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().err == "error: ansatz degrees must be at most 127\n"
    doc = corpus_data("sphere")
    doc["solver"] = {"max_degree": 300}
    with pytest.raises(ProblemError, match="solver options: ansatz degrees"):
        build_problem(doc)


def test_enumerate_basis_is_graded():
    """Basis monomials come out grouped by descending positive grade."""
    ansatz = AnsatzSpec(max_degree=2, inverse_degree=1, allow_log=True)
    basis = enumerate_basis(2, ansatz, [False, True])
    grades = [sum(x for x in e.exps if x > 0)
              for e in basis if hasattr(e, "exps")]
    assert grades == sorted(grades, reverse=True)
    assert sum(1 for e in basis if not hasattr(e, "exps")) == 1


def test_rotation_algebra_casimir():
    """The squared-length invariant is found exactly."""
    result = solve_casimirs(so3_table())
    assert result.dimension == 1
    assert result.verified
    assert to_string(result.solutions[0]) == "u1^2 + u2^2 + u3^2"
    assert result.free_central == []
    assert result.corank == 1
    assert result.independence == 1


def test_sphere_casimir_exact_form():
    problem = corpus_problem("sphere")
    result = solve_casimirs(problem.brackets, problem.ansatz,
                            problem.invertible)
    assert result.dimension == 1
    expected = parse_expression("(phi + R^2)*H - 1/2*V^2", problem.table)
    assert (result.solutions[0] - expected).is_zero()
    assert result.contains(expected, problem.brackets)


def test_linear_table_with_inverse_ansatz():
    """A Laurent invariant is found and the central generator reported free."""
    problem = corpus_problem("spinchain")
    result = solve_casimirs(problem.brackets, problem.ansatz,
                            problem.invertible)
    assert result.dimension == 2
    assert result.free_central == ["u4"]
    expected = parse_expression("u1*u2^-1 - 1/2*u3", problem.table)
    assert any((s - expected).is_zero() for s in result.solutions)


def test_misprinted_invariant_fails_verification():
    """The squared variant of the Laurent invariant is not conserved."""
    problem = corpus_problem("spinchain")
    wrong = parse_expression("u1*u2^-1 - 1/2*u3^2", problem.table)
    report = verify_invariant(wrong, problem.brackets)
    assert not report.ok
    right = parse_expression("u1*u2^-1 - 1/2*u3", problem.table)
    assert verify_invariant(right, problem.brackets).ok


def test_log_invariant():
    problem = corpus_problem("galilei")
    result = solve_casimirs(problem.brackets, problem.ansatz,
                            problem.invertible)
    assert result.dimension == 1
    expected = parse_expression("a*u1*u2^-1 - b*log(u2) - a/2*u3",
                                problem.table)
    assert (result.solutions[0] - expected).is_zero()


def test_central_extension_invariant():
    problem = corpus_problem("nappi-witten")
    result = solve_casimirs(problem.brackets, problem.ansatz,
                            problem.invertible)
    assert result.dimension == 2
    assert result.free_central == ["T"]
    expected = parse_expression("P1^2 + P2^2 + 2*J*T", problem.table)
    assert any((s - expected).is_zero() for s in result.solutions)
    assert result.contains(expected, problem.brackets)


def test_central_generators_preaccepted_at_higher_degree():
    """Products of known invariants are pruned, leaving the same basis."""
    problem = corpus_problem("nappi-witten")
    result = solve_casimirs(problem.brackets,
                            AnsatzSpec(max_degree=4),
                            problem.invertible)
    assert result.dimension == 2
    assert result.free_central == ["T"]


def test_quadratic_table_bound_span():
    """Both degree-two invariants lie in the solved span, unrelated ones do not."""
    problem, bound = bound_quadratic()
    result = solve_casimirs(bound, AnsatzSpec(max_degree=2),
                            problem.invertible)
    assert result.dimension == 2
    c1 = parse_expression(
        "(a2*b2 - a1*b1)/b3*u1^2 - b2*u2^2 + b1*u3^2", problem.table)
    c2 = parse_expression("a1*u1^2 - b3*u3^2 + b2*u4^2", problem.table)
    assert result.contains(c1, bound)
    assert result.contains(c2, bound)
    assert not result.contains(parse_expression("u1*u2", problem.table), bound)


def test_escalation_until_independent():
    """Degree grows until the span explains the whole corank."""
    problem = corpus_problem("hydrogen")
    result = solve_with_escalation(problem.brackets, problem.ansatz,
                                   problem.invertible)
    assert result.corank == 3
    assert result.independence == 3
    assert result.escalations == [
        "independence 2 < corank 3: raising max_degree to 3"]
    assert result.free_central == ["H"]
    kepler = parse_expression(
        "H*(L1^2 + L2^2 + L3^2) - m/2*(M1^2 + M2^2 + M3^2)", problem.table)
    pairing = parse_expression("L1*M1 + L2*M2 + L3*M3", problem.table)
    assert result.contains(kepler, problem.brackets)
    assert result.contains(pairing, problem.brackets)
    assert all(verify_invariant(s, problem.brackets).ok
               for s in result.solutions)


def test_solver_determinism():
    problem, bound = bound_quadratic()
    a = solve_casimirs(bound, AnsatzSpec(max_degree=2), problem.invertible)
    b = solve_casimirs(bound, AnsatzSpec(max_degree=2), problem.invertible)
    assert [to_string(s) for s in a.solutions] == \
        [to_string(s) for s in b.solutions]


def test_verify_invariant_reports_residuals():
    """A non-invariant reports one nonzero residual per violated generator."""
    problem = corpus_problem("sphere")
    report = verify_invariant(parse_expression("V", problem.table),
                              problem.brackets)
    assert not report.ok
    by_name = {name: to_string(res) for name, res in report.residuals
               if not res.is_zero()}
    assert by_name == {"H": "2*H", "phi": "-2*R^2 - 2*phi"}


def test_independence_rank_detects_dependence():
    """An invariant and its square count once."""
    problem = corpus_problem("nappi-witten")
    c = parse_expression("P1^2 + P2^2 + 2*J*T", problem.table)
    assert independence_rank([c, c * c], problem.brackets) == 1
    t = parse_expression("T", problem.table)
    assert independence_rank([c, t], problem.brackets) == 2


def test_solution_denominators_cleared():
    """Solved invariants come out with polynomial coefficients."""
    problem, bound = bound_quadratic()
    result = solve_casimirs(bound, AnsatzSpec(max_degree=2),
                            problem.invertible)
    texts = [to_string(s) for s in result.solutions]
    assert texts == [
        "u1^2*a2 - u2^2*b3 + u4^2*b1",
        "u1^2*a1*b1 - u1^2*a2*b2 + u2^2*b2*b3 - u3^2*b1*b3",
    ]


def test_independence_rank_fails_when_every_point_is_a_pole():
    """No usable sample point is an error, not a rank of zero."""
    problem = corpus_problem("nappi-witten")
    f = parse_expression("1/P1", problem.table)
    with pytest.raises(ExprError, match="pole"):
        independence_rank([f], problem.brackets, witness={"P1": Fraction(0)},
                          extra_points=0)


def assert_rows_annihilate(btable, ansatz, invertible, texts):
    basis = enumerate_basis(btable.r, ansatz, invertible)
    index = {elem: k for k, elem in enumerate(basis)}
    rows = assemble_system(btable, basis)
    zero = RatFunc.zero(btable.table)
    for text in texts:
        coords = map_to_coords(parse_expression(text, btable.table),
                               btable.table, index)
        assert coords, text
        for row in rows:
            total = sum((v * coords[c] for c, v in row.items() if c in coords),
                        zero)
            assert total.is_zero(), (text, row)


def test_assembly_clears_denominators_row_wide():
    """Polynomial f_ij are scaled by a row's common denominator too: known
    invariants over parameter denominators satisfy every assembled row."""
    problem = corpus_problem("hydrogen")
    assert_rows_annihilate(problem.brackets, AnsatzSpec(max_degree=3),
                           problem.invertible, [
                               "L1*M1 + L2*M2 + L3*M3",
                               "H*(L1^2 + L2^2 + L3^2) - m/2*(M1^2 + M2^2 + M3^2)"])
    problem, bound = bound_quadratic()
    c1 = "(a2*b2 - a1*b1)/b3*u1^2 - b2*u2^2 + b1*u3^2"
    c2 = "a1*u1^2 - b3*u3^2 + b2*u4^2"
    assert_rows_annihilate(bound, AnsatzSpec(max_degree=4), problem.invertible,
                           [c1, c2, f"({c1})*({c2})"])


def oracle_cases():
    for name in corpus_names():
        invertible = any(corpus_problem(name).invertible)
        for degree in (2, 3, 4):
            yield pytest.param(name, AnsatzSpec(degree), id=f"{name}-{degree}")
            if invertible:
                yield pytest.param(name, AnsatzSpec(degree, 1, True),
                                   id=f"{name}-{degree}-inverse-log")


@pytest.mark.parametrize("name,ansatz", list(oracle_cases()))
def test_assembled_nullspace_passes_independent_verification(name, ansatz):
    """Every nullspace vector of the assembled system is an invariant by
    verify_invariant, which differentiates the expression directly."""
    if name == "sklyanin":
        problem, btable = bound_quadratic()
    else:
        problem = corpus_problem(name)
        btable = problem.brackets
    basis = enumerate_basis(btable.r, ansatz, problem.invertible)
    reduced, forced = presolve_forced_zero(assemble_system(btable, basis))
    vectors = nullspace(reduced + [{c: 1} for c in forced], len(basis))
    # Galilei's only invariant needs a log column.
    assert vectors or (name == "galilei" and not ansatz.allow_log)
    for vec in vectors:
        expr = coords_to_expression(problem.table, basis, vec)
        assert verify_invariant(expr, btable).ok, str(expr)


def lie_module():
    """The benchmark's Lie-Poisson table generator."""
    path = Path(__file__).resolve().parents[1] / "bench" / "lie.py"
    spec = importlib.util.spec_from_file_location("lie", path)
    lie = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lie)
    return lie


def lie_problem(name):
    """A generated Lie-Poisson table from the benchmark's generator."""
    return build_problem(lie_module().documents()[name][0])


def reference_presolve(rows):
    """Singleton presolve that re-applies every forced column to every row,
    twice per pass, and drops rows that print alike."""
    work = [dict(r) for r in rows if r]
    forced = set()
    changed = True
    while changed:
        changed = False
        keep = []
        for row in work:
            for c in forced:
                row.pop(c, None)
            if not row:
                continue
            if len(row) == 1:
                forced.add(next(iter(row)))
                changed = True
            else:
                keep.append(row)
        seen = set()
        work = []
        for row in keep:
            for c in forced:
                row.pop(c, None)
            key = tuple(sorted((c, str(v)) for c, v in row.items()))
            if row and key not in seen:
                seen.add(key)
                work.append(row)
    return work, forced


def reference_echelon(vectors, ncols):
    """Candidates by a full rref of the nullspace over reversed columns."""
    rows = [{ncols - 1 - c: v for c, v in vec.items()} for vec in vectors]
    placed, _ = rref([r for r in rows if r], ncols)
    return [{ncols - 1 - c: v for c, v in row.items()} for row in placed]


def reference_solutions(btable, basis, candidates, max_degree):
    """Solution strings with the product span rebuilt after every acceptance
    and a row reduction of its own."""
    table = btable.table
    index = {elem: k for k, elem in enumerate(basis)}
    ncols = len(basis)
    accepted = [parse_expression(n, table) for n in btable.central_generators()]
    span = _span_of_products(table, accepted, index, max_degree, ncols)
    out = []
    for cand in candidates:
        rev = {ncols - 1 - c: v for c, v in cand.items()}
        for srow in span:
            pivot = min(srow)
            if pivot in rev:
                factor = exact_div(rev[pivot], srow[pivot])
                for c, v in srow.items():
                    cur = rev.get(c)
                    nv = -(factor * v) if cur is None else cur - factor * v
                    if nv == 0:
                        rev.pop(c, None)
                    else:
                        rev[c] = nv
        if not rev:
            continue
        norm = _normalize_solution(table, {ncols - 1 - c: v for c, v in rev.items()})
        expr = coords_to_expression(table, basis, norm)
        out.append(to_string(expr))
        accepted.append(expr)
        span = _span_of_products(table, accepted, index, max_degree, ncols)
    return out


def printed(rows):
    return [[(c, str(v)) for c, v in row.items()] for row in rows]


def solver_oracle_cases():
    for name in corpus_names() + ["sklyanin-bound", "gl3", "so4"]:
        for degree in (2, 3, 4):
            yield pytest.param(name, AnsatzSpec(degree), id=f"{name}-{degree}")
            if name in corpus_names() and any(corpus_problem(name).invertible):
                yield pytest.param(name, AnsatzSpec(degree, 1, True),
                                   id=f"{name}-{degree}-inverse-log")


@pytest.mark.parametrize("name,ansatz", list(solver_oracle_cases()))
def test_solver_steps_match_reference(name, ansatz):
    """Presolve, candidates and solutions equal those of the rref echelon,
    the deduplicating presolve and the eagerly rebuilt product span."""
    if name == "sklyanin-bound":
        problem, btable = bound_quadratic()
    else:
        problem = lie_problem(name) if name in ("gl3", "so4") else corpus_problem(name)
        btable = problem.brackets
    basis = enumerate_basis(btable.r, ansatz, problem.invertible)
    rows = assemble_system(btable, basis)
    reduced, forced = presolve_forced_zero(rows)
    ref_reduced, ref_forced = reference_presolve(rows)
    assert forced == ref_forced
    distinct = {tuple(row): row for row in printed(reduced)}
    assert list(distinct.values()) == printed(ref_reduced)
    candidates = _reversed_echelon(nullspace(reduced + [{c: 1} for c in forced], len(basis)))
    ref_candidates = reference_echelon(
        nullspace(ref_reduced + [{c: 1} for c in ref_forced], len(basis)), len(basis))
    assert printed(candidates) == printed(ref_candidates)
    kept = graded_columns(btable, basis)
    blocks = solver._block_nullspace(assemble_system(btable, [basis[c] for c in kept]),
                                     len(kept))
    block_candidates = _reversed_echelon([{kept[c]: v for c, v in vec.items()} for vec in blocks])
    assert printed(block_candidates) == printed(candidates)
    solved = solve_casimirs(btable, ansatz, problem.invertible)
    assert [to_string(s) for s in solved.solutions] == reference_solutions(
        btable, basis, ref_candidates, ansatz.max_degree)


def non_homogeneous_table():
    """{u1, u2} = u3 + u1^2, a table that no weight of the generators grades
    with u1, u2 and u3 all of degree one."""
    table = VarTable.make(["u1", "u2", "u3"], 0, [])
    return BracketTable(table, {(0, 1): parse_ratfunc("u3 + u1^2", table)})


def block_cases():
    yield from solver_oracle_cases()
    for name in ("so5", "non-homogeneous"):
        for degree in (2, 3, 4):
            yield pytest.param(name, AnsatzSpec(degree), id=f"{name}-{degree}")


@pytest.mark.parametrize("name,ansatz", list(block_cases()))
def test_block_nullspace_is_the_whole_nullspace(name, ansatz):
    """Block by block, the system `solve_casimirs` assembles has the vectors
    of its whole presolved nullspace, each printed alike."""
    if name == "non-homogeneous":
        btable, invertible = non_homogeneous_table(), [False] * 3
    elif name == "sklyanin-bound":
        problem, btable = bound_quadratic()
        invertible = problem.invertible
    else:
        problem = lie_problem(name) if name[:2] in ("gl", "so") else corpus_problem(name)
        btable, invertible = problem.brackets, problem.invertible
    basis = enumerate_basis(btable.r, ansatz, invertible, btable.inner_gradings,
                            btable.sign_gradings)
    rows = assemble_system(btable, basis, btable.generating_set)
    reduced, forced = presolve_forced_zero(rows)
    whole = nullspace(reduced + [{c: 1} for c in forced], len(basis))
    blocks = sorted(solver._block_nullspace(rows, len(basis)), key=max)
    assert blocks == whole
    assert printed(blocks) == printed(whole)


@pytest.mark.parametrize("name", ["sphere", "so4"])
def test_product_span_is_not_built_after_the_last_candidate(name, monkeypatch):
    """The span is built before a reduction that follows an acceptance, and
    not after the last candidate, even when that candidate is accepted."""
    problem = lie_problem(name) if name == "so4" else corpus_problem(name)
    events = []
    span_of_products, reduce_mod_span = solver._span_of_products, solver._reduce_mod_span

    def counted_span(*args):
        events.append("span")
        return span_of_products(*args)

    def counted_reduce(*args):
        rem = reduce_mod_span(*args)
        events.append("accept" if rem else "prune")
        return rem
    monkeypatch.setattr(solver, "_span_of_products", counted_span)
    monkeypatch.setattr(solver, "_reduce_mod_span", counted_reduce)
    solved = solve_casimirs(problem.brackets, AnsatzSpec(2), problem.invertible)
    assert events[-1] == "accept"
    assert events == ["span", "accept"] * len(solved.solutions)


def unpruned_span(table, items, index, max_factors, ncols):
    """Span of every expandable product of up to max_factors items, each one
    expanded and mapped to coordinates, with no grade bound."""
    product_rows = []

    def rec(start, current, depth):
        for k in range(start, len(items)):
            try:
                nxt = items[k] if current is None else current * items[k]
            except ExprError:
                continue
            coords = solver.map_to_coords(nxt, table, index)
            if coords:
                product_rows.append({ncols - 1 - c: v for c, v in coords.items()})
            if depth + 1 < max_factors:
                rec(k, nxt, depth + 1)

    rec(0, None, 0)
    return rref(product_rows, ncols)[0]


def span_setup(name, ansatz):
    """Table, basis index and accepted invariants (central generators, then
    solutions) of one solve."""
    if name == "sklyanin-bound":
        problem, btable = bound_quadratic()
    else:
        problem = lie_problem(name) if name in ("gl3", "so4", "so5") else corpus_problem(name)
        btable = problem.brackets
    solved = solve_casimirs(btable, ansatz, problem.invertible)
    table = problem.table
    index = {elem: k for k, elem in enumerate(solved.basis)}
    items = [parse_expression(n, table) for n in solved.free_central] + solved.solutions
    return table, index, items


@pytest.mark.parametrize("name,ansatz", list(solver_oracle_cases()))
def test_span_of_products_matches_unpruned(name, ansatz):
    """The grade bound leaves the span's placed rows unchanged."""
    table, index, items = span_setup(name, ansatz)
    args = (table, items, index, ansatz.max_degree, len(index))
    assert printed(_span_of_products(*args)) == printed(unpruned_span(*args))


def count_expansions(monkeypatch, build, *args):
    """map_to_coords results while one span is built."""
    results = []
    map_to_coords = solver.map_to_coords

    def counted(*a):
        results.append(map_to_coords(*a))
        return results[-1]
    monkeypatch.setattr(solver, "map_to_coords", counted)
    build(*args)
    monkeypatch.setattr(solver, "map_to_coords", map_to_coords)
    return results


@pytest.mark.parametrize("name", ["so5", "gl3"])
def test_span_expands_only_products_in_the_basis(name, monkeypatch):
    """On a homogeneous table every product expanded lands in the basis."""
    ansatz = AnsatzSpec(4)
    table, index, items = span_setup(name, ansatz)
    args = (table, items, index, ansatz.max_degree, len(index))
    pruned = count_expansions(monkeypatch, _span_of_products, *args)
    unpruned = count_expansions(monkeypatch, unpruned_span, *args)
    assert all(coords for coords in pruned)
    assert len(pruned) == sum(1 for coords in unpruned if coords) < len(unpruned)


@pytest.mark.parametrize("name,texts", [
    ("spinchain", ["u4^2", "u4", "u1*u2^-1 - 1/2*u3"]),
    ("galilei", ["u1*u3", "u3", "a*u1*u2^-1 - b*log(u2) - a/2*u3"])])
def test_span_bound_is_off_with_inverse_or_log_items(name, texts, monkeypatch):
    """An inverse or log invariant among the items prunes nothing, though the
    polynomial items' grades alone add up past the top grade."""
    problem = corpus_problem(name)
    ansatz = AnsatzSpec(3, 1, True)
    basis = enumerate_basis(problem.brackets.r, ansatz, problem.invertible)
    index = {elem: k for k, elem in enumerate(basis)}
    items = [parse_expression(t, problem.table) for t in texts]
    args = (problem.table, items, index, ansatz.max_degree, len(basis))
    pruned = count_expansions(monkeypatch, _span_of_products, *args)
    unpruned = count_expansions(monkeypatch, unpruned_span, *args)
    assert [str(c) for c in pruned] == [str(c) for c in unpruned]


def test_span_keeps_products_whose_inverse_factor_cancels_degree():
    """u1^2 * u3^2 * u1^-2*u2 = u2*u3^2 lies in the degree-3 basis although
    the first two factors' grades add up to 4."""
    table = VarTable.make(["u1", "u2", "u3"], 0, [])
    basis = enumerate_basis(3, AnsatzSpec(3, 2), [True, False, False])
    index = {elem: k for k, elem in enumerate(basis)}
    items = [parse_expression(t, table) for t in ("u1^2", "u3^2", "u1^-2*u2")]
    args = (table, items, index, 3, len(basis))
    span = _span_of_products(*args)
    assert printed(span) == printed(unpruned_span(*args))
    target = map_to_coords(parse_expression("u2*u3^2", table), table, index)
    rows = [{len(basis) - 1 - c: v for c, v in row.items()} for row in span]
    assert rank_of(rows + [target], len(basis)) == len(rows)


def test_so5_escalated_solve():
    """so(5) escalates to degree 4 and finds both Casimirs."""
    problem = lie_problem("so5")
    result = solve_with_escalation(problem.brackets, problem.ansatz,
                                   problem.invertible)
    assert len(result.solutions) == 2
    assert result.verified
    assert (result.independence, result.corank) == (2, 2)


@pytest.mark.parametrize("n,degree", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_full_nullspace_is_zero_at_dropped_columns(n, degree):
    """Every nullspace vector of the system over the whole basis vanishes at
    the columns of nonzero inner weight that the solver leaves out."""
    btable = build_problem(lie_module().gl_document(n)).brackets
    basis = enumerate_basis(btable.r, AnsatzSpec(degree), [False] * btable.r)
    kept = graded_columns(btable, basis)
    dropped = set(range(len(basis))) - set(kept)
    assert dropped
    reduced, forced = presolve_forced_zero(assemble_system(btable, basis))
    vectors = nullspace(reduced + [{c: 1} for c in forced], len(basis))
    assert vectors
    for vec in vectors:
        assert all(vec.get(c, 0) == 0 for c in dropped)


def test_gl3_degree_4_assembles_only_weight_zero_columns(monkeypatch):
    """gl(3) at degree 4 assembles the 78 monomials of torus weight 0 (row
    sums of the exponent matrix equal its column sums), not all 714."""
    problem = lie_problem("gl3")
    btable = problem.brackets
    assembled = []
    assemble = solver.assemble_system

    def recorded(bt, basis, *generators):
        assembled.append(list(basis))
        return assemble(bt, basis, *generators)
    monkeypatch.setattr(solver, "assemble_system", recorded)
    result = solve_casimirs(btable, AnsatzSpec(4), problem.invertible)
    names = btable.generator_names

    def weight_zero(e):
        return all(sum(x for g, x in zip(names, e) if g[1] == k)
                   == sum(x for g, x in zip(names, e) if g[2] == k) for k in "123")
    basis = enumerate_basis(btable.r, AnsatzSpec(4), problem.invertible)
    expected = [elem for elem in basis if weight_zero(elem.exps)]
    assert (len(basis), len(expected)) == (714, 78)
    assert assembled == [expected]
    assert len(result.solutions) == 3 and result.verified
