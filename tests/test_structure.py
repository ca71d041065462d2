"""Bracket tables: validation, Jacobi identity, rank, and degeneracy."""

import json
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from plq import linalg, solver, structure
from plq.cli import main
from plq.corpus import corpus_names, corpus_problem
from plq.expr import ExprError, LogExpr, Poly, RatFunc, VarTable, diff
from plq.flow import FlowConfig, _abstract_system
from plq.linalg import rank_of
from dense_rows import dense_matrix, rows_from_dense
from plq.parsing import parse_expression, parse_ratfunc
from plq.problem import build_problem
from plq.solver import AnsatzSpec, assemble_system, enumerate_basis, verify_invariant
from plq.structure import (DEFAULT_SEED, BracketTable, RankSample, bind_parameters,
                           certify_by_pfaffians, generic_rank, jacobi_check)
from reference_columns import graded_columns
from test_linalg import det
from test_solver import lie_module, lie_problem, non_homogeneous_table


def so3_table():
    table = VarTable.make(["u1", "u2", "u3"], 0, [])
    entries = {
        (0, 1): parse_ratfunc("u3", table),
        (0, 2): parse_ratfunc("-u2", table),
        (1, 2): parse_ratfunc("u1", table),
    }
    return BracketTable(table, entries)


def test_table_validation():
    table = VarTable.make(["u1", "u2"], 1, [])
    with pytest.raises(ExprError):
        BracketTable(table, {(1, 0): parse_ratfunc("u1", table)})
    with pytest.raises(ExprError):
        BracketTable(table, {(0, 0): parse_ratfunc("u1", table)})
    with pytest.raises(ExprError):
        BracketTable(table, {(0, 1): parse_ratfunc("q1", table)})


def test_bracket_is_skew():
    bt = so3_table()
    assert bt.bracket(1, 0) == -bt.bracket(0, 1)
    assert bt.bracket(2, 2).is_zero()
    matrix = dense_matrix(bt)
    for i in range(3):
        for j in range(3):
            assert matrix[i][j] == -matrix[j][i]


def test_central_generators():
    problem = corpus_problem("nappi-witten")
    assert problem.brackets.central_generators() == ["T"]
    assert so3_table().central_generators() == []


def test_jacobi_rotation_algebra():
    report = jacobi_check(so3_table())
    assert report.ok
    assert len(report.triples) == 1
    assert report.triples[0].names == ("u1", "u2", "u3")


def test_jacobi_detects_violation():
    """Replacing one entry by u1 breaks the identity with a nonzero residual."""
    table = VarTable.make(["u1", "u2", "u3"], 0, [])
    entries = {
        (0, 1): parse_ratfunc("u3", table),
        (0, 2): parse_ratfunc("-u2", table),
        (1, 2): parse_ratfunc("u1 + u2", table),
    }
    report = jacobi_check(BracketTable(table, entries))
    assert not report.ok
    bad = report.failures()
    assert len(bad) == 1
    assert not bad[0].residual.is_zero()


def test_jacobi_quadratic_table_flags_unconstrained_parameters():
    """The quadratic table satisfies the identity only on the parameter constraint."""
    problem = corpus_problem("sklyanin")
    report = jacobi_check(problem.brackets)
    assert not report.ok
    condition = parse_ratfunc("a1*b1 - a2*b2 + a3*b3", problem.table)
    for triple in report.failures():
        quot = triple.residual.num.divide_exact(condition.num)
        assert quot is not None


def test_jacobi_holds_after_binding():
    problem = corpus_problem("sklyanin")
    binding = {"a3": parse_ratfunc("(a2*b2 - a1*b1)/b3", problem.table)}
    bound = bind_parameters(problem.brackets, binding)
    assert jacobi_check(bound).ok


def test_generic_rank_odd_dimension():
    problem = corpus_problem("sphere")
    report = generic_rank(problem.brackets)
    assert (report.rank, report.corank) == (2, 1)
    assert report.sampled_rank == 2
    assert report.kind == "determinant"
    assert report.degeneracy.is_zero()
    assert report.witness is not None


def test_generic_rank_quadratic_pfaffian():
    problem = corpus_problem("sklyanin")
    report = generic_rank(problem.brackets)
    assert (report.rank, report.corank) == (4, 0)
    assert report.kind == "pfaffian"
    expected = parse_ratfunc("(a1*b1 - a2*b2 + a3*b3)*u1*u2*u3*u4",
                             problem.table)
    assert report.degeneracy in (expected, -expected)


def test_pfaffian_squares_to_structure_determinant():
    problem = corpus_problem("sklyanin")
    report = generic_rank(problem.brackets)
    table = problem.table
    assert report.degeneracy * report.degeneracy == \
        det(dense_matrix(problem.brackets), RatFunc.zero(table),
            RatFunc.one(table))


def test_witness_attains_generic_rank():
    """The reported witness point evaluates to a matrix of full generic rank."""
    problem = corpus_problem("hydrogen")
    report = generic_rank(problem.brackets)
    assert (report.rank, report.corank) == (4, 3)
    point = [Fraction(0)] * len(problem.table)
    for name, value in report.witness.items():
        point[problem.table.index(name)] = value
    numeric = [[f.evaluate(point) for f in row]
               for row in dense_matrix(problem.brackets)]
    assert rank_of(rows_from_dense(numeric), problem.brackets.r) == report.rank


def bound_sklyanin():
    problem = corpus_problem("sklyanin")
    binding = {"a3": parse_ratfunc("(a2*b2 - a1*b1)/b3", problem.table)}
    return bind_parameters(problem.brackets, binding)


def low_rank_table(rng):
    """Skew table M^T W M: M has sparse linear entries in at most 7 generators
    and W is a constant skew k x k matrix, k <= 5, so the rank is at most 4."""
    r = rng.randint(3, 7)
    k = rng.randint(2, 5)
    table = VarTable.make([f"u{i + 1}" for i in range(r)], 0, [])
    terms = [Poly.one(table)] + [Poly.var(table, g) for g in table.generator_names]
    m = [[sum((rng.choice([-2, -1, 1, 3]) * rng.choice(terms)
               for _ in range(rng.randint(0, 2))), Poly.zero(table))
          for _ in range(r)] for _ in range(k)]
    w = [[0] * k for _ in range(k)]
    for p in range(k):
        for q in range(p + 1, k):
            w[p][q] = rng.choice([-2, -1, 0, 0, 1, 3])
            w[q][p] = -w[p][q]
    entries = {}
    for i in range(r):
        for j in range(i + 1, r):
            f = sum((m[p][i] * m[q][j] * w[p][q]
                     for p in range(k) for q in range(k) if w[p][q]),
                    Poly.zero(table))
            entries[(i, j)] = RatFunc.from_poly(f)
    return BracketTable(table, entries)


def rank_cases():
    cases = [(name, corpus_problem(name).brackets) for name in corpus_names()]
    cases.append(("sklyanin-bound", bound_sklyanin()))
    cases.append(("so3", so3_table()))
    cases.append(("abelian", BracketTable(VarTable.make(["u1", "u2"], 0, []), {})))
    rng = random.Random(2024)
    cases += [(f"low-rank-{n}", low_rank_table(rng)) for n in range(20)]
    return [pytest.param(bt, id=name) for name, bt in cases]


@pytest.mark.parametrize("bt", rank_cases())
def test_certified_rank_matches_elimination(bt):
    """The sub-Pfaffian certificate agrees with elimination over RatFunc,
    whether it starts from the sampled pivots or from the empty block."""
    oracle = rank_of(rows_from_dense(dense_matrix(bt)), bt.r)
    sampled = generic_rank(bt)
    assert (sampled.rank, sampled.corank) == (oracle, bt.r - oracle)
    assert sampled.sampled_rank <= oracle
    empty = RankSample(0, bt.r, None, DEFAULT_SEED, ranked=[], points=iter(()))
    unsampled = certify_by_pfaffians(bt, empty)
    assert (unsampled.rank, unsampled.corank) == (oracle, bt.r - oracle)
    assert unsampled.witness is None
    assert (unsampled.samples, unsampled.sampled_rank) == (0, 0)
    assert unsampled.degeneracy == sampled.degeneracy


def test_full_pfaffian_only_at_the_last_border(monkeypatch):
    """gl(4), 16 generators of rank 12: every bordered 14 x 14 sub-Pfaffian
    vanishes, so the 16 x 16 Pfaffian is never formed, and the rank below r
    reports degeneracy 0 (Pf^2 = det)."""
    bt = build_problem(lie_module().gl_document(4)).brackets
    sizes = []
    pfaffian = structure.pfaffian

    def recorded(columns, keys, table):
        sizes.append(len(keys))
        return pfaffian(columns, keys, table)
    monkeypatch.setattr(structure, "pfaffian", recorded)
    report = generic_rank(bt)
    assert (report.rank, report.kind, report.degeneracy.is_zero()) == (12, "pfaffian", True)
    assert sizes and max(sizes) == 14


def test_sparse_pairs_rank_past_the_term_guard(capsys, tmp_path):
    """13 pairs {x_i, y_i} = 1: 26 generators, the full Pfaffian 1.  The term
    guard bounds sub-Pfaffian size, not order, so this table still ranks."""
    names = [f"{v}{i}" for i in range(1, 14) for v in "xy"]
    doc = {"name": "pairs", "variables": {"pairs": 0, "parameters": []},
           "generators": [{"name": n} for n in names],
           "brackets": [{"i": x, "j": y, "expression": "1"}
                        for x, y in zip(names[::2], names[1::2])]}
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(doc))
    assert main(["rank", str(path)]) == 0
    out = capsys.readouterr().out
    assert "rank: 26, corank: 0\npfaffian 1\n" in out


def disjoint_pairs() -> dict:
    """2400 generators whose brackets are 1200 disjoint pairs {g(2k-1), g(2k)} = 1."""
    names = [f"g{k}" for k in range(1, 2401)]
    return {"name": "pairs", "variables": {}, "generators": [{"name": n} for n in names],
            "brackets": [{"i": x, "j": y, "expression": "1"}
                         for x, y in zip(names[::2], names[1::2])]}


def test_disjoint_pairs_rank_without_recursion(capsys, tmp_path):
    """The disjoint pairs: the full Pfaffian expands 1200 sub-Pfaffians deep,
    past Python's recursion limit, and is 1."""
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(disjoint_pairs()))
    start = time.perf_counter()
    assert main(["rank", str(path)]) == 0
    assert time.perf_counter() - start < 5
    out = capsys.readouterr().out
    assert "rank: 2400, corank: 0\npfaffian 1\n" in out


def test_disjoint_pairs_pfaffian_reads_the_columns():
    """The disjoint pairs' full Pfaffian reads the 2400 stored entries, not a
    dense 2400 x 2400 matrix of 5.76 million cells: its traced peak stays
    below 30 MB, most of it the memo's keys."""
    bt = build_problem(disjoint_pairs()).brackets
    tracemalloc.start()
    try:
        value = bt.pfaffian
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 1
    assert peak < 30_000_000


def test_pfaffian_term_guard_exits_2(capsys, monkeypatch):
    """A sub-Pfaffian numerator past PFAFFIAN_TERMS stops `rank` with exit 2
    and the guard's message: unbound sklyanin's 4 x 4 Pfaffian has three
    terms."""
    monkeypatch.setattr(linalg, "PFAFFIAN_TERMS", 1)
    assert main(["rank", "sklyanin"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: pfaffian of a 4 x 4 matrix: a sub-Pfaffian "
                            "has more than 1 terms\n")


def reference_jacobi(bt):
    """The triple loop that differentiates every bracket per triple."""
    names = bt.generator_names
    out = []
    for i in range(bt.r):
        for j in range(i + 1, bt.r):
            for k in range(j + 1, bt.r):
                residual = RatFunc.zero(bt.table)
                for m in range(bt.r):
                    residual = residual + (diff(bt.bracket(j, k), m) * bt.bracket(i, m)
                                           + diff(bt.bracket(k, i), m) * bt.bracket(j, m)
                                           + diff(bt.bracket(i, j), m) * bt.bracket(k, m))
                out.append(((names[i], names[j], names[k]), residual.is_zero(),
                            str(residual)))
    return out


def random_rational_table(rng):
    """Random quadratic numerators over 3 to 5 generators and a parameter,
    some over a linear denominator; such tables mostly violate Jacobi."""
    r = rng.randint(3, 5)
    table = VarTable.make([f"u{i + 1}" for i in range(r)], 0, ["c"])
    atoms = [Poly.one(table)] + [Poly.var(table, n)
                                 for n in (*table.generator_names, "c")]
    entries = {}
    for i in range(r):
        for j in range(i + 1, r):
            if rng.random() < 0.2:
                continue
            num = sum((rng.choice([-3, -1, 1, 2]) * rng.choice(atoms) * rng.choice(atoms)
                       for _ in range(rng.randint(1, 3))), Poly.zero(table))
            den = Poly.one(table)
            if rng.random() < 0.3:
                den = rng.choice(atoms[1:r + 1]) + rng.choice([1, 2])
            entries[(i, j)] = RatFunc.make(num, den)
    return BracketTable(table, entries)


def sparse_rational_table(rng):
    """Random tables over 4 to 6 generators with about a third of the entries
    set, most over a generator denominator (a binomial or a monomial)."""
    r = rng.randint(4, 6)
    table = VarTable.make([f"u{i + 1}" for i in range(r)], 0, ["c"])
    gens = [Poly.var(table, n) for n in table.generator_names]
    atoms = [Poly.one(table), Poly.var(table, "c"), *gens]
    entries = {}
    for i in range(r):
        for j in range(i + 1, r):
            if rng.random() < 0.65:
                continue
            num = sum((rng.choice([-2, -1, 1, 3]) * rng.choice(atoms) * rng.choice(gens)
                       for _ in range(rng.randint(1, 2))), Poly.zero(table))
            den = rng.choice([rng.choice(gens) + rng.choice([-1, 2]),
                              rng.choice(gens) * rng.choice(gens), Poly.one(table)])
            entries[(i, j)] = RatFunc.make(num, den)
    return BracketTable(table, entries)


def corrupted_hydrogen():
    """Hydrogen with {M1, M2} = -2/m*H*L3 + M1, which breaks the identity."""
    bt = corpus_problem("hydrogen").brackets
    entries = dict(bt.entries)
    entries[(4, 5)] = entries[(4, 5)] + RatFunc.var(bt.table, "M1")
    return BracketTable(bt.table, entries)


def jacobi_cases():
    # The corpus includes sklyanin unbound, whose identity fails.
    cases = [(name, corpus_problem(name).brackets) for name in corpus_names()]
    cases.append(("sklyanin-bound", bound_sklyanin()))
    cases.append(("hydrogen-corrupted", corrupted_hydrogen()))
    cases += [(name, lie_problem(name).brackets) for name in ("gl3", "so5")]
    rng = random.Random(7)
    cases += [(f"low-rank-{n}", low_rank_table(rng)) for n in range(5)]
    cases += [(f"rational-{n}", random_rational_table(rng)) for n in range(10)]
    cases += [(f"sparse-rational-{n}", sparse_rational_table(rng)) for n in range(10)]
    return [pytest.param(bt, id=name) for name, bt in cases]


@pytest.mark.parametrize("bt", jacobi_cases())
def test_jacobi_matches_reference_loop(bt):
    """Differentiating each entry once gives the same residuals, printed
    identically, as differentiating per triple."""
    got = [(t.names, t.ok, str(t.residual)) for t in jacobi_check(bt).triples]
    assert got == reference_jacobi(bt)


def test_jacobi_forms_no_product_with_a_zero_factor(monkeypatch):
    """jacobi_check hands the packed product kernel only nonzero factors on
    gl(3): one product per nonzero partial and bracket entry pair."""
    bt = lie_problem("gl3").brackets
    factors = []
    kernel = structure._multiply_into

    def counted_kernel(acc, table, a, b):
        factors.append((a, b))
        return kernel(acc, table, a, b)
    monkeypatch.setattr(structure, "_multiply_into", counted_kernel)
    assert jacobi_check(bt).ok
    monkeypatch.undo()
    assert all(a and b for a, b in factors)
    nonzero = 0
    for i, j, k in combinations(range(bt.r), 3):
        for (a, b), x in (((j, k), i), ((k, i), j), ((i, j), k)):
            nonzero += sum(1 for m in range(bt.r)
                           if not diff(bt.bracket(a, b), m).is_zero()
                           and not bt.bracket(x, m).is_zero())
    assert len(factors) == nonzero > 0


def test_jacobi_on_a_bracket_free_table_forms_no_sum(tmp_path, capsys, monkeypatch):
    """On 100 generators and no brackets, every one of the C(100, 3) triples
    has residual zero with no sum formed, and `verify` finishes in under 2 s
    (it took 11.8 s when each triple summed 100 empty groups)."""
    doc = {"name": "free", "variables": {},
           "generators": [{"name": f"g{k}"} for k in range(1, 101)], "brackets": []}
    path = tmp_path / "free.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 0
    seconds = time.perf_counter() - start
    assert "jacobi: ok (161700 triples)" in capsys.readouterr().out
    assert seconds < 2
    monkeypatch.setattr(structure, "sum_of_products", None)
    report = jacobi_check(build_problem(doc).brackets)
    assert len(report.triples) == 161700 and report.ok


def test_jacobi_on_3000_bracket_free_generators_visits_no_triple(tmp_path, capsys, monkeypatch):
    """Only a triple with a nonzero partial and a column entry to meet it is
    visited, so `verify` counts all C(3000, 3) triples of a bracket-free table
    in under 2 s, and the report indexes them in combination order."""
    doc = {"name": "free", "variables": {},
           "generators": [{"name": f"g{k}"} for k in range(1, 3001)], "brackets": []}
    path = tmp_path / "free.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 0
    seconds = time.perf_counter() - start
    assert "jacobi: ok (4495501000 triples)" in capsys.readouterr().out
    assert seconds < 2
    monkeypatch.setattr(structure, "_multiply_into", None)
    triples = jacobi_check(build_problem(doc).brackets).triples
    assert len(triples) == 4495501000
    assert (triples[0].names, triples[1].names) == (("g1", "g2", "g3"), ("g1", "g2", "g4"))
    assert triples[-1].names == ("g2998", "g2999", "g3000")
    assert triples[-1000000].ok and triples[-1000000].residual.is_zero()


@pytest.mark.parametrize("bt", jacobi_cases())
def test_columns_hold_the_signed_entries(bt):
    """columns[j][i] is f_ij above the diagonal and -f_ji below it, absent
    when zero, with i ascending."""
    for j, column in enumerate(bt.columns):
        want = {}
        for i in range(bt.r):
            f = (bt.entries.get((i, j)) if i < j else
                 -bt.entries[j, i] if (j, i) in bt.entries else None)
            if f is not None:
                want[i] = str(f)
        assert list(column) == sorted(column)
        assert {i: str(f) for i, f in column.items()} == want


def test_brackets_with_generators_reads_the_columns(monkeypatch):
    """Two {F, u_j} passes on gl(3) call no `bracket` and negate no entry."""
    problem = lie_problem("gl3")
    bt = problem.brackets
    exprs = [parse_expression(f"{a}*{b} + {b}^2", problem.table)
             for a, b in zip(problem.generator_names, problem.generator_names[1:3])]
    calls = {"bracket": 0, "neg": 0}

    def counted(name, method):
        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper
    monkeypatch.setattr(BracketTable, "bracket", counted("bracket", BracketTable.bracket))
    monkeypatch.setattr(RatFunc, "__neg__", counted("neg", RatFunc.__neg__))
    sums = [bt.brackets_with_generators(e) for e in exprs]
    monkeypatch.undo()
    assert calls == {"bracket": 0, "neg": 0}
    assert all(any(not s.is_zero() for s in out) for out in sums)


def reference_bracket_strings(bt, expr, flow):
    """Printed {F, u_j} = sum_i (dF/du_i) f_ij, or with flow the right-hand
    side {u_j, F} = sum_i (dF/du_i) f_ji, differentiating F afresh for every
    (i, j)."""
    table = bt.table
    out = []
    for j in range(bt.r):
        total = LogExpr.zero(table)
        for i in range(bt.r):
            f = bt.bracket(j, i) if flow else bt.bracket(i, j)
            if not f.is_zero():
                total = total + diff(expr, table.generator_indices[i]) * LogExpr(f)
        out.append(str(total))
    return out


def bracket_observables(problem):
    """Expressions that are not invariants (so residuals print nonzero),
    with an inverse power, plus galilei's log invariant and a log
    non-invariant."""
    names = problem.generator_names
    a, b, m, z = names[0], names[1], names[len(names) // 2], names[-1]
    out = [f"{a}*{b} - 1/2*{z}^2 + {b}", f"{a}^2*{z} + 3*{b}*{m}",
           f"{b}^2*{z}^-1 - {a}"]
    if problem.name == "galilei":
        out += ["a*u1*u2^-1 - b*log(u2) - a/2*u3", "log(u1) + u3"]
    return out


@pytest.mark.parametrize("name", [*corpus_names(), "gl3", "so5"])
def test_shared_bracket_loop_matches_reference(name):
    """verify_invariant's residuals and the abstract flow's right-hand sides
    print as the loop that differentiates per (i, j) prints them; hydrogen's
    entries carry 1/m."""
    problem = lie_problem(name) if name in ("gl3", "so5") else corpus_problem(name)
    bt = problem.brackets
    for text in bracket_observables(problem):
        expr = parse_expression(text, problem.table)
        want = reference_bracket_strings(bt, expr, flow=False)
        report = verify_invariant(expr, bt)
        assert [(n, str(r)) for n, r in report.residuals] == \
            list(zip(problem.generator_names, want))
        assert report.ok == all(w == "0" for w in want)
        rhs = _abstract_system(bt, FlowConfig(expr, {}, 0.1, 1))[2]
        assert [str(e) for e in rhs] == reference_bracket_strings(bt, expr, flow=True)


def test_rank_seed_determinism():
    problem = corpus_problem("sklyanin")
    a = generic_rank(problem.brackets, seed=5)
    b = generic_rank(problem.brackets, seed=5)
    c = generic_rank(problem.brackets, seed=6)
    assert a.witness == b.witness
    assert a.rank == c.rank


def test_bind_parameters_validates_targets():
    problem = corpus_problem("sphere")
    with pytest.raises(ExprError):
        bind_parameters(problem.brackets,
                        {"H": parse_ratfunc("1", problem.table)})


def test_constraint_collapses_degeneracy():
    """On the constraint surface the degeneracy polynomial vanishes identically."""
    problem = corpus_problem("sklyanin")
    binding = {"a3": parse_ratfunc("(a2*b2 - a1*b1)/b3", problem.table)}
    report = generic_rank(bind_parameters(problem.brackets, binding))
    assert report.degeneracy.is_zero()
    assert (report.rank, report.corank) == (2, 2)
    off = generic_rank(bind_parameters(
        problem.brackets, {"a3": parse_ratfunc("a1 + b1", problem.table)}))
    assert not off.degeneracy.is_zero()


def test_rank_summary_mentions_kind():
    problem = corpus_problem("sphere")
    text = generic_rank(problem.brackets).summary()
    assert "rank 2" in text and "corank 1" in text and "determinant" in text


def same_span(weights, expected):
    """Whether two lists of integer vectors span the same rational space."""
    def rows(ws):
        return [{k: Fraction(x) for k, x in enumerate(w) if x} for w in ws]
    n = len(expected[0]) if expected else 0
    rank = rank_of(rows(expected), n)
    return rank_of(rows(weights), n) == rank == rank_of(rows(weights + expected), n)


def test_gl3_has_inner_gradings():
    """The diagonal generators of gl(3) act diagonally: x_kk brackets x_ij
    to (d_ki - d_jk) x_ij, so the inner weights span the two-dimensional
    root lattice."""
    bt = lie_problem("gl3").brackets
    names = bt.generator_names
    roots = [tuple((n[1] == str(k)) - (n[2] == str(k)) for n in names)
             for k in (1, 2, 3)]
    inner = bt.inner_gradings
    assert len(inner) == 2
    assert same_span(inner, roots)
    for w in inner:
        for i in range(3):
            assert w[names.index(f"x{i + 1}{i + 1}")] == 0


def test_tables_without_a_diagonal_action_have_no_inner_grading():
    for bt in (lie_problem("so4").brackets, corpus_problem("hydrogen").brackets,
               non_homogeneous_table()):
        assert bt.inner_gradings == []


def solved_blocks(rows, ncols, monkeypatch):
    """The vectors of `_block_nullspace`, and each block it solves as (its
    rows over local columns, its number of columns)."""
    calls = []

    def recorded(rows, ncols):
        calls.append((rows, ncols))
        return linalg.nullspace(rows, ncols)
    monkeypatch.setattr(solver, "nullspace", recorded)
    return solver._block_nullspace(rows, ncols), calls


def test_abelian_table_makes_every_monomial_its_own_block(monkeypatch):
    table = VarTable.make(["u1", "u2", "u3"], 0, [])
    bt = BracketTable(table, {})
    assert bt.inner_gradings == []
    basis = enumerate_basis(3, AnsatzSpec(3), [False] * 3)
    assert graded_columns(bt, basis) == list(range(len(basis)))
    assert assemble_system(bt, basis) == []
    vectors, calls = solved_blocks([], len(basis), monkeypatch)
    assert calls == [([], 1)] * len(basis)
    assert vectors == [{c: 1} for c in range(len(basis))]


def test_rows_that_chain_columns_make_one_block(monkeypatch):
    """Each row of the chain is the only link between two of its columns, so
    a union left out splits it; a column in no row is a block of its own."""
    rows = [{0: 1, 1: -1}, {1: 1, 2: -1}, {2: 1, 3: -1}, {5: 1, 6: 1}]
    vectors, calls = solved_blocks(rows, 8, monkeypatch)
    assert calls == [(rows[:3], 4), ([], 1), ([{0: 1, 1: 1}], 2), ([], 1)]
    assert vectors == [{0: 1, 1: 1, 2: 1, 3: 1}, {4: 1}, {5: 1, 6: -1}, {7: 1}]


def test_sl2_inner_grading_keeps_weight_zero_columns():
    """{h, e} = 2e, {h, f} = -2f, {e, f} = h: h has inner weights (0, 2, -2),
    so the kept monomials are h^a (e f)^b."""
    table = VarTable.make(["h", "e", "f"], 0, [])
    bt = BracketTable(table, {(0, 1): parse_ratfunc("2*e", table),
                              (0, 2): parse_ratfunc("-2*f", table),
                              (1, 2): parse_ratfunc("h", table)})
    assert same_span(bt.inner_gradings, [(0, 1, -1)])
    basis = enumerate_basis(3, AnsatzSpec(4), [False] * 3)
    kept = graded_columns(bt, basis)
    assert sorted(basis[c].exps for c in kept) == sorted(
        (a, b, b) for a in range(5) for b in range(3) if 0 < a + 2 * b <= 4)


def connected(rows, ncols):
    """Whether the columns [0, ncols) are connected through shared rows."""
    reached, rows = {0}, list(rows)
    while grown := [row for row in rows if reached.intersection(row)]:
        rows = [row for row in rows if not reached.intersection(row)]
        reached.update(*grown)
    return reached == set(range(ncols))


@pytest.mark.parametrize("name", [*corpus_names(), "gl3", "so4", "non-homogeneous"])
def test_no_assembled_row_spans_two_blocks(name, monkeypatch):
    """Each block that `_block_nullspace` solves is connected through its
    rows, and the blocks share out the presolved rows and unforced columns."""
    if name == "non-homogeneous":
        bt, invertible = non_homogeneous_table(), [False] * 3
    else:
        problem = lie_problem(name) if name in ("gl3", "so4") else corpus_problem(name)
        bt, invertible = problem.brackets, problem.invertible
    ansatz = AnsatzSpec(3, 1, True) if any(invertible) else AnsatzSpec(3)
    basis = enumerate_basis(bt.r, ansatz, invertible)
    rows = assemble_system(bt, basis)
    _, calls = solved_blocks(rows, len(basis), monkeypatch)
    reduced, forced = linalg.presolve_forced_zero(rows)
    assert rows
    assert sum(len(block) for block, _ in calls) == len(reduced)
    assert sum(ncols for _, ncols in calls) == len(basis) - len(forced)
    assert all(connected(block, ncols) for block, ncols in calls)
