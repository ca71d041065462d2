"""Assembly of the invariant system, numbers and parameter polynomials alike.

`reference_rows` is an assembly that shares no code with `assemble_system`:
it splits each cleared entry by its exponent tuples, keeps every cell as a
dictionary of parameter exponents and builds one `Poly` per cell with
`Poly.from_terms`.  `assemble_system` must give the rows it gives, entry for
entry, on every table.  Assembly and `map_to_coords` pack no exponent tuple,
and constant coordinates and span entries are numbers.
"""

from fractions import Fraction

import pytest

from plq import solver
from plq.corpus import corpus_names, corpus_problem
from plq.expr import Poly, RatFunc, VarTable
from plq.parsing import parse_expression
from plq.solver import AnsatzSpec, Mono, _delta, assemble_system, enumerate_basis
from test_solver import bound_quadratic, lie_problem


def tuple_split(p, gens):
    """{generator exponent -> {parameter exponent tuple -> coefficient}}, read
    off p's exponent tuples; p uses generators and parameters only."""
    params = p.table.parameter_indices
    out = {}
    for e, c in p.terms.items():
        pe = tuple(x if i in params else 0 for i, x in enumerate(e))
        out.setdefault(tuple(e[i] for i in gens), {})[pe] = c
    return out


def reference_rows(btable, basis):
    """Rows of the invariant system, each cell a parameter polynomial."""
    table = btable.table
    gens = table.generator_indices
    rows = []
    for _, cleared in btable.cleared_rows:
        split = {i: tuple_split(p, gens) for i, p in cleared.items()}
        grouped = {}
        for c, elem in enumerate(basis):
            if isinstance(elem, Mono):
                e = elem.exps
                terms = [(i, x, tuple(y - (k == i) for k, y in enumerate(e)))
                         for i, x in enumerate(e) if x]
            else:
                terms = [(elem.position, 1, tuple(-x for x in _delta(btable.r, elem.position)))]
            for i, scale, shift in terms:
                for key, cell in split.get(i, {}).items():
                    acc = grouped.setdefault(tuple(a + b for a, b in zip(key, shift)),
                                             {}).setdefault(c, {})
                    for pk, v in cell.items():
                        acc[pk] = acc.get(pk, 0) + scale * v
        for key in sorted(grouped, key=lambda e: (sum(e), e), reverse=True):
            row = {}
            for c, cell in grouped[key].items():
                p = Poly.from_terms(table, cell.items())
                if not p.is_zero():
                    row[c] = p.constant_value() if p.is_constant() else RatFunc.from_poly(p)
            if row:
                rows.append(row)
    return rows


def printed(rows):
    return [[(c, type(v).__name__, str(v)) for c, v in row.items()] for row in rows]


def system_cases():
    for name in corpus_names():
        problem = corpus_problem(name)
        ansatz = AnsatzSpec(3, 1, True) if any(problem.invertible) else AnsatzSpec(3)
        yield pytest.param(name, ansatz, id=name)
    yield pytest.param("sklyanin-bound", AnsatzSpec(4), id="sklyanin-bound")
    yield pytest.param("hydrogen", AnsatzSpec(4), id="hydrogen-4")
    for name in ("gl3", "so4"):
        yield pytest.param(name, AnsatzSpec(4), id=f"{name}-4")


def case(name):
    if name == "sklyanin-bound":
        problem, btable = bound_quadratic()
        return btable, problem.invertible
    problem = lie_problem(name) if name in ("gl3", "so4") else corpus_problem(name)
    return problem.brackets, problem.invertible


@pytest.mark.parametrize("name,ansatz", list(system_cases()))
def test_rows_equal_the_polynomial_cell_assembly(name, ansatz):
    """Same rows, keys, entries and entry types as with a Poly per cell, on
    the full basis, parameters or not."""
    btable, invertible = case(name)
    basis = enumerate_basis(btable.r, ansatz, invertible)
    assert printed(assemble_system(btable, basis)) == printed(reference_rows(btable, basis))


@pytest.mark.parametrize("name", ["gl3", "so4"])
def test_parameter_free_assembly_builds_no_polynomial(name, monkeypatch):
    """Cells are accumulated as numbers: assembly builds no Poly and asks
    none for its constant, and every entry is an int or a non-integral
    Fraction."""
    btable, invertible = case(name)
    basis = enumerate_basis(btable.r, AnsatzSpec(4), invertible)
    btable.cleared_rows  # cached per table, before counting
    calls = []
    init, constant_value = Poly.__init__, Poly.constant_value

    def counted_init(self, *args):
        calls.append("init")
        init(self, *args)

    def counted_constant_value(self):
        calls.append("constant_value")
        return constant_value(self)
    monkeypatch.setattr(Poly, "__init__", counted_init)
    monkeypatch.setattr(Poly, "constant_value", counted_constant_value)
    rows = solver.assemble_system(btable, basis)
    monkeypatch.undo()
    assert rows and calls == []
    assert all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
               for row in rows for v in row.values())
    assert printed(rows) == printed(reference_rows(btable, basis))


def count_packs(monkeypatch, call, *args):
    """The result of call(*args) and the VarTable.pack calls it made."""
    calls = []
    pack = VarTable.pack

    def counted(self, e):
        calls.append(e)
        return pack(self, e)
    monkeypatch.setattr(VarTable, "pack", counted)
    try:
        return call(*args), len(calls)
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("name,degree", [("hydrogen", 2), ("hydrogen", 4), ("sklyanin", 3)])
def test_assembly_packs_no_exponent(name, degree, monkeypatch):
    """Parameter cells keep the packed keys of the split polynomial: assembly
    packs no exponent tuple, and still gives the reference rows."""
    btable, invertible = case(name)
    basis = enumerate_basis(btable.r, AnsatzSpec(degree), invertible)
    btable.cleared_rows  # cached per table, before counting
    rows, packs = count_packs(monkeypatch, solver.assemble_system, btable, basis)
    assert packs == 0
    assert printed(rows) == printed(reference_rows(btable, basis))


def test_coordinates_of_a_product_pack_no_exponent(monkeypatch):
    """map_to_coords on a hydrogen product with parameter coefficients packs
    no exponent tuple; its constant coordinates are numbers."""
    problem = corpus_problem("hydrogen")
    table = problem.table
    basis = enumerate_basis(problem.brackets.r, AnsatzSpec(4), problem.invertible)
    index = {elem: k for k, elem in enumerate(basis)}
    a, b = (parse_expression(t, table) for t in ("kappa*H + m*L1*M1 - L2*M2",
                                                 "L3*M3/m - 2*H"))
    coords, packs = count_packs(monkeypatch, solver.map_to_coords, a * b, table, index)
    assert packs == 0
    assert coords and coords == coords_oracle(a * b, index)
    assert all(is_number(v) or not (v.num.is_constant() and v.den.is_constant())
               for v in coords.values())
    assert any(is_number(v) for v in coords.values())


def is_number(v):
    """An int, or a Fraction that is not integral."""
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def coords_oracle(expr, index):
    """{column: coefficient} of a polynomial in the generators, read off its
    exponent tuples and summed as RatFuncs."""
    table = expr.table
    gens, params = table.generator_indices, table.parameter_indices
    out = {}
    for e, c in expr.rat.num.terms.items():
        pe = tuple(x if i in params else 0 for i, x in enumerate(e))
        k = index[Mono(tuple(e[i] for i in gens))]
        out[k] = out.get(k, 0) + RatFunc(Poly.from_terms(table, [(pe, c)]), expr.rat.den)
    return out


def test_span_and_membership_entries_are_numbers(monkeypatch):
    """On gl(3) at degree 4 every coordinate that map_to_coords gives while a
    span of products is built, and every entry that `contains` hands to
    rank_of, is a number."""
    problem = lie_problem("gl3")
    btable = problem.brackets
    solved = solver.solve_casimirs(btable, AnsatzSpec(4), problem.invertible)
    table = problem.table
    index = {elem: k for k, elem in enumerate(solved.basis)}
    items = [parse_expression(n, table) for n in solved.free_central] + solved.solutions
    coords, ranked = [], []
    map_to_coords, rank_of = solver.map_to_coords, solver.rank_of

    def counted_coords(*args):
        coords.append(map_to_coords(*args))
        return coords[-1]

    def counted_rank(rows, ncols):
        ranked.extend(rows)
        return rank_of(rows, ncols)
    monkeypatch.setattr(solver, "map_to_coords", counted_coords)
    monkeypatch.setattr(solver, "rank_of", counted_rank)
    solver._span_of_products(table, items, index, 4, len(index))
    assert solved.contains(items[-1] - items[0] * 3, btable)
    assert not solved.contains(parse_expression("x11*x22", table), btable)
    monkeypatch.undo()
    assert coords and ranked
    assert all(is_number(v) for c in coords if c for v in c.values())
    assert all(is_number(v) for row in ranked for v in row.values())
