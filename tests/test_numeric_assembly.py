"""Assembly of the invariant system in numbers on tables without parameters.

`reference_rows` is the assembly that keeps every cell as a dictionary of
parameter exponents and builds one `Poly` per cell; `assemble_system` must
give the rows it gives, entry for entry, on every table.
"""

from fractions import Fraction

import pytest

from plq import solver
from plq.corpus import corpus_names, corpus_problem
from plq.expr import Poly, RatFunc, normal_coeff, split_terms
from plq.solver import AnsatzSpec, Mono, _delta, assemble_system, enumerate_basis
from test_solver import bound_quadratic, lie_problem


def reference_rows(btable, basis):
    """Rows of the invariant system, each cell a parameter polynomial."""
    table = btable.table
    gens = table.generator_indices
    rows = []
    for _, cleared in btable.cleared_rows:
        split = {i: split_terms(p, gens) for i, p in cleared.items()}
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
                p = Poly(table, {e: normal_coeff(v) for e, v in cell.items() if v})
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
