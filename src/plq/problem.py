"""Problem files: one bracket algebra per JSON document.

A problem file carries the input side of a computation: variable declarations
(canonical pair count, parameters, invertible generators, optional radial
element), the generators with optional canonical realizations, the bracket
table for pairs i < j, solver bounds, and optional flow defaults.  Expressions
are strings in the package grammar, so files stay hand-writable and diffable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .canonical import CanonicalRealization
from .expr import ExprError, VarTable
from .parsing import ParseError, parse_ratfunc, to_string
from .solver import AnsatzSpec
from .structure import BracketTable


class ProblemError(ValueError):
    """A problem document violates the schema or fails to parse."""


@dataclass
class Problem:
    """Validated in-memory form of one problem file."""
    name: str
    table: VarTable
    brackets: BracketTable
    realization: CanonicalRealization | None
    invertible: list[bool]
    ansatz: AnsatzSpec
    flow_defaults: dict | None = None
    source: str | None = None

    @property
    def generator_names(self) -> list[str]:
        return list(self.table.generator_names)


def _require(data: dict, field: str, kind, context: str):
    if field not in data:
        raise ProblemError(f"{context}: missing field {field!r}")
    value = data[field]
    if not isinstance(value, kind):
        raise ProblemError(f"{context}: field {field!r} must be "
                           f"{kind.__name__}, got {type(value).__name__}")
    return value


def _str_list(value, context: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ProblemError(f"{context} must be a list of strings")
    return list(value)


def _parse(text: str, table: VarTable, context: str):
    try:
        return parse_ratfunc(text, table)
    except (ParseError, ExprError) as exc:
        raise ProblemError(f"{context}: {exc}") from None


def build_problem(data: dict, source: str | None = None) -> Problem:
    """Validate a problem document and construct its table and brackets."""
    if not isinstance(data, dict):
        raise ProblemError("problem document must be a JSON object")
    name = _require(data, "name", str, "problem")
    variables = _require(data, "variables", dict, f"problem {name!r}")
    pairs = variables.get("pairs", 0)
    if not isinstance(pairs, int) or pairs < 0:
        raise ProblemError("variables.pairs must be a nonnegative integer")
    parameters = _str_list(variables.get("parameters", []),
                           "variables.parameters")
    invertible_names = _str_list(variables.get("invertible", []),
                                 "variables.invertible")
    algebraic = variables.get("algebraic")
    if algebraic is not None and not isinstance(algebraic, str):
        raise ProblemError("variables.algebraic must be a string name")
    raw_gens = _require(data, "generators", list, f"problem {name!r}")
    if not raw_gens:
        raise ProblemError("problem must declare at least one generator")
    gen_names: list[str] = []
    canonicals: list[str | None] = []
    for k, entry in enumerate(raw_gens):
        if not isinstance(entry, dict):
            raise ProblemError(f"generators[{k}] must be an object")
        gen_names.append(_require(entry, "name", str, f"generators[{k}]"))
        canonical = entry.get("canonical")
        if canonical is not None and not isinstance(canonical, str):
            raise ProblemError(f"generators[{k}].canonical must be a string")
        canonicals.append(canonical)
    realized = [c is not None for c in canonicals]
    if any(realized) and not all(realized):
        missing = gen_names[realized.index(False)]
        raise ProblemError("mixed realization: generator "
                           f"{missing!r} has no canonical expression while "
                           "others do")
    try:
        table = VarTable.make(gen_names, pairs, parameters, algebraic)
    except ExprError as exc:
        raise ProblemError(f"problem {name!r}: {exc}") from None
    for g in invertible_names:
        if g not in gen_names:
            raise ProblemError(f"variables.invertible names unknown "
                               f"generator {g!r}")
    invertible = [g in invertible_names for g in gen_names]
    raw_brackets = _require(data, "brackets", list, f"problem {name!r}")
    entries = {}
    seen: set[tuple[int, int]] = set()
    for k, entry in enumerate(raw_brackets):
        if not isinstance(entry, dict):
            raise ProblemError(f"brackets[{k}] must be an object")
        iname = _require(entry, "i", str, f"brackets[{k}]")
        jname = _require(entry, "j", str, f"brackets[{k}]")
        text = _require(entry, "expression", str, f"brackets[{k}]")
        for ref in (iname, jname):
            if ref not in gen_names:
                raise ProblemError(f"brackets[{k}] references unknown "
                                   f"generator {ref!r}")
        i = gen_names.index(iname)
        j = gen_names.index(jname)
        if i == j:
            raise ProblemError(f"brackets[{k}]: bracket of {iname!r} with "
                               "itself is identically zero and must be omitted")
        if i > j:
            raise ProblemError(f"brackets[{k}]: give the pair as "
                               f"({jname}, {iname}); entries are stored for "
                               "the earlier generator first")
        if (i, j) in seen:
            raise ProblemError(f"brackets[{k}]: duplicate bracket for "
                               f"({iname}, {jname})")
        seen.add((i, j))
        entries[(i, j)] = _parse(text, table, f"brackets[{k}].expression")
    try:
        btable = BracketTable(table, entries)
    except ExprError as exc:
        raise ProblemError(f"problem {name!r}: {exc}") from None
    realization = None
    if all(realized):
        exprs = [_parse(c, table, f"generators[{k}].canonical")
                 for k, c in enumerate(canonicals)]
        try:
            realization = CanonicalRealization(table, exprs)
        except ExprError as exc:
            raise ProblemError(f"problem {name!r}: {exc}") from None
    solver = data.get("solver", {})
    if not isinstance(solver, dict):
        raise ProblemError("solver options must be an object")
    try:
        ansatz = AnsatzSpec(int(solver.get("max_degree", 2)),
                            int(solver.get("inverse_degree", 0)),
                            bool(solver.get("allow_log", False)))
    except (ExprError, TypeError, ValueError) as exc:
        raise ProblemError(f"solver options: {exc}") from None
    flow_defaults = data.get("flow")
    if flow_defaults is not None and not isinstance(flow_defaults, dict):
        raise ProblemError("flow options must be an object")
    return Problem(name=name, table=table, brackets=btable,
                   realization=realization, invertible=invertible,
                   ansatz=ansatz, flow_defaults=flow_defaults, source=source)


def load_problem(path) -> Problem:
    """Load and validate a problem file."""
    p = Path(path)
    if not p.is_file():
        raise ProblemError(f"problem file {str(p)!r} does not exist")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ProblemError(f"{p}: not valid JSON ({exc})") from None
    return build_problem(data, source=str(p))


def problem_to_data(problem: Problem) -> dict:
    """Serialize a problem back to its document form."""
    table = problem.table
    gens = problem.generator_names
    variables: dict = {"pairs": table.pairs,
                       "parameters": [table.names[i]
                                      for i in table.parameter_indices]}
    inv = [g for g, flag in zip(gens, problem.invertible) if flag]
    if inv:
        variables["invertible"] = inv
    if table.alg_index is not None:
        variables["algebraic"] = table.names[table.alg_index]
    generators = []
    for k, g in enumerate(gens):
        entry: dict = {"name": g}
        if problem.realization is not None:
            entry["canonical"] = to_string(problem.realization.expressions[k])
        generators.append(entry)
    brackets = []
    for (i, j), value in sorted(problem.brackets.entries.items()):
        brackets.append({"i": gens[i], "j": gens[j],
                         "expression": to_string(value)})
    data = {"name": problem.name, "variables": variables,
            "generators": generators, "brackets": brackets,
            "solver": {"max_degree": problem.ansatz.max_degree,
                       "inverse_degree": problem.ansatz.inverse_degree,
                       "allow_log": problem.ansatz.allow_log}}
    if problem.flow_defaults is not None:
        data["flow"] = problem.flow_defaults
    return data


def save_problem(problem: Problem, path) -> None:
    """Write a problem document as indented JSON."""
    Path(path).write_text(json.dumps(problem_to_data(problem), indent=2) + "\n")
