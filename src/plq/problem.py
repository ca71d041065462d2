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
from .expr import PAIR_LIMIT, ExprError, VarTable
from .parsing import ParseError, parse_ratfunc
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


_NUMBER = (int, float)
# What `_optional` names each kind it checks for.
_KINDS = {str: "a string", dict: "an object", int: "an integer",
          bool: "true or false", _NUMBER: "a number"}


def _optional(data: dict, field: str, kind, context: str, default=None):
    """`data[field]`, which must be of `kind`, or `default` when it is absent.
    A JSON true or false is not a number, though Python's bool is an int."""
    if field not in data:
        return default
    value = data[field]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ProblemError(f"{context}.{field} must be {_KINDS[kind]}, "
                           f"got {type(value).__name__}")
    if kind is _NUMBER:
        try:
            float(value)
        except OverflowError:
            raise ProblemError(f"{context}.{field} overflows a float") from None
    return value


def _object(value, keys: str, path: str) -> dict:
    """`value`, an object whose keys are among `keys`; `path` names it, "" the root."""
    if not isinstance(value, dict):
        raise ProblemError(f"{path or 'problem document'} must be an object")
    if unknown := [k for k in value if k not in keys.split()]:
        raise ProblemError(f"unknown key {(path and path + '.') + unknown[0]!r}; "
                           f"expected one of: {', '.join(keys.split())}")
    return value


def _str_list(value, context: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ProblemError(f"{context} must be a list of strings")
    return list(value)


def _parse(text: str, table: VarTable, context: str, parsed: dict):
    if text not in parsed:
        try:
            parsed[text] = parse_ratfunc(text, table)
        except (ParseError, ExprError) as exc:
            raise ProblemError(f"{context}: {exc}") from None
    return parsed[text]


def build_problem(data: dict) -> Problem:
    """Validate a document and build its table and brackets, each distinct text parsed once."""
    _object(data, "name variables generators brackets solver flow", "")
    name = _require(data, "name", str, "problem")
    variables = _require(data, "variables", dict, f"problem {name!r}")
    _object(variables, "pairs parameters invertible algebraic", "variables")
    pairs = variables.get("pairs", 0)
    if isinstance(pairs, bool) or not isinstance(pairs, int) or pairs < 0:
        raise ProblemError("variables.pairs must be a nonnegative integer")
    if pairs > PAIR_LIMIT:
        raise ProblemError(f"variables.pairs must be at most {PAIR_LIMIT}")
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
        _object(entry, "name canonical", f"generators[{k}]")
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
    entries, parsed = {}, {}
    seen: set[tuple[int, int]] = set()
    for k, entry in enumerate(raw_brackets):
        _object(entry, "i j expression", f"brackets[{k}]")
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
        entries[(i, j)] = _parse(text, table, f"brackets[{k}].expression", parsed)
    try:
        btable = BracketTable(table, entries)
    except ExprError as exc:
        raise ProblemError(f"problem {name!r}: {exc}") from None
    realization = None
    if all(realized):
        exprs = [_parse(c, table, f"generators[{k}].canonical", parsed)
                 for k, c in enumerate(canonicals)]
        try:
            realization = CanonicalRealization(table, exprs)
        except ExprError as exc:
            raise ProblemError(f"problem {name!r}: {exc}") from None
    solver = _object(data.get("solver", {}), "max_degree inverse_degree allow_log", "solver")
    try:
        ansatz = AnsatzSpec(_optional(solver, "max_degree", int, "solver", 2),
                            _optional(solver, "inverse_degree", int, "solver", 0),
                            _optional(solver, "allow_log", bool, "solver", False))
    except ExprError as exc:
        raise ProblemError(f"solver options: {exc}") from None
    flow_defaults = data.get("flow")
    if flow_defaults is not None:
        _object(flow_defaults, "observable init dt steps monitors", "flow")
        _optional(flow_defaults, "observable", str, "flow")
        for key in _optional(flow_defaults, "init", dict, "flow", {}):
            _optional(flow_defaults["init"], key, _NUMBER, "flow.init")
        _optional(flow_defaults, "dt", _NUMBER, "flow")
        _optional(flow_defaults, "steps", int, "flow")
        if "monitors" in flow_defaults:
            _str_list(flow_defaults["monitors"], "flow.monitors")
    return Problem(name=name, table=table, brackets=btable,
                   realization=realization, invertible=invertible,
                   ansatz=ansatz, flow_defaults=flow_defaults)


def load_problem(path) -> Problem:
    """Load and validate a problem file."""
    p = Path(path)
    if not p.is_file():
        raise ProblemError(f"problem file {str(p)!r} does not exist")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ProblemError(f"{p}: not valid JSON ({exc})") from None
    return build_problem(data)

