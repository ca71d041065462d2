"""Built-in corpus of six bracket algebras with known invariants.

Each entry is a complete problem document: the sphere constraint algebra and
the hydrogen atom ship with canonical realizations, the other four are
abstract tables.  The expected invariants are recorded in the test suite, not
here; the corpus holds only the input data.
"""

from __future__ import annotations

import json

from .problem import Problem, ProblemError, build_problem

_SPHERE = {
    "name": "sphere",
    "variables": {"pairs": 3, "parameters": ["R"]},
    "generators": [
        {"name": "H", "canonical": "1/2*(p1^2 + p2^2 + p3^2)"},
        {"name": "phi", "canonical": "q1^2 + q2^2 + q3^2 - R^2"},
        {"name": "V", "canonical": "q1*p1 + q2*p2 + q3*p3"},
    ],
    "brackets": [
        {"i": "H", "j": "phi", "expression": "-2*V"},
        {"i": "H", "j": "V", "expression": "-2*H"},
        {"i": "phi", "j": "V", "expression": "2*phi + 2*R^2"},
    ],
    "solver": {"max_degree": 2, "inverse_degree": 0, "allow_log": False},
    "flow": {
        "observable": "V",
        "init": {"H": 1.0, "phi": 0.0, "V": 0.0, "R": 1.0},
        "dt": 0.001,
        "steps": 1000,
        "monitors": ["H*phi + R^2*H - 1/2*V^2"],
    },
}

_SKLYANIN = {
    "name": "sklyanin",
    "variables": {"parameters": ["a1", "a2", "a3", "b1", "b2", "b3"]},
    "generators": [{"name": "u1"}, {"name": "u2"}, {"name": "u3"},
                   {"name": "u4"}],
    "brackets": [
        {"i": "u1", "j": "u2", "expression": "-b1*u3*u4"},
        {"i": "u1", "j": "u3", "expression": "-b2*u2*u4"},
        {"i": "u1", "j": "u4", "expression": "-b3*u2*u3"},
        {"i": "u2", "j": "u3", "expression": "-a3*u1*u4"},
        {"i": "u2", "j": "u4", "expression": "-a2*u1*u3"},
        {"i": "u3", "j": "u4", "expression": "-a1*u1*u2"},
    ],
    "solver": {"max_degree": 2, "inverse_degree": 0, "allow_log": False},
}

_SPINCHAIN = {
    "name": "spinchain",
    "variables": {"parameters": ["a"], "invertible": ["u2"]},
    "generators": [{"name": "u1"}, {"name": "u2"}, {"name": "u3"},
                   {"name": "u4"}],
    "brackets": [
        {"i": "u1", "j": "u2", "expression": "-a/2*u2^2"},
        {"i": "u1", "j": "u3", "expression": "a*u1"},
        {"i": "u2", "j": "u3", "expression": "a*u2"},
    ],
    "solver": {"max_degree": 2, "inverse_degree": 1, "allow_log": False},
}

_GALILEI = {
    "name": "galilei",
    "variables": {"parameters": ["a", "b"], "invertible": ["u2"]},
    "generators": [{"name": "u1"}, {"name": "u2"}, {"name": "u3"}],
    "brackets": [
        {"i": "u1", "j": "u2", "expression": "-a/2*u2^2"},
        {"i": "u1", "j": "u3", "expression": "a*u1 + b*u2"},
        {"i": "u2", "j": "u3", "expression": "a*u2"},
    ],
    "solver": {"max_degree": 2, "inverse_degree": 1, "allow_log": True},
}

_NAPPI_WITTEN = {
    "name": "nappi-witten",
    "variables": {"parameters": ["a", "b"]},
    "generators": [{"name": "P1"}, {"name": "P2"}, {"name": "J"},
                   {"name": "T"}],
    "brackets": [
        {"i": "P1", "j": "P2", "expression": "T"},
        {"i": "P1", "j": "J", "expression": "-P2"},
        {"i": "P2", "j": "J", "expression": "P1"},
    ],
    "solver": {"max_degree": 2, "inverse_degree": 0, "allow_log": False},
}

_HYDROGEN = {
    "name": "hydrogen",
    "variables": {"pairs": 3, "parameters": ["m", "kappa"],
                  "algebraic": "rho"},
    "generators": [
        {"name": "H",
         "canonical": "1/(2*m)*(p1^2 + p2^2 + p3^2) - kappa/rho"},
        {"name": "L1", "canonical": "q2*p3 - q3*p2"},
        {"name": "L2", "canonical": "q3*p1 - q1*p3"},
        {"name": "L3", "canonical": "q1*p2 - q2*p1"},
        {"name": "M1", "canonical":
         "1/m*(q1*p2^2 + q1*p3^2 - q2*p1*p2 - q3*p1*p3) - kappa*q1/rho"},
        {"name": "M2", "canonical":
         "1/m*(q2*p1^2 + q2*p3^2 - q1*p1*p2 - q3*p2*p3) - kappa*q2/rho"},
        {"name": "M3", "canonical":
         "1/m*(q3*p1^2 + q3*p2^2 - q1*p1*p3 - q2*p2*p3) - kappa*q3/rho"},
    ],
    "brackets": [
        {"i": "L1", "j": "L2", "expression": "L3"},
        {"i": "L1", "j": "L3", "expression": "-L2"},
        {"i": "L2", "j": "L3", "expression": "L1"},
        {"i": "L1", "j": "M2", "expression": "M3"},
        {"i": "L1", "j": "M3", "expression": "-M2"},
        {"i": "L2", "j": "M1", "expression": "-M3"},
        {"i": "L2", "j": "M3", "expression": "M1"},
        {"i": "L3", "j": "M1", "expression": "M2"},
        {"i": "L3", "j": "M2", "expression": "-M1"},
        {"i": "M1", "j": "M2", "expression": "-2/m*H*L3"},
        {"i": "M1", "j": "M3", "expression": "2/m*H*L2"},
        {"i": "M2", "j": "M3", "expression": "-2/m*H*L1"},
    ],
    "solver": {"max_degree": 2, "inverse_degree": 0, "allow_log": False},
}

_CORPUS = {doc["name"]: doc for doc in
           (_SPHERE, _SKLYANIN, _SPINCHAIN, _GALILEI, _NAPPI_WITTEN,
            _HYDROGEN)}


def corpus_names() -> list[str]:
    """Names of the built-in problems, in presentation order."""
    return list(_CORPUS)


def corpus_data(name: str) -> dict:
    """Deep copy of the raw problem document for one corpus entry."""
    if name not in _CORPUS:
        known = ", ".join(corpus_names())
        raise ProblemError(f"unknown corpus problem {name!r}; "
                           f"available: {known}")
    return json.loads(json.dumps(_CORPUS[name]))


def corpus_problem(name: str) -> Problem:
    """Build and validate one corpus entry."""
    return build_problem(corpus_data(name))
