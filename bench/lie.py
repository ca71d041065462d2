"""Lie-Poisson problem documents for gl(n) and so(n), built from structure constants.

The linear bracket {u_a, u_b} = sum_c C_ab^c u_c of a Lie algebra is always a
Poisson structure, and its Casimirs are known in closed form, so these tables
are ground truth for the benchmark:

- gl(n), generators x_ij with {x_ij, x_kl} = d_jk x_il - d_li x_kj; Casimirs
  tr X^k for k = 1..n, where X is the matrix (x_ij).  Rank n^2 - n.
- so(n), generators L_ij (i < j, L_ji = -L_ij) with
  {L_ij, L_kl} = d_jk L_il - d_ik L_jl - d_jl L_ik + d_il L_jk; the quadratic
  Casimir sum L_ij^2; for so(4) also the Pfaffian L12*L34 - L13*L24 +
  L14*L23, and for so(5) the quartic sum_i Pf_i^2, where Pf_i is the
  Pfaffian of L with row and column i removed.  Rank n(n-1)/2 - floor(n/2).

gl(n) can also carry its Jordan-Schwinger realization x_ij = q_j*p_i in n
canonical pairs, which closes on the table under the package's canonical
bracket.

Run `python3 bench/lie.py` from the repository root for the self-test: every
generated table passes `plq verify` (closure included for realized tables),
every listed Casimir passes `plq check`, and a non-invariant generator fails
it.
"""

from __future__ import annotations

from itertools import product

# Expected (rank, corank) of each generated table, from the Lie theory above.
EXPECTED_RANK = {"gl3": (6, 3), "so4": (4, 2), "so5": (8, 2)}


def _linear(terms: dict[str, int]) -> str:
    """Integer linear combination of generator names, in the package grammar."""
    parts = []
    for name, c in terms.items():
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        parts.append(f"{sign} {mag}{name}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _document(name: str, gens: list[str], bracket,
              realization: dict[str, str] | None = None, pairs: int = 0) -> dict:
    """Problem document whose table stores {g_a, g_b} for a < b."""
    brackets = []
    for a, b in product(range(len(gens)), repeat=2):
        if a >= b:
            continue
        terms: dict[str, int] = {}
        for g, c in bracket(gens[a], gens[b]):
            terms[g] = terms.get(g, 0) + c
        if any(terms.values()):
            brackets.append({"i": gens[a], "j": gens[b],
                             "expression": _linear(terms)})
    generators = [{"name": g} for g in gens]
    if realization:
        for entry in generators:
            entry["canonical"] = realization[entry["name"]]
    return {"name": name,
            "variables": {"pairs": pairs, "parameters": []},
            "generators": generators,
            "brackets": brackets,
            "solver": {"max_degree": 2, "inverse_degree": 0,
                       "allow_log": False}}


def gl_document(n: int, realized: bool = False) -> dict:
    """gl(n) Lie-Poisson table over generators x11, x12, ..., xnn, optionally
    with the realization x_ij = q_j*p_i."""
    gens = [f"x{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]

    def bracket(a: str, b: str):
        i, j, k, l = int(a[1]), int(a[2]), int(b[1]), int(b[2])
        if j == k:
            yield f"x{i}{l}", 1
        if l == i:
            yield f"x{k}{j}", -1

    realization = {g: f"q{g[2]}*p{g[1]}" for g in gens} if realized else None
    return _document(f"gl{n}", gens, bracket, realization,
                     pairs=n if realized else 0)


def _so_name(i: int, j: int) -> tuple[str, int]:
    """Generator name and sign of L_ij, using L_ji = -L_ij."""
    return (f"L{i}{j}", 1) if i < j else (f"L{j}{i}", -1)


def so_document(n: int) -> dict:
    """so(n) Lie-Poisson table over generators L12, L13, ..., L(n-1)n."""
    gens = [f"L{i}{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]

    def bracket(a: str, b: str):
        i, j, k, l = int(a[1]), int(a[2]), int(b[1]), int(b[2])
        for delta, (p, q), sign in (((j, k), (i, l), 1), ((i, k), (j, l), -1),
                                    ((j, l), (i, k), -1), ((i, l), (j, k), 1)):
            if delta[0] == delta[1] and p != q:
                g, s = _so_name(p, q)
                yield g, sign * s

    return _document(f"so{n}", gens, bracket)


def gl_casimirs(n: int) -> list[str]:
    """tr X, tr X^2, ..., tr X^n as expanded polynomials."""
    out = []
    for k in range(1, n + 1):
        terms = []
        for idx in product(range(1, n + 1), repeat=k):
            cyc = idx + idx[:1]
            terms.append("*".join(f"x{cyc[m]}{cyc[m + 1]}" for m in range(k)))
        out.append(" + ".join(terms))
    return out


def _pfaffian4(a: int, b: int, c: int, d: int) -> str:
    return f"L{a}{b}*L{c}{d} - L{a}{c}*L{b}{d} + L{a}{d}*L{b}{c}"


def so_casimirs(n: int) -> list[str]:
    """The quadratic Casimir, plus the Pfaffian for so(4) and the sum of
    squared principal 4x4 Pfaffians for so(5)."""
    out = [" + ".join(f"L{i}{j}^2" for i in range(1, n + 1)
                      for j in range(i + 1, n + 1))]
    if n == 4:
        out.append(_pfaffian4(1, 2, 3, 4))
    if n == 5:
        out.append(" + ".join(
            f"({_pfaffian4(*(k for k in range(1, 6) if k != i))})^2"
            for i in range(1, 6)))
    return out


def documents() -> dict[str, tuple[dict, list[str]]]:
    """Every table the benchmark uses, with its known Casimirs."""
    return {"gl2": (gl_document(2, realized=True), gl_casimirs(2)),
            "gl3": (gl_document(3), gl_casimirs(3)),
            "so4": (so_document(4), so_casimirs(4)),
            "so5": (so_document(5), so_casimirs(5))}


def _self_test() -> int:
    import contextlib
    import io
    import json
    import sys
    import tempfile
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from plq.cli import main

    failures = 0
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        for name, (doc, casimirs) in documents().items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc))
            # The second generator (x12, L13) is not an invariant.
            not_invariant = doc["generators"][1]["name"]
            runs = [(["verify", str(path)], 0)]
            runs += [(["check", str(path), "--invariant", c], 0)
                     for c in casimirs]
            runs.append((["check", str(path), "--invariant", not_invariant], 1))
            for argv, want in runs:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                status = "ok" if code == want else \
                    f"FAILED (exit {code}, expected {want})"
                print(f"{name}: {' '.join(argv[:1] + argv[2:])}: {status}")
                failures += code != want
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(_self_test())
