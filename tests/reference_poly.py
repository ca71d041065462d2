"""Reference polynomial arithmetic on exponent tuples, by definition.

Terms are dicts {exponent tuple: coefficient} over a `VarTable`, combined in
the same loops and insertion order as `plq.expr.Poly`, which keys its terms
by packed ints instead.  Graded lexicographic order is `(sum(e), e)`.
"""

from operator import add, sub

from plq.expr import _term_body, exact_div, normal_coeff


def grlex(e):
    return (sum(e), e)


def _exp_add(a, b):
    return tuple(map(add, a, b))


def _with(e, i, v):
    out = list(e)
    out[i] = v
    return tuple(out)


def zero(table):
    """The exponent tuple of a constant."""
    return (0,) * len(table)


def sigma_terms(table):
    return {_with(zero(table), qi, 2): 1 for qi in table.q_indices}


def reduce_algebraic(table, acc):
    """Terms with even powers of the algebraic element rewritten, zeros
    dropped and integral Fractions made ints."""
    ia = table.alg_index
    if ia is None or all(e[ia] <= 1 for e in acc):
        return {e: normal_coeff(c) for e, c in acc.items() if c != 0}
    sigma = sigma_terms(table)
    powers = {0: {zero(table): 1}}

    def sig_pow(k):
        if k not in powers:
            nxt = {}
            for e1, c1 in sig_pow(k - 1).items():
                for e2, c2 in sigma.items():
                    e = _exp_add(e1, e2)
                    nxt[e] = nxt.get(e, 0) + c1 * c2
            powers[k] = nxt
        return powers[k]

    out = {}
    for e, c in acc.items():
        k = e[ia]
        if k <= 1:
            out[e] = out.get(e, 0) + c
            continue
        half, rest = divmod(k, 2)
        base = _with(e, ia, rest)
        for es, cs in sig_pow(half).items():
            key = _exp_add(base, es)
            out[key] = out.get(key, 0) + c * cs
    return {e: normal_coeff(c) for e, c in out.items() if c != 0}


def plus(a, b):
    acc = dict(a)
    for e, c in b.items():
        s = acc.get(e, 0) + c
        if s == 0:
            acc.pop(e, None)
        else:
            acc[e] = normal_coeff(s)
    return acc


def minus(a, b):
    return plus(a, {e: -c for e, c in b.items()})


def times(table, a, b):
    acc = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = _exp_add(e1, e2)
            acc[e] = acc.get(e, 0) + c1 * c2
    return reduce_algebraic(table, acc)


def leading(terms):
    e = max(terms, key=grlex)
    return e, terms[e]


def monomial_content(table, terms):
    if not terms:
        return zero(table)
    return tuple(map(min, zip(*terms)))


def conjugate(table, p):
    """(a - b*rho, a^2 - sigma*b^2) for p = a + b*rho."""
    ia = table.alg_index
    a = {e: c for e, c in p.items() if e[ia] == 0}
    b_rho = {e: c for e, c in p.items() if e[ia] == 1}
    b = {_with(e, ia, 0): c for e, c in b_rho.items()}
    norm = minus(times(table, a, a), times(table, times(table, sigma_terms(table), b), b))
    return minus(a, b_rho), norm


def divide_exact(table, p, d):
    """Exact quotient p / d, or None when division leaves a remainder."""
    ia = table.alg_index
    if ia is not None and any(e[ia] for e in d):
        conj, norm = conjugate(table, d)
        q = None if not norm else divide_exact(table, times(table, p, conj), norm)
        return q if q is not None and times(table, q, d) == p else None
    rem = dict(p)
    quot = {}
    de, dc = leading(d)
    while rem:
        re = max(rem, key=grlex)
        qe = tuple(map(sub, re, de))
        if min(qe) < 0:
            return None
        qc = exact_div(rem[re], dc)
        quot[qe] = quot.get(qe, 0) + qc
        for e, c in d.items():
            e = _exp_add(e, qe)
            s = rem.get(e, 0) - normal_coeff(c * qc)
            if s == 0:
                rem.pop(e, None)
            else:
                rem[e] = normal_coeff(s)
    return reduce_algebraic(table, {e: c for e, c in quot.items() if c != 0})


def make(table, num, den):
    """(numerator, denominator) terms of the normal form of num / den."""
    one = {zero(table): 1}
    if den == one:
        return num, den
    if not num:
        return {}, one
    ia = table.alg_index
    if ia is not None and any(e[ia] for e in den):
        conj, den = conjugate(table, den)
        num = times(table, num, conj)
    if all(sum(e) == 0 for e in den):
        inv = exact_div(1, next(iter(den.values())))
        return {e: normal_coeff(c * inv) for e, c in num.items()}, one
    if num:
        exact = divide_exact(table, num, den)
        if exact is not None:
            return exact, one
    g = tuple(map(min, monomial_content(table, num), monomial_content(table, den)))
    if any(g):
        num = {tuple(map(sub, e, g)): c for e, c in num.items()}
        den = {tuple(map(sub, e, g)): c for e, c in den.items()}
    _, lc = leading(den)
    if lc != 1:
        inv = exact_div(1, lc)
        num = {e: normal_coeff(c * inv) for e, c in num.items()}
        den = {e: normal_coeff(c * inv) for e, c in den.items()}
    return num, den


def to_string(table, terms):
    """The printed form of a polynomial, terms in descending grlex order."""
    if not terms:
        return "0"
    pieces = []
    for k, e in enumerate(sorted(terms, key=grlex, reverse=True)):
        c = terms[e]
        body, bare_power = _term_body(table, e, c)
        if k == 0:
            pieces.append(("-1*" if bare_power else "-") + body if c < 0 else body)
        else:
            pieces.append((" - " if c < 0 else " + ") + body)
    return "".join(pieces)
