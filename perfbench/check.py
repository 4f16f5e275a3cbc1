"""Response checker for the benchmark, in its own exact arithmetic.

Nothing here imports polarith: every certificate is re-checked with the
small rational, quadratic-field and quaternion arithmetic below, so a bug
in the library's own verifier cannot hide a wrong answer.

`check_response` returns None for a correct response and a one-line reason
otherwise.  Byte-exact comparison is used wherever the reference records the
whole output (the `forms` and `hecke` verbs); certificate checks are used for
the solver verbs, whose outputs a faster route may legitimately change.
"""

from __future__ import annotations

import json
from fractions import Fraction


# ---------------------------------------------------------------------------
# Quadratic fields Q(sqrt D), elements x + y w in the (1, w) basis of the
# maximal order, w^2 = t w - nw with t = disc, nw = (disc^2 - disc) / 4.


def field_constants(D: int) -> tuple[int, int]:
    disc = D if D % 4 == 1 else 4 * D
    return disc, (disc * disc - disc) // 4


def qmul(D: int, u, v):
    t, nw = field_constants(D)
    yy = u[1] * v[1]
    return (u[0] * v[0] - yy * nw, u[0] * v[1] + u[1] * v[0] + yy * t)


def qconj(D: int, u):
    t, _ = field_constants(D)
    return (u[0] + u[1] * t, -u[1])


def qnorm(D: int, u) -> Fraction:
    t, nw = field_constants(D)
    return u[0] * u[0] + u[0] * u[1] * t + u[1] * u[1] * nw


def qelem(doc) -> tuple[Fraction, Fraction]:
    return (Fraction(doc[0]), Fraction(doc[1]))


# ---------------------------------------------------------------------------
# Quaternion algebras (a, b / Q): i^2 = a, j^2 = b, k = ij.


def hmul(a, b, x, y):
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
        x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
        x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    )


def hconj(x):
    return (x[0], -x[1], -x[2], -x[3])


# ---------------------------------------------------------------------------
# Rational matrices


def rmat(doc) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in doc]


def mmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def mtrans(a):
    return [list(r) for r in zip(*a)]


def mdet(a) -> Fraction:
    m = [row[:] for row in a]
    n = len(m)
    d = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            d = -d
        d *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return d


def minv(a):
    n = len(a)
    m = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for k in range(n):
        piv = next(i for i in range(k, n) if m[i][k] != 0)
        m[k], m[piv] = m[piv], m[k]
        pk = m[k][k]
        m[k] = [x / pk for x in m[k]]
        for i in range(n):
            if i != k and m[i][k] != 0:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return [row[n:] for row in m]


def p_integral(x: Fraction, p: int) -> bool:
    return Fraction(x).denominator % p != 0


def scalar_of(m) -> Fraction | None:
    """c when m = c I, else None."""
    c = m[0][0]
    n = len(m)
    if all(m[i][j] == (c if i == j else 0) for i in range(n) for j in range(n)):
        return c
    return None


# ---------------------------------------------------------------------------
# Per-verb checks


def _check_degree_bound(inp: dict, out: dict) -> str | None:
    inst = inp["instance"]
    alg = inst["algebra"]
    try:
        value = out["value"]
        norm_b = Fraction(out["norm_b"])
        b_doc = out["b"]
    except (KeyError, ValueError, TypeError):
        return "degree-bound: missing or malformed b/value/norm_b"
    if not isinstance(value, int) or isinstance(value, bool) or value == 0:
        return "degree-bound: value is not a nonzero integer"
    if alg["type"] == "quadfield":
        D = alg["D"]
        b = qelem(b_doc)
        q = qelem(inst["q"])
        if b[0].denominator != 1 or b[1].denominator != 1:
            return "degree-bound: b is not in the maximal order"
        # identity involution: b^dagger q b = b^2 q
        bqb = qmul(D, qmul(D, b, b), q)
        if bqb != (Fraction(value), Fraction(0)):
            return "degree-bound: b^dagger q b != value"
        if abs(qnorm(D, b)) != norm_b:
            return "degree-bound: Nm(b) != norm_b"
    elif alg["type"] == "matrix":
        b = rmat(b_doc)
        q = rmat(inst["q"])
        if any(x.denominator != 1 for row in b for x in row):
            return "degree-bound: b is not in M_n(Z)"
        if scalar_of(mmul(mmul(mtrans(b), q), b)) != value:
            return "degree-bound: b^T q b != value * I"
        if abs(mdet(b)) ** alg.get("gamma", 1) != norm_b:
            return "degree-bound: Nm(b) != norm_b"
    else:
        return f"degree-bound: no checker for algebra type {alg['type']!r}"
    return None


def _check_local_solve(inp: dict, out: dict) -> str | None:
    p = inp["p"]
    q = rmat(inp["q"])
    m_prime = Fraction(inp["m_prime"])
    try:
        b = rmat(out["b"])
    except (KeyError, ValueError, TypeError):
        return "local-solve: missing or malformed b"
    if not all(p_integral(x, p) for row in b for x in row):
        return "local-solve: b is not p-integral"
    if scalar_of(mmul(mmul(mtrans(b), q), b)) != m_prime:
        return "local-solve: b^T q b != m' I"
    if Fraction(out.get("value", "0")) != m_prime:
        return "local-solve: reported value != m'"
    return None


def _check_maximal_lattice(inp: dict, out: dict) -> str | None:
    p = inp["p"]
    if out.get("contains_input") is not True or out.get("maximal") is not True:
        return "maximal-lattice: contains_input and maximal must both be true"
    try:
        basis = rmat(out["basis"])
        gram = rmat(out["gram"])
    except (KeyError, ValueError, TypeError):
        return "maximal-lattice: missing or malformed basis/gram"
    g = rmat(inp["form"]["gram"])
    if mmul(mmul(mtrans(basis), g), basis) != gram:
        return "maximal-lattice: gram != basis^T G basis"
    if mdet(basis) == 0:
        return "maximal-lattice: singular basis"
    coords = mmul(minv(basis), rmat(inp["basis"]))
    if not all(p_integral(x, p) for row in coords for x in row):
        return "maximal-lattice: output lattice does not contain the input"
    return None


def _check_hecke(inp: dict, out: dict) -> str | None:
    D = inp["D"]
    try:
        reps = [qelem(r["coords"]) for r in out["representatives"]]
        witnesses = out["witnesses"]
    except (KeyError, ValueError, TypeError):
        return "hecke-classes: missing or malformed representatives/witnesses"
    t, _ = field_constants(D)
    for rep, doc in zip(reps, out["representatives"]):
        if rep[0].denominator != 1 or rep[1].denominator != 1:
            return "hecke-classes: representative outside the maximal order"
        nrm = qnorm(D, rep)
        # both embeddings positive iff norm and trace are positive
        if nrm <= 0 or 2 * rep[0] + rep[1] * t <= 0:
            return "hecke-classes: representative is not totally positive"
        if Fraction(doc["norm"]) != nrm:
            return "hecke-classes: reported norm is wrong"
    for w in witnesses:
        n = Fraction(w["n"])
        u = qelem(w["u"])
        if n == 0 or u == (0, 0):
            return "hecke-classes: degenerate witness"
        lhs = (n * reps[w["i"]][0], n * reps[w["i"]][1])
        rhs = qmul(D, qmul(D, u, u), reps[w["j"]])
        if lhs != rhs:
            return f"hecke-classes: witness ({w['i']}, {w['j']}) fails n q = u^2 r"
    return None


CERTIFICATE_CHECKS = {
    "degree-bound": _check_degree_bound,
    "local-solve": _check_local_solve,
    "maximal-lattice": _check_maximal_lattice,
    "hecke-classes": _check_hecke,
}


def check_response(request: dict, ref: dict, code: int, stdout: str) -> str | None:
    """None when the response is correct, else the reason it is not.

    `ref` is the reference recorded for this request: its exit code, and
    either the whole expected stdout or, for the degree-bound solver, the
    reference norm_b and method.
    """
    if code != ref["exit"]:
        return f"exit code {code}, expected {ref['exit']}"
    if "stdout" in ref and stdout != ref["stdout"]:
        return "output differs from the reference bytes"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    if not isinstance(out, dict) or "error" in out:
        return "error response"
    check = CERTIFICATE_CHECKS.get(request["verb"])
    return check(request["input"], out) if check else None


def worse_bound(ref: dict, stdout: str) -> bool:
    """A degree-bound response whose norm_b exceeds the reference norm_b."""
    return Fraction(json.loads(stdout)["norm_b"]) > Fraction(ref["norm_b"])
