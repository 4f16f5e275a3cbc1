"""Separation of polarized isogeny classes inside one isogeny class for
abelian surfaces with real multiplication: totally positive elements of the
maximal order of a real quadratic field, modulo the equivalence
q ~ r  iff  q/r lies in Q^x * F^x2.

The equivalence test is a genuine decision procedure, not a search:
q/r is in Q^x F^x2 exactly when Nm(q/r) = n^2 for a rational n, since
then (q/r) / n has norm 1 and is z / conj(z) = z^2 / Nm(z) for some z
(Hilbert 90).  A positive answer carries an exact witness (n, u) with
n q = u^2 r, built by `quadfield.square_root_up_to_rational`, the routine
that gives the degree-bound solver its b; `exhaustive_witness_search`
re-derives a negative answer by another route, in closed form.

`generate_classes` tests no pair: each representative after the class of
1 is totally positive and generates a prime above its own split prime p,
so its norm is p, and the class of 1 has norm 1.  A norm product of two is
p or p p' with p != p', never a square, so no two are equivalent and the
equivalence matrix is the identity by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exact import is_rational_square, primerange, rational_sqrt
from .quadfield import (
    QuadElem,
    QuadField,
    ResourceError,
    fundamental_unit,
    is_principal,
    is_totally_positive,
    kronecker_splitting,
    prime_above,
    roots_mod_p,
    square_root_up_to_rational,
)


class HeckeError(ValueError):
    pass


@dataclass(frozen=True)
class PolClassRep:
    """A totally positive element of the maximal order, tagged with the
    split prime that produced it (when any); its field is `q.field`."""

    q: QuadElem
    source_prime: int | None = None

    def __post_init__(self):
        if not self.q.is_integral():
            raise HeckeError("representative must lie in the maximal order")
        if not is_totally_positive(self.q):
            raise HeckeError("representative must be totally positive")


def rosati_transport_check(q: QuadElem, r: QuadElem, u: QuadElem, n) -> bool:
    """n * q == u^2 * r, exactly."""
    if u.is_zero() or n == 0:
        return False
    lhs = q * Fraction(n)
    rhs = u * u * r
    return (lhs - rhs).is_zero()


def equivalent(q: PolClassRep | QuadElem, r: PolClassRep | QuadElem) -> bool:
    """q/r in Q^x F^x2, decided exactly: by Hilbert 90 (see the module
    docstring), exactly when Nm(q/r) is a rational square."""
    q = q.q if isinstance(q, PolClassRep) else q
    r = r.q if isinstance(r, PolClassRep) else r
    if q.field != r.field:
        raise HeckeError("elements of different fields")
    if q.is_zero() or r.is_zero():
        raise HeckeError("zero element")
    # Nm(q/r) = Nm(q)/Nm(r) is a square iff Nm(q)*Nm(r) is, tested before
    # any division, in int: (a, b) are the coordinates of d q, and scaling
    # q by d scales Nm(q) by d^2, which keeps the square test
    F = q.field
    return is_rational_square(F.norm_form(q.a, q.b) * F.norm_form(r.a, r.b))


def equivalence_witness(q: QuadElem, r: QuadElem) -> tuple[int, QuadElem] | None:
    """(n, u) with n q = u^2 r, n a nonzero integer and u integral, when
    q/r is in Q^x F^x2 (`equivalent`); None otherwise."""
    if not equivalent(q, r):
        return None
    # b^2 r = m q; t the denominator of m clears it: n = m t^2, u = b t
    root = square_root_up_to_rational(r / q)
    if root is None:
        raise HeckeError("internal: a quotient of square norm is not in Q^x F^x2")
    b, m, _ = root
    t = m.denominator
    n, u = m * t * t, b * t
    if not rosati_transport_check(q, r, u, n):
        raise HeckeError("internal: witness failed verification")
    return int(n), u


def exhaustive_witness_search(
    q: QuadElem, r: QuadElem, height: int
) -> tuple[Fraction, QuadElem] | None:
    """Independent bounded check: the first u in x-then-y order over
    integral coordinates with |coords| <= height such that n = u^2 r / q
    is rational and nonzero, or None.

    Since 1/q = conj(q) / Nm(q) with Nm(q) rational, u^2 r / q is rational
    iff the w-coordinate of u^2 s vanishes, s = r conj(q).  Scaling q and r
    to integer coordinates scales s to c + d w by a positive integer, and
    for u = x + y w that w-coordinate is the binary form
    d x^2 + 2 (c + t d) x y + (t (c + t d) - nw d) y^2, whose zeros lie on
    at most two rational lines: O(1) per pair at any height.  Some height
    has a witness exactly when `equivalent` says yes, so on a negative pair
    only a bug can make this disagree; what it checks independently is the
    route (integer coordinates, the form, a witness verified as u^2 r / q),
    not the square test of the norm product."""
    if height < 0:
        raise HeckeError("height must be >= 0")
    if q.is_zero():
        raise HeckeError("zero element")
    F = q.field
    t, nw = F.w_trace, F.w_norm
    qa, qb, ra, rb = q.a, q.b, r.a, r.b
    # s = r * conj(q), conj(qa + qb w) = (qa + t qb) - qb w
    qc = qa + t * qb
    c = ra * qc + rb * qb * nw
    d = rb * qc - ra * qb - rb * qb * t
    if c == 0 and d == 0:
        return None
    ctd = c + t * d
    # B^2 - 4 A C = 4 ctd^2 - 4 d (t ctd - nw d) = 4 Nm(s): the form splits
    # into rational lines iff Nm(s) = n^2, x d = (+-n - ctd) y or c y (2 x + t y)
    root = rational_sqrt(F.norm_form(c, d))
    if root is None:
        return None
    lines = [(e * root.numerator - ctd, d) for e in (1, -1)] if d else [(1, 0), (-t, 2)]
    points = []
    for a, b in lines:
        g = gcd(a, b)
        a, b = a // g, b // g
        k = height // max(abs(a), abs(b))
        points += [(k * a, k * b), (-k * a, -k * b)] if k else []
    if not points:
        return None
    x, y = min(points)
    u = QuadElem(F, x, y)
    cand = u * u * r / q
    if not cand.is_rational() or cand.is_zero():
        raise HeckeError("internal: integer witness test disagrees with u^2 r / q")
    return cand.as_rational(), u


# the default bound on the split primes `generate_classes` tries
PRIME_CAP = 10_000


def generate_classes(field: QuadField, count: int, prime_cap: int = PRIME_CAP) -> list[PolClassRep]:
    """`count` pairwise-inequivalent totally positive representatives:
    the class of 1, then one class per split rational prime with a
    principal, totally-positive-adjustable prime above it, inequivalent
    by their norms (see the module docstring)."""
    if count < 1:
        raise HeckeError("count must be >= 1")
    if not field.is_real:
        raise HeckeError("the construction needs a real quadratic field")
    reps = [PolClassRep(field.one(), None)]
    if count == 1:
        return reps
    eps = fundamental_unit(field)
    last_p = None
    for p in primerange(2, prime_cap):
        last_p = p
        if kronecker_splitting(field, p) != "split":  # primerange yields primes
            continue
        pr = prime_above(field, p, roots_mod_p(field, p)[0])
        g = is_principal(pr, eps)
        if g is None:
            continue
        g_pos = _make_totally_positive(g, eps)
        if g_pos is None:
            continue
        reps.append(PolClassRep(g_pos, p))
        if len(reps) == count:
            return reps
    raise ResourceError(
        f"could not find {count} classes below the prime cap (last prime tried: {last_p})"
    )


def _make_totally_positive(g: QuadElem, eps: QuadElem) -> QuadElem | None:
    """Adjust a nonzero generator by -1 and the fundamental unit to make it
    totally positive; None when the signature pattern is unreachable (norm
    +1 units) or g is not integral.  The first totally positive one of g,
    -g, g eps, -g eps, in integer coordinates: -1 flips both signs, so one
    of +-g is totally positive iff Nm(g) > 0, and then it is the one with a
    positive trace; g eps is formed only when Nm(g) < 0."""
    if not g.is_integral():
        return None
    F = g.field
    t, nw = F.w_trace, F.w_norm
    x, y = g.a, g.b
    if F.norm_form(x, y) < 0:
        ex, ey = eps.a, eps.b
        x, y = x * ex - y * ey * nw, x * ey + y * ex + y * ey * t
        if F.norm_form(x, y) < 0:
            return None
    if 2 * x + t * y < 0:
        x, y = -x, -y
    return QuadElem(F, x, y)
