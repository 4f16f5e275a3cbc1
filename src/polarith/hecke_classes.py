"""Separation of polarized isogeny classes inside one isogeny class for
abelian surfaces with real multiplication: totally positive elements of the
maximal order of a real quadratic field, modulo the equivalence
q ~ r  iff  q/r lies in Q^x * F^x2.

The equivalence test is a genuine decision procedure, not a search:
q/r is in Q^x F^x2 exactly when Nm(q/r) = n^2 for a rational n, since
then (q/r) / n has norm 1 and is z / conj(z) = z^2 / Nm(z) for some z
(Hilbert 90).  A positive answer carries an exact witness (n, u) with
n q = u^2 r, built by `quadfield.square_root_up_to_rational`, the routine
that gives the degree-bound solver its b; a negative answer can be
cross-checked by the exhaustive bounded witness search below.

`generate_classes` keeps a representative only once it is decided
inequivalent to every earlier one, so each pair of its classes is decided
once, there, and their equivalence matrix is the identity by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .exact import is_rational_square, primerange
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
    split prime that produced it (when any)."""

    field: QuadField
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
    # any division, in int: scaling q by m scales Nm(q) by m^2, so integer
    # coordinates keep the square test
    F = q.field
    return is_rational_square(F.norm_form(*_integer_coords(q)) * F.norm_form(*_integer_coords(r)))


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
    """Independent bounded check: u over integral coordinates with
    |coords| <= height, n = u^2 r / q rational.  Returns the first witness
    or None; used to confirm negative `equivalent` answers.

    Since 1/q = conj(q) / Nm(q) with Nm(q) rational, u^2 r / q is rational
    iff the w-coordinate of u^2 s vanishes, s = r conj(q).  Scaling q and r
    to integer coordinates scales s to c + d w by a positive integer, and
    for u = x + y w that w-coordinate is the binary form
    d x^2 + 2 (c + t d) x y + (t (c + t d) - nw d) y^2: one integer test per
    point."""
    if height < 0:
        raise HeckeError("height must be >= 0")
    if q.is_zero():
        raise HeckeError("zero element")
    F = q.field
    t, nw = F.w_trace, F.w_norm
    qa, qb = _integer_coords(q)
    ra, rb = _integer_coords(r)
    # s = r * conj(q), conj(qa + qb w) = (qa + t qb) - qb w
    qc = qa + t * qb
    c = ra * qc + rb * qb * nw
    d = rb * qc - ra * qb - rb * qb * t
    if c == 0 and d == 0:
        return None
    ctd = c + t * d
    xy_coef, yy_coef = 2 * ctd, t * ctd - nw * d
    for x in range(-height, height + 1):
        xx_term, xy_x = d * x * x, xy_coef * x
        for y in range(-height, height + 1):
            if xx_term + (xy_x + yy_coef * y) * y == 0 and (x or y):
                u = QuadElem(F, Fraction(x), Fraction(y))
                cand = u * u * r / q
                if not cand.is_rational() or cand.is_zero():
                    raise HeckeError("internal: integer witness test disagrees with u^2 r / q")
                return cand.as_rational(), u
    return None


# the default bound on the split primes `generate_classes` tries
PRIME_CAP = 10_000

# the most points `exhaustive_witness_search` may test for one hecke-classes
# request: (2 height + 1)^2 per pair, about 2 s of search at the limit
MAX_CONFIRMATION_POINTS = 10**7


def check_confirmation_budget(count: int, height: int) -> None:
    """Refuse, before any search, a negative confirmation of the
    count (count - 1) / 2 pairs of `count` classes at `height` that would
    test more than MAX_CONFIRMATION_POINTS points."""
    points = count * (count - 1) // 2 * (2 * height + 1) ** 2 if height else 0
    if points > MAX_CONFIRMATION_POINTS:
        raise ResourceError(
            f"confirming {count} classes at height {height} tests {points} points, "
            f"above the limit of {MAX_CONFIRMATION_POINTS} points"
        )


def _integer_coords(e: QuadElem) -> tuple[int, int]:
    """The coordinates of m e for the least positive integer m that makes
    them integers."""
    m = lcm(e.x.denominator, e.y.denominator)
    return e.x.numerator * (m // e.x.denominator), e.y.numerator * (m // e.y.denominator)


def generate_classes(field: QuadField, count: int, prime_cap: int = PRIME_CAP) -> list[PolClassRep]:
    """`count` pairwise-inequivalent totally positive representatives:
    the class of 1, then one class per split rational prime with a
    principal, totally-positive-adjustable prime above it, kept only if
    `equivalent` rejects it against every earlier representative."""
    if count < 1:
        raise HeckeError("count must be >= 1")
    if not field.is_real:
        raise HeckeError("the construction needs a real quadratic field")
    reps = [PolClassRep(field, field.one(), None)]
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
        rep = PolClassRep(field, g_pos, p)
        if any(equivalent(rep, old) for old in reps):
            continue
        reps.append(rep)
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
    x, y = g.x.numerator, g.y.numerator
    if F.norm_form(x, y) < 0:
        ex, ey = eps.x.numerator, eps.y.numerator
        x, y = x * ex - y * ey * nw, x * ey + y * ex + y * ey * t
        if F.norm_form(x, y) < 0:
            return None
    if 2 * x + t * y < 0:
        x, y = -x, -y
    return QuadElem(F, Fraction(x), Fraction(y))
