"""Separation of polarized isogeny classes inside one isogeny class for
abelian surfaces with real multiplication: totally positive elements of the
maximal order of a real quadratic field, modulo the equivalence
q ~ r  iff  q/r lies in Q^x * F^x2.

The equivalence test is a genuine decision procedure, not a search:
Nm(q/r) must be a rational square, which makes every ramified exponent of
the ideal of q/r even and the two exponents at each split prime congruent
mod 2; the square-root ideal must be principal up to ramified twists
(`quadfield.principalize_with_ramified_twists`), and the leftover unit
must be a square up to a rational factor supported on -1 and the ramified
primes (`quadfield.sqrt_twists`).  The degree-bound solver shares both
steps: the square-root ideal and the unit step.  A positive answer always
carries an exact witness (n, u) with n q = u^2 r; a negative answer can be
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
    QfIdeal,
    QuadElem,
    QuadField,
    ResourceError,
    fundamental_unit,
    is_principal,
    is_totally_positive,
    kronecker_splitting,
    prime_exponents,
    prime_above,
    principalize_with_ramified_twists,
    roots_mod_p,
    sqrt_twists,
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


def equivalence_witness(q: QuadElem, r: QuadElem) -> tuple[int, QuadElem] | None:
    """(n, u) with n q = u^2 r, n a nonzero integer and u integral, when
    q/r is in Q^x F^x2; None otherwise."""
    if q.field != r.field:
        raise HeckeError("elements of different fields")
    F = q.field
    if q.is_zero() or r.is_zero():
        raise HeckeError("zero element")
    # Nm(q/r) = Nm(q)/Nm(r) is a square iff Nm(q)*Nm(r) is: most pairs
    # are rejected here, before any division, in int: scaling q by m scales
    # Nm(q) by m^2, so integer coordinates keep the square test
    if not is_rational_square(F.norm_form(*_integer_coords(q)) * F.norm_form(*_integer_coords(r))):
        return None
    s = q / r
    # v_p(Nm s) is even at every p: a ramified exponent is even and the two
    # exponents at a split p agree mod 2, so the square root of (s c0) is an
    # ideal once c0 takes each p with an odd inert or split exponent
    c0 = Fraction(1)
    ideal_c = QfIdeal.unit_ideal(F)
    for p, _, exps in prime_exponents(s):
        odd = exps[0][1] % 2
        c0 *= p**odd
        for pr, e in exps:
            ideal_c = ideal_c * pr ** ((e + odd) // 2)
    if ideal_c * ideal_c != QfIdeal.principal(s * c0):
        raise HeckeError("internal: the square-root ideal does not square to (s c0)")
    # s n = u^2 with n rational makes (u) the square-root ideal times
    # ramified primes and a rational: with no principal twist, s is not in
    # Q^x F^x2
    gen = principalize_with_ramified_twists(ideal_c)
    if gen is None:
        return None
    x0, twist = gen
    c0 *= twist
    u0 = s * c0 / (x0 * x0)
    if not u0.is_unit():
        raise HeckeError("internal: unit bookkeeping failed")
    # try to absorb the unit: u0 * w must be a square for a rational w
    # supported on -1 and the ramified primes
    for w, y in sqrt_twists(u0):
        # s * (c0 w) = (x0 y)^2
        u = x0 * y
        n = c0 * w
        # clear denominators: n q = u^2 r with integer n, integral u
        t = lcm(u.x.denominator, u.y.denominator)
        t_n = Fraction(n * t * t)
        u_int = u * t
        extra = t_n.denominator
        u_int = u_int * extra
        n_int = t_n * extra * extra
        if n_int.denominator != 1:
            raise HeckeError("internal: witness scale is not an integer")
        if rosati_transport_check(q, r, u_int, n_int):
            return int(n_int), u_int
        raise HeckeError("internal: witness failed verification")
    return None


def equivalent(q: PolClassRep | QuadElem, r: PolClassRep | QuadElem) -> bool:
    """q/r in Q^x F^x2, decided exactly."""
    qe = q.q if isinstance(q, PolClassRep) else q
    re_ = r.q if isinstance(r, PolClassRep) else r
    return equivalence_witness(qe, re_) is not None


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


def generate_classes(
    field: QuadField, count: int, prime_cap: int = 10_000
) -> list[PolClassRep]:
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
