"""Exact rational invariants: p-adic valuations, square classes, Hilbert
symbols and Hasse invariants over Q.

Conventions
-----------
* The Hilbert symbol sigma(a, b, v) is +1 iff z^2 = a x^2 + b y^2 has a
  solution (x, y, z) != (0, 0, 0) over the completion of Q at v.
* The Hasse invariant of a diagonal form <a_1, ..., a_n> at v is the
  product over i < j of sigma(a_i, a_j, v).  Two conventions circulate in
  the literature (i < j versus i <= j); this package uses i < j, which is
  the one compatible with the direct-sum rule
  s(f + g) = s(f) s(g) sigma(det f, det g).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from sympy import factorint, isprime


class ExactError(ValueError):
    pass


@dataclass(frozen=True)
class LocalPlace:
    """A place of Q: a finite prime p, or the real place (p is None)."""

    p: int | None

    def __post_init__(self):
        if self.p is not None and not isprime(self.p):
            raise ExactError(f"{self.p} is not prime")

    @classmethod
    def finite(cls, p: int) -> "LocalPlace":
        return cls(p)

    @property
    def is_real(self) -> bool:
        return self.p is None

    def __repr__(self):
        return "oo" if self.p is None else f"p{self.p}"

    def __lt__(self, other):  # real place sorts last
        if self.p is None:
            return False
        if other.p is None:
            return True
        return self.p < other.p


REAL_PLACE = LocalPlace(None)


@dataclass(frozen=True)
class SquareClassQ:
    """A class in Q^x / (Q^x)^2, stored as its squarefree integer
    representative (sign included)."""

    representative: int

    def __post_init__(self):
        if self.representative == 0:
            raise ExactError("zero has no square class")
        n = abs(self.representative)
        for q, e in factorint(n).items():
            if e >= 2:
                raise ExactError(f"{self.representative} is not squarefree")

    def __mul__(self, other: "SquareClassQ") -> "SquareClassQ":
        return square_class(Fraction(self.representative * other.representative))

    @property
    def is_trivial(self) -> bool:
        return self.representative == 1


def _local_data(x, p: int) -> tuple[int, int]:
    """(v_p(x), residue of the unit part of x mod p, or mod 8 at p = 2) for
    a nonzero int or Fraction x.  p must already be known to be prime."""
    n, d = x.numerator, x.denominator
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    m = 8 if p == 2 else p
    return v, (n if d == 1 else n * pow(d, -1, m)) % m


def valuation(x: Fraction | int, p: int) -> int:
    """v_p(x) for x a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise ExactError("valuation of zero is undefined")
    if not isprime(p):
        raise ExactError(f"{p} is not prime")
    return _local_data(x, p)[0]


def unit_part(x: Fraction | int, p: int) -> Fraction:
    """x / p^{v_p(x)}."""
    return Fraction(x) / Fraction(p) ** valuation(x, p)


def unit_residue(x: Fraction | int, p: int, modulus: int | None = None) -> int:
    """The residue of the p-adic unit part of x modulo `modulus` (default p)."""
    if modulus is None:
        modulus = p
    u = unit_part(x, p)
    return u.numerator * pow(u.denominator, -1, modulus) % modulus


def square_class(x: Fraction | int) -> SquareClassQ:
    """Squarefree representative of x modulo rational squares."""
    x = Fraction(x)
    if x == 0:
        raise ExactError("zero has no square class")
    n = x.numerator * x.denominator
    rep = -1 if n < 0 else 1
    for q, e in factorint(abs(n)).items():
        if e % 2:
            rep *= q
    return SquareClassQ(rep)


def rational_sqrt(x: Fraction | int) -> Fraction | None:
    """The positive square root of x when x is a positive rational square,
    else None.  Reads x in lowest terms as int numerator and denominator,
    and builds a Fraction only for a root."""
    num, den = x.as_integer_ratio()
    if num <= 0:
        return None
    n, d = isqrt(num), isqrt(den)
    if n * n != num or d * d != den:
        return None
    return Fraction(n, d)


def is_rational_square(x: Fraction | int) -> bool:
    return rational_sqrt(x) is not None


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p, a coprime to p."""
    a %= p
    if a == 0:
        raise ExactError("legendre symbol needs a unit")
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod_p(a: int, p: int) -> int:
    """The square root x of a modulo the prime p with x <= p - x, by
    Tonelli-Shanks (Cohen, GTM 138, Alg. 1.5.1).  Raises ExactError when
    a is not a square mod p."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        raise ExactError(f"{a} is not a square mod {p}")
    # p - 1 = 2^e q with q odd; y = n^q for a non-square n generates the
    # 2-Sylow subgroup of (Z/p)^x
    q, e = p - 1, 0
    while q % 2 == 0:
        q, e = q // 2, e + 1
    n = 2
    while pow(n, (p - 1) // 2, p) != p - 1:
        n += 1
    y, r = pow(n, q, p), e
    x = pow(a, (q - 1) // 2, p)
    b, x = a * x * x % p, a * x % p
    # invariant: x^2 = a b, and b has order dividing 2^(r-1)
    while b != 1:
        m, b2 = 1, b * b % p
        while b2 != 1:
            m, b2 = m + 1, b2 * b2 % p
        t = pow(y, 1 << (r - m - 1), p)
        y, r = t * t % p, m
        x, b = x * t % p, b * y % p
    return min(x, p - x)


def lift_root(t: int, n: int, r: int, p: int, k: int) -> int:
    """Hensel lift of a simple root r of x^2 - t x + n modulo p to a root
    modulo p^k, by Newton's method with the precision doubling each step."""
    mod = p
    while mod < p**k:
        mod = min(mod * mod, p**k)
        r = (r - (r * r - t * r + n) * pow(2 * r - t, -1, mod)) % mod
    return r


def _hilbert_local(alpha: int, u: int, beta: int, w: int, p: int) -> int:
    """sigma(p^alpha u, p^beta w) at a finite prime p, for units u, w given
    by their residues mod p (mod 8 at p = 2)."""
    if p == 2:
        eps_u, eps_w = (u - 1) // 2, (w - 1) // 2
        e = eps_u * eps_w + alpha * ((w * w - 1) // 8) + beta * ((u * u - 1) // 8)
        return -1 if e % 2 else 1
    s = 1
    if alpha % 2 and beta % 2 and p % 4 == 3:
        s = -s
    if beta % 2:
        s *= legendre(u, p)
    if alpha % 2:
        s *= legendre(w, p)
    return s


def hilbert_symbol(a: Fraction | int, b: Fraction | int, v: LocalPlace) -> int:
    """sigma(a, b) at the place v, by the standard closed formulas."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ExactError("hilbert symbol needs nonzero arguments")
    if v.is_real:
        return -1 if (a < 0 and b < 0) else 1
    return _hilbert_local(*_local_data(a, v.p), *_local_data(b, v.p), v.p)


def hasse_invariant(diag: list[Fraction | int], v: LocalPlace) -> int:
    """prod_{i<j} sigma(a_i, a_j) at v for a diagonalized form <a_1, ..., a_n>.

    By bimultiplicativity this is prod_j sigma(a_1 ... a_{j-1}, a_j), so one
    pass suffices: each entry's valuation and unit residue are taken once,
    and the prefix a_1 ... a_{j-1} is carried as its valuation sum and
    residue product.  At the real place it is -1 to the number of pairs of
    negative entries."""
    if any(x == 0 for x in diag):
        raise ExactError("singular form: zero diagonal entry")
    if v.is_real:
        k = sum(1 for x in diag if x < 0)
        return -1 if k * (k - 1) // 2 % 2 else 1
    p = v.p
    m = 8 if p == 2 else p
    s, alpha, u = 1, 0, 1
    for x in diag:
        beta, w = _local_data(x, p)
        s *= _hilbert_local(alpha, u, beta, w, p)
        alpha, u = alpha + beta, u * w % m
    return s


def support_places(*values: Fraction | int) -> list[LocalPlace]:
    """Finite primes dividing any value's numerator or denominator, plus 2,
    plus the real place.  Hilbert symbols of the values are +1 elsewhere."""
    primes = {2}
    for x in set(values):
        x = Fraction(x)
        if x == 0:
            raise ExactError("support of zero")
        for n in (abs(x.numerator), x.denominator):
            primes.update(factorint(n).keys())
    places = [LocalPlace.finite(p) for p in sorted(primes)]
    places.append(REAL_PLACE)
    return places
