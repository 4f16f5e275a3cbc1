"""Real and imaginary quadratic fields: maximal orders, fractional ideals,
the prime exponents of an element, principality (up to ramified twists),
square roots up to a rational factor, units, total positivity.

An element is (a + b w) / d in the canonical integral basis (1, w),
w = (disc + sqrt(disc)) / 2, held as three ints with d > 0 and
gcd(a, b, d) = 1: arithmetic runs in int and ends with one gcd, equal
elements have equal triples, and the maximal order is exactly the set of
elements with d = 1.  Ideals are stored as a 2x2 integer row-HNF basis
over a positive denominator; equality is normalized basis equality, which
makes ideals hashable and suitable for golden tests.

A prime ideal (p, w - r) is written in row HNF in closed form, for a root
r of w's minimal polynomial mod p taken from a square root mod p
(`exact.sqrt_mod_p`).  Principality and the fundamental unit share one
walk in int on reduced binary quadratic forms, of at most MAX_CYCLE_STEPS
rho steps; a QuadElem is built only for the element returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, isqrt, lcm, prod

from .exact import (
    ResourceError,
    factorint,
    isprime,
    legendre,
    lift_root,
    rational_sqrt,
    sqrt_mod_p,
    square_class,
    valuation,
)
from .linalg import frac, hnf


class QuadFieldError(ValueError):
    pass


@dataclass(frozen=True)
class QuadField:
    """Q(sqrt(D)) for a squarefree integer D != 0, 1, and its ring
    descriptor (`linalg.Ring`): `conj` is field conjugation, so symmetric
    forms over F say at the form level that they use the identity."""

    D: int

    dim_q = 2

    def __post_init__(self):
        if self.D in (0, 1) or square_class(self.D) != self.D:
            raise QuadFieldError(f"D = {self.D} must be squarefree and != 0, 1")

    # disc, w_trace and w_norm are read by every element operation: each is
    # computed once per field
    @cached_property
    def disc(self) -> int:
        return self.D if self.D % 4 == 1 else 4 * self.D

    # the ramified primes, ascending: the twists of `sqrt_twists` and
    # `principalize_with_ramified_twists`
    @cached_property
    def ramified_primes(self) -> tuple[int, ...]:
        return tuple(sorted(factorint(abs(self.disc))))

    @property
    def is_real(self) -> bool:
        return self.D > 0

    # minimal polynomial of w is x^2 - disc*x + (disc^2 - disc)/4
    @cached_property
    def w_trace(self) -> int:
        return self.disc

    @cached_property
    def w_norm(self) -> int:
        return (self.disc * self.disc - self.disc) // 4

    def norm_form(self, x: int, y: int) -> int:
        """Nm(x + y w) for integers x, y: x^2 + t x y + nw y^2."""
        return x * x + self.w_trace * x * y + self.w_norm * y * y

    def one(self) -> "QuadElem":
        return _elem(self, 1, 0, 1)

    def zero(self) -> "QuadElem":
        return _elem(self, 0, 0, 1)

    def omega(self) -> "QuadElem":
        return _elem(self, 0, 1, 1)

    def sqrtD(self) -> "QuadElem":
        """The element sqrt(D) in (1, w) coordinates."""
        if self.D % 4 == 1:
            return _elem(self, -self.D, 2, 1)
        return _elem(self, -2 * self.D, 1, 1)

    def from_rational(self, x) -> "QuadElem":
        return QuadElem(self, x, 0)

    def from_sqrt_coords(self, s, t) -> "QuadElem":
        """The element s + t*sqrt(D)."""
        return self.from_rational(frac(s)) + self.sqrtD() * frac(t)

    def is_zero(self, x: "QuadElem") -> bool:
        return x.is_zero()

    def conj(self, x: "QuadElem") -> "QuadElem":
        return x.conj()

    def inv(self, x: "QuadElem") -> "QuadElem":
        return x.inv()

    def coerce(self, c) -> "QuadElem":
        return self.from_rational(c) if isinstance(c, (int, Fraction)) else c

    def to_qcoords(self, x: "QuadElem") -> list[Fraction]:
        return [x.x, x.y]

    def from_qcoords(self, coords) -> "QuadElem":
        return QuadElem(self, coords[0], coords[1])

    def __repr__(self):
        return f"Q(sqrt({self.D}))"


def _elem(field: QuadField, a: int, b: int, d: int) -> "QuadElem":
    """The element (a + b w) / d of `field`, d > 0, in lowest terms."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    e = object.__new__(QuadElem)
    e.field, e.a, e.b, e.d = field, a, b, d
    return e


class QuadElem:
    """The element (a + b w) / d of a quadratic field, held as three ints
    with d > 0 and gcd(a, b, d) = 1.  So equal elements have equal triples,
    which `==` and `hash` compare, and d is the least positive integer that
    makes d e integral.  Every operation works on the ints and reduces its
    result with one gcd; `x` = a / d and `y` = b / d are the coordinates as
    Fractions.  QuadElem(field, x, y) is x + y w for int or Fraction x, y."""

    __slots__ = ("field", "a", "b", "d")

    def __init__(self, field: QuadField, x, y):
        # x and y in lowest terms over the lcm of their denominators: no gcd
        xd, yd = x.denominator, y.denominator
        d = lcm(xd, yd)
        self.field, self.a, self.b, self.d = field, x.numerator * (d // xd), y.numerator * (d // yd), d

    @property
    def x(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def y(self) -> Fraction:
        return Fraction(self.b, self.d)

    def _check(self, other: "QuadElem"):
        if self.field is not other.field and self.field != other.field:
            raise QuadFieldError("elements of different fields")

    def __eq__(self, other):
        if not isinstance(other, QuadElem):
            return NotImplemented
        if self.a != other.a or self.b != other.b or self.d != other.d:
            return False
        return self.field is other.field or self.field == other.field

    def __hash__(self):
        return hash((self.field, self.a, self.b, self.d))

    def __add__(self, other):
        d = self.d
        if isinstance(other, (int, Fraction)):
            n, m = other.numerator, other.denominator
            return _elem(self.field, self.a * m + n * d, self.b * m, d * m)
        self._check(other)
        e = other.d
        return _elem(self.field, self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _elem(self.field, -self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return _elem(self.field, self.a * n, self.b * n, self.d * other.denominator)
        self._check(other)
        # w^2 = t w - nw
        F, a, b, c, e = self.field, self.a, self.b, other.a, other.b
        be = b * e
        return _elem(F, a * c - be * F.w_norm, a * e + b * c + be * F.w_trace, self.d * other.d)

    __rmul__ = __mul__

    def conj(self) -> "QuadElem":
        return _elem(self.field, self.a + self.b * self.field.w_trace, -self.b, self.d)

    def norm(self) -> Fraction:
        return Fraction(self.field.norm_form(self.a, self.b), self.d * self.d)

    def trace(self) -> Fraction:
        return Fraction(2 * self.a + self.b * self.field.w_trace, self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise QuadFieldError(f"{self} is not rational")
        return Fraction(self.a, self.d)

    def inv(self) -> "QuadElem":
        # 1 / ((a + b w) / d) = d conj(a + b w) / Nm(a + b w)
        F, a, b = self.field, self.a, self.b
        n = F.norm_form(a, b)
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        d = self.d if n > 0 else -self.d
        return _elem(F, (a + b * F.w_trace) * d, -b * d, abs(n))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * Fraction(other.denominator, other.numerator)
        self._check(other)
        return self * other.inv()

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        out = self.field.one()
        b = self
        while e:
            if e & 1:
                out = out * b
            b = b * b
            e >>= 1
        return out

    def is_integral(self) -> bool:
        return self.d == 1

    def is_unit(self) -> bool:
        return self.d == 1 and abs(self.field.norm_form(self.a, self.b)) == 1

    def sign_at(self, embedding: int) -> int:
        """Sign of the image under the two real embeddings (0: w -> (disc+sqrt)/2,
        1: w -> (disc-sqrt)/2).  Real fields only."""
        if not self.field.is_real:
            raise QuadFieldError("real embeddings need a real field")
        if self.is_zero():
            return 0
        # value = (A + B*sqrt(disc)) / 2d with A = 2a + b*disc, B = +-b, d > 0;
        # disc is not a square, so the terms never cancel and the larger sets the sign
        A = 2 * self.a + self.b * self.field.disc
        B = self.b if embedding == 0 else -self.b
        return 1 if (A if A * A > B * B * self.field.disc else B) > 0 else -1

    def __repr__(self):
        return f"({self.x} + {self.y}*w | D={self.field.D})"


def is_totally_positive(x: QuadElem) -> bool:
    """True iff both real embeddings of x are positive (real fields): the
    embeddings have the same sign iff Nm(x) > 0, and then that sign is the
    sign of Tr(x)."""
    if not x.field.is_real:
        raise QuadFieldError("total positivity is about real fields")
    if x.is_zero():
        raise QuadFieldError("zero is not totally positive")
    return x.norm() > 0 and x.trace() > 0


def is_square_in_field(x: QuadElem) -> bool:
    """Exact test for x in F^x2 (or x = 0)."""
    return sqrt_in_field(x) is not None


def sqrt_in_field(x: QuadElem) -> QuadElem | None:
    """A square root of x in F, or None."""
    if x.is_zero():
        return x.field.zero()
    if x.is_rational():
        c = x.as_rational()
        r = rational_sqrt(c)
        if r is not None:
            return x.field.from_rational(r)
        t = rational_sqrt(c * x.field.D)
        if t is not None:
            return x.field.sqrtD() * (t / x.field.D)
        return None
    n0sq = rational_sqrt(x.norm())
    if n0sq is None:
        return None
    for n0 in (n0sq, -n0sq):
        tau = rational_sqrt(x.trace() + 2 * n0)
        if tau is not None:
            y = (x + n0) / tau
            if y * y == x:
                return y
    return None


def sqrt_twists(x: QuadElem):
    """Yield (w, y) with y^2 = x * w, for w over the +-squarefree divisors of
    the discriminant in ascending |w|, +w before -w."""
    divisors = [1]
    for p in x.field.ramified_primes:
        divisors = divisors + [d * p for d in divisors]
    for d in sorted(divisors):
        for w in (d, -d):
            y = sqrt_in_field(x * w)
            if y is not None:
                yield w, y


# ---------------------------------------------------------------------------
# Ideals


@dataclass(frozen=True)
class QfIdeal:
    """Fractional ideal of the maximal order, as (1/den) * rowspan_Z(num)
    in (1, w) coordinates.  num is in row HNF with normalized content."""

    field: QuadField
    num: tuple[tuple[int, int], tuple[int, int]]
    den: int

    @classmethod
    def from_rows(cls, field: QuadField, rows: list[list[int]], den: int) -> "QfIdeal":
        h = hnf(rows)
        if len(h) != 2:
            raise QuadFieldError("ideal basis must have rank 2")
        g = 0
        for row in h:
            for x in row:
                g = gcd(g, x)
        g = gcd(g, den)
        h = [[x // g for x in row] for row in h]
        den //= g
        return cls(field, (tuple(h[0]), tuple(h[1])), den)

    @classmethod
    def from_generators(cls, gens: list[QuadElem]) -> "QfIdeal":
        """The fractional o_F-module generated by gens (as an ideal)."""
        if not gens or all(g.is_zero() for g in gens):
            raise QuadFieldError("zero ideal")
        field = gens[0].field
        closure = []
        for g in gens:
            closure.append(g)
            closure.append(g * field.omega())
        den = lcm(*(g.d for g in closure))
        return cls.from_rows(field, [[g.a * (den // g.d), g.b * (den // g.d)] for g in closure], den)

    @classmethod
    def unit_ideal(cls, field: QuadField) -> "QfIdeal":
        return cls.from_rows(field, [[1, 0], [0, 1]], 1)

    def basis_elements(self) -> list[QuadElem]:
        return [_elem(self.field, r[0], r[1], self.den) for r in self.num]

    def norm(self) -> Fraction:
        d = self.num[0][0] * self.num[1][1] - self.num[0][1] * self.num[1][0]
        return Fraction(abs(d), self.den * self.den)

    def conj(self) -> "QfIdeal":
        return QfIdeal.from_generators([e.conj() for e in self.basis_elements()])

    def __mul__(self, other):
        if isinstance(other, (QuadElem, int, Fraction)):
            return QfIdeal.from_generators([e * other for e in self.basis_elements()])
        if self.field != other.field:
            raise QuadFieldError("ideals of different fields")
        gens = [a * b for a in self.basis_elements() for b in other.basis_elements()]
        return QfIdeal.from_generators(gens)

    def inv(self) -> "QfIdeal":
        return self.conj() * (1 / self.norm())

    def __pow__(self, e: int) -> "QfIdeal":
        if e == 0:
            return QfIdeal.unit_ideal(self.field)
        # square and multiply, from base at the top bit of |e|
        base = out = self if e > 0 else self.inv()
        for bit in bin(abs(e))[3:]:
            out = out * out
            if bit == "1":
                out = out * base
        return out

    def is_integral(self) -> bool:
        return self.den == 1

    def __repr__(self):
        return f"Ideal({self.num}, den={self.den} | D={self.field.D})"


def prime_splitting(field: QuadField, p: int) -> str:
    """'split', 'inert' or 'ramified' for the prime p; QuadFieldError when
    p is not prime."""
    if not isprime(p):
        raise QuadFieldError(f"{p} is not prime")
    return kronecker_splitting(field, p)


def kronecker_splitting(field: QuadField, p: int) -> str:
    """`prime_splitting` for a p the caller knows to be prime: the
    Kronecker symbol (disc | p).  The minimal polynomial x^2 - disc x + nw
    of w has discriminant disc, so for odd p it has two roots mod p iff
    disc is a nonzero square mod p.  At p = 2 with disc odd it is
    x^2 + x + nw mod 2, nw = disc (disc - 1) / 4, which has roots iff nw
    is even, that is iff disc = 1 mod 8."""
    disc = field.disc
    if disc % p == 0:
        return "ramified"
    if p == 2:
        return "split" if disc % 8 == 1 else "inert"
    return "split" if legendre(disc, p) == 1 else "inert"


def roots_mod_p(field: QuadField, p: int) -> list[int]:
    """The distinct roots mod p, ascending, of the minimal polynomial
    x^2 - t x + nw of w, for a p that is split or ramified: (t +- s) / 2
    for a square root s of its discriminant disc mod an odd p, a scan of
    {0, 1} at p = 2."""
    t, nw = field.w_trace, field.w_norm
    if p == 2:
        return [r for r in range(2) if (r * r - t * r + nw) % 2 == 0]
    s, half = sqrt_mod_p(field.disc, p), (p + 1) // 2
    return sorted({(t + s) * half % p, (t - s) * half % p})


def prime_above(field: QuadField, p: int, r: int) -> QfIdeal:
    """The prime ideal (p, w - r) above a split or ramified p, for a root r
    of the minimal polynomial of w mod p, in row HNF without an elimination:
    it has index p and holds -r^-1 (w - r) = 1 - r^-1 w mod p, so its rows
    are [[1, -r^-1 mod p], [0, p]]; when r = 0 mod p they are [[p, 0], [0, 1]]."""
    if r % p == 0:
        return QfIdeal(field, ((p, 0), (0, 1)), 1)
    return QfIdeal(field, ((1, -pow(r, -1, p) % p), (0, p)), 1)


def primes_above(field: QuadField, p: int) -> list[QfIdeal]:
    """The prime ideals above p, deterministically ordered (split primes by
    increasing root of the minimal polynomial of w mod p)."""
    if prime_splitting(field, p) == "inert":
        return [QfIdeal.from_rows(field, [[p, 0], [0, p]], 1)]
    # a ramified p has one root
    return [prime_above(field, p, r) for r in roots_mod_p(field, p)]


def prime_exponents(e: QuadElem) -> list[tuple[int, str, list[tuple[QfIdeal, int]]]]:
    """The factorization of the fractional ideal (e): for each rational p
    with some v_P(e) != 0, ascending, (p, kind, [(P, v_P(e)) for P in
    primes_above(field, p)]).  Such a p divides Nm(e) or the denominator of
    e.  An inert or ramified exponent is read off v_p(Nm e); at a split p,
    v_P(x + y w) = v_p(x + y r) for the root r of the minimal polynomial of
    w that P = (p, w - r) lifts, and v_P + v_P' = v_p(Nm e) is checked."""
    if e.is_zero():
        raise QuadFieldError("valuation of zero")
    field = e.field
    n = e.norm()
    den = factorint(e.d)
    out = []
    for p in sorted(set(factorint(abs(n.numerator))) | set(den)):
        kind = prime_splitting(field, p)
        vn = valuation(n, p)
        if kind == "inert":
            vals = [vn // 2]  # v_p(Nm e) = 2 v_P(e)
        elif kind == "ramified":
            vals = [vn]
        else:
            # v_P(e) lies in [-vd, vn + vd], vd = v_p(d): at this precision
            # a + b r = d (x + y r) has the valuation of the P-adic image of d e
            vd = den.get(p, 0)
            prec = max(vn, 0) + 2 * vd + 4
            t, nw = field.w_trace, field.w_norm
            s = [e.a + e.b * lift_root(t, nw, r, p, prec) for r in roots_mod_p(field, p)]
            # s = 0 exactly: the other prime carries the norm's valuation
            vals = [valuation(si, p) - vd if si else vn + vd - valuation(s[1 - i], p) for i, si in enumerate(s)]
            if vals[0] + vals[1] != vn:
                raise QuadFieldError("internal: split valuations do not add up to v_p(Nm)")
        if any(vals):
            out.append((p, kind, list(zip(primes_above(field, p), vals))))
    return out


# ---------------------------------------------------------------------------
# Reduced binary quadratic forms: units and principality


# the most rho steps one walk on binary quadratic forms may take
MAX_CYCLE_STEPS = 10**7


def _reduced_forms(disc: int, A: int, B: int, C: int, x0: int, y0: int, x1: int, y1: int):
    """Yield the reduced forms among f = A u^2 + B uv + C v^2 and its rho
    images, each with the elements (int (1, w) coordinates) that (1, 0) and
    (0, 1) stand for, x0 + y0 w and x1 + y1 w for f.  rho substitutes
    (u, v) -> (-v, u + k v) for (C, r, (r^2 - disc) / 4C), r = 2 C k - B the
    largest such r <= max(|C|, sqrt(disc)) (Cohen, GTM 138, 5.6.5)."""
    s = isqrt(disc) if disc > 0 else -1
    for _ in range(MAX_CYCLE_STEPS):
        if (s - 2 * abs(A) < B <= s and 2 * abs(A) - B <= s) if disc > 0 else -A < B <= A <= C:
            yield A, B, C, (x0, y0), (x1, y1)
        c = abs(C)
        top = c if c > s else s
        r = top - (top + B) % (2 * c)
        k = (r + B) // (2 * C)
        A, B, C = C, r, (r * r - disc) // (4 * C)
        x0, y0, x1, y1 = x1, y1, k * x1 - x0, k * y1 - y0
    raise ResourceError(f"the walk on reduced forms stopped at the limit of {MAX_CYCLE_STEPS} steps")


def fundamental_unit(field: QuadField) -> QuadElem:
    """Fundamental unit (> 1 under the first embedding) of the maximal order
    of a real quadratic field.  u -> u + k v takes the principal form
    Nm(u + v w) to the reduced (1, B, C), B in (sqrt(disc) - 2, sqrt(disc)),
    on the basis (1, w + k); at the next form (+-1, B, +-C) of its cycle,
    (1, 0) stands for +-eps^+-1."""
    if not field.is_real:
        raise QuadFieldError("imaginary fields have no fundamental unit")
    disc = field.disc
    B = isqrt(disc)
    B -= (B - disc) % 2
    forms = _reduced_forms(disc, 1, B, (B * B - disc) // 4, 1, 0, (B - disc) // 2, 1)
    next(forms)
    A, _, _, (x, y), _ = next(f for f in forms if abs(f[0]) == 1)
    if field.norm_form(x, y) != A:
        raise QuadFieldError("internal: the cycle of the principal form did not produce a unit")
    # of +-u and +-conj(u) = +-u^-1, the unit > 1 has a positive trace and y
    if 2 * x + y * disc < 0:
        x, y = -x, -y
    if y < 0:
        x, y = x + y * disc, -y
    return _elem(field, x, y, 1)


def is_principal(ideal: QfIdeal, eps: QuadElem | None = None) -> QuadElem | None:
    """A generator if the fractional ideal is principal, else None: of the
    generators x + y w with y >= 0, the one of least y, of norm +N before
    -N, then of larger x.  Runs in int on num (den dropped), with HNF rows
    [[a, b], [0, c]] and N = ac: f(u, v) = Nm(u (a + b w) + v c w) / N has
    discriminant disc and takes +-1 exactly at the generators.  An
    imaginary field's reduced form's A is the least value of f; a real
    field's cycle of reduced forms holds one with |A| = 1 iff f takes +-1
    (Cohen, GTM 138, 5.6-5.8; Buchmann and Vollmer, Binary Quadratic
    Forms, ch. 5-6)."""
    field = ideal.field
    t, nw, disc = field.w_trace, field.w_norm, field.disc
    (a, b), (_, c) = ideal.num
    A, B, C = (a * a + t * a * b + nw * b * b) // (a * c), t + 2 * nw * b // a, nw * c // a
    if B * B - 4 * A * C != disc:
        raise QuadFieldError("internal: the norm form of an ideal has the wrong discriminant")
    forms = _reduced_forms(disc, A, B, C, a, b, 0, c)
    A, B, C, z0, z1 = first = next(forms)
    if disc < 0:
        if A != 1:
            return None
        # u^2 + B uv + C v^2 with B in {0, 1} takes 1 at (1, 0), at (0, 1)
        # when C = 1 (Q(i), Q(sqrt -3)), at (1, -1) when B = C = 1 (Q(sqrt -3))
        cands = [(*z0, 1)] + [(*z1, 1)] * (C == 1) + [(z0[0] - z1[0], z0[1] - z1[1], 1)] * (B == C == 1)
    else:
        # the cycle closes at the first form again, up to the sign of A and C
        while abs(A) != 1:
            A, B, C, z0, z1 = next(forms)
            if (abs(A), B, abs(C)) == (abs(first[0]), first[1], abs(first[2])):
                return None
        if eps is None:
            eps = fundamental_unit(field)
        ex, ey = eps.a, eps.b
        # each generator is +-h eta^k: eta = eps, h = g if Nm eps = 1; eta =
        # eps^2, h in {g, g eps} if Nm eps = -1.  As Nm eta = 1, |y(h eta^k)|
        # is |h_1 eta^k - h_2 eta^-k| / sqrt(disc), which falls, then rises
        # in k: walked from h by eta, then on by eta^-1, each while it strictly
        # falls, it is least where a walk stops or one step past it (a tie)
        x, y = z0
        starts = [(x, y, A)]
        if ex * ex + t * ex * ey + nw * ey * ey == -1:
            starts.append((x * ex - y * ey * nw, x * ey + y * ex + y * ey * t, -A))
            ex, ey = ex * ex - ey * ey * nw, 2 * ex * ey + ey * ey * t
        cands = []
        for x, y, n in starts:
            for ux, uy in ((ex, ey), (ex + ey * t, -ey)):  # eta, eta^-1 = conj(eta)
                while True:
                    qx, qy = x * ux - y * uy * nw, x * uy + y * ux + y * uy * t
                    if abs(qy) >= abs(y):
                        break
                    x, y = qx, qy
                cands += [(x, y, n), (qx, qy, n)] if abs(qy) == abs(y) else [(x, y, n)]
    # the sign of each candidate that gives y > 0, or y = 0 and x > 0
    y, _, x = min((y, n < 0, -x) if (y, x) > (0, 0) else (-y, n < 0, x) for x, y, n in cands)
    return _elem(field, -x, y, ideal.den)


def principalize_with_ramified_twists(ideal: QfIdeal) -> tuple[QuadElem, int] | None:
    """(g, c) with g a generator of ideal * P_1 ... P_k for ramified primes
    P_i above p_i, c = p_1 ... p_k, trying no twist first, then the subsets
    of ramified primes by size; None when none of them is principal.  Since
    P_i^2 = (p_i), squaring the twisted ideal only scales its square by the
    rational c."""
    field = ideal.field
    eps = fundamental_unit(field) if field.is_real else None
    ram = field.ramified_primes
    for k in range(len(ram) + 1):
        for combo in combinations(ram, k):
            twisted = ideal
            for p in combo:
                twisted = twisted * primes_above(field, p)[0]
            g = is_principal(twisted, eps)
            if g is not None:
                return g, prod(combo)
    return None


def square_root_up_to_rational(q: QuadElem) -> tuple[QuadElem, Fraction, QfIdeal] | None:
    """(b, m, J) with b integral, m a nonzero rational and b^2 q = m when q
    is in Q^x F^x2, else None; J is the square-root ideal before twists.
    (1) When the exponents k_i of q at the primes above p share a parity
    and a ramified one is even, the least t with t e >= k_i (e the
    ramification index) makes every (t e - k_i) / 2 an integer, the
    exponent of J, and J^2 (q) = (M), M the product of the p^t.  (2) A
    generator b0 of J P_1 ... P_k, P_i ramified above p_i
    (`principalize_with_ramified_twists`), gives b0^2 q = M' u, u a unit
    and M' = M p_1 ... p_k.  (3) y^2 = u w for the first twist w of
    `sqrt_twists` gives Nm(y)^2 = Nm(u) w^2, so Nm(u) = 1 and
    u conj(y)^2 = w: b = b0 conj(y) has b^2 q = M' w, and the ascending |w|
    makes |Nm b| the least.  If q = r x^2, then (x J)^2 = (M r) makes x J a
    rational times ramified primes, and u, in Q^x F^x2 too, is a square
    times a w supported on -1 and the ramified primes (over Q(i),
    2i = (1 + i)^2): every step succeeds."""
    big_m, J = Fraction(1), QfIdeal.unit_ideal(q.field)
    for p, kind, exps in prime_exponents(q):
        e = 2 if kind == "ramified" else 1
        t = max(-(-k // e) for _, k in exps)
        if any((t * e - k) % 2 for _, k in exps):
            return None
        big_m *= Fraction(p) ** t
        for pr, k in exps:
            if t * e > k:
                J = J * pr ** ((t * e - k) // 2)
    gen = principalize_with_ramified_twists(J)
    if gen is None:
        return None
    b0, twist = gen
    big_m *= twist
    u = b0 * b0 * q / big_m
    if not u.is_unit():
        raise QuadFieldError("internal: b0^2 q / M is not a unit")
    for w, y in sqrt_twists(u):
        return b0 * y.conj(), big_m * w, J
    return None
