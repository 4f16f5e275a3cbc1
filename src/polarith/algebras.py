"""Semisimple Q-algebras with involution over concrete simple factors
(Q, quadratic field, quaternion algebra, matrix algebras over these),
each carrying the exponents of its norm, and dagger-stable orders.

A factor's norm is |Nm_{F/Q}(Nrd x)| over its centre F: |x| on Q,
|Nm_{F/Q}(x)| on a quadratic field, |Nm_{F/Q}(nrd x)| on a quaternion
algebra (a, b / F), nrd x = x0^2 - a x1^2 - b x2^2 + ab x3^2, and |det x|
on M_n(Q).  Every other matrix factor reads it off the determinant over Q
of v -> x v (`linalg.regular_matrix`), which is Nm_{F/Q}(Nrd x) on M_n of
a quadratic field and Nm_{F/Q}(Nrd x)^2 over a quaternion base.

Elements are tuples of per-factor components.  Component arithmetic is
dispatched through ring descriptors (the `linalg.Ring` protocol), so that
the matrix code in `linalg` is written once: `linalg.QQ`, a
`quadfield.QuadField` itself, and `QuaternionRing` over either.  x^dagger
is `AlgebraWithInvolution.involve`, and the rational c with x = c * 1 is
`linalg.rational_of(x, algebra)`.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, prod
from operator import mul

from .exact import rational_sqrt, valuation
from .linalg import (
    RationalRing,
    conj_transpose,
    det,
    frac,
    identity,
    inverse,
    mat,
    mat_add,
    mat_eq,
    mat_from_qcoords,
    mat_mul,
    mat_scale,
    mat_to_qcoords,
    numerators,
    qbasis,
    regular_matrix,
)
from .quadfield import QuadElem, QuadField


class AlgebraError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Ring descriptors


def _over(n, m: int):
    """The centre element n / m of a numerator n: a Fraction when n is an
    int, n itself over a quadratic centre, where m = 1."""
    return Fraction(n, m) if isinstance(n, int) else n


class QuatElem:
    """The element (n0 + n1 i + n2 j + n3 ij) / den of a quaternion algebra
    (a, b / F).  Over F = Q the numerators are ints, den > 0 and
    gcd(n0, ..., n3, den) = 1; over a quadratic F they are elements of F,
    which carry their own denominators, and den = 1.  Either way equal
    elements have equal (num, den), which `==` and `hash` compare, and a
    product is one formula on the numerators, with the structure constants
    cleared of denominators (`QuaternionRing.scaled`).  `coords` are the
    coordinates in the centre."""

    __slots__ = ("alg", "num", "den")

    def __init__(self, alg: "QuaternionRing", num: tuple, den: int = 1):
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num, den = tuple(n // g for n in num), den // g
        self.alg, self.num, self.den = alg, num, den

    @property
    def coords(self) -> tuple:
        return tuple(_over(n, self.den) for n in self.num)

    def __add__(self, other):
        other = self.alg.coerce(other)
        d, e = self.den, other.den
        return QuatElem(self.alg, tuple(x * e + y * d for x, y in zip(self.num, other.num)), d * e)

    __radd__ = __add__

    def __neg__(self):
        return QuatElem(self.alg, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        return self + (-self.alg.coerce(other))

    def __mul__(self, other):
        other = self.alg.coerce(other)
        s, a, b, ab = self.alg.scaled
        x0, x1, x2, x3 = self.num
        y0, y1, y2, y3 = other.num
        return QuatElem(
            self.alg,
            (
                s * (x0 * y0) + a * (x1 * y1) + b * (x2 * y2) - ab * (x3 * y3),
                s * (x0 * y1 + x1 * y0) + b * (x3 * y2 - x2 * y3),
                s * (x0 * y2 + x2 * y0) + a * (x1 * y3 - x3 * y1),
                s * (x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1),
            ),
            self.den * other.den * s,
        )

    def __rmul__(self, other):
        return self.alg.coerce(other) * self

    def __eq__(self, other):
        if not isinstance(other, QuatElem):
            return NotImplemented
        return self.num == other.num and self.den == other.den and (self.alg is other.alg or self.alg == other.alg)

    def __hash__(self):
        return hash((self.alg, self.num, self.den))

    def conj(self):
        x0, x1, x2, x3 = self.num
        return QuatElem(self.alg, (x0, -x1, -x2, -x3), self.den)

    def as_rational(self) -> Fraction | None:
        """The rational c with x = c * 1, read off the numerators, None
        otherwise (where `QuadElem.as_rational` raises)."""
        n0, *rest = self.num
        if isinstance(n0, int):
            return None if any(rest) else Fraction(n0, self.den)
        central = all(map(self.alg.center.is_zero, rest))  # over a quadratic centre, den = 1
        return n0.as_rational() if central and n0.is_rational() else None

    def nrd(self):
        """x0^2 - a x1^2 - b x2^2 + ab x3^2, the coordinate 0 of x conj(x)."""
        s, a, b, ab = self.alg.scaled
        x0, x1, x2, x3 = self.num
        return _over(s * (x0 * x0) - a * (x1 * x1) - b * (x2 * x2) + ab * (x3 * x3), s * self.den * self.den)


@dataclass(frozen=True)
class QuaternionRing:
    """Quaternion algebra (a, b / centre) with i^2 = a, j^2 = b, ij = -ji.

    `conj` is the canonical involution."""

    center: object  # RationalRing or QuadField
    a: object
    b: object

    def __post_init__(self):
        if self.center.is_zero(self.a) or self.center.is_zero(self.b):
            raise AlgebraError("structure constants must be nonzero")

    @cached_property
    def scaled(self) -> tuple:
        """(s, s a, s b, s ab) for s the product of the denominators of a
        and b over Q, so that all four are ints and a product of numerators
        stays in int; s = 1 over a quadratic centre."""
        if isinstance(self.center, RationalRing):
            a, b = frac(self.a), frac(self.b)
            s = a.denominator * b.denominator
            return s, a.numerator * b.denominator, b.numerator * a.denominator, a.numerator * b.numerator
        return 1, self.a, self.b, self.a * self.b

    @property
    def dim_q(self):
        return 4 * self.center.dim_q

    def from_coords(self, coords) -> QuatElem:
        """The element with the given coordinates in the centre."""
        if isinstance(self.center, RationalRing):
            (num,), den = numerators([coords])
            return QuatElem(self, tuple(num), den)
        return QuatElem(self, tuple(coords))

    def coerce(self, x):
        if isinstance(x, QuatElem):
            return x
        z = self.center.zero()
        return self.from_coords((self.center.coerce(x), z, z, z))

    def one(self):
        return self.coerce(1)

    def zero(self):
        return self.coerce(0)

    def _unit(self, t: int):
        z, one = self.center.zero(), self.center.one()
        return self.from_coords(tuple(one if s == t else z for s in range(4)))

    def i(self):
        return self._unit(1)

    def j(self):
        return self._unit(2)

    def k(self):
        return self._unit(3)

    def is_zero(self, x):
        return all(self.center.is_zero(n) for n in x.num)

    def conj(self, x):
        return x.conj()

    def inv(self, x):
        n = x.nrd()
        if self.center.is_zero(n):
            raise ZeroDivisionError("non-invertible quaternion")
        return self.coerce(self.center.inv(n)) * x.conj()

    def to_qcoords(self, x):
        return [q for c in x.coords for q in self.center.to_qcoords(c)]

    def from_qcoords(self, coords):
        d = self.center.dim_q
        return self.from_coords([self.center.from_qcoords(list(coords[i * d : (i + 1) * d])) for i in range(4)])

    def __repr__(self):
        return f"({self.a},{self.b} / {self.center})"


# ---------------------------------------------------------------------------
# Simple factors


INVOLUTION_KINDS = ("identity", "conjugation", "canonical", "conjugate_transpose")


@dataclass(frozen=True)
class SimpleFactor:
    """One simple factor: a field (Q or quadratic), a quaternion algebra, or
    a matrix algebra over one of these, together with its involution.

    matrix_size = 0 means "not a matrix factor": elements are ring elements.
    For matrix factors, elements are matrix_size x matrix_size lists over
    the base ring and the involution is x -> z^{-1} x^{*T} z.
    """

    ring: object
    matrix_size: int = 0
    involution: str = "identity"
    z: tuple | None = None  # conjugating matrix, rows of tuples, matrix factors only

    def __post_init__(self):
        if self.involution not in INVOLUTION_KINDS:
            raise AlgebraError(f"unknown involution {self.involution}")
        if self.matrix_size == 0:
            if self.involution == "identity" and isinstance(self.ring, QuaternionRing):
                raise AlgebraError("identity is not an involution of a quaternion algebra")
            if self.involution == "conjugation" and not isinstance(self.ring, QuadField):
                raise AlgebraError("conjugation needs a quadratic field")
            if self.involution == "canonical" and not isinstance(self.ring, QuaternionRing):
                raise AlgebraError("canonical involution needs a quaternion algebra")
            if self.involution == "conjugate_transpose":
                raise AlgebraError("conjugate_transpose needs a matrix factor")
        else:
            if self.involution != "conjugate_transpose":
                raise AlgebraError("matrix factors use conjugate_transpose involutions")
            if self.z is None:  # I is symmetric and invertible
                object.__setattr__(self, "z", _freeze(identity(self.matrix_size, self.ring)))
                return
            n = self.matrix_size
            if len(self.z) != n or any(len(row) != n for row in self.z):
                raise AlgebraError(f"conjugator must be {n} x {n}")
            zm = self.z_matrix()
            zct = conj_transpose(zm, self.ring)
            zneg = [[-x for x in row] for row in zm]
            if not (mat_eq(zct, zm, self.ring) or mat_eq(zct, zneg, self.ring)):
                raise AlgebraError("conjugator must be symmetric or skew under the base involution")
            try:
                inverse(zm, self.ring)
            except ZeroDivisionError:
                raise AlgebraError("conjugator must be invertible") from None

    def z_matrix(self):
        return [list(r) for r in self.z] if self.z is not None else None

    @cached_property
    def z_is_identity(self) -> bool:
        return mat_eq(self.z_matrix(), identity(self.matrix_size, self.ring), self.ring)

    @cached_property
    def _z_pair(self):
        zm = self.z_matrix()
        return zm, inverse(zm, self.ring)

    # --- element plumbing -------------------------------------------------
    @property
    def dim_q(self) -> int:
        n = max(self.matrix_size, 1)
        return n * n * self.ring.dim_q

    @property
    def rank_contribution(self) -> int:
        """[F:Q] deg, the degree of Nm_{F/Q} o Nrd on Q, for F the centre and
        deg the degree over F.  A central simple F-algebra has dimension deg^2
        over F (Reiner, *Maximal Orders*), so [F:Q] deg = sqrt(dim_Q [F:Q])."""
        centre = self.ring.center if isinstance(self.ring, QuaternionRing) else self.ring
        return isqrt(self.dim_q * centre.dim_q)

    def one(self):
        if self.matrix_size:
            return identity(self.matrix_size, self.ring)
        return self.ring.one()

    def add(self, x, y):
        if self.matrix_size:
            return mat_add(x, y)
        return x + y

    def mul(self, x, y):
        if self.matrix_size:
            return mat_mul(x, y, self.ring)
        return x * y

    def eq(self, x, y):
        if self.matrix_size:
            return mat_eq(x, y, self.ring)
        return self.ring.is_zero(x - y)

    def scale(self, c: Fraction, x):
        if self.matrix_size:
            return mat_scale(c, x, self.ring)
        return self.ring.coerce(c) * x

    def involve(self, x):
        if self.matrix_size:
            xct = conj_transpose(x, self.ring)
            if self.z_is_identity:
                return xct
            zm, zinv = self._z_pair
            return mat_mul(mat_mul(zinv, xct, self.ring), zm, self.ring)
        if self.involution == "identity":
            return x
        return x.conj()  # conjugation or canonical, by __post_init__

    def to_qcoords(self, x) -> list[Fraction]:
        if self.matrix_size:
            return mat_to_qcoords(x, self.ring)
        return self.ring.to_qcoords(x)

    def from_qcoords(self, coords):
        if self.matrix_size:
            return mat_from_qcoords(coords, self.matrix_size, self.ring)
        return self.ring.from_qcoords(list(coords))

    def inv_elem(self, x):
        if self.matrix_size:
            return inverse(x, self.ring)
        return self.ring.inv(x)

    # --- norms -------------------------------------------------------------
    def abs_norm(self, x) -> Fraction:
        """|Nm_{F/Q}(Nrd x)|, F the centre (see the module docstring)."""
        quaternion = isinstance(self.ring, QuaternionRing)
        if not self.matrix_size:
            c = x.nrd() if quaternion else x
            return abs(c.norm() if isinstance(c, QuadElem) else frac(c))
        if isinstance(self.ring, RationalRing):
            return abs(det(x))
        reg = det(regular_matrix(x, self.ring))
        if not quaternion:
            return abs(reg)
        # over a quaternion base reg is Nm_{F/Q}(Nrd x)^2, a rational square
        return rational_sqrt(reg) if reg else reg


def _freeze(m):
    return tuple(tuple(row) for row in m)


# ---------------------------------------------------------------------------
# The algebra with involution


@dataclass(frozen=True)
class AlgebraWithInvolution:
    """Simple factors, the involution on each (a swap pair exchanges two
    factors) and the norm Nm(x) = prod_i |Nm_{F_i/Q}(Nrd x_i)|^{gamma_i}:
    one gamma_i >= 1 per factor, all 1 by default, equal on swapped
    factors (dagger-compatibility).  Its rank is `rank_d`."""

    factors: tuple[SimpleFactor, ...]
    swap_pairs: tuple[tuple[int, int], ...] = ()
    gammas: tuple[int, ...] | None = None

    def __post_init__(self):
        if not self.factors:
            raise AlgebraError("an algebra needs at least one simple factor")
        seen = set()
        for i, j in self.swap_pairs:
            if i == j or i in seen or j in seen:
                raise AlgebraError("swap pairs must be disjoint and non-trivial")
            seen.update((i, j))
            fi, fj = self.factors[i], self.factors[j]
            if fi.matrix_size or fj.matrix_size or not isinstance(
                fi.ring, (RationalRing, QuadField)
            ):
                raise AlgebraError("swap pairs are supported for etale (field) factors")
            if fi.ring != fj.ring:
                raise AlgebraError("swap pairs must join equal factors")
        gammas = (1,) * len(self.factors) if self.gammas is None else tuple(self.gammas)
        object.__setattr__(self, "gammas", gammas)
        if len(gammas) != len(self.factors):
            raise AlgebraError("one gamma per factor")
        if any(g < 1 for g in gammas):
            raise AlgebraError("gammas must be positive")
        for i, j in self.swap_pairs:
            if gammas[i] != gammas[j]:
                raise AlgebraError("dagger-compatibility requires equal gammas on swapped factors")

    @property
    def rank_d(self) -> int:
        return sum(g * f.rank_contribution for g, f in zip(self.gammas, self.factors))

    @property
    def dim_q(self) -> int:
        return sum(f.dim_q for f in self.factors)

    def one(self):
        return tuple(f.one() for f in self.factors)

    def add(self, x, y):
        return tuple(f.add(a, b) for f, a, b in zip(self.factors, x, y))

    def mul(self, x, y):
        return tuple(f.mul(a, b) for f, a, b in zip(self.factors, x, y))

    def eq(self, x, y):
        return all(f.eq(a, b) for f, a, b in zip(self.factors, x, y))

    def scale(self, c: Fraction, x):
        return tuple(f.scale(c, a) for f, a in zip(self.factors, x))

    def inv(self, x):
        return tuple(f.inv_elem(a) for f, a in zip(self.factors, x))

    def involve(self, x):
        out = [f.involve(a) for f, a in zip(self.factors, x)]
        for i, j in self.swap_pairs:
            out[i], out[j] = x[j], x[i]
        return tuple(out)

    def to_qcoords(self, x) -> list[Fraction]:
        return [c for f, a in zip(self.factors, x) for c in f.to_qcoords(a)]

    def from_qcoords(self, coords):
        out = []
        idx = 0
        for f in self.factors:
            out.append(f.from_qcoords(list(coords[idx : idx + f.dim_q])))
            idx += f.dim_q
        return tuple(out)

    def from_rational(self, c: Fraction):
        return self.scale(frac(c), self.one())


def norm(algebra: AlgebraWithInvolution, x) -> Fraction:
    """Nm_E(x) = prod_i |Nm_{F_i/Q}(Nrd(x_i))|^{gamma_i}."""
    parts = zip(algebra.factors, x, algebra.gammas)
    return prod((f.abs_norm(a) ** g for f, a, g in parts), start=Fraction(1))


def local_norm(algebra: AlgebraWithInvolution, x, p: int) -> Fraction:
    """Nm_{E_p}(x) = prod_i |Nm(Nrd(x_i))|_p^{-gamma_i}, a power of p."""
    out = Fraction(1)
    for f, a, g in zip(algebra.factors, x, algebra.gammas):
        q = f.abs_norm(a)
        if q == 0:
            raise AlgebraError("local norm of a non-invertible element")
        out *= Fraction(p) ** (g * valuation(q, p))
    return out


@dataclass(frozen=True)
class OrderR:
    """A dagger-stable order, given by a Z-basis.  The constructor checks
    full rank, presence of 1, stability under the involution and closure
    under multiplication.  With no basis it takes `qbasis(algebra)`, and
    skips the checks for three kinds of algebra, where a theorem makes that
    basis an order stable under the involution (Reiner, *Maximal Orders*):
    Z in Q; O_F = Z[w] in a quadratic field F, the integral closure of Z in
    F, which every automorphism of F maps to itself, so Galois conjugation
    too; M_n(Z) = End_Z(Z^n) in M_n(Q), which contains I and is closed
    under transposition, the involution when z = I.  The inverse basis
    matrix is kept as integer numerators over one denominator, so
    membership is a divisibility test on integers."""

    algebra: AlgebraWithInvolution
    basis_elements: tuple | None = None

    def __post_init__(self):
        A = self.algebra
        n = A.dim_q
        if self.basis_elements is None:
            object.__setattr__(self, "basis_elements", tuple(qbasis(A)))
            f, *rest = A.factors
            if f.matrix_size:
                theorem = isinstance(f.ring, RationalRing) and f.z_is_identity
            else:
                theorem = isinstance(f.ring, (RationalRing, QuadField))
            if theorem and not rest:
                object.__setattr__(self, "_minv", ([tuple(int(i == j) for j in range(n)) for i in range(n)], 1))
                return
        if len(self.basis_elements) != n:
            raise AlgebraError("order basis must have full rank")
        try:
            minv = inverse(self.rows)
        except ZeroDivisionError:
            raise AlgebraError("order basis is singular") from None
        num, den = numerators(minv)
        object.__setattr__(self, "_minv", (list(zip(*num)), den))
        if not self.contains(A.one()):
            raise AlgebraError("order must contain 1")
        for b in self.basis_elements:
            if not self.contains(A.involve(b)):
                raise AlgebraError("order is not dagger-stable")
        for b1 in self.basis_elements:
            for b2 in self.basis_elements:
                if not self.contains(A.mul(b1, b2)):
                    raise AlgebraError("order is not closed under multiplication")

    @cached_property
    def rows(self) -> list[list[Fraction]]:
        """The Q-coordinates of the basis elements, one row each: the
        identity for the default basis."""
        return [self.algebra.to_qcoords(b) for b in self.basis_elements]

    def contains_qbasis(self) -> bool:
        """Whether `qbasis(algebra)` lies in the order.  Its coordinates are
        the rows of the inverse basis matrix, so this holds exactly when
        their one denominator is 1."""
        return self._minv[1] == 1

    def basis_matrix_is_identity(self) -> bool:
        cols, den = self._minv
        return den == 1 and cols == [tuple(row) for row in identity(len(cols))]

    def _scaled_coordinates(self, x) -> tuple[list[int], int]:
        """(s, t) with coordinates(x) = s / t: the integer numerators of x's
        Q-coordinates times those of the inverse basis matrix."""
        (c,), cd = numerators([self.algebra.to_qcoords(x)])
        cols, den = self._minv
        return [sum(map(mul, c, col)) for col in cols], cd * den

    def coordinates(self, x) -> list[Fraction]:
        s, t = self._scaled_coordinates(x)
        return [Fraction(v, t) for v in s]

    def contains(self, x) -> bool:
        s, t = self._scaled_coordinates(x)
        return all(v % t == 0 for v in s)

    def element_from_coordinates(self, coords):
        """sum_i coords[i] basis[i], read off its Q-coordinates coords . rows."""
        return self.algebra.from_qcoords([sum(map(mul, coords, col)) for col in zip(*self.rows)])


def norm_times_inverse(order: OrderR, x):
    """Nm_E(x) * x^{-1}, asserted to lie in the order."""
    algebra = order.algebra
    n = norm(algebra, x)
    if n == 0:
        raise AlgebraError("element is not invertible")
    out = algebra.scale(n, algebra.inv(x))
    if not order.contains(out):
        raise AlgebraError("norm-times-inverse fell outside the order")
    return out


# ---------------------------------------------------------------------------
# Convenience constructors


def rational_algebra() -> AlgebraWithInvolution:
    return AlgebraWithInvolution((SimpleFactor(RationalRing()),))


def quadfield_algebra(field: QuadField, involution: str = "identity") -> AlgebraWithInvolution:
    return AlgebraWithInvolution((SimpleFactor(field, involution=involution),))


def matrix_algebra_q(n: int, z=None) -> AlgebraWithInvolution:
    zt = _freeze(mat(z)) if z is not None else None
    return AlgebraWithInvolution(
        (SimpleFactor(RationalRing(), matrix_size=n, involution="conjugate_transpose", z=zt),)
    )
