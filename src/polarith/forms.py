"""Gram-matrix forms and their classification: positivity, adjoint
involutions, invariant vectors, isometry decisions and the fourth-power
verifier.

Supported (kind, base) combinations:

  symmetric            over Q or a real quadratic field (identity entries)
  skew                 over Q
  hermitian            over an imaginary quadratic field (conjugation),
                       over a definite quaternion algebra (canonical
                       involution), or over the etale pair Q x Q (swap)
  quat-skew-hermitian  over a quaternion algebra over Q (canonical)

Isometry over Q (symmetric), over imaginary quadratic fields and definite
quaternion algebras (hermitian: the latter by dimension and signature), for
skew forms and for etale-pair forms is decided by complete invariants.
For quaternionic skew-hermitian forms only the local invariants (dimension
and reduced-norm determinant class) are compared: the global isometry
class is genuinely not determined by localizations.  Symmetric forms over
a real quadratic field compare determinant and signatures only (no Hasse
data over the field).  Their invariants carry `complete = False`: a
mismatch still decides, with that flag, but `isometric` refuses to call
agreeing incomplete invariants an isometry and raises FormError.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm, prod

from .algebras import QuaternionRing
from .exact import (
    REAL_PLACE,
    diagonal_folds,
    fold_column,
    hasse_invariant,
    hilbert_symbol,
    square_class,
)
from .linalg import (
    RationalRing,
    det,
    frac,
    identity,
    inverse,
    mat_eq,
    mat_mul,
    numerators,
    qbasis,
    rational_of,
    regular_matrix,
    scalar_of,
)
from .quadfield import QuadField, is_square_in_field, is_totally_positive


class FormError(ValueError):
    pass


KINDS = ("symmetric", "skew", "hermitian", "quat-skew-hermitian")


# ---------------------------------------------------------------------------
# The etale pair Q x Q with the swap involution


class PairElem:
    """The element (x, y) of Q x Q, two Fractions."""

    __slots__ = ("x", "y")

    def __init__(self, x: Fraction, y: Fraction):
        self.x, self.y = x, y

    def __eq__(self, other):
        return isinstance(other, PairElem) and self.x == other.x and self.y == other.y

    def __add__(self, other):
        other = _pair(other)
        return PairElem(self.x + other.x, self.y + other.y)

    __radd__ = __add__

    def __neg__(self):
        return PairElem(-self.x, -self.y)

    def __sub__(self, other):
        return self + (-_pair(other))

    def __mul__(self, other):
        other = _pair(other)
        return PairElem(self.x * other.x, self.y * other.y)

    __rmul__ = __mul__

    def swap(self):
        return PairElem(self.y, self.x)


def _pair(v) -> PairElem:
    if isinstance(v, PairElem):
        return v
    return PairElem(frac(v), frac(v))


class EtalePairRing:
    """Q x Q with the swap involution."""

    dim_q = 2

    def one(self):
        return PairElem(Fraction(1), Fraction(1))

    def zero(self):
        return PairElem(Fraction(0), Fraction(0))

    def is_zero(self, v):
        return v.x == 0 and v.y == 0

    def conj(self, v):
        return v.swap()

    def inv(self, v):
        if v.x == 0 or v.y == 0:
            raise ZeroDivisionError
        return PairElem(1 / v.x, 1 / v.y)

    def coerce(self, c):
        return _pair(c)

    def to_qcoords(self, v):
        return [v.x, v.y]

    def from_qcoords(self, coords):
        return PairElem(coords[0], coords[1])

    def __eq__(self, other):
        return isinstance(other, EtalePairRing)

    def __repr__(self):
        return "QxQ"


# ---------------------------------------------------------------------------
# GramForm


def _entry_conj(kind: str, ring, x):
    """The entrywise involution used by a given form kind."""
    if kind in ("symmetric", "skew"):
        return x
    return ring.conj(x)


def _kind_conj_transpose(kind: str, ring, a: list) -> list:
    """a^{iota T}, with iota the entrywise involution of the form kind."""
    return [[_entry_conj(kind, ring, x) for x in col] for col in zip(*a)]


class GramForm:
    """A form given by its Gram matrix over a supported base.

    Column convention: psi(v, w) = sum_i,j iota(v_i) G_ij w_j, so an
    endomorphism u transforms the Gram matrix as u^{iota T} G u.

    Over Q the form is its integer numerators over one denominator,
    G = num / den (`linalg.numerators`), read off int and Fraction
    entries: the kind is checked on num, `diagonal` and `invariants` read
    it, and `gram` builds the Fraction matrix only when it is read.
    """

    def __init__(self, kind: str, ring, gram):
        self.kind, self.ring = kind, ring
        if kind not in KINDS:
            raise FormError(f"unknown form kind {kind}")
        if isinstance(ring, RationalRing):
            self.num, self.den = numerators(gram)
            rows = self.num
        else:
            self.gram = rows = gram
        self.dim = n = len(rows)
        if any(len(row) != n for row in rows):
            raise FormError("gram matrix must be square")
        self._validate_base()
        sign = -1 if kind in ("skew", "quat-skew-hermitian") else 1
        # the condition at (j, i) is the involution of the one at (i, j)
        for i in range(n):
            for j in range(i, n):
                lhs = _entry_conj(kind, ring, rows[j][i])
                rhs = rows[i][j] if sign == 1 else -rows[i][j]
                if lhs != rhs:
                    raise FormError("gram matrix does not match the declared kind")

    @cached_property
    def gram(self) -> list:
        """Over Q, num / den as Fractions, built when first read (over
        another base `__init__` sets the attribute)."""
        return [[Fraction(x, self.den) for x in row] for row in self.num]

    def _validate_base(self):
        r = self.ring
        if self.kind == "symmetric":
            if isinstance(r, RationalRing):
                return
            if isinstance(r, QuadField) and r.is_real:
                return
            raise FormError("symmetric forms live over Q or a real quadratic field")
        if self.kind == "skew":
            if isinstance(r, RationalRing):
                return
            raise FormError("skew forms live over Q")
        if self.kind == "hermitian":
            if isinstance(r, QuadField):
                if r.is_real:
                    raise FormError(
                        "hermitian forms with conjugation need an imaginary "
                        "quadratic field (the CM case); real quadratic bases "
                        "carry the identity involution and symmetric forms"
                    )
                return
            if isinstance(r, QuaternionRing):
                if not isinstance(r.center, RationalRing):
                    raise FormError("quaternion bases are supported over Q")
                if not (r.a < 0 and r.b < 0):
                    raise FormError(
                        "hermitian forms over a quaternion base need a "
                        "definite algebra (canonical involution positive)"
                    )
                return
            if isinstance(r, EtalePairRing):
                return
            raise FormError("unsupported hermitian base")
        if self.kind == "quat-skew-hermitian":
            if isinstance(r, QuaternionRing) and isinstance(r.center, RationalRing):
                return
            raise FormError("quat-skew-hermitian forms live over a quaternion algebra over Q")

    def entry_conj(self, x):
        return _entry_conj(self.kind, self.ring, x)

    def evaluate(self, v: list, w: list):
        s = self.ring.zero()
        for i in range(self.dim):
            for j in range(self.dim):
                s = s + self.entry_conj(v[i]) * self.gram[i][j] * w[j]
        return s

    def transform(self, u: list) -> "GramForm":
        """The form with Gram u^{iota T} G u (u columns = new basis)."""
        uct = _kind_conj_transpose(self.kind, self.ring, u)
        g = mat_mul(mat_mul(uct, self.gram, self.ring), u, self.ring)
        return GramForm(self.kind, self.ring, g)

    def is_nonsingular(self) -> bool:
        """det over Q of v -> G v is nonzero; exact over zero divisors too."""
        return det(regular_matrix(self.gram, self.ring)) != 0

    def direct_sum(self, other: "GramForm") -> "GramForm":
        if self.kind != other.kind or self.ring != other.ring:
            raise FormError("direct sum needs matching kind and base")
        n, m = self.dim, other.dim
        g = [[self.ring.zero() for _ in range(n + m)] for _ in range(n + m)]
        for i in range(n):
            for j in range(n):
                g[i][j] = self.gram[i][j]
        for i in range(m):
            for j in range(m):
                g[n + i][n + j] = other.gram[i][j]
        return GramForm(self.kind, self.ring, g)

    def scale(self, c) -> "GramForm":
        """Multiply the form by a central involution-fixed scalar."""
        return GramForm(self.kind, self.ring, [[c * x for x in row] for row in self.gram])


def symmetric_form_q(entries) -> GramForm:
    return GramForm("symmetric", RationalRing(), [[frac(x) for x in row] for row in entries])


# ---------------------------------------------------------------------------
# Positivity


def is_positive_definite(f: GramForm) -> bool:
    """Positivity of the trace form Tr(psi(v, v); D), read off one
    diagonalization (`_positive_diagonal`).  Skew kinds return False with a
    warning: their trace form vanishes identically."""
    if f.kind in ("skew", "quat-skew-hermitian"):
        warnings.warn("a skew-Hermitian form can never be positive definite", stacklevel=2)
        return False
    return _positive_diagonal(f) is not None


def _positive_diagonal(f: GramForm) -> list | None:
    """A diagonalization of the symmetric or hermitian form f whose entries
    are all positive at every real place, or None when there is none.  By
    the law of inertia it exists exactly when f is positive definite.
    Over Q it is given as the pairs of `_rational_entries`."""
    ring = f.ring
    # over Q x Q the trace form vanishes on the vectors (v, 0)
    if isinstance(ring, EtalePairRing) and f.dim:
        return None
    try:
        diag = _rational_entries(f) if isinstance(ring, RationalRing) else diagonal(f)
    except FormError:  # singular
        return None
    if isinstance(ring, QuadField) and ring.is_real:
        positive = all(is_totally_positive(x) for x in diag)
    elif isinstance(ring, RationalRing):
        positive = all(n > 0 for n, _ in diag)
    else:  # involution-fixed entries, hence rational: returned as such
        diag = [x.as_rational() for x in diag]
        positive = all(x > 0 for x in diag)
    return diag if positive else None


# ---------------------------------------------------------------------------
# Diagonalization


def diagonal(f: GramForm) -> list:
    """The diagonal of `diagonalize(f)`, with no transform built; over Q
    the Fractions of `_rational_entries`."""
    if f.kind == "skew":
        raise FormError("skew forms do not diagonalize")
    if type(f.ring) is not RationalRing:
        return _eliminate(f, None, [])
    return [Fraction(n, e) for n, e in _rational_entries(f)]


def _rational_entries(f: GramForm) -> list[tuple[int, int]]:
    """The diagonal of a symmetric form over Q as coprime int pairs (n, e),
    e > 0, by a symmetric fraction-free elimination on the numerators
    (N, d) that the form carries, with the pivot rule of `diagonalize`: the
    first nonzero diagonal entry from k, or else v_i += v_j for the first
    i != j with m_ij != 0.  Step k updates the trailing block to
    m_rc = (p_k m_rc - m_rk m_kc) / p_(k-1), p_k the pivot of step k and
    p_(-1) = 1; the block stays p_(k-1) times the Schur complement of N
    (Sylvester's identity, as in `linalg._bareiss`), so every division is
    exact and entry k is (p_k, p_(k-1) d) over their gcd, signed to give
    e > 0."""
    m, d, n = [row[:] for row in f.num], f.den, f.dim
    diag, prev = [], 1
    for k in range(n):
        i = next((i for i in range(k, n) if m[i][i]), None)
        if i is None:
            i, j = next(((i, j) for i in range(k, n) for j in range(k, n) if i != j and m[i][j]), (None, None))
            if i is None:
                raise FormError("cannot diagonalize: no unit pivot")
            for r in range(k, n):
                m[r][i] += m[r][j]
            for r in range(k, n):
                m[i][r] += m[j][r]
        if i != k:
            for row in m:
                row[k], row[i] = row[i], row[k]
            m[k], m[i] = m[i], m[k]
        pk, e = m[k][k], prev * d
        g = gcd(pk, e) if e > 0 else -gcd(pk, e)
        diag.append((pk // g, e // g))
        tail = m[k][k + 1 :]
        for row in m[k + 1 :]:
            x = row[k]
            row[k + 1 :] = [(pk * y - x * z) // prev for y, z in zip(row[k + 1 :], tail)]
        prev = pk
    return diag


def diagonalize(f: GramForm, unit_inverse=None) -> tuple[list, list]:
    """(diag, u) with u^{iota T} G u = diag, each entry of diag a pivot
    that `unit_inverse` accepted.  Not defined for skew kinds.

    `unit_inverse(x)` is x^{-1} when x may be a pivot and None otherwise;
    by default the inverse in the base ring, so zero and the zero divisors
    of a split quaternion algebra are refused.  At step k the pivot is the
    first unit on the diagonal from k; when there is none, the first
    v_i += v_j * lam (i != j, lam over the Q-basis of the base) that makes
    the (i, i) entry a unit.  FormError when neither exists."""
    if f.kind == "skew":
        raise FormError("skew forms do not diagonalize")
    u = identity(f.dim, f.ring)
    return _eliminate(f, unit_inverse, u), u


def _eliminate(f: GramForm, unit_inverse, u) -> list:
    """The diagonal of `diagonalize`, applying its column operations to
    the rows of u in place; u = [] builds no transform.

    Step k adds v_k c_j to v_j, c_j = -(pivot^{-1} g_kj), for each j > k
    with g_kj != 0.  Only the trailing block g[k+1:][k+1:] is read after
    step k, and the operations add g_rk c_j to its entries: their row
    halves add iota(c_r) (g_kj + g_kk c_j) = 0 there.  So only that block
    is updated; row and column k keep their old entries."""
    ring = f.ring
    is_zero = ring.is_zero
    n = f.dim
    g = [row[:] for row in f.gram]
    if unit_inverse is None:

        def unit_inverse(x):
            try:
                return ring.inv(x)
            except ZeroDivisionError:
                return None

    def add_cols(rows, source, cs):
        # v_j += v_source * c for each (j, c) in cs, on `rows`
        for row in rows:
            x = row[source]
            if not is_zero(x):
                for j, c in cs:
                    row[j] = row[j] + x * c

    def col_swap(i, j):
        for r in range(n):
            g[r][i], g[r][j] = g[r][j], g[r][i]
        g[i], g[j] = g[j], g[i]
        for row in u:
            row[i], row[j] = row[j], row[i]

    def pivot(k):
        """(i, inverse of the new (i, i) entry), after the column operation
        that makes it a unit when the diagonal from k has none."""
        for i in range(k, n):
            inv = unit_inverse(g[i][i])
            if inv is not None:
                return i, inv
        for i in range(k, n):
            for j in range(k, n):
                if i == j:
                    continue
                for lam in qbasis(ring):
                    lam_c = _entry_conj(f.kind, ring, lam)
                    inv = unit_inverse(g[i][i] + lam_c * g[j][i] + g[i][j] * lam + lam_c * g[j][j] * lam)
                    if inv is not None:  # v_i += v_j * lam, on g[k:][k:] and u
                        add_cols(g[k:], j, [(i, lam)])
                        for r in range(k, n):
                            g[i][r] = g[i][r] + lam_c * g[j][r]
                        add_cols(u, j, [(i, lam)])
                        return i, inv
        raise FormError("cannot diagonalize: no unit pivot")

    for k in range(n):
        i, pivot_inv = pivot(k)
        if i != k:
            col_swap(k, i)
        cs = [(j, -(pivot_inv * g[k][j])) for j in range(k + 1, n) if not is_zero(g[k][j])]
        add_cols(g[k + 1 :], k, cs)
        add_cols(u, k, cs)
    return [g[i][i] for i in range(n)]


# ---------------------------------------------------------------------------
# Adjoint involutions


@dataclass
class MatrixInvolution:
    """The involution a -> z^{-1} a^{iota T} z of M_n(base), where iota is
    the base involution attached to the form kind."""

    kind: str
    ring: object
    z: list  # n x n

    def apply(self, a: list) -> list:
        act = _kind_conj_transpose(self.kind, self.ring, a)
        zinv = inverse(self.z, self.ring)
        return mat_mul(mat_mul(zinv, act, self.ring), self.z, self.ring)

    def same_as(self, other: "MatrixInvolution") -> bool:
        """Equality of involutions: conjugators agree up to a central
        involution-fixed scalar."""
        if self.kind != other.kind or self.ring != other.ring or len(self.z) != len(other.z):
            return False
        zinv = inverse(self.z, self.ring)
        # z^{-1} z' must be a central iota-fixed scalar matrix
        c = scalar_of(mat_mul(zinv, other.z, self.ring), self.ring)
        if c is None or (isinstance(self.ring, QuaternionRing) and rational_of(c, self.ring) is None):
            return False
        return self.ring.is_zero(_entry_conj(self.kind, self.ring, c) - c)


def adjoint_involution(f: GramForm) -> MatrixInvolution:
    """The adjoint involution a -> G^{-1} a^{iota T} G of the form."""
    if not f.is_nonsingular():
        raise FormError("singular form has no adjoint involution")
    return MatrixInvolution(f.kind, f.ring, [row[:] for row in f.gram])


def is_positive_involution(inv: MatrixInvolution) -> bool:
    """Exact test: the trace form x -> Tr(x x^dagger) on M_n(base) is
    positive definite, Tr the trace over Q of v -> x x^dagger v on base^n,
    that is of `regular_matrix`."""
    ring = inv.ring
    n = len(inv.z)
    elems = qbasis(ring, n)
    dim = len(elems)
    dag = [inv.apply(e) for e in elems]
    big = [[Fraction(0)] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            ab = mat_mul(elems[a], dag[b], ring)
            big[a][b] = sum((row[t] for t, row in enumerate(regular_matrix(ab, ring))), Fraction(0))
    sym = [[(big[a][b] + big[b][a]) / 2 for b in range(dim)] for a in range(dim)]
    return is_positive_definite(GramForm("symmetric", RationalRing(), sym))


def involution_to_form(inv: MatrixInvolution, want_positive: bool) -> GramForm:
    """A Gram form whose adjoint involution is `inv`; positive definite when
    `want_positive` (implements the phi(v0, v0)-rescaling construction)."""
    ring = inv.ring
    if not isinstance(ring, (RationalRing, QuadField)):
        raise FormError("involution_to_form supports matrix algebras over Q or a quadratic field")
    n = len(inv.z)
    if not n:
        raise FormError("involution_to_form needs n >= 1")
    z = [row[:] for row in inv.z]
    zct = _kind_conj_transpose(inv.kind, ring, z)
    if mat_eq(zct, z, ring):
        kind = inv.kind if inv.kind == "hermitian" else "symmetric"
    elif mat_eq(zct, [[-x for x in row] for row in z], ring):
        kind = "skew"
    else:
        raise FormError("conjugator is neither symmetric nor skew: inconsistent involution")
    form = GramForm(kind, ring, z)
    if not want_positive:
        return form
    if kind == "skew":
        raise FormError("symplectic-type involutions admit no positive definite form")
    # the involution is positive exactly when phi is definite at every real
    # place; then z_11 = phi(e_1, e_1) has phi's sign at each place and
    # phi / z_11 is positive definite.  Else no scalar multiple is: it
    # would have to be a totally positive multiple of phi / z_11
    if not ring.is_zero(z[0][0]):
        rescaled = form.scale(ring.inv(z[0][0]))
        if is_positive_definite(rescaled):
            return rescaled
    if is_positive_involution(inv):
        raise FormError("internal: a positive involution must admit a positive definite form")
    raise FormError("involution is not positive: no positive definite form exists")


# ---------------------------------------------------------------------------
# Invariants


@dataclass
class FormInvariants:
    kind: str
    base: str
    dim: int
    det_class: int | None = None  # the squarefree representative
    det_element: object | None = None
    det_field: QuadField | None = None  # set when det compares modulo Nm(F^x)
    det_is_norm: bool | None = None
    hasse: dict[int, int] | None = None  # place -> invariant, in support_places order
    signatures: list[tuple[int, int]] | None = None
    complete: bool = True

    def hasse_minus_places(self) -> list[int]:
        # read only where hasse is set: over Q (same_as compares equal kinds and bases)
        return [v for v, s in self.hasse.items() if s == -1]

    def same_as(self, other: "FormInvariants") -> tuple[bool, str]:
        """Compare with the invariants of a form of the same kind and base
        (both callers refuse any other pair first, by `check_form_pair`)."""
        if self.dim != other.dim:
            return False, f"dimension mismatch: {self.dim} vs {other.dim}"
        if self.det_class is not None and self.det_class != other.det_class:
            return False, f"det_class mismatch: {self.det_class} vs {other.det_class}"
        if self.det_field is not None:
            ratio = frac(self.det_element) / frac(other.det_element)
            if not is_norm(ratio, self.det_field):
                return False, (
                    f"determinant norm-class mismatch: {self.det_element} vs "
                    f"{other.det_element} modulo Nm(F^x)"
                )
        elif self.det_element is not None and not is_square_in_field(self.det_element * other.det_element.inv()):
            # a symmetric form over a quadratic field: its det is a QuadElem
            return False, "field determinant classes differ"
        if self.hasse is not None:
            mine, theirs = self.hasse_minus_places(), other.hasse_minus_places()
            if mine != theirs:
                labels = (", ".join("oo" if v == REAL_PLACE else f"p{v}" for v in vs) for vs in (mine, theirs))
                return False, "hasse mismatch at [{}] vs [{}]".format(*labels)
        if self.signatures is not None and self.signatures != other.signatures:
            return False, f"signature mismatch: {self.signatures} vs {other.signatures}"
        return True, "invariants agree"


def is_norm(m, F: QuadField) -> bool:
    """m in Nm_{F/Q}(F^x) for an imaginary quadratic field F, by Hilbert
    symbols: m is a norm iff (m, D)_v = +1 at every place."""
    m = frac(m)  # nonzero from every caller; m = 0 would answer False (m > 0)
    if F.is_real:
        raise FormError("norm-class determinants need a CM (imaginary) field")
    # (m, D) with D < 0: the sign of m at the real place, at a prime the Hasse invariant of <m, D>
    return m > 0 and all(s == 1 for s, _, _ in diagonal_folds([m.as_integer_ratio(), (F.D, 1)])[0].values())


def invariants(f: GramForm) -> FormInvariants:
    """The full invariant vector appropriate to the form's kind and base.

    The dimension classifies nonsingular skew (`skew_standard_witness`) and
    etale-pair forms (`etale_pair_witness`), tested on the whole matrix.
    Otherwise a completed diagonalization (unit pivots) proves the form
    nonsingular; when the pivot search fails, a quaternionic skew-hermitian
    form is tested on the whole matrix: over a split quaternion algebra the
    failed search alone proves nothing."""
    ring = f.ring
    if f.kind == "skew" or isinstance(ring, EtalePairRing):
        if not f.is_nonsingular():
            raise FormError("singular forms have no invariants")
        # an odd skew form is singular: det A = det(-A^T) = -det A
        return FormInvariants(f.kind, _base_label(ring), f.dim)
    rational = isinstance(ring, RationalRing)
    try:
        diag = _rational_entries(f) if rational else diagonal(f)
    except FormError:
        if f.kind == "quat-skew-hermitian" and f.is_nonsingular():
            raise
        raise FormError("singular forms have no invariants") from None
    if f.kind == "hermitian":  # involution-fixed entries, hence rational
        diag = [x.as_rational() for x in diag]
    return _diagonal_invariants(f.kind, ring, diag, folds=diagonal_folds(diag)[0] if rational else None)


def _base_label(ring) -> str:
    if isinstance(ring, QuadField):
        return f"Q(sqrt{ring.D})"
    if isinstance(ring, QuaternionRing):
        return f"quat({ring.a},{ring.b})"
    return "QxQ" if isinstance(ring, EtalePairRing) else "Q"


def _diagonal_invariants(kind: str, ring, diag: list, r: int = 1, folds: dict | None = None) -> FormInvariants:
    """The invariants of the nonsingular diagonal form <diag> repeated r
    times: symmetric over Q or a real quadratic field, hermitian over a CM
    field or a definite quaternion algebra (given by its rational
    entries), or quaternionic skew-hermitian.  Over Q, diag is the pairs
    (n_i, e_i) of `_rational_entries` and `folds` their `diagonal_folds`
    at r, which give the Hasse invariant and the parity of v_p(det) at
    each prime; the signs are those of the n_i."""
    dim = len(diag) * r
    inv = FormInvariants(kind, _base_label(ring), dim)
    if kind == "quat-skew-hermitian":
        inv.det_class = square_class(prod((x.nrd() for x in diag), start=Fraction(1)) ** r)
        inv.complete = False
    elif isinstance(ring, QuadField) and ring.is_real:  # symmetric: no Hasse data over the field
        inv.det_element = prod(diag, start=ring.one()) ** r
        counts = [r * sum(1 for x in diag if x.sign_at(v) > 0) for v in (0, 1)]
        inv.signatures = [(c, dim - c) for c in counts]
        inv.complete = False
    else:  # rational entries
        signs = [n for n, _ in diag] if isinstance(ring, RationalRing) else diag
        pos = r * sum(1 for x in signs if x > 0)
        inv.signatures = [(pos, dim - pos)]
        if isinstance(ring, RationalRing):
            inv.det_class = prod((p for p, (_, alpha, _) in folds.items() if alpha % 2), start=(-1) ** (dim - pos))
            inv.hasse = {p: s for p, (s, _, _) in folds.items()} | {REAL_PLACE: hasse_invariant(signs * r, REAL_PLACE)}
        elif isinstance(ring, QuadField):
            inv.det_element = prod(diag, start=Fraction(1)) ** r
            inv.det_field = ring
            inv.det_is_norm = is_norm(inv.det_element, ring)
    return inv


# ---------------------------------------------------------------------------
# Isometry


@dataclass
class IsometryDecision:
    value: bool
    complete: bool
    reason: str

    def __bool__(self) -> bool:
        return self.value


def check_form_pair(f1: GramForm, f2: GramForm, fourth_power: bool = False) -> None:
    """The checks on a pair that need no diagonalization, made by
    `isometric`, or with `fourth_power` by `fourth_power_isometric`, and by
    the CLI's parse step: matching kind and base, and for the fourth-power
    check equal dimensions and a hermitian kind.  Positive definiteness
    needs a diagonalization, so `fourth_power_isometric` checks it itself."""
    if f1.kind != f2.kind or f1.ring != f2.ring:
        raise FormError(("fourth-power check" if fourth_power else "isometry") + " needs matching kind and base")
    if not fourth_power:
        return
    if f1.dim != f2.dim:
        raise FormError("fourth-power check needs equal dimensions")
    if f1.kind in ("skew", "quat-skew-hermitian"):
        raise FormError("positive definiteness requires a hermitian kind")


def isometric(f1: GramForm, f2: GramForm) -> IsometryDecision:
    """Isometry decision by invariant comparison.  `complete` records
    whether the invariants are a complete system for the kind/base.  A
    mismatch proves the forms not isometric, complete or not; agreeing
    invariants that are not complete decide nothing, and raise FormError."""
    check_form_pair(f1, f2)
    inv1, inv2 = invariants(f1), invariants(f2)
    ok, reason = inv1.same_as(inv2)
    complete = inv1.complete and inv2.complete
    if ok and not complete:
        raise FormError("isometry is open: the invariants agree but are not complete for this kind and base")
    return IsometryDecision(ok, complete, reason)


def search_isometry_witness(f1: GramForm, f2: GramForm, height: int):
    """Brute-force oracle for rational symmetric forms: a matrix u of entry
    height <= `height` with u^T G1 u = G2, or None within the bound.

    Every entry num/den with num, den <= height is k/L for L = lcm(1..height),
    and G1 = G/M for an integer matrix G, so the columns are searched as
    integer vectors k with k^T G k' = G2 L^2 M.  No prime of d2 divides
    every entry of N2, for G2 = N2 / d2 (`numerators`), so G2 L^2 M is
    integral exactly when d2 divides L^2 M."""
    for f in (f1, f2):
        if f.kind != "symmetric" or not isinstance(f.ring, RationalRing):
            raise FormError("witness search is for rational symmetric forms")
    if f1.dim != f2.dim:
        return None
    if height < 1:
        raise FormError("height must be >= 1")
    n = f1.dim
    if n == 0:
        return []
    L = lcm(*range(1, height + 1))
    G, M = f1.num, f1.den
    if L * L * M % f2.den:
        return None  # no integer pairing can reach a non-integer target
    target = [[x * (L * L * M // f2.den) for x in row] for row in f2.num]

    nums = {0}
    for num in range(1, height + 1):
        for den in range(1, height + 1):
            nums.add(num * (L // den))
            nums.add(-num * (L // den))
    nums = sorted(nums, key=lambda k: (abs(k), k < 0))

    # one pass over all vectors in product order, each kept with G k under
    # its value; with the head k[:-1] fixed, k^T G k = P + (2B + C z) z is
    # quadratic in the last entry z
    pools: dict[int, list[tuple]] = {target[j][j]: [] for j in range(n)}
    h, C = n - 1, G[-1][-1]
    for head in product(nums, repeat=h):
        P = sum(G[a][b] * head[a] * head[b] for a in range(h) for b in range(h))
        B2 = 2 * sum(G[a][h] * head[a] for a in range(h))
        for z in nums:
            pool = pools.get(P + (B2 + C * z) * z)
            if pool is not None:
                k = (*head, z)
                pool.append((k, [sum(g * x for g, x in zip(row, k)) for row in G]))

    cols: list[tuple] = []

    def backtrack(j):
        if j == n:
            return True
        for k, gk in pools[target[j][j]]:
            if all(
                sum(ki * g for ki, g in zip(cols[i], gk)) == target[i][j] for i in range(j)
            ):
                cols.append(k)
                if backtrack(j + 1):
                    return True
                cols.pop()
        return False

    if not backtrack(0):
        return None
    u = [[Fraction(cols[j][i], L) for j in range(n)] for i in range(n)]
    if f1.transform(u).gram != f2.gram:
        raise FormError("internal: integer search returned a non-isometry")
    return u


def skew_standard_witness(f: GramForm) -> list:
    """Exact symplectic basis: a matrix S with S^T G S = the standard
    block-antidiagonal J.  Witness that same-dimension skew forms are
    isometric."""
    if f.kind != "skew":
        raise FormError("needs a skew form")
    if not f.is_nonsingular():
        raise FormError("singular skew form")
    n = f.dim

    def pairing(v, w):
        return sum(v[i] * f.gram[i][j] * w[j] for i in range(n) for j in range(n))

    remaining = identity(n)
    pairs = []
    while remaining:
        e = remaining.pop(0)
        # e has a mate: the complement of the hyperbolic pairs so far is
        # nonsingular, and e pairs to 0 with itself
        mate_idx = next(idx for idx, w in enumerate(remaining) if pairing(e, w) != 0)
        fvec = remaining.pop(mate_idx)
        c = pairing(e, fvec)
        fvec = [x / c for x in fvec]
        # project the rest against the hyperbolic pair (e, fvec)
        projected = []
        for w in remaining:
            a = pairing(e, w)
            b = pairing(fvec, w)
            projected.append([w[i] - a * fvec[i] + b * e[i] for i in range(n)])
        remaining = projected
        pairs.append((e, fvec))
    cols = []
    for e, fv in pairs:
        cols.append(e)
        cols.append(fv)
    s = [[cols[j][i] for j in range(len(cols))] for i in range(n)]
    j_std = GramForm("skew", RationalRing(), _standard_symplectic(n))
    check = f.transform(s)
    if check.gram != j_std.gram:
        raise FormError("internal: symplectic reduction failed verification")
    return s


def _standard_symplectic(n):
    g = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n // 2):
        g[2 * k][2 * k + 1] = Fraction(1)
        g[2 * k + 1][2 * k] = Fraction(-1)
    return g


def etale_pair_witness(f1: GramForm, f2: GramForm):
    """Isometry witness for etale-pair hermitian forms of equal dimension."""
    if not (isinstance(f1.ring, EtalePairRing) and isinstance(f2.ring, EtalePairRing)):
        raise FormError("needs etale-pair forms")
    if f1.dim != f2.dim or not f1.is_nonsingular() or not f2.is_nonsingular():
        return None
    n = f1.dim
    a1 = [[f1.gram[i][j].x for j in range(n)] for i in range(n)]
    a2 = [[f2.gram[i][j].x for j in range(n)] for i in range(n)]
    u2t = mat_mul(a2, inverse(a1))
    u = [[PairElem(Fraction(int(i == j)), u2t[j][i]) for j in range(n)] for i in range(n)]
    if not mat_eq(f1.transform(u).gram, f2.gram, f1.ring):
        raise FormError("internal: etale-pair witness failed verification")
    return u


# ---------------------------------------------------------------------------
# The fourth-power verifier


def fourth_power_isometric(f1: GramForm, f2: GramForm) -> tuple[bool, dict]:
    """Verify that the 4-fold direct sums of two positive definite forms of
    equal dimension over the same base are isometric, returning the
    invariant certificate.  A False return signals a bug, not a result.

    Each form is diagonalized once at its own size; the diagonal of a
    direct sum is the concatenation of the diagonals, so the invariants of
    psi^4 and psi^2 are those of the diagonal read with multiplicity 4
    and 2.  Over Q each form's entries are factored once, and
    `diagonal_folds` reads both multiplicities off the factorizations."""
    check_form_pair(f1, f2, fourth_power=True)
    diag1, diag2 = _positive_diagonal(f1), _positive_diagonal(f2)
    if diag1 is None or diag2 is None:
        raise FormError("fourth-power check needs positive definite forms")
    rational = isinstance(f1.ring, RationalRing)
    folds = [diagonal_folds(d, (4, 2)) if rational else (None, None) for d in (diag1, diag2)]
    i1, i2 = (_diagonal_invariants(f1.kind, f1.ring, d, 4, fold4) for d, (fold4, _) in zip((diag1, diag2), folds))
    cert: dict = {
        "dim": i1.dim,
        "kind": f1.kind,
        "signatures": [i1.signatures, i2.signatures],
    }
    if rational:
        if not (i1.det_class == 1 and i2.det_class == 1):
            raise FormError("internal: fourth-power determinant must be a square")
        if i1.hasse_minus_places() or i2.hasse_minus_places():
            raise FormError("internal: hasse invariant of a positive definite fourth power must be trivial")
        # independent route, for each form: s(psi^2 + psi^2) = s(psi^2)^2
        # (det2, det2) for det2 = det psi^2, against the invariants of psi^4;
        # at a prime (det2, det2) is the Hasse invariant of <det2, det2>
        for d, (_, fold2), inv in zip((diag1, diag2), folds, (i1, i2)):
            half = _diagonal_invariants(f1.kind, f1.ring, d, 2, fold2)  # psi^2: det_class has det2's sign
            rules = {p: s2 * s2 * fold_column([(alpha, u)] * 2, p)[0] for p, (s2, alpha, u) in fold2.items()}
            rules[REAL_PLACE] = half.hasse[REAL_PLACE] ** 2 * hilbert_symbol(half.det_class, half.det_class, REAL_PLACE)
            if rules != inv.hasse:
                raise FormError("internal: sum rule violated")
        cert["det_classes"] = [i1.det_class, i2.det_class]
        cert["hasse_trivial"] = True
        cert["sum_rule_checked"] = True
    elif f1.kind == "symmetric":
        if not (is_square_in_field(i1.det_element) and is_square_in_field(i2.det_element)):
            raise FormError("internal: fourth-power determinant must be a square")
        cert["det_fourth_power_square"] = True
        cert["hasse_argument"] = "formal: s(psi+psi) doubles and pairs square determinants"
    elif isinstance(f1.ring, QuadField):
        if not (i1.det_is_norm and i2.det_is_norm):
            raise FormError("internal: fourth-power determinant must be a norm")
        cert["det_is_norm"] = True
    else:
        cert["classified_by"] = "dimension and signature"
    ok, reason = i1.same_as(i2)
    cert["invariants_match"] = ok
    cert["reason"] = reason
    return ok, cert
