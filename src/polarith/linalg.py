"""Exact linear algebra: the one matrix layer of the package.

Matrices are plain lists of rows.  Products, transposes and the
Q-coordinate layout are written once, generic over a ring descriptor
(`Ring`): the rationals (`QQ`, the default), a quadratic field (its
`quadfield.QuadField`), quaternion algebras (`algebras.QuaternionRing`)
and the etale pair Q x Q (`forms.EtalePairRing`).  What follows from the
Q-coordinates is read off them once, not written per descriptor: whether
an element is a rational c times 1 (`rational_of`), and its trace over Q
(the trace of `regular_matrix`).  Elimination runs in two places only:
over Q, on integer numerators over one denominator (`numerators`), by
fraction-free (Bareiss) elimination for `det` and `inverse`; and over F_p,
for `kernel_mod_p`.  Every other ring reaches the Q kernels through its
regular representation, the matrix over Q of v -> a v (`regular_matrix`):
`inverse` inverts that matrix, and its determinant decides nonsingularity
and gives norms.  Integer Hermite normal forms live here too.
Everything is denominator-exact; no floats appear anywhere in the
package.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Protocol, runtime_checkable

Matrix = list[list[Fraction]]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def mat(rows) -> Matrix:
    return [[frac(x) for x in row] for row in rows]


def numerators(a: list) -> tuple[list[list[int]], int]:
    """(N, d) with a = N / d: N an integer matrix and d the least positive
    common denominator of the int and Fraction entries of a."""
    d = lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in a], d


# ---------------------------------------------------------------------------
# Ring descriptors


@runtime_checkable
class Ring(Protocol):
    """Every ring member the package calls on a ring descriptor; each
    descriptor implements them all.  Elements support +, -, * and unary
    minus among themselves and with int and Fraction scalars.  The matrix
    layer never divides in the ring: `inv` is for the callers that pivot
    on single entries (`forms.diagonalize`, `forms.involution_to_form`,
    `algebras.SimpleFactor`)."""

    dim_q: int  # the dimension over Q

    def zero(self): ...

    def one(self): ...

    def is_zero(self, x) -> bool: ...

    def conj(self, x): ...

    def inv(self, x):
        """The two-sided inverse; raises ZeroDivisionError when there is
        none (zero, or a zero divisor of a split algebra)."""

    def coerce(self, c):
        """The ring element of an int or Fraction scalar."""

    def to_qcoords(self, x) -> list:
        """The dim_q rational coordinates of x."""

    def from_qcoords(self, coords):
        """The element with the given rational coordinates."""


class RationalRing:
    """Q, with the identity involution."""

    dim_q = 1

    def one(self):
        return Fraction(1)

    def zero(self):
        return Fraction(0)

    def is_zero(self, x):
        return x == 0

    def conj(self, x):
        return x

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError
        return 1 / x

    def coerce(self, c):
        return frac(c)

    def to_qcoords(self, x):
        return [frac(x)]

    def from_qcoords(self, coords):
        return coords[0]

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash("RationalRing")


QQ = RationalRing()


# ---------------------------------------------------------------------------
# Matrices over a ring descriptor


def identity(n: int, ring: Ring = QQ) -> list:
    one, zero = ring.one(), ring.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def transpose(a: list) -> list:
    return [list(col) for col in zip(*a)]


def conj_transpose(a: list, ring: Ring) -> list:
    return [[ring.conj(x) for x in col] for col in zip(*a)]


def mat_add(a: list, b: list) -> list:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: list, b: list) -> list:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a: list, ring: Ring = QQ) -> list:
    """The matrix c * a, for c an int, a Fraction or an element of the ring."""
    c = ring.coerce(c)
    return [[c * x for x in row] for row in a]


def mat_mul(a: list, b: list, ring: Ring = QQ) -> list:
    if type(ring) is RationalRing:
        na, da = numerators(a)
        nb, db = numerators(b)
        d = da * db
        return [[Fraction(x, d) for x in row] for row in int_mat_mul(na, nb)]
    zero = ring.zero()
    bt = list(zip(*b))
    return [[sum(map(mul, row, col), zero) for col in bt] for row in a]


def int_mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The product of integer matrices: `mat_mul` over Q runs on it."""
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_eq(a: list, b: list, ring: Ring = QQ) -> bool:
    return all(ring.is_zero(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def det(a: list) -> Fraction:
    """The determinant of a rational matrix, by fraction-free (Bareiss)
    elimination on its integer numerators.  A matrix over another ring has
    det(regular_matrix(a, ring)) over Q instead."""
    n = len(a)
    m, d = numerators(a)
    pivot, sign = _bareiss(m, n, jordan=False)
    return Fraction(sign * pivot, d**n)


def _bareiss(m: list[list[int]], n: int, jordan: bool) -> tuple[int, int]:
    """Fraction-free elimination of the integer rows m in place on their
    first n columns (n rows), as (last pivot, sign): their product is the
    determinant of that n x n block, and the last pivot is 0 when it is
    singular.  Each step k updates row i (below k; every row but k when
    `jordan`) to (p_k m_i - m_ik m_k) / p_(k-1) on the columns after k.
    By Sylvester's identity the entries stay minors of order k + 1 of the
    row-permuted m (Bareiss, Math. Comp. 22, 1968), so every division is
    exact.  Gauss-Jordan on [N | R] thus ends at [p I | p N^-1 R]; columns
    up to k are stale afterwards and never read again."""
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return 0, sign
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        prow = m[k]
        pk = prow[k]
        tail = prow[k + 1 :]
        for i in range(n) if jordan else range(k + 1, n):
            if i != k:
                row = m[i]
                f = row[k]
                row[k + 1 :] = [(pk * x - f * y) // prev for x, y in zip(row[k + 1 :], tail)]
        prev = pk
    return prev, sign


def inverse(a: list, ring: Ring = QQ) -> list:
    """The two-sided inverse; raises ZeroDivisionError when there is none.

    Over Q, fraction-free Gauss-Jordan on integer numerators.  Over any
    other ring B, through `regular_matrix`: column j of the inverse is the
    preimage of e_j (the one of B at j), also past zero divisors."""
    n = len(a)
    if type(ring) is not RationalRing:
        d = ring.dim_q
        big_inv = inverse(regular_matrix(a, ring))  # raises when a is singular
        one = ring.to_qcoords(ring.one())
        out = [[None] * n for _ in range(n)]
        for j in range(n):
            x = [sum(row[j * d + t] * one[t] for t in range(d)) for row in big_inv]
            for i in range(n):
                out[i][j] = ring.from_qcoords(x[i * d : (i + 1) * d])
        return out
    num, d = numerators(a)
    pivot, x = bareiss_solve(num, [[int(i == j) for j in range(n)] for i in range(n)])
    if pivot == 0:
        raise ZeroDivisionError("matrix not invertible")
    # a^-1 = d N^-1 = d (p N^-1) / p
    return [[Fraction(d * v, pivot) for v in row] for row in x]


def bareiss_solve(num: list[list[int]], rhs: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(p, X) with num X = p rhs, for a square integer matrix num and
    integer columns rhs, by fraction-free Gauss-Jordan on [num | rhs], which
    ends at [p I | p num^-1 rhs] (`_bareiss`): p is +-det num, and 0 when
    num is singular (X is then meaningless)."""
    n = len(num)
    m = [row + r for row, r in zip(num, rhs)]
    pivot, _ = _bareiss(m, n, jordan=True)
    return pivot, [row[n:] for row in m]


def regular_matrix(a: list, ring: Ring) -> Matrix:
    """The matrix over Q of v -> a v on B^n, for a in M_n(B) and B = ring,
    in Q-coordinates (block (i, j) is x -> a[i][j] x on B).

    Its determinant is 0 exactly when a has no inverse (B is
    finite-dimensional), also over zero divisors.  Over a quadratic field
    B = F it is Nm_{F/Q}(det_F a); over a quaternion algebra B with centre
    F it is Nm_{F/Q}(Nrd a)^2: M_n(B) is n copies of
    B^n, and its norm over F is Nrd^{2n} (Reiner, Maximal Orders, section
    9)."""
    n, d = len(a), ring.dim_q
    units = qbasis(ring)
    big = [[Fraction(0)] * (n * d) for _ in range(n * d)]
    for i in range(n):
        for j in range(n):
            for t, unit in enumerate(units):
                for s, c in enumerate(ring.to_qcoords(a[i][j] * unit)):
                    big[i * d + s][j * d + t] = c
    return big


# ---------------------------------------------------------------------------
# Q-coordinates: the one layout of elements and matrices as rational vectors


def qbasis(ring, n: int | None = None) -> list:
    """The Q-basis of `ring`, anything with `dim_q` and `from_qcoords` (a
    ring descriptor, a simple factor, an algebra): element t has the unit
    vector e_t as its coordinates.  With n, the Q-basis of M_n(ring) in the
    layout of `mat_from_qcoords`."""
    if n is None:
        return [ring.from_qcoords(e) for e in identity(ring.dim_q)]
    return [mat_from_qcoords(e, n, ring) for e in identity(n * n * ring.dim_q)]


def mat_to_qcoords(a: list, ring: Ring = QQ) -> list:
    """The Q-coordinates of a matrix over `ring`: those of each entry, row
    by row."""
    return [c for row in a for x in row for c in ring.to_qcoords(x)]


def mat_from_qcoords(coords, n: int, ring: Ring = QQ) -> list:
    """The n x n matrix over `ring` with the Q-coordinates `coords`."""
    d = ring.dim_q
    return [
        [ring.from_qcoords(coords[(i * n + j) * d : (i * n + j + 1) * d]) for j in range(n)]
        for i in range(n)
    ]


def scalar_of(a: list, ring: Ring = QQ):
    """c when the square matrix a is c * I over `ring`, None otherwise."""
    c = a[0][0]
    is_zero = ring.is_zero
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if not is_zero(x - c if i == j else x):
                return None
    return c


def rational_of(x, ring: Ring = QQ) -> Fraction | None:
    """The rational c with x = c * 1 in `ring`, None otherwise: the 1 x 1
    sibling of `scalar_of`, read off the Q-coordinates, as x = c * 1
    exactly when they are c times those of 1.  Anything with `one` and
    `to_qcoords` will do (an algebra too); over Q, x itself."""
    if type(ring) is RationalRing:
        return frac(x)
    c = None
    for v, u in zip(ring.to_qcoords(x), ring.to_qcoords(ring.one())):
        if c is None and u:
            c = v / u
        elif v != (c * u if u else 0):
            return None
    return c


def _rref_mod_p(m: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """The nonzero rows of the reduced row echelon form over F_p of the
    integer matrix m, with entries in range(p), and their pivot columns."""
    m = [[x % p for x in row] for row in m]
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        pinv = pow(m[piv][c], -1, p)
        prow = [x * pinv % p for x in m[piv]]
        m[piv] = m[r]  # a no-op when piv == r: the scaled row is set next
        m[r] = prow
        for i, row in enumerate(m):
            f = row[c]
            if i != r and f:
                m[i] = [(x - f * y) % p for x, y in zip(row, prow)]
        pivots.append(c)
    return m[: len(pivots)], pivots


def kernel_mod_p(a: list[list[int]], p: int) -> list[list[int]]:
    """The right kernel of the integer matrix a over F_p (p prime), as the
    rows of a matrix in reduced row echelon form with entries in range(p)."""
    if not a:
        return []
    cols = len(a[0])
    rows, pivots = _rref_mod_p(a, p)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[fc] = 1
        for row, pc in zip(rows, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return _rref_mod_p(basis, p)[0]


# ---------------------------------------------------------------------------
# Integer lattices


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form (upper echelon, positive pivots, entries
    above a pivot reduced into [0, pivot)).  Zero rows are dropped."""
    m = [list(r) for r in rows]
    if not m:
        return []
    nrows = len(m)
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        # gcd-reduce column c below row r
        while True:
            nz = [i for i in range(r, nrows) if m[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(m[i][c]))
            m[r], m[piv] = m[piv], m[r]
            if m[r][c] < 0:
                m[r] = [-x for x in m[r]]
            done = True
            for i in range(r + 1, nrows):
                if m[i][c] != 0:
                    qq = m[i][c] // m[r][c]
                    m[i] = [x - qq * y for x, y in zip(m[i], m[r])]
                    if m[i][c] != 0:
                        done = False
            if done:
                break
        if r < nrows and m[r][c] != 0:
            for i in range(r):
                qq = m[i][c] // m[r][c]
                if qq:
                    m[i] = [x - qq * y for x, y in zip(m[i], m[r])]
            r += 1
            if r == nrows:
                break
    return [row for row in m[:r] if any(row)]
