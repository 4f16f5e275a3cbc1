"""Z_p-lattices in a form-carrying Q_p-space: scale, maximality, the
maximal-completion algorithm, unimodular classification, and the split-case
bounded solver.

Maximality is tested through index-p superlattices only.  This is
sufficient: if M strictly contains L with the same scale, pick v in M - L
and the least k >= 1 with p^k v in L; then L + Z_p p^{k-1} v is an index-p
superlattice of L inside M, and its scale is squeezed between the two equal
scales.  So some index-p superlattice already witnesses non-maximality.
Nothing of this inverts 2, so it holds at p = 2; the unimodular
classification and the split-case solver need p odd (`check_prime`).

A lattice holds integers: its basis B as numerators over one denominator,
B = N / d, and its Gram as G / D with G integral, both built once and
neither in lowest terms.  Its scale is then one gcd, v_p(gcd G) - v_p(D):
v_p of a gcd is the least v_p of its arguments, so this is the least
valuation of an entry of G / D.  Containment is one fraction-free solve
and the same gcd argument.

Each candidate is tested in integers.  The index-p superlattice for a
projective point v (v_i = 1 its first unit coordinate) replaces basis column
i by w = Bv/p and keeps every other column, so in its Gram only row and
column i change: entry (i, j) becomes (G_L v)_j / p and entry (i, i)
becomes v^T G_L v / p^2, where G_L is the Gram of L.  Both searches ask only
"scale >= t" with scale(L) >= t already, so the untouched entries pass and,
writing G_L = G/D with G integral and e = v_p(D), the test is that
p^(t+1+e) divides (Gv)_j for j != i and p^(t+2+e) divides v^T G v.

Only points of a kernel can pass.  Let s = t + e.  When s >= 0, G' = G/p^s
is integral (scale(L) >= t), and the row test asks (G'v)_j = 0 mod p for
j != i.  Then v^T G v = (Gv)_i + sum over j > i of v_j (Gv)_j, so the
diagonal test forces (G'v)_i = 0 mod p too: v lies in the kernel of G'
mod p.  When s < 0, the row modulus is 1 and every point passes the row
test: that is the kernel of the zero matrix.  The scan therefore walks the
projective points of that kernel only, and makes only the diagonal test:
the row test holds there by construction.  With a basis of the kernel in
reduced row echelon form, the points with lead index c_m (the pivot of row
m) are row m plus the combinations of the later rows, and their
lexicographic order is that of the coefficient vectors, because each later
row's coefficient is the point's coordinate at that row's pivot.  So the
scan visits the winning candidates in the order of the full scan over
P^{n-1}(F_p) and picks the same superlattice.  Its pairs are written from
the integers the test computed: (N, d) becomes (p N, d p) with N v in
column i, and (G, D) becomes (p^2 G, D p^2) with p G v in row and column i
and v^T G v at (i, i).  Which pair (G, D) stands for the Gram does not
change the kernel: G' is p^-t G_L times the unit part of D, so two pairs
give matrices G' that differ by a p-adic unit factor.  The completed
lattice's Gram is checked once against B^T F B, by cross-multiplied
integers.

Only isometry witnesses between unimodular forms truncate (modulo p^k, k
passed next to p), but every certificate that the solver returns is
re-verified in exact rational arithmetic: the final b of split_local_solve
satisfies b^T q b = m' * I as an identity in Q.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from itertools import chain, count, product
from math import gcd

from .exact import (
    ExactError,
    isprime,
    least_nonresidue,
    legendre,
    lift_root,
    rational_sqrt,
    sqrt_mod_p,
    unit_residue,
    valuation,
)
from .forms import FormError, GramForm, diagonalize, symmetric_form_q
from .linalg import (
    Matrix,
    RationalRing,
    bareiss_solve,
    det,
    frac,
    identity,
    int_mat_mul,
    inverse,
    kernel_mod_p,
    mat,
    mat_add,
    mat_mul,
    mat_scale,
    mat_sub,
    numerators,
    scalar_of,
    transpose,
)


class LatticeError(ValueError):
    pass


def check_prime(p: int, odd: bool = False) -> None:
    """Refuse a p that is not prime, and p = 2 when `odd`: where the theory
    needs 2 invertible (Legendre symbols, Hensel square roots and 2^-1 mod
    p^k)."""
    if not isprime(p):
        raise LatticeError(f"{p} is not prime")
    if odd and p == 2:
        raise LatticeError("p = 2 is excluded (2 must be invertible)")


def _vp(n: int, p: int) -> int:
    """v_p of the nonzero integer n, p prime."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _least_valuation(num: list[list[int]], den: int, p: int) -> int:
    """The least v_p of an entry of the nonzero matrix num / den (num
    integral): v_p(gcd num) - v_p(den), as v_p of a gcd is the least v_p of
    its arguments."""
    g = gcd(*chain.from_iterable(num))
    if g == 0:
        raise LatticeError("zero matrix has no scale")
    return _vp(g, p) - _vp(den, p)


def _mat_p_integral(m: Matrix, p: int) -> bool:
    return all(x.denominator % p for row in m for x in row)


class PadicLattice:
    """The Z_p-span of the columns of the basis B, p prime, in `form`, a
    symmetric Gram form F over Q read p-adically.

    B is held as integer numerators over one denominator, B = N / d, and
    its Gram B^T F B as G / D, G integral; neither pair need be in lowest
    terms.  `basis` is a rational matrix (a list of rows) or its pair
    (N, d).  The Gram is built once, N^T F' N / (d^2 f) for F = F' / f;
    a winner of the superlattice scan, built past this constructor, carries
    the (G, D) of its integer test, and `maximal_completion` checks the
    Gram of the lattice it returns.  So `scale` is one gcd: v_p(gcd G) -
    v_p(D) is the least v_p of an entry of G / D, as v_p of a gcd is the
    least v_p of its arguments.  `basis` and `gram()` read the pairs as
    rational matrices."""

    def __init__(self, p: int, basis, form: GramForm):
        check_prime(p)
        self.p, self.form = p, form
        self.num, self.den = basis if isinstance(basis, tuple) else numerators(mat(basis))
        if det(self.num) == 0:
            raise LatticeError("lattice basis is singular")
        if form.dim != len(self.num):
            raise LatticeError("form and basis dimensions differ")
        if form.kind != "symmetric":
            raise LatticeError("p-adic lattices are implemented for symmetric forms")
        if not isinstance(form.ring, RationalRing):
            raise LatticeError("p-adic lattices are implemented for forms over Q")
        self.gram_num, self.gram_den = self.exact_gram()

    @property
    def dim(self) -> int:
        return len(self.num)

    @cached_property
    def basis(self) -> Matrix:
        return [[Fraction(x, self.den) for x in row] for row in self.num]

    def exact_gram(self) -> tuple[list[list[int]], int]:
        """B^T F B as (N^T F' N, d^2 f), for F = F' / f."""
        f, fden = self.form.num, self.form.den
        return int_mat_mul(int_mat_mul(transpose(self.num), f), self.num), self.den**2 * fden

    def gram(self) -> Matrix:
        return [[Fraction(x, self.gram_den) for x in row] for row in self.gram_num]

    def contains(self, other: "PadicLattice") -> bool:
        """other subseteq self, p-locally: the coordinates (N / d)^-1 (M / e)
        = d X / (c e), with N X = c M (`bareiss_solve`, c != 0), are
        p-integral, that is d gcd(X) / (c e) is."""
        c, x = bareiss_solve(self.num, other.num)
        return Fraction(self.den * gcd(*chain.from_iterable(x)), c * other.den).denominator % self.p != 0

    def equals(self, other: "PadicLattice") -> bool:
        return self.contains(other) and other.contains(self)


def scale(L: PadicLattice) -> int:
    """Exponent s with scale ideal p^s: the least valuation of an entry of
    the Gram G / D, v_p(gcd G) - v_p(D)."""
    return _least_valuation(L.gram_num, L.gram_den, L.p)


def _kernel_points(rows: list[list[int]], p: int):
    """The points of P(span of `rows`) over F_p, each with its first nonzero
    coordinate one, in lexicographic order.  `rows` is a basis in reduced
    row echelon form: row m plus each combination of the later rows, in
    `product` order, is that order (module docstring)."""
    for m, lead in enumerate(rows):
        later = rows[m + 1 :]
        for coeffs in product(range(p), repeat=len(later)):
            yield tuple(
                (x + sum(c * row[j] for c, row in zip(coeffs, later))) % p
                for j, x in enumerate(lead)
            )


def _first_superlattice(L: PadicLattice, t: int) -> PadicLattice | None:
    """The first index-p superlattice of L, in lexicographic order of the
    residue projective point that defines it, whose scale is >= t; None if
    there is none.  Requires scale(L) >= t.  Only points of the kernel of
    G' mod p can win (module docstring); each is one integer test, and the
    winner carries its Gram, whose scale is re-checked.  The winner is
    built past the checks of `PadicLattice.__init__`, which hold for it:
    its prime and form are L's, and its basis N' (column i is N v, v_i =
    1, every other column p times N's) has det N' = p^(n-1) det N != 0.
    Its carried Gram is checked against B^T F B by `complete_after_check`."""
    p, n = L.p, L.dim
    g, den = L.gram_num, L.gram_den
    s = t + _vp(den, p)
    diag_mod = p ** max(0, s + 2)
    # G' = G / p^s mod p, and the zero matrix when s < 0 (the row modulus is 1)
    g_mod_p = [[x // p**s % p if s >= 0 else 0 for x in row] for row in g]
    for v in _kernel_points(kernel_mod_p(g_mod_p, p), p):
        i = v.index(1)
        gv = [sum(g[j][k] * v[k] for k in range(i, n)) for j in range(n)]
        vgv = sum(v[k] * gv[k] for k in range(i, n))
        if vgv % diag_mod:
            continue
        num = [[x * p for x in row] for row in L.num]
        gram = [[x * p * p for x in row] for row in g]
        for r in range(n):
            num[r][i] = sum(L.num[r][k] * v[k] for k in range(i, n))
            gram[r][i] = gram[i][r] = gv[r] * p
        gram[i][i] = vgv
        sup = object.__new__(PadicLattice)
        sup.p, sup.form, sup.num, sup.den = p, L.form, num, L.den * p
        sup.gram_num, sup.gram_den = gram, den * p * p
        if scale(sup) < t:
            raise LatticeError("internal: integer superlattice test disagrees with the Gram")
        return sup
    return None


def is_maximal(L: PadicLattice) -> bool:
    """No index-p superlattice has the same scale (sufficient by the module
    docstring argument).  A superlattice's scale is at most L's, so "the
    same" is "at least"."""
    return _first_superlattice(L, scale(L)) is None


def check_completion(L: PadicLattice, target_scale: int) -> None:
    """The preconditions of `maximal_completion`.  A degenerate form has no
    maximal lattice (L grows along its radical without changing the
    scale), so it is refused; so is a target above the scale of L."""
    if det(L.form.num) == 0:
        raise LatticeError("the form is degenerate: it has no maximal lattice")
    if (s := scale(L)) < target_scale:
        raise LatticeError(f"scale {s} is below the requested target {target_scale}")


def maximal_completion(L: PadicLattice, target_scale: int) -> PadicLattice:
    """A maximal lattice containing L among lattices of scale >= the target
    exponent.  Greedy over index-p superlattices in lexicographic order;
    each step strictly decreases the discriminant valuation, so the loop
    terminates.  The Gram carried through the steps is checked once against
    B^T F B of the lattice returned."""
    check_completion(L, target_scale)
    return complete_after_check(L, target_scale)


def complete_after_check(L: PadicLattice, target_scale: int) -> PadicLattice:
    """`maximal_completion` for arguments that `check_completion` passed."""
    current = L
    while (enlarged := _first_superlattice(current, target_scale)) is not None:
        current = enlarged
    g, d = current.exact_gram()
    gd = current.gram_den
    if any(x * d != y * gd for row, exact in zip(current.gram_num, g) for x, y in zip(row, exact)):
        raise LatticeError("internal: the carried Gram disagrees with B^T F B")
    return current


def unimodular_isometric(g1: Matrix, g2: Matrix, p: int) -> bool:
    """Classification of unimodular symmetric forms over Z_p, p odd: equal
    dimension and determinant ratio a square unit.  Each Gram must be
    p-integral with a unit determinant."""
    check_prime(p, odd=True)
    g1, g2 = mat(g1), mat(g2)
    d1, d2 = det(g1), det(g2)
    for g, d in ((g1, d1), (g2, d2)):
        if d == 0 or valuation(d, p) != 0 or not _mat_p_integral(g, p):
            raise LatticeError("forms must be unimodular (p-integral, unit determinant)")
    if len(g1) != len(g2):
        return False
    return legendre(unit_residue(d1 * d2, p), p) == 1


# ---------------------------------------------------------------------------
# Unimodular congruence witnesses at finite precision


def _sqrt_mod_pk(u: int, p: int, k: int) -> int:
    """Square root of a unit square u modulo p^k (canonical choice: the
    smaller residue mod p, then Hensel)."""
    if u % p == 0:
        raise LatticeError("not a quadratic residue")
    try:
        x = sqrt_mod_p(u, p)
    except ExactError as e:
        raise LatticeError("not a quadratic residue") from e
    return lift_root(0, -u, x, p, k)


def unimodular_congruence_witness(u1: Matrix, u2: Matrix, p: int, k: int) -> Matrix:
    """A p-integral rational matrix T with T^T u1 T = u2 modulo p^k, for
    unimodular-isometric symmetric u1, u2 (p odd)."""
    if not unimodular_isometric(u1, u2, p):
        raise LatticeError("forms are not unimodular-isometric")
    t1 = _reduce_to_standard(mat(u1), p, k)
    t2 = _reduce_to_standard(mat(u2), p, k)
    t = mat_mul(t1, inverse(t2))
    return _entries_mod_pk(t, p, k)


def _entries_mod_pk(m: Matrix, p: int, k: int) -> Matrix:
    """Reduce p-integral rational entries to their integer representatives
    modulo p^k (keeps the congruence, shrinks the entries).  Every caller
    passes a p-integral m: `_cayley_orthogonal_round` tests it first, and
    the T of `_reduce_to_standard` and `unimodular_congruence_witness` is
    built from unit pivots."""
    mod = p**k
    return [[Fraction(x.numerator * pow(x.denominator, -1, mod) % mod) for x in row] for row in m]


def _reduce_to_standard(u: Matrix, p: int, k: int) -> Matrix:
    """T with T^T u T = diag(1, ..., 1, delta) mod p^k, k >= 1, where delta
    is 1 or the canonical non-residue."""
    check_prime(p, odd=True)
    if k < 1:
        raise LatticeError("precision must be positive")
    n = len(u)
    try:
        diag, t = diagonalize(
            symmetric_form_q(u), lambda x: 1 / x if x and valuation(x, p) == 0 else None
        )
    except FormError:
        raise LatticeError("form is not unimodular at p") from None
    mod = p**k
    residues = [unit_residue(d, p, mod) for d in diag]
    cols = [[t[r][c] for r in range(n)] for c in range(n)]
    # classify entries; scale residue entries to 1, pair up non-residues
    nonresidues = []
    for idx in range(n):
        if legendre(residues[idx] % p, p) == 1:
            r = _sqrt_mod_pk(residues[idx], p, k)
            inv_r = Fraction(pow(r, -1, mod))
            cols[idx] = [x * inv_r for x in cols[idx]]
        else:
            nonresidues.append(idx)
    while len(nonresidues) >= 2:
        i, j = nonresidues[0], nonresidues[1]
        nonresidues = nonresidues[2:]
        ui, uj = residues[i], residues[j]
        x, y = _represent_one(ui, uj, p, k)
        ci, cj = cols[i], cols[j]
        new_i = [x * a + y * b for a, b in zip(ci, cj)]
        new_j = [(-uj * y % mod) * a + (ui * x % mod) * b for a, b in zip(ci, cj)]
        # norms: 1 and ui*uj (a residue); rescale the second
        s = _sqrt_mod_pk(ui * uj % mod, p, k)
        inv_s = Fraction(pow(s, -1, mod))
        cols[i] = new_i
        cols[j] = [v * inv_s for v in new_j]
    if nonresidues:
        # move the leftover non-residue to the last slot, normalized to the
        # canonical non-residue
        idx = nonresidues[0]
        nu = least_nonresidue(p)
        ratio = residues[idx] * pow(nu, -1, mod) % mod
        s = _sqrt_mod_pk(ratio, p, k)
        inv_s = Fraction(pow(s, -1, mod))
        cols[idx] = [v * inv_s for v in cols[idx]]
        cols.append(cols.pop(idx))
    t_out = [[cols[c][r] for c in range(n)] for r in range(n)]
    return _entries_mod_pk(t_out, p, k)


def _represent_one(u: int, v: int, p: int, k: int) -> tuple[int, int]:
    """(x, y) with u x^2 + v y^2 = 1 mod p^k, x or y a unit: the first x
    mod p with (1 - u x^2) / v a square mod p, and the unit coordinate
    lifted by `_sqrt_mod_pk` (x itself when y = 0 mod p).  Some x exists:
    for p odd every nondegenerate binary form over F_p represents 1 (Serre,
    *A Course in Arithmetic*, ch. IV 1.7)."""
    mod = p**k
    for x in range(p):
        target = (1 - u * x * x) * pow(v, -1, mod) % mod
        if target % p == 0:
            return _sqrt_mod_pk(pow(u, -1, mod), p, k), 0
        if legendre(target, p) == 1:
            return x, _sqrt_mod_pk(target, p, k)


# ---------------------------------------------------------------------------
# The split-case solver


def _cayley_orthogonal_round(h: Matrix, p: int, k: int) -> Matrix:
    """Round an approximately orthogonal p-adic matrix to an exactly
    orthogonal rational matrix congruent to it modulo p^k (Cayley transform
    of the skew-symmetrized parameter, in the first sign chart where the
    parameter is p-integral).  The rounded parameter xs is skew, so
    det(I + xs) is a product of factors 1 + lambda^2 > 0."""
    n = len(h)
    eye = identity(n)
    for j in _sign_charts(n):
        hj = mat_mul(h, j)
        if det(mat_add(eye, hj)) == 0:
            continue
        x = mat_mul(mat_sub(eye, hj), inverse(mat_add(eye, hj)))
        if not _mat_p_integral(x, p):
            continue
        # reduce entries first, then skew-symmetrize (the order matters:
        # per-entry modular reduction does not commute with transposition)
        xr = _entries_mod_pk(x, p, k)
        xs = mat_scale(Fraction(1, 2), mat_sub(xr, transpose(xr)))
        hstar = mat_mul(mat_sub(eye, xs), inverse(mat_add(eye, xs)))
        return mat_mul(hstar, j)
    raise LatticeError("no Cayley chart found for the orthogonal rounding")


def _sign_charts(n: int):
    """The 2^(n-1) diagonal sign matrices of determinant +1, each its own
    inverse, identity first: by the number of -1 entries, then in `product`
    order.  They suffice for p odd and h p-integral: X = (I - hj)(I + hj)^-1
    is p-integral exactly when det(I + hj) is a p-unit, as (I + X)(I + hj)
    = 2I.  With h mod p in SO_n(F_p) (`solve_after_check` flips a column so
    that det h = 1 mod p), f(d) = det(I + h diag(d)) is affine in each d_i
    with d_1...d_n coefficient det h = 1, so the sum over d in {+-1}^n of
    (prod d_i) f(d) is 2^n.  An orthogonal m with det m = -1 has
    det(I + m) = 0, so the terms with prod d_i = -1 vanish, and some
    det-one chart has f(d) != 0 mod p.  The h of `solve_after_check` is not
    p-integral, so this does not cover it: with b0^T q b0 = m' I, h =
    b0^-1 b' p-integral would put m' q^-1 Z_p^n, inside the lattice of b',
    in that of b0, so b0^T = b0^-1 m' q^-1 would be p-integral, and b0 too."""
    for k in range(0, n + 1, 2):
        for signs in product((1, -1), repeat=n):
            if signs.count(-1) == k:
                yield mat([[s if i == c else 0 for c in range(n)] for i, s in enumerate(signs)])


def check_local_solve(q: Matrix, a: Matrix, m_prime: Fraction, p: int) -> tuple[Matrix, Fraction]:
    """The preconditions of `split_local_solve`, in order, for rational
    matrices q, a and a rational m'; returns q^{-1} and sqrt(m'/m), which
    the solver goes on with.  p must be an odd prime."""
    check_prime(p, odd=True)
    if q != transpose(q):
        raise LatticeError("q must be symmetric")
    if not _mat_p_integral(q, p):
        raise LatticeError("q must be p-integral")
    if det(q) == 0:
        raise LatticeError("q must be nonsingular")
    if m_prime == 0 or valuation(m_prime, p) < 0:
        raise LatticeError("m' must be a nonzero p-adic integer")
    m = scalar_of(mat_mul(mat_mul(transpose(a), q), a))
    if m is None or m == 0:
        raise LatticeError("a^T q a must be a nonzero rational scalar")
    qinv = inverse(q)
    if not _mat_p_integral(mat_scale(m_prime, qinv), p):
        raise LatticeError("m' q^{-1} must be p-integral")
    s = rational_sqrt(m_prime / m)
    if s is None:
        raise LatticeError(
            "m'/m must be a positive rational square for an exact certificate"
        )
    return qinv, s


# the p-adic working precision k of `split_local_solve` and `local-solve`
PRECISION = 12
# the largest scale(L) - target_scale that the `maximal-lattice` verb accepts
# (the lattice glue is not bounded by it): each step lowers the scale by at
# most one and the integers grow; the measured cost table is in the README
MAX_SCALE_GAP = 64


def split_local_solve(
    q: Matrix, a: Matrix, m_prime: Fraction | int, p: int, precision: int = PRECISION
) -> Matrix:
    """b with p-integral entries and b^T q b = m' * I exactly.

    Preconditions (`check_local_solve`): q integral symmetric nonsingular;
    a^T q a = m * I for a rational scalar m; m' q^{-1} p-integral; m'/m a
    rational square.  The last condition strengthens the p-adic-square
    hypothesis of the local theory: it is what makes an exact rational
    certificate possible, and it holds for every instance the global
    solver generates.

    Construction: scale a to b0 = sqrt(m'/m) a (exact Gram m' * I); when b0
    is not p-integral, transport it onto the maximal completion of
    m' q^{-1} Z_p^n by a unimodular isometry mod p^precision and round the
    correction to an exact orthogonal matrix through the Cayley transform.
    """
    q, a, m_prime = mat(q), mat(a), frac(m_prime)
    qinv, s = check_local_solve(q, a, m_prime, p)
    return solve_after_check(q, a, m_prime, p, precision, qinv, s)


def solve_after_check(
    q: Matrix, a: Matrix, m_prime: Fraction, p: int, k: int, qinv: Matrix, s: Fraction
) -> Matrix:
    """`split_local_solve` at precision k for rational arguments that
    `check_local_solve` passed, returning (qinv, s).  A rounding that fails
    doubles k: the tries are k, 2k, 4k, 8k and 16k, and go on while k is
    below the bound -min v_p(s a), the exponent of p in the denominators of
    b0 = s a (at 5, the rounding of the rotation by ((3 + 4i) / 5)^e first
    holds at k = e, for e = 18, 50 and 200)."""
    n = len(q)
    b0 = mat_scale(s, a)
    if _mat_p_integral(b0, p):
        return b0

    target = valuation(m_prime, p)
    form = symmetric_form_q(q)
    lam0 = PadicLattice(p, mat_scale(m_prime, qinv), form)
    # check_completion holds: det q != 0, scale = v(m') + min v(m' q^-1) >= target
    lam_max = complete_after_check(lam0, target)
    # U' = Gram / m' is unimodular: scale(U') = scale - target >= 0, and
    # v_p(det U') = v_p(det G) - n v_p(D) - n target = 0
    g, d = lam_max.gram_num, lam_max.gram_den
    if scale(lam_max) < target or _vp(det(g).numerator, p) != n * (_vp(d, p) + target):
        raise LatticeError("maximal completion did not reach a unimodular Gram")
    bprime = lam_max.basis
    uprime = mat_scale(1 / m_prime, lam_max.gram())

    for tries in count(1):
        # U' is unimodular with det (det B' / det a)^2 s^(-2n), a square, so
        # it is isometric to I, and reducing I gives I: T^T U' T = I mod p^k
        t = _reduce_to_standard(uprime, p, k)
        bp = mat_mul(bprime, t)
        h = mat_mul(inverse(b0), bp)
        if (det(h) + 1).numerator % p == 0:
            flip = identity(n)
            flip[n - 1][n - 1] = Fraction(-1)
            h = mat_mul(h, flip)
        try:
            hstar = _cayley_orthogonal_round(h, p, k)
            b = mat_mul(b0, hstar)
            check = mat_mul(mat_mul(transpose(b), q), b)
            if scalar_of(check) == m_prime and _mat_p_integral(b, p):
                return b
        except LatticeError:
            pass
        if tries >= 5 and k >= (bound := -_least_valuation(*numerators(b0), p)):
            raise LatticeError(
                f"orthogonal rounding failed at all precisions up to {k} "
                f"(the bound -min v_p(s a) is {bound})"
            )
        k *= 2


def unit_case_parity(q: Matrix, a: Matrix, p: int, k: int):
    """Dichotomy for unimodular q with a^T q a = m scalar: either v_p(m) is
    even, or a witness b with b^T q b = I mod p^k exists (p an odd prime)."""
    check_prime(p, odd=True)
    q = mat(q)
    a = mat(a)
    n = len(q)
    dq = det(q)
    if dq == 0 or valuation(dq, p) != 0 or not _mat_p_integral(q, p):
        raise LatticeError("q must be unimodular")
    aqa = mat_mul(mat_mul(transpose(a), q), a)
    m = scalar_of(aqa)
    if m is None or m == 0:
        raise LatticeError("a^T q a must be a nonzero rational scalar")
    if valuation(m, p) % 2 == 0:
        return ("even-valuation", None)
    # det(a)^2 det q = m^n: n is even, det q a square unit (the witness re-checks)
    b = unimodular_congruence_witness(q, identity(n), p, k)
    return ("isometry-witness", b)
