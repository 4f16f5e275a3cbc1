"""Global bounded-norm solver: given (E, dagger, R, Nm, q, a) with
a^dagger q a rational, produce b in R with b^dagger q b a nonzero integer
and controlled norm.

Fully implemented routes:
  * a quadratic field under the identity (ideal algorithm: q = m / a^2
    lies in Q^x F^x2, and `quadfield.square_root_up_to_rational`, which
    the Hecke decision calls too, gives an integral b with b^2 q
    rational).  Its one fallback to the oracle is a non-maximal order;
    the square root cannot fail on a valid instance;
  * split matrix case M_n(Q) with transpose involution (local maximal
    lattices glued over the bad primes, 2 included, by Chinese
    remaindering, then the resulting unimodular positive definite Gram u
    written as T^T T: u is in the class of I_n exactly when a complete
    enumeration finds n pairs of norm-1 vectors, so a Gram with an E8
    summand, possible for n >= 8, is a certified fallback; the others are
    a non-transpose involution and a q that is not positive definite);
  * a rational scalar q (Q, a field under conjugation, a quaternion
    algebra, Q x Q swapped, q = c I): b = 1, of least norm 1, no search;
  * a universal brute-force oracle over coordinate boxes.

The achieved constant c = Nm(b) / Nm(q)^{d - 1/2} is reported, never
asserted: the exponent the paper's global statement carries is d - 1/2,
while the commutative ideal construction sketch only guarantees
Nm(ideal) <= Nm(q)^{(3d-1)/2}; the result records what was achieved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain, combinations, product
from math import gcd, isqrt, lcm, prod

from .algebras import (
    AlgebraWithInvolution,
    OrderR,
    matrix_algebra_q,
    norm,
    quadfield_algebra,
    rational_algebra,
)
from .exact import factorint, square_class, valuation
from .forms import is_positive_definite, symmetric_form_q
from .lattices_local import PadicLattice, maximal_completion
from .linalg import (
    RationalRing,
    det,
    frac,
    hnf,
    int_mat_mul,
    inverse,
    mat,
    mat_mul,
    numerators,
    rational_of,
    transpose,
)
from .quadfield import QuadElem, QuadField, square_root_up_to_rational


class DegreeBoundError(ValueError):
    pass


class OracleBudgetError(RuntimeError):
    def __init__(self, explored: int):
        super().__init__(f"oracle budget exceeded after exploring box radius {explored}")
        self.explored = explored


@dataclass
class BoundInstance:
    """(R, q, a) with q symmetric in the order R and a^dagger q a a nonzero
    rational scalar (checked).  The algebra, its involution and its norm
    exponents are those of R (`algebra` reads `order.algebra`).  a = None
    builds an instance with no similitude hypothesis: the ideal algorithm
    and the M_n(Z) lattice glue refuse it (`require_similitude`), and the
    oracle fallback takes it, answering a scalar q by b = 1."""

    order: OrderR
    q: tuple
    a: tuple | None

    def __post_init__(self):
        A = self.algebra
        if not A.eq(A.involve(self.q), self.q):
            raise DegreeBoundError("q must be symmetric under the involution")
        if not self.order.contains(self.q):
            raise DegreeBoundError("q must lie in the order")
        if self.a is None:
            self.m = None
            return
        m = rational_of(A.mul(A.mul(A.involve(self.a), self.q), self.a), A)
        if m is None or m == 0:
            raise DegreeBoundError("a^dagger q a must be a nonzero rational scalar")
        self.m = m

    def require_similitude(self) -> Fraction:
        if self.m is None:
            raise DegreeBoundError("this instance has no similitude element a")
        return self.m

    @property
    def algebra(self) -> AlgebraWithInvolution:
        return self.order.algebra

    @property
    def d(self) -> int:
        return self.algebra.rank_d

    def norm_q(self) -> Fraction:
        return norm(self.algebra, self.q)


@dataclass
class BoundResult:
    b: tuple
    value: int
    norm_b: Fraction
    norm_q: Fraction
    d: int
    method: str
    notes: dict = field(default_factory=dict)

    @property
    def achieved_ratio_squared(self) -> Fraction:
        """c^2 = Nm(b)^2 / Nm(q)^{2d-1}, exact (avoids the half-integer
        exponent)."""
        return self.norm_b**2 / self.norm_q ** (2 * self.d - 1)


def verify_result(inst: BoundInstance, res: BoundResult) -> None:
    """Exact re-verification: b in R, b^dagger q b = value in Z - {0},
    Nm(b) = norm_b."""
    A = inst.algebra
    if not inst.order.contains(res.b):
        raise DegreeBoundError("result b is not in the order")
    val = rational_of(A.mul(A.mul(A.involve(res.b), inst.q), res.b), A)
    if val is None or val == 0 or val.denominator != 1:
        raise DegreeBoundError("b^dagger q b is not a nonzero rational integer")
    if val != res.value:
        raise DegreeBoundError("reported value mismatch")
    if norm(A, res.b) != res.norm_b:
        raise DegreeBoundError("reported norm mismatch")


def _verified(inst: BoundInstance, method: str, b, value, norm_b, notes=None) -> BoundResult:
    """The one place a route's answer is built, and checked by
    `verify_result` before it is returned."""
    res = BoundResult(b, int(value), norm_b, inst.norm_q(), inst.d, method, dict(notes or {}))
    verify_result(inst, res)
    return res


# ---------------------------------------------------------------------------
# Instance constructors


def quadfield_instance(D: int | QuadField, q_coords, a_coords, involution: str = "identity") -> BoundInstance:
    F = D if isinstance(D, QuadField) else QuadField(D)
    order = OrderR(quadfield_algebra(F, involution))
    q = (QuadElem(F, frac(q_coords[0]), frac(q_coords[1])),)
    a = (QuadElem(F, frac(a_coords[0]), frac(a_coords[1])),)
    return BoundInstance(order, q, a)


def rational_instance(q: int | Fraction, a=1) -> BoundInstance:
    return BoundInstance(OrderR(rational_algebra()), (frac(q),), (frac(a),))


def matrix_instance(n: int, q_rows, a_rows, gamma: int = 1) -> BoundInstance:
    A = replace(matrix_algebra_q(n), gammas=(gamma,))
    return BoundInstance(OrderR(A), (mat(q_rows),), (mat(a_rows),))


# ---------------------------------------------------------------------------
# Commutative solver


def solve_commutative(inst: BoundInstance) -> BoundResult:
    """The ideal algorithm over one quadratic field under the identity, the
    only algebra `solve` sends here.  Over a maximal order, q = m / a^2
    lies in Q^x F^x2 (a q a = m under the identity), so
    `quadfield.square_root_up_to_rational` answers b with b^2 q a nonzero
    rational, |Nm b| least over its twists, and the square-root ideal J
    before them, whose norm the notes report: it succeeds on such q (its
    docstring).  The oracle answers instead only for a non-maximal order;
    the walk on reduced forms may stop at `quadfield.MAX_CYCLE_STEPS`
    (ResourceError)."""
    inst.require_similitude()
    F = inst.algebra.factors[0].ring
    if not inst.order.contains((F.omega(),)):
        return _oracle_fallback(inst, "non-maximal order: ideal algorithm unavailable")
    q = inst.q[0]
    nq = inst.norm_q()
    b_elem, value, ideal_b = square_root_up_to_rational(q)
    notes = {
        "ideal_norm": str(ideal_b.norm()),
        "ideal_bound_ok": ideal_b.norm() ** 2 <= nq ** (3 * inst.d - 1),
    }
    return _verified(inst, "ideal-algorithm", (b_elem,), value, abs(b_elem.norm()), notes)


# ---------------------------------------------------------------------------
# Split matrix solver


def solve_split_matrix(inst: BoundInstance) -> BoundResult:
    """M_n(Q) with the transpose involution and R = M_n(Z): glue the local
    maximal-lattice solutions over the bad primes into one integer lattice,
    then split the resulting unimodular positive definite Gram u as T^T T,
    which exists exactly when u has n pairs of norm-1 vectors (see
    `identity_form_decomposition`; for n >= 8 an E8 summand can leave
    fewer, and that fallback reason is then a proof).  `solve` sends only
    M_n(Q) here.  Positive definite q only; everything else routes to the
    oracle."""
    f0 = inst.algebra.factors[0]
    if not f0.z_is_identity:
        return _oracle_fallback(inst, "non-transpose involutions route to the oracle")
    # R holds every matrix unit, so R = M_n(Z), a maximal order
    if not inst.order.contains_qbasis():
        return _oracle_fallback(inst, "order is not M_n(Z): lattice glue unavailable")
    n = f0.matrix_size
    q = inst.q[0]
    m = inst.require_similitude()
    qform = symmetric_form_q(q)
    if not is_positive_definite(qform):
        return _oracle_fallback(inst, "q is not positive definite")
    qinv, qden = numerators(inverse(q))
    detq = det(q)  # an integer: q lies in R = M_n(Z)
    bad = set(factorint(abs(int(detq))).keys())
    bad |= set(factorint(m.numerator * m.denominator).keys())
    # choose m'' = m * s^2 with m'' q^{-1} integral; m'' is a positive integer:
    # m > 0 (q is positive definite), v_p(m'') >= kappa >= 0 at each bad prime.
    # kappa = -min v_p of an entry of q^{-1} = qinv / qden, the v_p of its
    # content gcd(qinv) / qden, as v_p of a gcd is the least v_p of its arguments
    content = Fraction(gcd(*chain.from_iterable(qinv)), qden)
    s = Fraction(1)
    for p in sorted(bad):
        kappa = max(0, -valuation(content, p))
        need = kappa - valuation(m, p)
        if need > 0:
            s *= Fraction(p) ** ((need + 1) // 2)
    m2 = m * s * s
    # at each active prime, the maximal completion of m'' q^{-1} Z_p^n
    # is the local solution lattice; its integer rows span L_p, of index p^K
    # in Z^n at p.  (Its basis is integral: each step divides by p, and L_p,
    # integral under q / m'', lies in its own dual, inside the dual Z_p^n of
    # m'' q^{-1} Z_p^n.)  L_p + p^K Z^n is L_p at p and Z^n at every other prime,
    # so the glued lattice, the intersection of these, is by Chinese
    # remaindering the sum of the e_p (L_p + p^K Z^n), e_p the product of
    # the other primes' p^K; every e_p p^K Z^n is E Z^n, E = prod p^K
    active = sorted(p for p in bad if valuation(m2, p) > 0 or valuation(detq, p) != 0)
    lam_basis = ([[m2.numerator * x for x in row] for row in qinv], qden * m2.denominator)
    local = []
    for p in active:
        lam = maximal_completion(PadicLattice(p, lam_basis, qform), valuation(m2, p))
        # the integral basis N / d of L_p, one row per column
        rows = hnf([[x // lam.den for x in col] for col in zip(*lam.num)])
        local.append((p ** valuation(det(rows), p), rows))
    big_e = prod(pk for pk, _ in local)
    glued = hnf(
        [[big_e * (i == j) for j in range(n)] for i in range(n)]
        + [[big_e // pk * x for x in row] for pk, rows in local for row in rows]
    )
    # the rows of `glued` are the columns of b*, and u = b*^T q b* / m'' is
    # w / m'' on integers (q lies in R = M_n(Z)).  q / m'' is I_n over Q,
    # so det u is a square, and each L_p is maximal with q / m'' integral
    # on it: unimodular at odd p, as maximal lattices are isometric
    # (O'Meara 91:2), and at p = 2 as [L^# : L] <= 2 (else some x in
    # L^# - L has x^T (q / m'') x integral, and L + Z_2 x is too)
    w = int_mat_mul(int_mat_mul(glued, numerators(q)[0]), transpose(glued))
    mi = m2.numerator
    if any(x % mi for row in w for x in row) or abs(det(w)) != mi**n:
        raise DegreeBoundError("internal: the glued Gram is not unimodular")
    t = identity_form_decomposition([[x // mi for x in row] for row in w])
    if t is None:
        return _oracle_fallback(inst, "unimodular Gram is not in the class of I_n")
    b = mat_mul(transpose(glued), inverse(t))
    notes = {"m2": str(m2), "active_primes": active}
    return _verified(inst, "lattice-glue", (b,), m2, abs(det(b)) ** inst.algebra.gammas[0], notes)


def identity_form_decomposition(u) -> list | None:
    """T in GL_n(Z) with u = T^T T for a positive definite integral Gram u,
    or None exactly when u is not in the class of I_n.

    Two distinct norm-1 vectors x != -y of an integral lattice are
    orthogonal (Cauchy-Schwarz gives |x^T u y| < 1), so u is in the class
    of I_n iff it has n pairs +-x of norm-1 vectors, and then the matrix v
    with one x of each pair as columns has v^T u v = I_n, i.e. T = v^-1 =
    v^T u.  The pairs are listed completely, in integers from start to
    end.  The Gram-Schmidt data of the basis are d[i], the leading minor
    of order i of u (d[0] = 1), and the integers lam[i][j] = d[j+1] mu_ij;
    the squared lengths are r_j = d[j+1] / d[j], so u is positive definite
    iff every d[i] is positive (Sylvester).  Integral LLL reduction
    (Lenstra, Lenstra and Lovasz 1982; Cohen, GTM 138, Alg. 2.6.7) and
    Fincke-Pohst enumeration (Math. Comp. 44, 1985) run on these.  The
    columns of v each have a positive first nonzero entry and stand in
    decreasing lexicographic order, so u = I_n gives T = I_n."""
    n = len(u)
    u = [[int(x) for x in row] for row in u]
    d, lam = [1] * (n + 1), [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            x = u[i][j]
            for k in range(j):
                x = (d[k + 1] * x - lam[i][k] * lam[j][k]) // d[k]
            lam[i][j] = x
        d[i + 1] = lam[i][i]
        if d[i + 1] <= 0:
            return None
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    _lll(d, lam, basis)
    vectors = int_mat_mul(list(_norm_one_vectors(d, lam, [0] * n, n - 1, 0)), basis)
    cols = [col for col in vectors if next(v for v in col if v) > 0]
    return int_mat_mul(sorted(cols, reverse=True), u) if len(cols) == n else None


def _lll(d, lam, basis) -> None:
    """LLL-reduce the rows of `basis` in place (delta = 3/4) on their
    integral Gram-Schmidt data d, lam (Cohen, GTM 138, Alg. 2.6.7, every
    lam known from the start).  The test r_k >= (3/4 - mu^2) r_{k-1} is
    4 d[k+1] d[k-1] >= 3 d[k]^2 - 4 lam[k][k-1]^2, and each division is
    exact."""
    n = len(basis)

    def size_reduce(k, l):
        if q := (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1]):
            basis[k] = [a - q * b for a, b in zip(basis[k], basis[l])]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]
            lam[k][l] -= q * d[l + 1]

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        m = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * m * m:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
            continue
        basis[k - 1], basis[k] = basis[k], basis[k - 1]
        lam[k - 1][: k - 1], lam[k][: k - 1] = lam[k][: k - 1], lam[k - 1][: k - 1]
        b = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for row in lam[k + 1 :]:
            t = row[k]
            row[k] = (d[k + 1] * row[k - 1] - m * t) // d[k]
            row[k - 1] = (b * t + m * row[k]) // d[k + 1]
        d[k] = b
        k = max(k - 1, 1)


def _norm_one_vectors(d, lam, x, j, e):
    """Every nonzero integer x with sum_j (d[j+1] x_j + c_j)^2 / (d[j+1]
    d[j]) <= 1, c_j = sum_{i>j} lam_ij x_i, which for an integral Gram is
    norm exactly 1, yielded from x_i fixed for i > j (Fincke-Pohst).  The
    terms after j sum to the squared length P of the projection orthogonal
    to the first j + 1 basis vectors, and e = d[j+1] P is an integer (the
    projection is y - B G^-1 B^T y, G their Gram, of determinant d[j+1]).
    So the admissible t = d[j+1] x_j + c_j are those with t^2 <= d[j]
    (d[j+1] - e), an interval from one isqrt, and e becomes (d[j] e + t^2)
    / d[j+1]."""
    if j < 0:
        if any(x):
            yield list(x)
        return
    c = sum(lam[i][j] * x[i] for i in range(j + 1, len(x)))
    s = isqrt(d[j] * (d[j + 1] - e))
    for v in range(-((s + c) // d[j + 1]), (s - c) // d[j + 1] + 1):
        x[j] = v
        t = d[j + 1] * v + c
        yield from _norm_one_vectors(d, lam, x, j - 1, (d[j] * e + t * t) // d[j + 1])


# ---------------------------------------------------------------------------
# Oracle


def brute_force_oracle(
    inst: BoundInstance,
    norm_cap: Fraction,
    max_radius: int = 24,
    budget: int = 2_000_000,
    extra_shells: int = 2,
) -> BoundResult | None:
    """Minimum-norm b in the explored coordinate box with b^dagger q b in
    Z - {0} and Nm(b) <= norm_cap.  Boxes grow by shells; after the first
    hit a fixed number of further shells is still explored.  Returns None
    when the box is exhausted without a hit; raises OracleBudgetError when
    the budget dies first."""
    A = inst.algebra
    order = inst.order
    dim = A.dim_q
    norm_cap = frac(norm_cap)
    forms = _rational_scalar_forms(inst)
    best: tuple | None = None
    explored = 0
    found_radius = None
    # per-element evaluation cost grows ~dim^2; keep the total work flat
    budget = min(budget, max(20_000, 2_000_000 // (dim * dim)))
    # and keep the box within the element budget: (2r+1)^dim <= ~budget
    radius_cap = 1
    while (2 * (radius_cap + 1) + 1) ** dim <= budget:
        radius_cap += 1
    max_radius = min(max_radius, radius_cap)
    for radius in range(1, max_radius + 1):
        if found_radius is not None and radius > found_radius + extra_shells:
            break
        for coords in _shell(dim, radius):
            explored += 1
            if explored > budget:
                if best is not None:
                    break
                raise OracleBudgetError(radius)
            if any(sum(c * coords[i] * coords[j] for i, j, c in f) for f in forms):
                continue
            b = order.element_from_coordinates(coords)
            # every form vanishes, so b^dagger q b is rational
            val = rational_of(A.mul(A.mul(A.involve(b), inst.q), b), A)
            if val == 0 or val.denominator != 1:
                continue
            nb = norm(A, b)
            if nb > norm_cap:
                continue
            key = (nb, coords)
            if best is None or key < best[0]:
                best = (key, b, int(val))
                if found_radius is None:
                    found_radius = radius
        if explored > budget:
            break
    if best is None:
        return None
    return _verified(inst, "oracle", best[1], best[2], best[0][0], {"explored": explored})


def _rational_scalar_forms(inst: BoundInstance) -> list[list[tuple]]:
    """Integer quadratic forms in the coordinates x of b in the order basis
    that all vanish iff b^dagger q b is a rational scalar.

    The involution is Q-linear, so V(x) = to_qcoords(b^dagger q b) =
    sum_ij x_i x_j T_ij with T_ij = to_qcoords(e_i^dagger q e_j), and V is a
    rational multiple of u = to_qcoords(1) iff u[k0] V_k - u[k] V_k0 = 0 for
    every k, k0 the first nonzero coordinate of u.  Each form is a list of
    (i, j, c), i <= j, with denominators cleared; all-zero forms and
    repeats (b^T q b is symmetric in M_n(Q) under the transpose, so
    coordinates (k, l) and (l, k) give one form) are dropped."""
    A = inst.algebra
    dim = A.dim_q
    basis = inst.order.basis_elements
    qe = [A.mul(inst.q, e) for e in basis]
    t = [[A.to_qcoords(A.mul(A.involve(ei), qej)) for qej in qe] for ei in basis]
    u = A.to_qcoords(A.one())
    k0 = next(k for k, c in enumerate(u) if c != 0)
    forms = []
    for k in range(dim):
        if k == k0:
            continue
        terms = []
        for i in range(dim):
            for j in range(i, dim):
                c = u[k0] * t[i][j][k] - u[k] * t[i][j][k0]
                if i != j:
                    c += u[k0] * t[j][i][k] - u[k] * t[j][i][k0]
                if c:
                    terms.append((i, j, c))
        if terms:
            den = lcm(*(c.denominator for _, _, c in terms))
            form = [(i, j, int(c * den)) for i, j, c in terms]
            if form not in forms:
                forms.append(form)
    return forms


def _shell(dim: int, radius: int):
    """Integer points with max-norm exactly `radius`, lexicographic,
    generated without revisiting the box interior."""
    if dim == 1:
        yield (-radius,)
        yield (radius,)
        return
    for x0 in range(-radius, radius + 1):
        if abs(x0) == radius:
            for rest in product(range(-radius, radius + 1), repeat=dim - 1):
                yield (x0,) + rest
        else:
            for rest in _shell(dim - 1, radius):
                yield (x0,) + rest


def _cleared_similitude_result(inst: BoundInstance) -> BoundResult | None:
    """The paper's trivial candidate: clear denominators of a; then t a is
    in R, and (t a)^dagger q (t a) = t^2 m lies in R (dagger-stable) and in
    Q, so in Z: R is a finitely generated Z-module that holds 1."""
    if inst.a is None:
        return None
    t = numerators([inst.order.coordinates(inst.a)])[1]
    b = inst.algebra.scale(Fraction(t), inst.a)
    return _verified(inst, "cleared-similitude", b, inst.m * t * t, norm(inst.algebra, b))


def _oracle_fallback(inst: BoundInstance, reason: str) -> BoundResult:
    # q = c 1 lies in R, so c is an integer, and b = 1 is optimal: any b
    # with b^dagger q b a nonzero scalar is invertible in E, so every
    # Nrd(b_i) is a nonzero algebraic integer and Nm(b) >= 1
    if c := rational_of(inst.q, inst.algebra):
        return _verified(inst, "scalar", inst.algebra.one(), c, Fraction(1))
    direct = _cleared_similitude_result(inst)
    cap = direct.norm_b if direct is not None else inst.norm_q() ** (2 * inst.d)
    try:
        res = None if direct is not None and direct.norm_b == 1 else brute_force_oracle(inst, cap)
    except OracleBudgetError:
        res = None
    if res is None or (direct is not None and direct.norm_b < res.norm_b):
        res = direct
    if res is None:
        raise DegreeBoundError(f"{reason}; oracle found no solution either")
    res.method = res.method if res.method == "cleared-similitude" else "oracle-fallback"
    res.notes["fallback_reason"] = reason
    return res


def solve(inst: BoundInstance) -> BoundResult:
    """Dispatch: a quadratic field under the identity to the ideal
    algorithm, M_n(Q) to the lattice glue, all else (Q and conjugation
    too) to `_oracle_fallback`, which answers a scalar q with b = 1."""
    f0 = inst.algebra.factors[0]
    single = len(inst.algebra.factors) == 1
    if single and isinstance(f0.ring, QuadField) and f0.involution == "identity":
        return solve_commutative(inst)
    if single and f0.matrix_size and isinstance(f0.ring, RationalRing):
        return solve_split_matrix(inst)
    return _oracle_fallback(inst, "no specialized route for this algebra")


# ---------------------------------------------------------------------------
# Constant measurement


@dataclass
class ConstantReport:
    entries: list[dict]
    empirical_c_squared: Fraction

    def as_json_dict(self) -> dict:
        return {
            "entries": self.entries,
            "empirical_c_squared": str(self.empirical_c_squared),
        }


def check_measure_constant(instances: list[BoundInstance]) -> None:
    """The precondition of `measure_constant`: a nonempty batch sharing one
    (R, dagger, Nm)."""
    if not instances:
        raise DegreeBoundError("empty batch")
    ref = instances[0].algebra
    if any(inst.algebra != ref for inst in instances):
        raise DegreeBoundError("instances must share (R, dagger, Nm)")


def measure_constant(instances: list[BoundInstance]) -> ConstantReport:
    """Run solver and oracle on a shared-(R, dagger, Nm) batch; the maximal
    achieved ratio is the empirical constant (reported squared to stay in
    exact arithmetic)."""
    check_measure_constant(instances)
    entries = []
    cmax = Fraction(0)
    for inst in instances:
        res = solve(inst)
        try:
            oracle = brute_force_oracle(inst, res.norm_b)
        except OracleBudgetError:
            oracle = None
        entry = {
            "norm_q": str(res.norm_q),
            "solver_norm_b": str(res.norm_b),
            "solver_value": res.value,
            "method": res.method,
            "ratio_squared": str(res.achieved_ratio_squared),
            "oracle_found_leq": oracle is not None,
            "oracle_norm_b": str(oracle.norm_b) if oracle else None,
        }
        entries.append(entry)
        cmax = max(cmax, res.achieved_ratio_squared)
    return ConstantReport(entries, cmax)


# ---------------------------------------------------------------------------
# Commutative-subalgebra integrality (the square-root lemma ingredient)


def torus_conductor(order: OrderR, x: tuple) -> int:
    """A constant c with: for all x' in L = Q[x], x'^2 in R implies
    c x' in R.  Takes c = [o_L : Z[x]], the conductor of the quadratic
    order Z[x] in the maximal order of L, read off the discriminant of the
    minimal polynomial of x.  (Z[x] is inside R cap L, so c o_L is too.)

    Requires x to be a non-rational element of the order generating an
    etale quadratic subalgebra."""
    A = order.algebra
    if not order.contains(x):
        raise DegreeBoundError("x must lie in the order")
    one = A.one()
    coords_one = A.to_qcoords(one)
    coords_x = A.to_qcoords(x)
    coords_x2 = A.to_qcoords(A.mul(x, x))
    pair = None
    nvars = len(coords_one)
    for i, j in combinations(range(nvars), 2):
        d = coords_x[i] * coords_one[j] - coords_x[j] * coords_one[i]
        if d != 0:
            alpha = (coords_x2[i] * coords_one[j] - coords_x2[j] * coords_one[i]) / d
            beta = (coords_x[i] * coords_x2[j] - coords_x[j] * coords_x2[i]) / d
            pair = (alpha, beta)
            break
    if pair is None:
        raise DegreeBoundError("x is rational: the lemma is trivial")
    alpha, beta = pair
    rhs = [alpha * cx + beta * co for cx, co in zip(coords_x, coords_one)]
    if coords_x2 != rhs:
        raise DegreeBoundError("x does not generate a quadratic subalgebra")
    # alpha, beta are integers: an element of an order is integral over Z
    dzx = int(alpha * alpha + 4 * beta)  # disc of Z[x] for x^2 = alpha x + beta
    if dzx == 0:
        raise DegreeBoundError("degenerate (non-etale) subalgebra")
    # disc(Z[x]) = f^2 d_K with d_K the discriminant of the maximal order of
    # L (1 when L = Q x Q), read off the squarefree part of disc(Z[x])
    s = square_class(dzx)
    d_k = s if s % 4 == 1 else 4 * s
    return isqrt(dzx // d_k)
