import dataclasses
import random
import re
import time
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from sympy import factorint

from polarith import degree_bound
from polarith.degree_bound import (
    BoundInstance,
    BoundResult,
    DegreeBoundError,
    OracleBudgetError,
    _rational_scalar_forms,
    _shell,
    brute_force_oracle,
    check_measure_constant,
    identity_form_decomposition,
    matrix_instance,
    measure_constant,
    quadfield_instance,
    rational_instance,
    solve,
    solve_commutative,
    solve_split_matrix,
    torus_conductor,
    verify_result,
)
from polarith.algebras import (
    AlgebraWithInvolution,
    OrderR,
    QuaternionRing,
    SimpleFactor,
    matrix_algebra_q,
    norm,
    quadfield_algebra,
)
from polarith.exact import valuation
from polarith.linalg import RationalRing, det, frac, identity, inverse, mat, mat_mul, qbasis, rational_of, transpose
from polarith.quadfield import QuadField, QuadElem, fundamental_unit, is_totally_positive


def test_rank_one_case():
    inst = rational_instance(7)
    res = solve(inst)
    assert res.method == "scalar"
    assert res.value == 7 and res.norm_b == 1


def test_spec_example_q_sqrt5():
    # q = 3 + sqrt5, a = (-1+sqrt5)/2: a^2 q = 2.
    # In (1, w) coordinates with w = (5+sqrt5)/2: sqrt5 = 2w - 5, so
    # q = -2 + 2w and a = -3 + w.
    F = QuadField(5)
    inst2 = quadfield_instance(5, (-2, 2), (-3, 1))
    assert inst2.m == 2
    res = solve_commutative(inst2)
    assert res.value == 2
    assert res.norm_b == 1
    assert res.norm_q == 4
    # bound: Nm(b) <= c * Nm(q)^{3/2}: c achieved = 1/8
    assert res.achieved_ratio_squared == Fraction(1, 4**3)
    b = res.b[0]
    assert b * b * QuadElem(F, Fraction(-2), Fraction(2)) == F.from_rational(2)


def test_trivial_q_one():
    inst = quadfield_instance(5, (1, 0), (1, 0))
    res = solve_commutative(inst)
    assert res.value == 1 and res.norm_b == 1


def test_commutative_various_instances_verified():
    rng = random.Random(31)
    F = QuadField(5)
    eps = fundamental_unit(F)
    count = 0
    for _ in range(40):
        x = rng.randint(-6, 6)
        y = rng.randint(-6, 6)
        q = QuadElem(F, Fraction(x), Fraction(y))
        if q.is_zero() or q.norm() == 0:
            continue
        # hypothesis: need a with a^2 q rational; q/sigma-conjugate square
        # classes: take q = n * z^2 shapes or q rational; build from z
        z = QuadElem(F, Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        if z.is_zero() or z.norm() == 0:
            continue
        n0 = rng.choice([1, 2, 3, 5, 7])
        q = z * z * n0
        a_elem = z.inv()
        inst = BoundInstance(
            quadfield_instance(5, (1, 0), (1, 0)).order,
            (q,),
            (a_elem,),
        )
        if not inst.order.contains(inst.q):
            continue
        res = solve_commutative(inst)
        verify_result(inst, res)
        count += 1
        # totally positive q must give positive value
        if is_totally_positive(q):
            assert res.value > 0
    assert count >= 15


def test_commutative_imaginary_conjugation():
    inst = quadfield_instance(-1, (5, 0), (1, 0), involution="conjugation")
    res = solve(inst)
    assert res.method == "scalar"
    assert res.value == 5 and res.norm_b == 1


def test_oracle_finds_minimum():
    inst = quadfield_instance(5, (-2, 2), (-3, 1))  # the 3+sqrt5 instance
    res = brute_force_oracle(inst, Fraction(16))
    assert res is not None
    assert res.norm_b == 1
    assert res.method == "oracle"


def test_rational_scalar_forms_are_distinct():
    """Under the transpose, b^T q b is symmetric for symmetric q, so the
    coordinates (0, 1) and (1, 0) of M_2(Q) give one form, kept once: the
    off-diagonal entry and the difference of the diagonal entries."""
    A = matrix_algebra_q(2)
    inst = BoundInstance(OrderR(A, tuple(qbasis(A))), (mat([[2, 1], [1, 3]]),), None)
    forms = _rational_scalar_forms(inst)
    assert len(forms) == 2 and forms[0] != forms[1]
    for x in _shell(4, 2):
        b = (mat([[x[0], x[1]], [x[2], x[3]]]),)
        btqb = mat_mul(mat_mul(transpose(b[0]), inst.q[0]), b[0])
        scalar = btqb[0][1] == 0 and btqb[0][0] == btqb[1][1]
        assert scalar == (not any(sum(c * x[i] * x[j] for i, j, c in f) for f in forms))


def test_oracle_none_when_obstructed():
    # q = sqrt5 * (3+sqrt5) = 5 + 3 sqrt5: q b^2 is never rational (sqrt5
    # is not in Q * F^2), so the hypothesis fails and the oracle finds
    # nothing up to the cap.  In (1, w) coordinates: q = -10 + 6w.
    F = QuadField(5)
    q = QuadElem(F, Fraction(-10), Fraction(6))
    base = quadfield_instance(5, (1, 0), (1, 0))
    with pytest.raises(DegreeBoundError):
        # a = 1 gives a^dagger q a = q, which is not a rational scalar
        BoundInstance(base.order, (q,), (F.one(),))
    inst = BoundInstance(base.order, (q,), None)
    assert brute_force_oracle(inst, Fraction(10**6), max_radius=10) is None
    with pytest.raises(DegreeBoundError):
        solve_commutative(inst)


def test_oracle_respects_cap_and_budget():
    inst = quadfield_instance(5, (1, 0), (1, 0))
    res = brute_force_oracle(inst, Fraction(1))
    assert res is not None and res.norm_b <= 1


def test_split_matrix_spec_example():
    q = [[1, 0], [0, 9]]
    a = [[1, 0], [0, Fraction(1, 3)]]
    inst = matrix_instance(2, q, a)
    assert inst.m == 1
    res = solve_split_matrix(inst)
    # value must be a nonzero integer scalar; bound bookkeeping d = 2
    assert res.value != 0
    b = res.b[0]
    prod = mat_mul(mat_mul(transpose(b), mat(q)), b)
    assert prod == [[Fraction(res.value), Fraction(0)], [Fraction(0), Fraction(res.value)]]
    assert all(x.denominator == 1 for row in b for x in row)
    # the glue should achieve m2 = 9 here
    assert res.value == 9
    assert abs(res.norm_b) <= Fraction(9) ** 2  # comfortably within nq^{d-1/2}


def test_split_matrix_identity():
    inst = matrix_instance(2, identity(2), identity(2))
    res = solve_split_matrix(inst)
    assert res.value == 1
    assert res.norm_b == 1


def test_split_matrix_scalar_q():
    inst = matrix_instance(2, [[2, 0], [0, 2]], identity(2))
    res = solve_split_matrix(inst)
    assert res.value == 2
    assert res.norm_b == 1


def test_split_matrix_negative_definite_q_falls_back():
    res = solve_split_matrix(matrix_instance(2, [[-1, 0], [0, -4]], [[2, 0], [0, 1]]))
    assert res.method == "oracle-fallback"
    assert res.notes["fallback_reason"] == "q is not positive definite"
    assert res.value == -4 and res.norm_b == 2


_GLUE_EXAMPLE = ([[1, 0], [0, 9]], [[1, 0], [0, Fraction(1, 3)]])


def test_split_matrix_without_an_identity_decomposition_falls_back(monkeypatch):
    """A glued Gram outside the class of I_n (an E8 summand, n >= 8) leaves
    the answer to the fallback, which names that reason."""
    monkeypatch.setattr(degree_bound, "identity_form_decomposition", lambda u: None)
    res = solve_split_matrix(matrix_instance(2, *_GLUE_EXAMPLE))
    assert res.notes["fallback_reason"] == "unimodular Gram is not in the class of I_n"
    verify_result(matrix_instance(2, *_GLUE_EXAMPLE), res)


def test_glued_gram_must_be_unimodular(monkeypatch):
    """The maximal completions make the glued Gram unimodular; left at the
    starting lattice 9 q^-1 Z^2, the Gram is diag(9, 1), which the check
    refuses."""
    monkeypatch.setattr(degree_bound, "maximal_completion", lambda lattice, target: lattice)
    with pytest.raises(DegreeBoundError, match="internal: the glued Gram is not unimodular"):
        solve_split_matrix(matrix_instance(2, *_GLUE_EXAMPLE))


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda F, res: {"b": (F.from_rational(Fraction(1, 2)),)}, "result b is not in the order"),
        (lambda F, res: {"b": (F.zero(),)}, "b^dagger q b is not a nonzero rational integer"),
        (lambda F, res: {"value": res.value + 1}, "reported value mismatch"),
        (lambda F, res: {"norm_b": res.norm_b + 1}, "reported norm mismatch"),
    ],
    ids=["b-outside-R", "value-zero", "wrong-value", "wrong-norm"],
)
def test_verify_result_refuses_a_corrupted_answer(change, message):
    """Each of the four facts `verify_result` re-checks fails on an answer
    corrupted in that fact alone."""
    inst = quadfield_instance(5, (-2, 2), (-3, 1))
    res = solve(inst)
    with pytest.raises(DegreeBoundError, match=re.escape(message)):
        verify_result(inst, dataclasses.replace(res, **change(inst.algebra.factors[0].ring, res)))


def test_fallback_without_a_similitude_has_only_the_oracle():
    """With a = None there is no cleared similitude, so over Q x Q (no
    swap) the oracle answers alone: on q = (2, 8), b = (2, 1) gives (8, 8)
    at norm 2, the least; on q = (1, 2), b^dagger q b = (x^2, 2 y^2) is
    never a nonzero scalar, and the fallback fails."""
    Q = SimpleFactor(RationalRing())
    order = OrderR(AlgebraWithInvolution((Q, Q)))
    res = solve(BoundInstance(order, (Fraction(2), Fraction(8)), None))
    assert (res.method, res.value, res.norm_b) == ("oracle-fallback", 8, 2)
    assert res.notes["fallback_reason"] == "no specialized route for this algebra"
    with pytest.raises(DegreeBoundError, match="no specialized route for this algebra; oracle found no solution either"):
        solve(BoundInstance(order, (Fraction(1), Fraction(2)), None))


def test_cleared_similitude_of_norm_one_skips_the_box(monkeypatch):
    """Under x -> z^-1 x^T z with z = diag(1, -1), q = [[1, 1], [-1, 0]] is
    symmetric and not scalar, and a = [[-1, -1], [0, 1]] gives a^dagger q a
    = 1 with Nm(a) = 1, which no b beats: the fallback answers a without
    calling the oracle."""

    def no_search(*args, **kwargs):
        raise AssertionError("the oracle was called")

    monkeypatch.setattr(degree_bound, "brute_force_oracle", no_search)
    z = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))
    A = AlgebraWithInvolution((SimpleFactor(RationalRing(), 2, "conjugate_transpose", z),))
    a = (mat([[-1, -1], [0, 1]]),)
    inst = BoundInstance(OrderR(A, tuple(qbasis(A))), (mat([[1, 1], [-1, 0]]),), a)
    res = solve(inst)
    assert res.method == "cleared-similitude" and res.b == a
    assert res.norm_b == 1 and res.value == 1
    assert res.notes == {"fallback_reason": "non-transpose involutions route to the oracle"}


def _scalar_q_instances(rng):
    """Seeded (instance, c) with q = c 1 over Q, Q(sqrt D) under
    conjugation (D < 0), (alpha, beta / Q) definite (alpha, beta < 0) and
    indefinite (beta > 0), Q x Q under the swap, products of two of these,
    M_3(Q) and M_2(B) with q = c I; every algebra but the last two has
    only rational scalars as symmetric elements.  a is random over a
    single field or quaternion factor, and a rational t 1 otherwise."""
    Q = SimpleFactor(RationalRing())
    fields = [-1, -2, -3, -5, -7, -11]

    def conj(D):
        return SimpleFactor(QuadField(D), involution="conjugation")

    def quaternion(definite):
        alpha = -rng.randint(1, 5) if definite else rng.choice([-1, 1]) * rng.randint(1, 5)
        beta = rng.randint(1, 5) * (-1 if definite else 1)
        ring = QuaternionRing(RationalRing(), Fraction(alpha), Fraction(beta))
        return SimpleFactor(ring, involution="canonical")

    base = QuaternionRing(RationalRing(), Fraction(-1), Fraction(-1))
    algebras = [
        AlgebraWithInvolution((Q,)),
        AlgebraWithInvolution((Q, Q), ((0, 1),)),
        *(AlgebraWithInvolution((conj(D),)) for D in rng.sample(fields, 3)),
        *(AlgebraWithInvolution((quaternion(definite),)) for definite in (True, True, False, False)),
        AlgebraWithInvolution((conj(rng.choice(fields)), quaternion(True))),
        AlgebraWithInvolution((Q, quaternion(False))),
        matrix_algebra_q(3),
        AlgebraWithInvolution((SimpleFactor(base, 2, "conjugate_transpose"),)),
    ]
    for A in algebras:
        c = rng.choice([x for x in range(-9, 10) if x])
        if A.factors[0].matrix_size and isinstance(A.factors[0].ring, RationalRing):
            c = -abs(c)  # a positive definite q = c I takes the lattice glue
        a = A.scale(Fraction(rng.randint(1, 3)), A.one())
        while len(A.factors) == 1 and not A.factors[0].matrix_size:
            a = A.from_qcoords([Fraction(rng.randint(-2, 2)) for _ in range(A.dim_q)])
            if norm(A, a):
                break
        q = A.scale(Fraction(c), A.one())
        yield BoundInstance(OrderR(A, tuple(qbasis(A))), q, a), c


def test_scalar_q_answers_b_one():
    """A scalar q = c 1 gets b = 1, value c and Nm(b) = 1 from `solve`,
    which no b can beat, with no box search: well under 50 ms each, where
    a quaternion box explores 2,400 points.  Where dim_Q E <= 4 the oracle
    confirms that norm 1 is reached."""
    rng = random.Random(3232)
    for inst, c in _scalar_q_instances(rng):
        t0 = time.perf_counter()
        res = solve(inst)
        elapsed = time.perf_counter() - t0
        assert res.method == "scalar" and res.b == inst.algebra.one()
        assert res.value == c and res.norm_b == 1
        assert elapsed < 0.05, (inst.algebra, elapsed)
        if inst.algebra.dim_q <= 4:
            oracle = brute_force_oracle(inst, Fraction(1))
            assert oracle is not None and oracle.norm_b == 1


def test_split_matrix_verified_random():
    rng = random.Random(77)
    done = 0
    for _ in range(30):
        # q = u^T D u with D diagonal positive, u unimodular; a = q^{-1}-ish
        n = 2
        u = identity(n)
        for _ in range(4):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = Fraction(rng.randint(-2, 2))
                for r in range(n):
                    u[r][i] += c * u[r][j]
        d1 = rng.choice([1, 2, 3, 5])
        d2 = d1 * rng.choice([1, 4, 9])
        dmat = mat([[d1, 0], [0, d2]])
        q = mat_mul(mat_mul(transpose(u), dmat), u)
        # a: similitude q -> m I: a = u^{-1} diag(1, 1/sqrt(d2/d1))-rational
        ratio = Fraction(d2, d1)
        import math

        r = math.isqrt(ratio.numerator)
        if r * r != ratio.numerator or ratio.denominator != 1:
            continue
        from polarith.linalg import inverse

        a = mat_mul(inverse(u), mat([[1, 0], [0, Fraction(1, r)]]))
        try:
            inst = matrix_instance(2, q, a)
        except DegreeBoundError:
            continue
        res = solve(inst)
        verify_result(inst, res)
        assert res.method == "lattice-glue", (q, a, res.notes)
        done += 1
    assert done >= 10


def _unimodular(rng, n):
    """A seeded u in GL_n(Z), from 2n column operations."""
    u = identity(n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.randint(-2, 2))
        for r in range(n):
            u[r][i] += c * u[r][j]
    return u


def _similitude(u, d, s):
    """q = u^T diag(d s_i^2) u and a = u^-1 diag(1 / s_i): a^T q a = d I."""
    n = len(u)
    q = mat_mul(mat_mul(transpose(u), mat([[d * s[i] ** 2 * (i == j) for j in range(n)] for i in range(n)])), u)
    a = mat_mul(inverse(u), mat([[Fraction(int(i == j), s[i]) for j in range(n)] for i in range(n)]))
    return q, a


def _similitude_draw(rng):
    """n in 2..4, `_similitude` for a unimodular u, d in {1, 2, 3, 5, 6, 10}
    and s_i in 1..4, so 2 divides det q or d in most draws."""
    n = rng.randint(2, 4)
    u = _unimodular(rng, n)
    d = rng.choice([1, 2, 3, 5, 6, 10])
    s = [rng.randint(1, 4) for _ in range(n)]
    return (n, *_similitude(u, d, s))


@pytest.mark.parametrize("n", [3, 4])
def test_split_matrix_glues_scaled_unimodular_forms(n):
    """q = u^T (d I) u for seeded u in GL_n(Z) and a = u^-1, so a^T q a =
    d I: every answer takes the lattice glue and passes `verify_result`."""
    rng = random.Random(45 + n)
    for _ in range(12):
        d = rng.choice([1, 2, 3, 5, 6, 7, 10, 12])
        u = _unimodular(rng, n)
        q, a = _similitude(u, d, [1] * n)
        assert a == inverse(u)
        inst = matrix_instance(n, q, a)
        res = solve(inst)
        verify_result(inst, res)
        assert res.method == "lattice-glue", (q, a, res.notes)


def test_standard_instances_prove_nothing_about_their_order(monkeypatch):
    """Building an instance over M_6(Q) or a quadratic field takes its order
    on trust: the only algebra products are the two of a^dagger q a, and no
    matrix is inverted (a closure check takes 36^2 products)."""
    import sys

    from polarith import linalg

    rng = random.Random(6)
    q, a = _similitude(_unimodular(rng, 6), 1, [rng.choice([1, 2, 3]) for _ in range(6)])
    products, inverses = [], []
    real_mul, real_inverse = AlgebraWithInvolution.mul, linalg.inverse

    def counting_mul(self, x, y):
        products.append(x)
        return real_mul(self, x, y)

    def counting_inverse(*args, **kwargs):
        inverses.append(args)
        return real_inverse(*args, **kwargs)

    monkeypatch.setattr(AlgebraWithInvolution, "mul", counting_mul)
    for name, module in list(sys.modules.items()):
        if name.startswith("polarith") and getattr(module, "inverse", None) is real_inverse:
            monkeypatch.setattr(module, "inverse", counting_inverse)
    F = QuadField(5)
    w_bar = F.omega().conj()  # w^2 w_bar^2 = Nm(w)^2
    builds = [
        (lambda: matrix_instance(6, q, a), 1),
        (lambda: quadfield_instance(F, F.to_qcoords(w_bar * w_bar), [0, 1]), F.omega().norm() ** 2),
    ]
    for build, m in builds:
        products.clear()
        assert build().m == m
        assert len(products) <= 2 and inverses == []


def test_degree_bound_matrix_at_n_10(tmp_path):
    """`degree-bound` through `cli.main` over M_10(Q), with s_i in {1, 2, 3}:
    the lattice glue answers within 5 s (about 0.1 s on a shared 2-vCPU
    host), and the answer passes `verify_result`."""
    import json

    from polarith.cli import main, parse_instance

    rng = random.Random(10)
    q, a = _similitude(_unimodular(rng, 10), 1, [rng.choice([1, 2, 3]) for _ in range(10)])
    doc = {"algebra": {"type": "matrix", "n": 10},
           "q": [[str(x) for x in row] for row in q], "a": [[str(x) for x in row] for row in a]}
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    inp.write_text(json.dumps({"instance": doc}))
    start = time.perf_counter()
    assert main(["degree-bound", str(inp), "-o", str(out)]) == 0
    assert time.perf_counter() - start < 5
    res = json.loads(out.read_text())
    assert res["method"] == "lattice-glue"
    inst = parse_instance(doc)
    verify_result(inst, BoundResult((mat(res["b"]),), res["value"], Fraction(res["norm_b"]),
                                    Fraction(res["norm_q"]), inst.d, res["method"]))


def test_split_matrix_glues_at_two():
    """Seeded similitude instances over M_n(Z), n = 2..4: every one takes
    the lattice glue, 2 among the active primes whenever it divides m'' or
    det q, with Nm(b) no larger than the cleared-similitude candidate's."""
    rng = random.Random(5)
    dyadic = 0
    for _ in range(120):
        n, q, a = _similitude_draw(rng)
        inst = matrix_instance(n, q, a)
        res = solve(inst)
        verify_result(inst, res)
        assert res.method == "lattice-glue", (q, a, res.notes)
        at_two = 2 in res.notes["active_primes"]
        assert at_two == (Fraction(res.notes["m2"]).numerator % 2 == 0 or det(q).numerator % 2 == 0)
        dyadic += at_two
        t = lcm(*(x.denominator for row in a for x in row))
        assert res.norm_b <= abs(det(a)) * t**n
    assert dyadic >= 60


# the Gram of the E8 root lattice: even, unimodular, positive definite
_E8 = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, -1],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, -1, 0, 0, 0, 0, 2],
]


def _check_decomposition(u, t):
    """t^T t = u, and the columns of t^-1 follow the stated order rule: a
    positive first nonzero entry each, in decreasing lexicographic order."""
    assert t is not None and mat_mul(transpose(t), t) == u
    cols = transpose(inverse(t))
    assert all(x.denominator == 1 for col in cols for x in col)
    assert all(next(x for x in col if x) > 0 for col in cols)
    assert cols == sorted(cols, reverse=True)


def test_identity_form_decomposition():
    for u in ([[2, 1], [1, 1]], [[5, 2], [2, 1]]):
        _check_decomposition(mat(u), identity_form_decomposition(mat(u)))
    assert identity_form_decomposition(identity(4)) == identity(4)
    # E8 has no norm-1 vector and I_1 + E8 only one pair: neither is in
    # the class of I_n, and None is then a proof
    assert det(mat(_E8)) == 1
    assert identity_form_decomposition(mat(_E8)) is None
    i1_e8 = [[1] + [0] * 8] + [[0] + row for row in _E8]
    assert identity_form_decomposition(mat(i1_e8)) is None
    # not positive definite
    assert identity_form_decomposition(mat([[0, 1], [1, 0]])) is None
    assert identity_form_decomposition(mat([[1, 0], [0, -1]])) is None


def _column_operation_gram(n, steps, seed):
    """u = T^T T for T = I_n after `steps` column operations b_i += c b_j
    (i != j, c in {-2, -1, 1, 2}) drawn from random.Random(seed)."""
    rng = random.Random(seed)
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in t:
            row[i] += c * row[j]
    return mat(mat_mul(transpose(mat(t)), mat(t)))


# draws on which the earlier greedy reduction and {-3..3}^k box search
# answered None (n = 5, 6) or ran past 10 s (n = 8)
_SKEWED_DRAWS = [(5, 60, 32), (5, 60, 59)]
_SKEWED_DRAWS += [(6, 60, s) for s in (10, 11, 27, 28, 41, 42, 51, 54)]
_SKEWED_DRAWS += [(8, 30, s) for s in (7, 10, 15, 29)]


@pytest.mark.parametrize("n, steps, seed", _SKEWED_DRAWS)
def test_identity_form_decomposition_skewed_draws(n, steps, seed):
    u = _column_operation_gram(n, steps, seed)
    start = time.perf_counter()
    t = identity_form_decomposition(u)
    assert time.perf_counter() - start < 1.0
    _check_decomposition(u, t)


@seed(2111)
@given(
    n=st.integers(1, 8),
    ops=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.sampled_from([-2, -1, 1, 2])), max_size=40),
    signs=st.lists(st.sampled_from([-1, 1]), min_size=8, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_identity_form_decomposition_random_t(n, ops, signs):
    """u = T^T T for T in GL_n(Z) (column operations and sign changes) is
    always decomposed, whatever the order of the operations."""
    t = [[signs[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, c in ops:
        i, j = i % n, j % n
        if i != j:
            for row in t:
                row[i] += c * row[j]
    u = mat(mat_mul(transpose(mat(t)), mat(t)))
    _check_decomposition(u, identity_form_decomposition(u))


# ---------------------------------------------------------------------------
# The integral decomposition against the Fraction one


def _reference_identity_form_decomposition(u):
    """`identity_form_decomposition` on Fractions: u = L D L^T, LLL on the
    rational mu and r (Cohen, GTM 138, Alg. 2.6.3), and Fincke-Pohst with
    the intervals walked outward from round(c)."""
    n = len(u)
    mu = [[Fraction(0)] * n for _ in range(n)]
    r = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            mu[i][j] = (Fraction(u[i][j]) - sum(mu[i][k] * mu[j][k] * r[k] for k in range(j))) / r[j]
        r[i] = Fraction(u[i][i]) - sum(mu[i][k] ** 2 * r[k] for k in range(i))
        if r[i] <= 0:
            return None
    basis = [[int(i == j) for j in range(n)] for i in range(n)]

    def size_reduce(k, l):
        q = round(mu[k][l])
        if q:
            basis[k] = [a - q * b for a, b in zip(basis[k], basis[l])]
            for i in range(l):
                mu[k][i] -= q * mu[l][i]
            mu[k][l] -= q

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        m = mu[k][k - 1]
        if r[k] >= (Fraction(3, 4) - m * m) * r[k - 1]:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
            continue
        basis[k - 1], basis[k] = basis[k], basis[k - 1]
        mu[k - 1][: k - 1], mu[k][: k - 1] = mu[k][: k - 1], mu[k - 1][: k - 1]
        b = r[k] + m * m * r[k - 1]
        mu[k][k - 1] = m * r[k - 1] / b
        r[k - 1], r[k] = b, r[k - 1] * r[k] / b
        for row in mu[k + 1 :]:
            t = row[k]
            row[k] = row[k - 1] - m * t
            row[k - 1] = t + mu[k][k - 1] * row[k]
        k = max(k - 1, 1)
    x = [0] * n

    def walk(j, room):
        if j < 0:
            if any(x):
                yield list(x)
            return
        c = -sum(mu[i][j] * x[i] for i in range(j + 1, n))
        for v, step in ((round(c), 1), (round(c) - 1, -1)):
            while (left := room - r[j] * (v - c) ** 2) >= 0:
                x[j] = v
                yield from walk(j - 1, left)
                v += step

    cols = []
    for x_ in list(walk(n - 1, Fraction(1))):
        col = [sum(x_[i] * basis[i][c] for i in range(n)) for c in range(n)]
        if next(v for v in col if v) > 0:
            cols.append(col)
    if len(cols) != n:
        return None
    return inverse(transpose(mat(sorted(cols, reverse=True))))


def _assert_agrees(u):
    got, want = identity_form_decomposition(u), _reference_identity_form_decomposition(u)
    assert got == want, u
    if got is not None:
        assert all(type(x) is int for row in got for x in row)


@seed(4501)
@given(
    n=st.integers(1, 8),
    ops=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(-3, 3)), max_size=40),
    signs=st.lists(st.sampled_from([-1, 1]), min_size=8, max_size=8),
)
@settings(max_examples=80, deadline=None)
def test_identity_form_decomposition_matches_reference(n, ops, signs):
    """On u = T^T T, T in GL_n(Z), the integral decomposition returns the
    Fraction one's T, entry for entry, as ints."""
    t = [[signs[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, c in ops:
        if i % n != j % n:
            for row in t:
                row[i % n] += c * row[j % n]
    u = [[sum(row[i] * row[j] for row in t) for j in range(n)] for i in range(n)]
    _assert_agrees(u)
    _assert_agrees(mat(u))


def _orthogonal_sum(a, b):
    return [row + [0] * len(b) for row in a] + [[0] * len(a) + row for row in b]


_OUTSIDE_THE_CLASS = {
    **{f"I{k}+E8": _orthogonal_sum(identity(k), _E8) for k in range(3)},
    "E8+I1": _orthogonal_sum(_E8, identity(1)),
    "A2": [[2, 1], [1, 2]],
    "diag(1,2)": [[1, 0], [0, 2]],
    "det5": [[3, 1, 0], [1, 2, 0], [0, 0, 1]],
    "2": [[2]],
    "hyperbolic": [[0, 1], [1, 0]],
    "diag(1,-1)": [[1, 0], [0, -1]],
    "indefinite-2": [[1, 2], [2, 1]],
    "-1": [[-1]],
    "indefinite-3": [[1, 0, 0], [0, 1, 3], [0, 3, 1]],
    "0": [[0]],
    "singular-2": [[1, 1], [1, 1]],
    "singular-3": [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
    "singular-zero-minor": [[2, 2, 0], [2, 2, 0], [0, 0, 5]],
}


@pytest.mark.parametrize("u", _OUTSIDE_THE_CLASS.values(), ids=_OUTSIDE_THE_CLASS.keys())
def test_identity_form_decomposition_outside_the_class_matches_reference(u):
    """Positive definite Grams outside the class of I_n, indefinite and
    singular ones: None from both."""
    assert identity_form_decomposition(mat(u)) is None
    _assert_agrees(mat(u))


@given(data=st.data(), n=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_identity_form_decomposition_matches_reference_on_any_symmetric_gram(data, n):
    """Any small symmetric integral Gram, definite or not: the same T or
    None from both."""
    entries = data.draw(st.lists(st.integers(-4, 6), min_size=n * n, max_size=n * n))
    u = [[entries[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    _assert_agrees(u)


def test_measure_constant_batch():
    instances = [
        quadfield_instance(5, (1, 0), (1, 0)),
        quadfield_instance(5, (-2, 2), (-3, 1)),
        quadfield_instance(5, (11, 0), (1, 0)),
    ]
    report = measure_constant(instances)
    assert len(report.entries) == 3
    assert report.empirical_c_squared > 0
    for e in report.entries:
        assert e["oracle_found_leq"]


def test_exhausted_oracle_budget(monkeypatch):
    """When the oracle's budget dies, the fallback answers the cleared
    similitude b = 2a (Nm b = 2, value 4), and `measure_constant` reports
    that the oracle found nothing."""
    def exhausted(inst, cap):
        raise OracleBudgetError(0)

    monkeypatch.setattr(degree_bound, "brute_force_oracle", exhausted)
    inst = matrix_instance(2, [[1, 0], [0, 4]], [[1, 0], [0, Fraction(1, 2)]])
    res = degree_bound._oracle_fallback(inst, "r")
    assert (res.method, res.norm_b, res.value, res.notes) == ("cleared-similitude", 2, 4, {"fallback_reason": "r"})
    (entry,) = measure_constant([inst]).entries
    assert entry["oracle_found_leq"] is False and entry["oracle_norm_b"] is None


def test_measure_constant_rejects_mixed():
    with pytest.raises(DegreeBoundError):
        measure_constant([quadfield_instance(5, (1, 0), (1, 0)), quadfield_instance(2, (1, 0), (1, 0))])
    with pytest.raises(DegreeBoundError, match="empty batch"):
        measure_constant([])


def test_instance_is_order_q_a():
    """An instance names its order once: the algebra, involution and norm
    exponents are the order's, so no second algebra can disagree with it,
    and batches that differ in their gammas alone are refused."""
    assert [f.name for f in dataclasses.fields(BoundInstance)] == ["order", "q", "a"]
    inst = matrix_instance(2, [[2, 0], [0, 2]], [[1, 0], [0, 1]], gamma=3)
    assert inst.algebra is inst.order.algebra
    assert inst.algebra.gammas == (3,) and inst.d == 6
    assert inst.norm_q() == 4**3
    plain = matrix_instance(2, [[2, 0], [0, 2]], [[1, 0], [0, 1]])
    assert plain.algebra.gammas == (1,) and plain.d == 2
    with pytest.raises(DegreeBoundError, match=r"^instances must share \(R, dagger, Nm\)$"):
        check_measure_constant([plain, inst])
    check_measure_constant([plain, matrix_instance(2, [[1, 0], [0, 1]], [[1, 0], [0, 1]])])


def test_torus_conductor_lemma():
    """x^2 in R_p implies (conductor * x) in R_p, on quadratic-field and
    matrix instances."""
    # non-maximal order Z[sqrt5] inside Q(sqrt5): conductor 2
    from polarith.algebras import OrderR, quadfield_algebra

    F = QuadField(5)
    A = quadfield_algebra(F)
    s5 = F.sqrtD()
    order = OrderR(A, ((F.one(),), (s5,)))  # Z[sqrt5], conductor 2
    c = torus_conductor(order, (s5,))
    assert c == 2
    # x = (1+sqrt5)/2 has x^2 = x + 1... x^2 = (3+sqrt5)/2 = x + 1 in Z[sqrt5]?
    # (3+sqrt5)/2 is NOT in Z[sqrt5]; instead check the lemma statement:
    # for x' in L with x'^2 in R, c x' in R:
    eps = (F.one() + s5) / 2  # x'^2 = (3+sqrt5)/2 not in R; skip
    x2_in_R = [F.from_rational(2), s5, s5 * 3]
    for xp in x2_in_R:
        sq = xp * xp
        if order.contains((sq,)):
            cx = xp * c
            assert order.contains((cx,))
    # a genuinely fractional case: x' = sqrt5/... x'^2 = 5/4 not integral.
    # matrix case: L = Q[diag-ish] in M_2(Z)
    from polarith.degree_bound import matrix_instance as _mi

    inst = _mi(2, identity(2), identity(2))
    x = (mat([[0, 5], [1, 0]]),)  # x^2 = 5 I
    c2 = torus_conductor(inst.order, x)
    assert c2 >= 1
    # x' = x / 1: trivially in R; the interesting check is on sqrt-type
    # elements: y = (1 + x)/2 has y^2 = (6 + 2x)/4 = (3 + x)/2 not integral;
    # y = x itself: fine
    assert inst.order.contains((mat([[0, 5], [1, 0]]),))


def test_torus_conductor_lemma_random():
    rng = random.Random(3)
    from polarith.degree_bound import matrix_instance as _mi

    inst = _mi(2, identity(2), identity(2))
    for _ in range(20):
        m = mat([[rng.randint(-3, 3), rng.randint(-3, 3)], [rng.randint(-3, 3), rng.randint(-3, 3)]])
        x = (m,)
        tr = m[0][0] + m[1][1]
        # force trace zero so that x generates a quadratic subalgebra nicely
        m[1][1] = -m[0][0]
        sq = mat_mul(m, m)
        if sq == mat([[0, 0], [0, 0]]) or sq[0][1] != 0 or sq[1][0] != 0:
            if sq[0][1] != 0 or sq[1][0] != 0:
                continue
            continue
        try:
            c = torus_conductor(inst.order, x)
        except DegreeBoundError:
            continue
        # candidates x' = m / k with x'^2 in R: x'^2 = sq / k^2
        for k in (1, 2, 3):
            xp = mat([[v / k for v in row] for row in m])
            sq_p = mat_mul(xp, xp)
            if all(v.denominator == 1 for row in sq_p for v in row):
                cx = mat([[v * c for v in row] for row in xp])
                assert inst.order.contains((cx,)), (m, k, c)


def _fundamental_discriminant(d: int) -> int:
    """The discriminant of the maximal order of Q[t]/(t^2 - d) (1 when d is
    a square, the split case Q x Q)."""
    s = -1 if d < 0 else 1
    for p, e in factorint(abs(d)).items():
        s *= p ** (e % 2)
    return s if s % 4 == 1 else 4 * s


def test_torus_conductor_matches_discriminant_factorization():
    """disc Z[x] = f^2 d_K for every nonzero discriminant |d| <= 2000,
    with x the companion matrix of t^2 - (d mod 2) t - (d - d mod 2)/4."""
    order = matrix_instance(2, identity(2), identity(2)).order
    # x^2 = 27: x/3 squares to 3 I but is not integral, so f = 3 (a shrink
    # that dropped the largest odd prime before the 2 answered 1)
    assert torus_conductor(order, (mat([[0, 27], [1, 0]]),)) == 3
    for d in range(-2000, 2001):
        if d == 0 or d % 4 not in (0, 1):
            continue
        alpha = d % 2
        x = mat([[0, (d - alpha) // 4], [1, alpha]])
        f = torus_conductor(order, (x,))
        assert f * f * _fundamental_discriminant(d) == d, d


def test_split_matrix_two_active_primes():
    """q = diag(1, 225): primes 3 and 5 both active; the glue must intersect
    two local lattices."""
    q = [[1, 0], [0, 225]]
    a = [[1, 0], [0, Fraction(1, 15)]]
    inst = matrix_instance(2, q, a)
    res = solve_split_matrix(inst)
    assert res.method == "lattice-glue"
    assert sorted(res.notes["active_primes"]) == [3, 5]
    b = res.b[0]
    prod = mat_mul(mat_mul(transpose(b), mat(q)), b)
    assert prod == [[Fraction(res.value), Fraction(0)], [Fraction(0), Fraction(res.value)]]
    assert res.value == 225


def test_commutative_negative_value():
    # q totally negative: value must be a negative integer
    F = QuadField(5)
    z = QuadElem(F, Fraction(2), Fraction(1))
    q = z * z * (-3)
    base = quadfield_instance(5, (1, 0), (1, 0))
    inst = BoundInstance(base.order, (q,), (z.inv(),))
    res = solve_commutative(inst)
    verify_result(inst, res)
    assert res.value < 0


def test_commutative_ramified_twist_path():
    """Q(sqrt 10) has h = 2 with the nontrivial class generated by the
    ramified prime above 2.  q = (gen of p3 p2)^2 forces the ideal b to land
    on the non-principal conjugate prime above 3, which principalizes after
    the ramified twist.  (The obstruction class always lies in the subgroup
    generated by ramified classes: principality of (x) spends the split
    classes, so the twist search is complete.)"""
    F = QuadField(10)
    delta = F.from_sqrt_coords(-4, 1)  # Nm 6, generates p3 * p2
    q = delta * delta
    base = quadfield_instance(10, (1, 0), (1, 0))
    inst = BoundInstance(base.order, (q,), (delta.inv(),))
    res = solve_commutative(inst)
    verify_result(inst, res)
    assert res.method == "ideal-algorithm"
    assert res.value == 36 and res.norm_b == 6
    oracle = brute_force_oracle(inst, res.norm_b)
    assert oracle is not None and oracle.norm_b == res.norm_b


def test_commutative_odd_unit_exponent_twist():
    """q = 2 + sqrt 3 is the fundamental unit of Q(sqrt 3), of norm +1, so
    the leftover unit is q itself, an odd power of it: only the twist
    w = 2 of 2 q = (1 + sqrt 3)^2 absorbs it, with b = 1 - sqrt 3."""
    inst = quadfield_instance(3, (-4, 1), (7, -1))
    res = solve_commutative(inst)
    verify_result(inst, res)
    assert res.method == "ideal-algorithm"
    assert res.value == 2 and res.norm_b == 2


@seed(2212)
@given(
    D=st.sampled_from([2, 3, 5, 6, 7, 10, 13, 15]),
    z=st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(lambda c: c != (0, 0)),
    s=st.integers(-10, 10).filter(bool),
)
@settings(max_examples=40, deadline=None)
def test_commutative_answer_ignores_unit_squares(D, z, s):
    """q = s conj(z)^2 with a = z, and the same instance moved by a unit
    square, q eps^2k with a eps^-k: every one takes the ideal algorithm,
    and b^2 q fixes |Nm b| and |value| across k.  The fields with
    Nm(eps) = +1 (D = 3, 6, 7, 15) leave units that only a ramified twist
    absorbs."""
    F = QuadField(D)
    eps = fundamental_unit(F)
    a = QuadElem(F, Fraction(z[0]), Fraction(z[1]))
    q = a.conj() * a.conj() * s
    answers = set()
    for k in range(-3, 4):
        qk, ak = q * eps ** (2 * k), a * eps ** (-k)
        inst = quadfield_instance(F, (qk.x, qk.y), (ak.x, ak.y))
        res = solve_commutative(inst)
        verify_result(inst, res)
        assert res.method == "ideal-algorithm"
        answers.add((res.norm_b, abs(res.value)))
    assert len(answers) == 1


def test_ideal_algorithm_never_reaches_its_internal_errors():
    """Seeded valid instances q = c g^2, a = g^-1, over every squarefree D in
    [-40, 60): q lies in Q^x F^x2, so by the argument of `solve_commutative`
    its exponent, principalization and unit steps always succeed, and
    every instance takes the ideal algorithm, over Q(i) and Q(sqrt -3)
    too, whose leftover units a twist of `sqrt_twists` absorbs."""
    rng = random.Random(2024)
    fields = [
        D for D in range(-40, 60) if D not in (0, 1) and max(factorint(abs(D)).values(), default=1) == 1
    ]
    routes = Counter()
    for D in fields:
        F = QuadField(D)
        for _ in range(6):
            x = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            g = QuadElem(F, x, Fraction(rng.randint(1, 4), rng.randint(1, 3)))
            h = g * g
            den = lcm(h.x.denominator, h.y.denominator)
            content = gcd(int(h.x * den), int(h.y * den))
            q = h * Fraction(rng.choice([-6, -3, -2, -1, 1, 2, 3, 5, 7]) * den, content)
            a = g.inv()
            inst = quadfield_instance(F, (q.x, q.y), (a.x, a.y))
            res = solve_commutative(inst)
            verify_result(inst, res)
            assert res.method == "ideal-algorithm", (D, q, res.notes)
            routes[res.method] += 1
    assert routes["ideal-algorithm"] == 6 * len(fields) >= 360


# ---------------------------------------------------------------------------
# The integer oracle against its definition


def _reference_oracle(inst, norm_cap, max_radius=24, budget=2_000_000, extra_shells=2):
    """`brute_force_oracle` by its definition: every point builds b and
    tests b^dagger q b in Fraction arithmetic."""
    A = inst.algebra
    order = inst.order
    dim = A.dim_q
    norm_cap = frac(norm_cap)
    canonical = order.basis_matrix_is_identity()
    best = None
    explored = 0
    found_radius = None
    budget = min(budget, max(20_000, 2_000_000 // (dim * dim)))
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
            if canonical:
                b = A.from_qcoords([Fraction(c) for c in coords])
            else:
                b = order.element_from_coordinates([Fraction(c) for c in coords])
            val = rational_of(A.mul(A.mul(A.involve(b), inst.q), b), A)
            if val is None or val == 0 or val.denominator != 1:
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
    res = BoundResult(
        b=best[1], value=best[2], norm_b=best[0][0], norm_q=inst.norm_q(), d=inst.d,
        method="oracle", notes={"explored": explored},
    )
    verify_result(inst, res)
    return res


def _oracle_outcome(oracle, inst, *args):
    try:
        res = oracle(inst, *args)
    except OracleBudgetError as exc:
        return ("budget", exc.explored)
    if res is None:
        return None
    return res.b, res.value, res.norm_b, res.norm_q, res.method, res.notes


_small = st.integers(-4, 4)


@st.composite
def _oracle_instances(draw, kind):
    """Oracle-only instances (no similitude a) over M_2(Q) with the order
    M_2(Z) in a non-identity basis or Z + 2 M_2(Z), with transpose or the
    swap-conjugated transpose; Q(sqrt D) with its maximal order or Z[sqrt D]
    under either involution; a definite quaternion algebra with the standard
    or a non-identity order basis; Q x Q (x Q(sqrt 5)) with swap_pairs.
    Half the q are c g^dagger g, so that solutions exist."""
    square = draw(st.booleans())
    if kind == "m2":
        z = draw(st.sampled_from([None, [[0, 1], [1, 0]]]))
        A = matrix_algebra_q(2, z)
        e11, e12, e21, e22 = qbasis(A)
        if draw(st.booleans()):
            basis = (A.add(e11, e22), e12, A.add(e21, A.scale(Fraction(2), e12)), e22)
            q = [[draw(_small), draw(_small)], [draw(_small), draw(_small)]]
        else:
            basis = (A.one(),) + tuple(A.scale(Fraction(2), e) for e in (e12, e21, e22))
            c, s = draw(_small), [[2 * draw(_small), 2 * draw(_small)], [0, 2 * draw(_small)]]
            q = [[c + s[0][0], s[0][1]], [s[1][0], c + s[1][1]]]
        if z is None:
            q[1][0] = q[0][1]
        else:
            q[1][1] = q[0][0]
        if square:
            g = (mat([[draw(_small), draw(_small)], [draw(_small), draw(_small)]]),)
            q = A.scale(Fraction(draw(_small)), A.mul(A.involve(g), g))[0]
            if not OrderR(A, basis).contains((q,)):
                q = mat_mul(mat([[2, 0], [0, 2]]), q)
        return BoundInstance(OrderR(A, basis), (mat(q),), None)
    if kind == "quadfield":
        D = draw(st.sampled_from([5, 2, 3, -1, -3, -7, 13]))
        A = quadfield_algebra(QuadField(D), draw(st.sampled_from(["identity", "conjugation"])))
        F = A.factors[0].ring
        if draw(st.booleans()):
            basis = ((F.one(),), (F.omega(),))
            q = QuadElem(F, Fraction(draw(_small)), Fraction(draw(_small)))
        else:
            basis = ((F.one(),), (F.sqrtD(),))
            q = F.from_rational(draw(_small)) + F.sqrtD() * draw(_small)
        if square:
            g = QuadElem(F, Fraction(draw(_small)), Fraction(draw(_small)))
            q = g * g * draw(_small) * 4
        if A.factors[0].involution == "conjugation":
            q = F.from_rational(draw(_small))
        return BoundInstance(OrderR(A, basis), (q,), None)
    if kind == "quaternion":
        ring = QuaternionRing(RationalRing(), Fraction(-1), Fraction(-3))
        A = AlgebraWithInvolution((SimpleFactor(ring, involution="canonical"),))
        one, i, j, k = qbasis(A)
        if draw(st.booleans()):
            basis = (one, i, A.scale(Fraction(1, 2), A.add(one, j)), A.scale(Fraction(1, 2), A.add(i, k)))
        else:
            basis = (one, i, j, k)
        q = A.from_rational(draw(_small))
        return BoundInstance(OrderR(A, basis), q, None)
    factors = (SimpleFactor(RationalRing()), SimpleFactor(RationalRing()))
    F5 = QuadField(5)
    c = Fraction(draw(_small))
    q = (c, c)
    if draw(st.booleans()):
        factors += (SimpleFactor(F5),)
        q += (QuadElem(F5, Fraction(draw(_small)), Fraction(draw(_small))),)
    A = AlgebraWithInvolution(factors, ((0, 1),))
    return BoundInstance(OrderR(A, tuple(qbasis(A))), q, None)


@pytest.mark.parametrize("kind", ["m2", "quadfield", "quaternion", "pair"])
@given(
    data=st.data(),
    norm_cap=st.sampled_from([1, 4, 16, 100, 10**6]),
    max_radius=st.integers(1, 3),
    budget=st.sampled_from([30, 200, 20_000]),
    extra_shells=st.integers(0, 2),
)
@settings(max_examples=25, deadline=None)
def test_oracle_matches_reference(kind, data, norm_cap, max_radius, budget, extra_shells):
    """The integer oracle returns what the Fraction definition returns: the
    same b, value, norm, notes (points explored) and budget failures."""
    inst = data.draw(_oracle_instances(kind))
    if inst.algebra.dim_q >= 4:
        max_radius = min(max_radius, 2)
    args = (Fraction(norm_cap), max_radius, budget, extra_shells)
    assert _oracle_outcome(brute_force_oracle, inst, *args) == _oracle_outcome(
        _reference_oracle, inst, *args
    )


@pytest.mark.parametrize(
    "n, x, message",
    [
        (2, [["1/2", "0"], ["0", "0"]], "x must lie in the order"),
        (2, [["2", "0"], ["0", "2"]], "x is rational"),
        (3, [["0", "0", "0"], ["0", "1", "0"], ["0", "0", "2"]], "does not generate a quadratic subalgebra"),
        (2, [["0", "1"], ["0", "0"]], "degenerate"),
    ],
)
def test_torus_conductor_refuses(n, x, message):
    """The preconditions of the lemma in M_n(Z): x in the order, x not
    rational, Q[x] quadratic and etale (a nilpotent x has disc 0)."""
    order = matrix_instance(n, identity(n), identity(n)).order
    with pytest.raises(DegreeBoundError, match=message):
        torus_conductor(order, (mat(x),))
