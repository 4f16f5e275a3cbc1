import random
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarith.algebras import (
    AlgebraError,
    AlgebraWithInvolution,
    OrderR,
    QuaternionRing,
    SimpleFactor,
    _freeze,
    local_norm,
    matrix_algebra_q,
    norm,
    norm_times_inverse,
    quadfield_algebra,
    rational_algebra,
)
from polarith.exact import rational_sqrt
from polarith.linalg import RationalRing, det, identity, inverse, mat_mul, qbasis, rational_of, regular_matrix
from polarith.quadfield import QuadField

F5 = QuadField(5)


def quaternion_algebra_q(a, b) -> AlgebraWithInvolution:
    """(a, b / Q) with its canonical involution."""
    ring = QuaternionRing(RationalRing(), Fraction(a), Fraction(b))
    return AlgebraWithInvolution((SimpleFactor(ring, involution="canonical"),))


def test_quaternion_canonical_involution():
    A = quaternion_algebra_q(-1, -1)
    ring = A.factors[0].ring
    i = ring.i()
    x = (i,)
    assert A.eq(A.involve(x), (-i,))
    one = A.one()
    assert A.eq(A.involve(one), one)


def test_matrix_involution_conjugate_by_diag():
    A = matrix_algebra_q(2, z=[[1, 0], [0, 2]])
    f = A.factors[0]
    x = ([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]],)
    expected = [[Fraction(0), Fraction(0)], [Fraction(1, 2), Fraction(0)]]
    assert f.eq(A.involve(x)[0], expected)


def test_involution_axioms_random():
    rng = random.Random(7)
    algebras = [
        rational_algebra(),
        quadfield_algebra(F5, "conjugation"),
        quaternion_algebra_q(-1, -1),
        matrix_algebra_q(2, z=[[2, 1], [1, 1]]),
        AlgebraWithInvolution(
            (SimpleFactor(RationalRing()), SimpleFactor(RationalRing())),
            swap_pairs=((0, 1),),
        ),
    ]
    for A in algebras:
        dim = A.dim_q
        for _ in range(10):
            x = A.from_qcoords([Fraction(rng.randint(-5, 5)) for _ in range(dim)])
            y = A.from_qcoords([Fraction(rng.randint(-5, 5)) for _ in range(dim)])
            xd = A.involve(x)
            assert A.eq(A.involve(xd), x)
            assert A.eq(
                A.involve(A.mul(x, y)),
                A.mul(A.involve(y), xd),
            )
            assert A.eq(
                A.involve(A.add(x, y)),
                A.add(xd, A.involve(y)),
            )


def test_norm_examples():
    A = rational_algebra()
    assert A.rank_d == 1
    assert norm(A, A.from_rational(2)) == 2

    B = quadfield_algebra(F5)
    assert B.rank_d == 2
    x = (F5.from_sqrt_coords(3, 1),)  # 3 + sqrt5
    assert norm(B, x) == 4

    C = replace(matrix_algebra_q(2), gammas=(2,))
    assert C.rank_d == 4
    d = ([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]],)
    assert norm(C, d) == 4


def test_norm_multiplicative_and_units():
    A = quadfield_algebra(F5)
    order = OrderR(A)
    rng = random.Random(3)
    for _ in range(20):
        x = (F5.from_rational(0),)
        while norm(A, x) == 0:
            x = A.from_qcoords([Fraction(rng.randint(-9, 9)) for _ in range(2)])
        y = A.from_qcoords([Fraction(rng.randint(-9, 9)) for _ in range(2)])
        assert norm(A, A.mul(x, y)) == norm(A, x) * norm(A, y)
        assert order.contains(x) and norm(A, x).denominator == 1
    u = (F5.from_sqrt_coords(Fraction(1, 2), Fraction(1, 2)),)  # fundamental unit
    assert norm(A, u) == 1


def test_norm_times_inverse_examples():
    B = quadfield_algebra(F5)
    orderB = OrderR(B)
    x = (F5.from_sqrt_coords(1, 1),)  # 1 + sqrt5
    out = norm_times_inverse(orderB, x)
    assert out[0] == F5.from_sqrt_coords(-1, 1)  # sqrt5 - 1

    A = rational_algebra()
    orderA = OrderR(A, (A.one(),))
    assert norm_times_inverse(orderA, A.from_rational(2))[0] == 1

    C = replace(matrix_algebra_q(2), gammas=(2,))
    orderC = OrderR(C)
    d = ([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]],)
    out = norm_times_inverse(orderC, d)
    assert out[0] == [[Fraction(4), Fraction(0)], [Fraction(0), Fraction(2)]]


def test_local_norm_examples():
    A = rational_algebra()
    assert local_norm(A, A.from_rational(12), 2) == 4
    assert local_norm(A, A.from_rational(12), 5) == 1

    B = quadfield_algebra(F5)
    x = (F5.from_sqrt_coords(3, 1),)
    assert local_norm(B, x, 2) == 4
    assert local_norm(B, x, 3) == 1


@given(coords=st.lists(st.integers(-6, 6), min_size=2, max_size=2))
@settings(max_examples=40, deadline=None)
def test_local_global_norm_factorization(coords):
    B = quadfield_algebra(F5)
    x = B.from_qcoords([Fraction(c) for c in coords])
    n = norm(B, x)
    if n == 0:
        return
    prod = Fraction(1)
    from sympy import factorint

    for p in factorint(n.numerator * n.denominator):
        prod *= local_norm(B, x, p)
    assert prod == n


def test_quaternion_matrix_reduced_norm():
    # M_1 of a quaternion algebra: |Nrd(matrix [x])| must equal Nrd(x)
    ring = QuaternionRing(RationalRing(), Fraction(-1), Fraction(-1))
    f = SimpleFactor(ring, matrix_size=1, involution="conjugate_transpose")
    i = ring.i()
    assert f.abs_norm([[i]]) == 1
    x = ring.coerce(2) + i
    assert f.abs_norm([[x]]) == x.nrd() == 5
    # M_2: diag(x, y) has Nrd = Nrd(x) Nrd(y)
    f2 = SimpleFactor(ring, matrix_size=2, involution="conjugate_transpose")
    y = ring.j() + ring.coerce(1)
    m = [[x, ring.zero()], [ring.zero(), y]]
    assert f2.abs_norm(m) == x.nrd() * y.nrd()


QUATERNION_BASES = {
    "Q(-1,-1)": QuaternionRing(RationalRing(), Fraction(-1), Fraction(-1)),
    "Q(1,1)": QuaternionRing(RationalRing(), Fraction(1), Fraction(1)),
    "Q(2,5)": QuaternionRing(RationalRing(), Fraction(2), Fraction(5)),
    "F5(-1,-1)": QuaternionRing(F5, F5.from_rational(-1), F5.from_rational(-1)),
    "F5(-1,3)": QuaternionRing(F5, F5.from_rational(-1), F5.from_rational(3)),
    "F5(1,1)": QuaternionRing(F5, F5.from_rational(1), F5.from_rational(1)),
}


FIELD_BASES = {"F5": F5, "F-3": QuadField(-3)}


def _abs_center_norm(c) -> Fraction:
    """|Nm_{F/Q}(c)| for c in the centre Q, Q(sqrt5) or Q(sqrt-3)."""
    return abs(c.norm() if hasattr(c, "norm") else Fraction(c))


@pytest.mark.parametrize(
    "name, size",
    [(name, size) for name in QUATERNION_BASES for size in (0, 1, 2)]
    + [(name, size) for name in FIELD_BASES for size in (1, 2)],
)
def test_quaternion_base_norm_seeded(name, size):
    """Seeded elements of B, M_1(B) and M_2(B) over definite and split
    quaternion algebras B with centre Q or Q(sqrt5), and of M_1(F) and
    M_2(F) over F = Q(sqrt5) and Q(sqrt-3): the norm is multiplicative, a
    triangular matrix's norm is the product of |Nm(nrd)| (|Nm(x)| over F)
    over its diagonal, and the norm is 0 exactly when the element has no
    inverse."""
    bases = {**QUATERNION_BASES, **FIELD_BASES}
    ring = bases[name]
    involution = "conjugate_transpose" if size else "canonical"
    f = SimpleFactor(ring, matrix_size=size, involution=involution)
    A = AlgebraWithInvolution((f,))
    rng = random.Random(size * 100 + list(bases).index(name))
    n = max(size, 1)

    def elem():
        return ring.from_qcoords([Fraction(rng.randint(-1, 1)) for _ in range(ring.dim_q)])

    def draw():
        if not size:
            return elem()
        m = [[elem() for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.25:
            lam = elem()  # row 1 a left multiple of row 0: singular
            m[1] = [lam * e for e in m[0]]
        return m

    zeros = 0
    for _ in range(12):
        x, y = (draw(),), (draw(),)
        nx = norm(A, x)
        assert norm(A, A.mul(x, y)) == nx * norm(A, y)
        try:
            A.inv(x)
            invertible = True
        except ZeroDivisionError:
            invertible = False
        assert (nx == 0) == (not invertible)
        zeros += nx == 0
        diag = [elem() for _ in range(n)]
        if size:
            t = [[diag[i] if i == j else (elem() if i < j else ring.zero()) for j in range(n)] for i in range(n)]
        else:
            t = diag[0]
        expected = Fraction(1)
        for d in diag:
            expected *= _abs_center_norm(d.nrd() if name in QUATERNION_BASES else d)
        assert norm(A, (t,)) == expected
    if "(1,1)" in name or size == 2:
        assert zeros > 0


@pytest.mark.parametrize(
    "name, ring",
    [
        ("Q(-1,-3)", QuaternionRing(RationalRing(), Fraction(-1), Fraction(-3))),
        *QUATERNION_BASES.items(),
    ],
    ids=["Q(-1,-3)", *QUATERNION_BASES],
)
def test_quaternion_norm_against_the_regular_matrix(name, ring):
    """On 50 seeded elements x of a quaternion algebra B: nrd x, read off
    the coordinates, is the coordinate 0 of x conj(x), and the norm of the
    factor B is the square root of det(v -> x v) over Q, the determinant of
    `regular_matrix([[x]])`, which is Nm(nrd x)^2."""
    f = SimpleFactor(ring, involution="canonical")
    rng = random.Random(name)
    for _ in range(50):
        x = ring.from_qcoords([Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(ring.dim_q)])
        assert x.nrd() == (x * x.conj()).coords[0]
        reg = det(regular_matrix([[x]], ring))
        assert f.abs_norm(x) == (rational_sqrt(reg) if reg else 0)


@pytest.mark.parametrize("name", list(QUATERNION_BASES))
def test_quaternion_as_rational_matches_rational_of(name):
    """On seeded elements, some central, some rational, some neither:
    `as_rational` answers what `linalg.rational_of` reads off the
    Q-coordinates, over the centre Q and over Q(sqrt5)."""
    ring = QUATERNION_BASES[name]
    rng = random.Random(name)
    for _ in range(60):
        coords = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 6))) for _ in range(ring.dim_q)]
        for k in range(rng.choice((1, 2, ring.dim_q)), ring.dim_q):
            coords[k] = Fraction(0)
        x = ring.from_qcoords(coords)
        assert x.as_rational() == rational_of(x, ring)
    assert ring.coerce(Fraction(-5, 6)).as_rational() == Fraction(-5, 6)


def test_quaternion_norm_spec():
    A = quaternion_algebra_q(-1, -1)
    assert A.rank_d == 2
    ring = A.factors[0].ring
    x = (ring.coerce(1) + ring.i(),)
    assert norm(A, x) == 2


def test_order_validation_rejects_bad():
    A = quadfield_algebra(F5)
    # basis not containing 1
    with pytest.raises(AlgebraError):
        OrderR(A, ((F5.from_rational(2),), (F5.omega() * 2,)))
    # not closed: Z + Z*(w/2) is not a ring
    with pytest.raises(AlgebraError):
        OrderR(A, ((F5.one(),), (F5.omega() / 2,)))


def test_order_membership():
    A = quadfield_algebra(F5)
    order = OrderR(A)
    assert order.contains((F5.omega(),))
    assert not order.contains((F5.omega() / 2,))


def _reference_coordinates(rows, v):
    """The c with sum_i c_i rows_i = v, by Gauss-Jordan over Fraction on the
    transposed system."""
    n = len(rows)
    m = [[Fraction(rows[i][j]) for i in range(n)] + [Fraction(v[j])] for j in range(n)]
    for k in range(n):
        piv = next(r for r in range(k, n) if m[r][k] != 0)
        m[k], m[piv] = m[piv], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for r in range(n):
            if r != k:
                f = m[r][k]
                m[r] = [x - f * y for x, y in zip(m[r], m[k])]
    return [row[n] for row in m]


def _unit(i, j, c=1):
    """c e_ij in M_2(Q), as an element of `matrix_algebra_q(2)`."""
    return ([[Fraction(c * (r == i and k == j)) for k in range(2)] for r in range(2)],)


def _random_gl2z(rng):
    g = [[1, 0], [0, 1]]
    for _ in range(4):
        t = rng.randint(-3, 3)
        g = [[g[1][0] + t * g[0][0], g[1][1] + t * g[0][1]], g[0]]
    return g


def _orders_off_the_identity(rng):
    """Orders whose basis matrix is not the identity: Z[omega] over
    Q(sqrt 5) (D = 1 mod 4) and Z[sqrt 5] (its inverse basis matrix has
    denominator 2), each in a basis moved by a random GL_2(Z) matrix; M_2(Z)
    in the basis g e_ij g^-1 for a random g in GL_2(Z); and Z + 2 M_2(Z),
    whose inverse basis matrix has denominator 2."""
    Af = quadfield_algebra(F5)
    w, one = F5.omega(), F5.one()
    for pair in ((one, w), (one, w * 2 - one)):
        g = _random_gl2z(rng)
        yield "Z[omega]" if pair[1] == w else "Z[sqrt5]", OrderR(
            Af, tuple((pair[0] * Fraction(r[0]) + pair[1] * Fraction(r[1]),) for r in g)
        )
    Am = matrix_algebra_q(2)
    g = [[Fraction(x) for x in row] for row in _random_gl2z(rng)]
    ginv = inverse(g)
    conj = tuple((mat_mul(mat_mul(g, e[0]), ginv),) for e in qbasis(Am))
    yield "g M_2(Z) g^-1", OrderR(Am, conj)
    yield "Z + 2 M_2(Z)", OrderR(Am, (Am.one(), _unit(0, 1, 2), _unit(1, 0, 2), _unit(1, 1, 2)))


def test_order_coordinates_and_membership_match_a_fraction_reference():
    """coordinates(x) and contains(x) agree with solving for x in the basis
    over Fraction, for random elements of the algebra and of the order
    (some scaled by 1/2 or 1/3)."""
    rng = random.Random(17)
    for _ in range(5):
        for name, order in _orders_off_the_identity(rng):
            A = order.algebra
            rows = [A.to_qcoords(b) for b in order.basis_elements]
            assert not order.basis_matrix_is_identity(), name
            for _ in range(20):
                if rng.random() < 0.5:
                    x = A.from_qcoords([Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4])) for _ in rows])
                else:
                    x = order.element_from_coordinates([rng.randint(-5, 5) for _ in rows])
                    x = A.scale(Fraction(1, rng.choice([1, 1, 2, 3])), x)
                expected = _reference_coordinates(rows, A.to_qcoords(x))
                got = order.coordinates(x)
                assert got == expected and all(type(c) is Fraction for c in got), name
                assert order.contains(x) == all(c.denominator == 1 for c in expected), name
    assert OrderR(matrix_algebra_q(2)).basis_matrix_is_identity()
    assert OrderR(quadfield_algebra(F5)).basis_matrix_is_identity()


def _standard_algebras():
    """The algebras whose Q-basis `OrderR(algebra)` takes on a theorem's
    word: Q, Q(sqrt D) under both involutions, and M_n(Q) under the
    transpose, n = 1..4."""
    yield "Z", rational_algebra()
    for D in (-23, -5, -3, -1, 2, 5, 13, 401):
        for involution in ("identity", "conjugation"):
            yield f"O_F D={D} {involution}", quadfield_algebra(QuadField(D), involution)
    for n in range(1, 5):
        yield f"M_{n}(Z)", matrix_algebra_q(n)


_STANDARD = list(_standard_algebras())


def _count_products(monkeypatch):
    """A list that grows by one for each `AlgebraWithInvolution.mul` call."""
    calls = []
    mul = AlgebraWithInvolution.mul

    def counted(self, x, y):
        calls.append(None)
        return mul(self, x, y)

    monkeypatch.setattr(AlgebraWithInvolution, "mul", counted)
    return calls


@pytest.mark.parametrize("name, A", _STANDARD, ids=[name for name, _ in _STANDARD])
def test_standard_orders_pass_the_checked_constructor(name, A, monkeypatch):
    """The checked constructor accepts the basis that `OrderR(A)` takes on
    trust, without a product, and the two are equal and agree on
    coordinates and membership of seeded elements, integral or with small
    denominators."""
    calls = _count_products(monkeypatch)
    standard = OrderR(A)
    assert calls == []
    checked = OrderR(A, tuple(qbasis(A)))
    assert len(calls) == A.dim_q**2
    assert standard == checked
    assert [A.to_qcoords(b) for b in standard.basis_elements] == identity(A.dim_q)
    assert checked.basis_matrix_is_identity() and standard.basis_matrix_is_identity()
    assert checked.contains_qbasis() and standard.contains_qbasis()
    rng = random.Random(A.dim_q)
    for _ in range(20):
        x = A.from_qcoords([Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3])) for _ in range(A.dim_q)])
        assert standard.coordinates(x) == checked.coordinates(x), name
        assert standard.contains(x) == checked.contains(x), name


def test_qbasis_order_off_the_theorem_list_runs_the_checks(monkeypatch):
    """Off the theorem list, `OrderR(A)` checks the Q-basis like any other
    basis: M_2(Q) under a twisted transpose (z != I) is refused as not
    dagger-stable, while a quaternion algebra, M_2 of a quadratic field
    and Q x Q pass, each equal to the explicitly checked order, after
    dim^2 products."""
    twisted = matrix_algebra_q(2, [[1, 0], [0, 2]])
    assert not twisted.factors[0].z_is_identity
    with pytest.raises(AlgebraError, match="^order is not dagger-stable$"):
        OrderR(twisted)
    algebras = [
        quaternion_algebra_q(-1, -1),
        AlgebraWithInvolution((SimpleFactor(F5, matrix_size=2, involution="conjugate_transpose"),)),
        AlgebraWithInvolution((SimpleFactor(RationalRing()), SimpleFactor(RationalRing()))),
    ]
    for A in algebras:
        calls = _count_products(monkeypatch)
        order = OrderR(A)
        assert len(calls) == A.dim_q**2, A
        assert order == OrderR(A, tuple(qbasis(A))), A


def test_swap_pairs_are_refused_with_their_reason():
    """The three swap-pair refusals; a swap of Q(sqrt 2) with Q(sqrt 3)
    would put an element of one field in the other's slot."""
    Q, F2, F3 = (SimpleFactor(r) for r in (RationalRing(), QuadField(2), QuadField(3)))
    quat = SimpleFactor(QuaternionRing(RationalRing(), Fraction(-1), Fraction(-1)), involution="canonical")
    cases = [
        ((Q, Q), ((0, 0),), "swap pairs must be disjoint and non-trivial"),
        ((Q, Q, Q), ((0, 1), (1, 2)), "swap pairs must be disjoint and non-trivial"),
        ((quat, quat), ((0, 1),), "swap pairs are supported for etale \\(field\\) factors"),
        ((F2, F3), ((0, 1),), "swap pairs must join equal factors"),
        ((Q, F2), ((0, 1),), "swap pairs must join equal factors"),
    ]
    for factors, pairs, message in cases:
        with pytest.raises(AlgebraError, match=f"^{message}$"):
            AlgebraWithInvolution(factors, pairs)
    A = AlgebraWithInvolution((F3, F3), ((0, 1),))
    x = (QuadField(3).from_sqrt_coords(1, 2), QuadField(3).one())
    assert A.involve(x) == (x[1], x[0])


def test_non_orders_are_refused_with_their_reason():
    Am = matrix_algebra_q(2)
    eye, e = Am.one(), _unit
    cases = [
        ((eye, e(0, 1), e(1, 0)), "order basis must have full rank"),
        ((eye, e(0, 1), e(0, 1, 2), e(1, 1)), "order basis is singular"),
        ((Am.scale(2, eye), e(0, 1), e(1, 0), e(1, 1)), "order must contain 1"),
        # an order (lower-left entry even), but not transpose-stable
        ((eye, e(0, 1), e(1, 0, 2), e(1, 1)), "order is not dagger-stable"),
        # transpose-stable with 1, but (e01 + e10) e11 = e01 is missing
        ((eye, Am.add(e(0, 1), e(1, 0)), e(1, 1), e(0, 1, 2)), "order is not closed under multiplication"),
    ]
    for basis, reason in cases:
        with pytest.raises(AlgebraError, match=f"^{reason}$"):
            OrderR(Am, basis)


def test_swap_pair_norm_compat():
    A = AlgebraWithInvolution(
        (SimpleFactor(RationalRing()), SimpleFactor(RationalRing())),
        swap_pairs=((0, 1),),
    )
    with pytest.raises(AlgebraError):
        replace(A, gammas=(1, 2))
    A2 = replace(A, gammas=(2, 2))
    assert A2.rank_d == 4
    x = (Fraction(3), Fraction(5))
    assert norm(A2, x) == 15**2
    assert A.involve(x) == (Fraction(5), Fraction(3))


def test_gammas_default_to_one_and_are_checked_on_the_algebra():
    """The norm exponents are a field of the algebra: all 1 by default, an
    explicit all-ones tuple (or list) is the same algebra, and the three
    checks a norm needs refuse at construction."""
    Q = SimpleFactor(RationalRing())
    for fs in ((Q,), (Q, SimpleFactor(F5)), (Q, Q, SimpleFactor(F5, involution="conjugation"))):
        A = AlgebraWithInvolution(fs)
        assert A.gammas == (1,) * len(fs)
        assert A == AlgebraWithInvolution(fs, gammas=(1,) * len(fs))
        assert A == AlgebraWithInvolution(fs, gammas=[1] * len(fs))
        assert hash(A) == hash(AlgebraWithInvolution(fs, gammas=(1,) * len(fs)))
        assert A != AlgebraWithInvolution(fs, gammas=(2,) + (1,) * (len(fs) - 1))
    swapped = AlgebraWithInvolution((Q, Q, SimpleFactor(F5)), ((0, 1),), gammas=(3, 3, 2))
    assert swapped.rank_d == 3 + 3 + 2 * 2
    cases = [
        ((Q, Q), ((0, 1),), (1, 2), "dagger-compatibility requires equal gammas on swapped factors"),
        ((Q, Q), (), (1,), "one gamma per factor"),
        ((Q,), (), (1, 1), "one gamma per factor"),
        ((Q, Q), (), (1, 0), "gammas must be positive"),
        ((Q,), (), (-2,), "gammas must be positive"),
    ]
    for fs, pairs, gammas, message in cases:
        with pytest.raises(AlgebraError, match=f"^{message}$"):
            AlgebraWithInvolution(fs, pairs, gammas)
        with pytest.raises(AlgebraError, match=f"^{message}$"):
            replace(AlgebraWithInvolution(fs, pairs), gammas=gammas)


def test_an_algebra_needs_a_factor():
    """No factors would be the zero-dimensional algebra: refused."""
    with pytest.raises(AlgebraError, match="^an algebra needs at least one simple factor$"):
        AlgebraWithInvolution(())


def test_conjugator_must_match_the_matrix_size():
    """A conjugator of another size, or with a row of another length, is
    refused; `involve` of an n x n matrix stays n x n."""
    z3 = _freeze([[Fraction(int(i == j)) for j in range(3)] for i in range(3)])
    bad = [z3, ((Fraction(1), Fraction(0)), (Fraction(0),)), ((Fraction(1),),)]
    for z in bad:
        with pytest.raises(AlgebraError, match="^conjugator must be 2 x 2$"):
            SimpleFactor(RationalRing(), matrix_size=2, involution="conjugate_transpose", z=z)
    with pytest.raises(AlgebraError, match="^conjugator must be 2 x 2$"):
        matrix_algebra_q(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(AlgebraError, match="^conjugator must be 2 x 2$"):
        SimpleFactor(F5, matrix_size=2, involution="conjugate_transpose", z=((F5.one(),),))
    A = matrix_algebra_q(2, [[1, 0], [0, 2]])
    x = A.from_qcoords([Fraction(c) for c in (1, 2, 3, 4)])
    assert [len(row) for row in A.involve(x)[0]] == [2, 2]


def _coordinate_spaces():
    """Everything that has Q-coordinates, by name: ring descriptors, simple
    factors and algebras."""
    quat = QuaternionRing(RationalRing(), Fraction(-1), Fraction(-3))
    m2 = SimpleFactor(F5, matrix_size=2, involution="conjugate_transpose")
    return {
        "Q": rational_algebra(),
        "quadfield": quadfield_algebra(F5),
        "quaternion": quaternion_algebra_q(-1, -3),
        "QxQ": AlgebraWithInvolution(
            (SimpleFactor(RationalRing()), SimpleFactor(RationalRing())), ((0, 1),)
        ),
        "matrix": matrix_algebra_q(2),
        "two-factor": AlgebraWithInvolution((m2, SimpleFactor(quat, involution="canonical"))),
        "quaternion-ring": quat,
        "matrix-factor": m2,
    }


@pytest.mark.parametrize("name", list(_coordinate_spaces()))
def test_qbasis_round_trips_through_qcoords(name):
    """qbasis(A)[t] has the unit vector e_t as its coordinates, and
    from_qcoords inverts to_qcoords on it."""
    A = _coordinate_spaces()[name]
    basis = qbasis(A)
    assert [A.to_qcoords(e) for e in basis] == identity(A.dim_q)
    assert [A.from_qcoords(A.to_qcoords(e)) for e in basis] == basis


def test_rational_scalar_detection():
    C = matrix_algebra_q(2)
    s = C.from_rational(Fraction(7, 2))
    assert rational_of(s, C) == Fraction(7, 2)
    d = ([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]],)
    assert rational_of(d, C) is None


def test_quaternion_over_quadratic_center():
    ring = QuaternionRing(F5, F5.from_rational(-1), F5.from_rational(-1))
    A = AlgebraWithInvolution((SimpleFactor(ring, involution="canonical"),))
    assert A.rank_d == 4
    i = ring.i()
    x = (ring.coerce(1) + i,)
    # Nrd(1 + i) = 2 in F; Nm_{F/Q}(2) = 4
    assert norm(A, x) == 4
    y = (ring.coerce(F5.from_sqrt_coords(0, 1)),)  # scalar sqrt5
    # Nrd = 5 as an F-element is (sqrt5)^2: Nm_{F/Q}((sqrt5)^2) = 25
    assert norm(A, y) == 25
    # involution axioms
    xd = A.involve(x)
    assert A.eq(A.involve(xd), x)


def test_matrix_over_quadratic_field():
    ring = F5
    f = SimpleFactor(ring, matrix_size=2, involution="conjugate_transpose")
    A = AlgebraWithInvolution((f,))
    assert A.rank_d == 4
    s5 = F5.sqrtD()
    m = ([[s5, F5.zero()], [F5.zero(), F5.one()]],)
    # Nrd = det = sqrt5; Nm_{F/Q} = -5; absolute value 5
    assert norm(A, m) == 5
    md = A.involve(m)
    # conjugate-transpose: sqrt5 bar = -sqrt5
    assert f.eq(md[0], [[-s5, F5.zero()], [F5.zero(), F5.one()]])


def _ref_quat_mul(ring, x, y):
    """The product of two coordinate tuples over the centre, by the
    textbook formula (i^2 = a, j^2 = b, ij = -ji)."""
    a, b = ring.a, ring.b
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
        x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
        x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    )


def _assert_quat_agrees(x, coords):
    """x has the centre coordinates `coords`, in its normal form: over Q,
    int numerators over a den > 0 with gcd(num, den) = 1; over a quadratic
    centre, den = 1."""
    assert tuple(x.coords) == tuple(coords)
    if isinstance(x.alg.center, RationalRing):
        assert all(type(n) is int for n in x.num) and x.den > 0 and gcd(x.den, *x.num) == 1
    else:
        assert x.den == 1


@pytest.mark.parametrize(
    "name, ring",
    [
        ("Q(-1,-3)", QuaternionRing(RationalRing(), Fraction(-1), Fraction(-3))),
        ("Q(1/2,-5/3)", QuaternionRing(RationalRing(), Fraction(1, 2), Fraction(-5, 3))),
        *QUATERNION_BASES.items(),
    ],
    ids=["Q(-1,-3)", "Q(1/2,-5/3)", *QUATERNION_BASES],
)
def test_quaternion_elements_agree_with_centre_coordinates(name, ring):
    """Seeded: on elements with mixed denominators and zero coordinates,
    +, -, *, scalar products, conj, nrd, inv, == and hash of `QuatElem`
    agree with the textbook formulas on centre coordinates, and every
    result is in normal form."""
    rng = random.Random(name)
    values = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6)]
    for _ in range(60):
        qx, qy = ([rng.choice(values) for _ in range(ring.dim_q)] for _ in range(2))
        x, y = ring.from_qcoords(qx), ring.from_qcoords(qy)
        cx, cy = x.coords, y.coords
        assert ring.to_qcoords(x) == qx
        c = rng.choice(values[1:])
        _assert_quat_agrees(x + y, [s + t for s, t in zip(cx, cy)])
        _assert_quat_agrees(x - y, [s - t for s, t in zip(cx, cy)])
        _assert_quat_agrees(x * y, _ref_quat_mul(ring, cx, cy))
        _assert_quat_agrees(x * c, [s * c for s in cx])
        _assert_quat_agrees(c * x, [s * c for s in cx])
        _assert_quat_agrees(x.conj(), [cx[0], -cx[1], -cx[2], -cx[3]])
        n = x.nrd()
        assert n == _ref_quat_mul(ring, cx, x.conj().coords)[0]
        assert (x == y) == (cx == cy) and ring.is_zero(x) == (set(qx) == {0})
        if ring.center.is_zero(n):
            with pytest.raises(ZeroDivisionError):
                ring.inv(x)
            continue
        inv = ring.inv(x)
        _assert_quat_agrees(inv, [s / n for s in x.conj().coords])
        back = y * x * inv
        assert back == y and hash(back) == hash(y)
