"""Properties of the one matrix layer (`polarith.linalg`) over every ring
descriptor the package uses: Q, a real and an imaginary quadratic field, a
quaternion division algebra, a split quaternion algebra and the etale pair
Q x Q."""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from sympy import primefactors

from polarith.algebras import QuaternionRing
from polarith.forms import EtalePairRing, PairElem
from polarith.linalg import (
    QQ,
    RationalRing,
    Ring,
    conj_transpose,
    det,
    hnf,
    identity,
    inverse,
    kernel_mod_p,
    mat_add,
    mat_eq,
    mat_from_qcoords,
    mat_mul,
    mat_to_qcoords,
    numerators,
    qbasis,
    rational_of,
    regular_matrix,
    scalar_of,
    transpose,
)
from polarith.quadfield import QuadField

REAL = QuadField(5)
IMAG = QuadField(-3)
QUAT_DIVISION = QuaternionRing(QQ, Fraction(-1), Fraction(-3))
QUAT_SPLIT = QuaternionRing(QQ, Fraction(1), Fraction(1))
PAIR = EtalePairRing()

RINGS = {"Q": QQ, "real": REAL, "imag": IMAG, "quat": QUAT_DIVISION, "split": QUAT_SPLIT, "pair": PAIR}
ALL_RINGS = [pytest.param(ring, id=name) for name, ring in RINGS.items()]
DIVISION = [pytest.param(RINGS[name], id=name) for name in ("Q", "real", "imag", "quat")]

PROPS = settings(max_examples=40, deadline=None)

small = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 1, 2, 3]))


def elements(ring):
    return st.lists(small, min_size=ring.dim_q, max_size=ring.dim_q).map(ring.from_qcoords)


def matrices(ring, rows, cols):
    return st.lists(
        st.lists(elements(ring), min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


def square_pairs(ring):
    """(A, B) square of the same size 1..3."""
    return st.integers(1, 3).flatmap(lambda n: st.tuples(matrices(ring, n, n), matrices(ring, n, n)))


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_every_ring_descriptor_satisfies_the_protocol(ring):
    """Each descriptor, a quadratic field itself included, is a `Ring`, and
    none writes its own trace or rational test: those are read off the
    Q-coordinates (`rational_of`, the trace of `regular_matrix`)."""
    assert isinstance(ring, Ring)
    for name in ("trace_q", "is_rational", "as_rational"):
        assert not hasattr(ring, name), name


@pytest.mark.parametrize("ring", ALL_RINGS)
@PROPS
@given(data=st.data())
def test_rational_of_agrees_with_its_definition(ring, data):
    """rational_of(x) is the c with x = c * 1, and None when there is none:
    x = c * 1 exactly when left multiplication by x is c times the identity."""
    x = data.draw(elements(ring))
    assert rational_of(x, ring) == scalar_of(regular_matrix([[x]], ring))
    c = data.draw(small)
    assert rational_of(ring.coerce(c), ring) == c


def test_rational_of_scales_by_the_coordinates_of_one():
    """Q in a layout where 1 has the coordinates (2, 0): 3 reads as 6 / 2."""

    class Doubled(RationalRing):
        def to_qcoords(self, x):
            return [2 * Fraction(x), Fraction(0)]

    assert rational_of(Fraction(3), Doubled()) == 3


@pytest.mark.parametrize("ring", ALL_RINGS)
@PROPS
@given(data=st.data())
def test_inverse_is_two_sided(ring, data):
    """A refused matrix has a singular regular representation, which proves
    it has no inverse, as that representation is a unital ring map."""
    a, _ = data.draw(square_pairs(ring))
    n = len(a)
    try:
        ainv = inverse(a, ring)
    except ZeroDivisionError:
        assert det(regular_matrix(a, ring)) == 0
        return
    eye = identity(n, ring)
    assert mat_eq(mat_mul(ainv, a, ring), eye, ring)
    assert mat_eq(mat_mul(a, ainv, ring), eye, ring)


def _reference_nullspace(a, ring):
    """A basis of the right kernel of a over a division ring, by generic
    Gauss-Jordan elimination over the ring descriptor: pivot rows are scaled
    to a leading one by left multiplication with the pivot's inverse."""
    is_zero = ring.is_zero
    m = [list(row) for row in a]
    cols = len(a[0])
    pivots = []
    for c in range(cols):
        r = len(pivots)
        rr = next((i for i in range(r, len(m)) if not is_zero(m[i][c])), None)
        if rr is None:
            continue
        pinv = ring.inv(m[rr][c])
        m[r], m[rr] = m[rr], m[r]
        prow = m[r] = [pinv * x for x in m[r]]
        for i, row in enumerate(m):
            if i != r and not is_zero(row[c]):
                f = row[c]
                m[i] = [x - f * y for x, y in zip(row, prow)]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [ring.zero()] * cols
        v[fc] = ring.one()
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


@pytest.mark.parametrize("ring", DIVISION)
@PROPS
@given(data=st.data())
def test_inverse_exists_exactly_for_full_rank(ring, data):
    a, _ = data.draw(square_pairs(ring))
    try:
        inverse(a, ring)
        invertible = True
    except ZeroDivisionError:
        invertible = False
    assert invertible == (_reference_nullspace(a, ring) == [])


def test_inverse_passes_over_a_zero_divisor_pivot():
    """Split quaternions have zero divisors: 1 + i has reduced norm 0 when
    i^2 = 1.  It is the first pivot, so the inverse comes from the
    left-regular representation over Q."""
    r = QUAT_SPLIT
    z = r.one() + r.i()
    with pytest.raises(ZeroDivisionError):
        r.inv(z)
    a = [[z, r.one()], [r.one(), r.zero()]]
    expected = [[r.zero(), r.one()], [r.one(), -z]]
    assert mat_eq(inverse(a, r), expected, r)


@pytest.mark.parametrize("ring", [pytest.param(QUAT_SPLIT, id="split"), pytest.param(PAIR, id="pair")])
def test_inverse_of_a_column_of_zero_divisors(ring):
    """No entry of the first column has an inverse, yet the matrix does:
    over (1,1/Q) with e = (1+i)/2, f = (1-i)/2, and over Q x Q with
    e = (1,0), f = (0,1), the matrix [[e, f], [f, e]] squares to I."""
    one = ring.one()
    if ring is PAIR:
        e, f = PairElem(Fraction(1), Fraction(0)), PairElem(Fraction(0), Fraction(1))
    else:
        e, f = (one + ring.i()) * Fraction(1, 2), (one - ring.i()) * Fraction(1, 2)
    for x in (e, f):
        with pytest.raises(ZeroDivisionError):
            ring.inv(x)
    a = [[e, f], [f, e]]
    assert mat_eq(mat_mul(a, a, ring), identity(2, ring), ring)
    assert mat_eq(inverse(a, ring), a, ring)
    with pytest.raises(ZeroDivisionError):
        inverse([[e, f], [e, f]], ring)


@pytest.mark.parametrize("ring", ALL_RINGS)
@PROPS
@given(data=st.data())
def test_det_is_multiplicative(ring, data):
    """Over a ring other than Q a matrix a has the determinant over Q of
    its regular representation v -> a v.  That representation is a unital
    ring map (it keeps sums, products and the identity), so the determinant
    is multiplicative and is 0 on every matrix without an inverse."""
    a, b = data.draw(square_pairs(ring))
    n = len(a)
    reg_a, reg_b = regular_matrix(a, ring), regular_matrix(b, ring)
    assert regular_matrix(mat_add(a, b), ring) == mat_add(reg_a, reg_b)
    assert regular_matrix(mat_mul(a, b, ring), ring) == mat_mul(reg_a, reg_b)
    assert regular_matrix(identity(n, ring), ring) == identity(n * ring.dim_q)
    assert det(mat_mul(reg_a, reg_b)) == det(reg_a) * det(reg_b)


def test_det_over_a_zero_divisor_pivot():
    """Over Q x Q the first column of [[(1,0),(0,1)],[(0,1),(1,0)]] holds
    only zero divisors.  Componentwise the matrix is the identity and the
    swap matrix, so the determinant of its regular representation over Q
    is 1 * (-1)."""
    e, f = PairElem(Fraction(1), Fraction(0)), PairElem(Fraction(0), Fraction(1))
    with pytest.raises(ZeroDivisionError):
        PAIR.inv(e)
    assert det(regular_matrix([[e, f], [f, e]], PAIR)) == -1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@PROPS
@given(data=st.data())
def test_kernel_mod_p_is_the_kernel_in_reduced_echelon_form(p, data):
    """The rows are killed by a mod p, form a reduced row echelon matrix
    with entries in range(p), and rank + nullity is the number of columns
    (the rank read off the kernel of the transpose)."""
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    entries = st.lists(st.integers(-2 * p, 2 * p), min_size=cols, max_size=cols)
    a = data.draw(st.lists(entries, min_size=rows, max_size=rows))
    kernel = kernel_mod_p(a, p)
    for v in kernel:
        assert all(x in range(p) for x in v)
        assert all(sum(x * y for x, y in zip(row, v)) % p == 0 for row in a)
    leads = [next(j for j, x in enumerate(v) if x) for v in kernel]
    assert leads == sorted(set(leads))
    for v, j in zip(kernel, leads):
        assert v[j] == 1 and all(w[j] == 0 for w in kernel if w is not v)
    assert cols - len(kernel) == rows - len(kernel_mod_p(transpose(a), p))


def test_integer_helpers_on_empty_and_pivotless_input():
    """No rows give no kernel rows and no HNF rows; a column with no
    nonzero entry below the current row is skipped."""
    assert kernel_mod_p([], 3) == [] and hnf([]) == []
    assert hnf([[0, 1], [0, 2]]) == [[0, 1]]
    assert hnf([[0, 2, 1], [0, 4, 3]]) == [[0, 2, 0], [0, 0, 1]]


@pytest.mark.parametrize("ring", ALL_RINGS)
@PROPS
@given(data=st.data())
def test_conj_transpose_reverses_products(ring, data):
    a, b = data.draw(square_pairs(ring))
    lhs = conj_transpose(mat_mul(a, b, ring), ring)
    rhs = mat_mul(conj_transpose(b, ring), conj_transpose(a, ring), ring)
    assert mat_eq(lhs, rhs, ring)
    assert transpose(transpose(a)) == a


@pytest.mark.parametrize("ring", ALL_RINGS)
@PROPS
@given(data=st.data())
def test_matrix_qcoords_round_trip(ring, data):
    a = data.draw(st.integers(1, 3).flatmap(lambda n: matrices(ring, n, n)))
    coords = mat_to_qcoords(a, ring)
    assert len(coords) == len(a) ** 2 * ring.dim_q
    assert mat_eq(mat_from_qcoords(coords, len(a), ring), a, ring)


@pytest.mark.parametrize("ring", ALL_RINGS)
@pytest.mark.parametrize("n", [None, 1, 2])
def test_qbasis_has_the_unit_vectors_as_coordinates(ring, n):
    if n is None:
        coords = [ring.to_qcoords(e) for e in qbasis(ring)]
    else:
        coords = [mat_to_qcoords(e, ring) for e in qbasis(ring, n)]
    assert coords == identity(len(coords)) and len(coords) == (n or 1) ** 2 * ring.dim_q


@pytest.mark.parametrize("ring", ALL_RINGS)
@PROPS
@given(data=st.data())
def test_scalar_of_agrees_with_its_definition(ring, data):
    """scalar_of(a) is c exactly when a = c * I, and None when a is no
    scalar matrix; scalar matrices, random ones and scalar matrices with
    one entry changed are drawn."""
    n = data.draw(st.integers(1, 3))
    c = data.draw(elements(ring))
    shape = data.draw(st.sampled_from(["scalar", "random", "changed"]))
    if shape == "random":
        a = data.draw(matrices(ring, n, n))
    else:
        a = [[c if i == j else ring.zero() for j in range(n)] for i in range(n)]
        if shape == "changed":
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            a[i][j] = a[i][j] + data.draw(elements(ring))
    got = scalar_of(a, ring)
    scalar = [[a[0][0] if i == j else ring.zero() for j in range(n)] for i in range(n)]
    if mat_eq(a, scalar, ring):
        assert got is not None and ring.is_zero(got - a[0][0])
    else:
        assert got is None


# ---------------------------------------------------------------------------
# The Q kernels on integer numerators against plain Fraction arithmetic


def _reference_mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def _reference_det(a):
    """Forward Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in a]
    n, acc = len(m), Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            acc = -acc
        acc *= m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            m[r] = [x - f * y for x, y in zip(m[r], m[k])]
    return acc


def _reference_inverse(a):
    """Gauss-Jordan elimination of [a | I] over Fraction."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix not invertible")
        m[k], m[piv] = m[piv], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for r in range(n):
            if r != k:
                f = m[r][k]
                m[r] = [x - f * y for x, y in zip(m[r], m[k])]
    return [row[n:] for row in m]


# ints and Fractions mixed, zero often, denominators up to 12
_q_entry = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7]),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
)


def _q_matrix(draw, rows, cols):
    return [[draw(_q_entry) for _ in range(cols)] for _ in range(rows)]


@st.composite
def _q_product(draw):
    """(a, b) of shapes r x k and k x c, each of r, k, c in 0-6."""
    r, k, c = (draw(st.integers(0, 6)) for _ in range(3))
    return _q_matrix(draw, r, k), _q_matrix(draw, k, c)


@st.composite
def _q_square(draw):
    """n x n for n = 0-7, drawn free, with a zero row, or with one row a
    rational combination of two others (so singular)."""
    n = draw(st.integers(0, 7))
    a = _q_matrix(draw, n, n)
    shape = draw(st.sampled_from(["free", "free", "zero-row", "dependent"]))
    if shape == "zero-row" and n:
        a[draw(st.integers(0, n - 1))] = [draw(st.sampled_from([0, Fraction(0)])) for _ in range(n)]
    elif shape == "dependent" and n >= 2:
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        c, e = draw(_q_entry), draw(_q_entry)
        if j != i and k != i:
            a[i] = [c * x + e * y for x, y in zip(a[j], a[k])]
    return a


def _all_fractions(m):
    return all(type(x) is Fraction for row in m for x in row)


@seed(17)
@settings(max_examples=300, deadline=None)
@given(ab=_q_product())
def test_q_mat_mul_matches_reference(ab):
    """Rectangular products, zero rows and mixed int/Fraction entries; every
    entry of the product is a Fraction, so its str() is what it was."""
    a, b = ab
    got, expected = mat_mul(a, b), _reference_mat_mul(a, b)
    assert got == expected and _all_fractions(got)
    assert [[str(x) for x in row] for row in got] == [[str(x) for x in row] for row in expected]


@seed(18)
@settings(max_examples=300, deadline=None)
@given(a=_q_square())
def test_q_det_matches_reference(a):
    got = det(a)
    assert got == _reference_det(a) and type(got) is Fraction


@seed(19)
@settings(max_examples=300, deadline=None)
@given(a=_q_square())
def test_q_inverse_matches_reference(a):
    """Equal to Fraction Gauss-Jordan entry for entry, or refused with the
    same ZeroDivisionError, exactly when the determinant is 0."""
    try:
        expected = _reference_inverse(a)
    except ZeroDivisionError:
        assert det(a) == 0
        with pytest.raises(ZeroDivisionError, match="^matrix not invertible$"):
            inverse(a)
        return
    got = inverse(a)
    assert got == expected and _all_fractions(got)


@seed(20)
@settings(max_examples=100, deadline=None)
@given(a=_q_square())
def test_numerators_clears_the_least_denominator(a):
    num, d = numerators(a)
    assert all(type(x) is int for row in num for x in row) and d >= 1
    assert [[Fraction(x, d) for x in row] for row in num] == a
    # no smaller positive denominator would do: d / p fails for each prime p | d
    for p in primefactors(d):
        assert any((d // p * Fraction(x)).denominator != 1 for row in a for x in row)
