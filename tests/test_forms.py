import dataclasses
import random
import warnings
from fractions import Fraction

import pytest

from polarith.algebras import QuaternionRing
from polarith.exact import REAL_PLACE, square_class
from polarith.forms import (
    EtalePairRing,
    FormError,
    GramForm,
    MatrixInvolution,
    PairElem,
    adjoint_involution,
    diagonal,
    diagonalize,
    etale_pair_witness,
    fourth_power_isometric,
    invariants,
    involution_to_form,
    is_norm,
    is_positive_definite,
    is_positive_involution,
    isometric,
    search_isometry_witness,
    skew_standard_witness,
    symmetric_form_q,
)
from polarith.exact import valuation
from polarith.linalg import (
    RationalRing,
    conj_transpose,
    det,
    frac,
    identity,
    inverse,
    mat_mul,
    qbasis,
    transpose,
)
from polarith.quadfield import QuadField

QR = RationalRing()
F5 = QuadField(5)
Fi = QuadField(-1)


def diagonal_form_q(diag, kind: str = "symmetric") -> GramForm:
    """<d_1, ..., d_n> over Q."""
    n = len(diag)
    g = [[frac(diag[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    return GramForm(kind, QR, g)


def etale_pair_form(a_matrix) -> GramForm:
    """The etale-pair hermitian form whose first component matrix is A (the
    hermitian condition forces the second component to be A^T)."""
    n = len(a_matrix)
    g = [[PairElem(frac(a_matrix[i][j]), frac(a_matrix[j][i])) for j in range(n)] for i in range(n)]
    return GramForm("hermitian", EtalePairRing(), g)


def rand_pos_def(rng, n, bound=5):
    """U^T U + small diagonal boost: a random positive definite form."""
    while True:
        u = [[Fraction(rng.randint(-bound, bound)) for _ in range(n)] for _ in range(n)]
        g = [[sum(u[k][i] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        for i in range(n):
            g[i][i] += rng.randint(1, 3)
        f = symmetric_form_q(g)
        if f.is_nonsingular():
            return f


def test_positive_definite_examples():
    assert is_positive_definite(diagonal_form_q([1]))
    assert not is_positive_definite(diagonal_form_q([-1]))
    assert is_positive_definite(symmetric_form_q([[2, 1], [1, 1]]))
    assert not is_positive_definite(symmetric_form_q([[1, 2], [2, 1]]))


def test_positive_definite_skew_warns_false():
    f = GramForm("skew", QR, [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]])
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        assert is_positive_definite(f) is False
        assert len(w) == 1


def test_positive_definite_over_real_quadratic():
    ring = F5
    # <q> with q = 3 + sqrt5 totally positive
    q = F5.from_sqrt_coords(3, 1)
    f = GramForm("symmetric", ring, [[q]])
    assert is_positive_definite(f)
    # 1 + sqrt5 is not totally positive
    f2 = GramForm("symmetric", ring, [[F5.from_sqrt_coords(1, 1)]])
    assert not is_positive_definite(f2)


def test_gram_validation():
    with pytest.raises(FormError):
        GramForm("symmetric", QR, [[Fraction(0), Fraction(1)], [Fraction(2), Fraction(0)]])
    with pytest.raises(FormError):
        GramForm("hermitian", F5, [[F5.one()]])  # real field rejected


def test_adjoint_involution_identity_gram():
    f = diagonal_form_q([1, 1])
    inv = adjoint_involution(f)
    a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert inv.apply(a) == [[Fraction(1), Fraction(3)], [Fraction(2), Fraction(4)]]


def test_adjoint_involution_diag12():
    f = diagonal_form_q([1, 2])
    inv = adjoint_involution(f)
    a = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
    assert inv.apply(a) == [[Fraction(0), Fraction(0)], [Fraction(1, 2), Fraction(0)]]


def test_adjoint_involution_defining_identity_random():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.choice([2, 3])
        f = rand_pos_def(rng, n)
        inv = adjoint_involution(f)
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        v = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        w = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        av = [sum(a[i][j] * v[j] for j in range(n)) for i in range(n)]
        adw = [sum(inv.apply(a)[i][j] * w[j] for j in range(n)) for i in range(n)]
        assert f.evaluate(av, w) == f.evaluate(v, adw)


def test_adjoint_involution_scale_invariance():
    f = symmetric_form_q([[2, 1], [1, 3]])
    inv1 = adjoint_involution(f)
    inv2 = adjoint_involution(f.scale(Fraction(5, 7)))
    assert inv1.same_as(inv2)
    a = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    assert inv1.apply(a) == inv2.apply(a)


def test_involution_to_form_transpose():
    inv = MatrixInvolution("symmetric", QR, [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
    f = involution_to_form(inv, want_positive=True)
    assert is_positive_definite(f)
    assert adjoint_involution(f).same_as(inv)


def test_involution_to_form_conjugated():
    inv = MatrixInvolution("symmetric", QR, [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]])
    f = involution_to_form(inv, want_positive=True)
    assert is_positive_definite(f)
    assert adjoint_involution(f).same_as(inv)
    # up to positive scalar the gram is diag(1,2)
    ratio = f.gram[0][0] / Fraction(1)
    assert f.gram == [[ratio, Fraction(0)], [Fraction(0), 2 * ratio]]


def test_involution_to_form_roundtrip_random():
    rng = random.Random(23)
    for _ in range(10):
        f = rand_pos_def(rng, 2)
        inv = adjoint_involution(f)
        g = involution_to_form(inv, want_positive=True)
        assert adjoint_involution(g).same_as(inv)


def test_involution_to_form_symplectic_rejects_positive():
    z = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
    inv = MatrixInvolution("symmetric", QR, z)
    with pytest.raises(FormError):
        involution_to_form(inv, want_positive=True)
    f = involution_to_form(inv, want_positive=False)
    assert f.kind == "skew"


def test_involution_to_form_refuses_indefinite_conjugators():
    """An indefinite z gives an involution that is not positive, whatever
    entry z_11 holds (1 or 0); the empty conjugator is refused."""
    for z in ([[1, 0], [0, -1]], [[0, 1], [1, 0]]):
        inv = MatrixInvolution("symmetric", QR, [[Fraction(x) for x in row] for row in z])
        assert not is_positive_involution(inv)
        with pytest.raises(FormError, match="^involution is not positive: no positive definite form exists$"):
            involution_to_form(inv, want_positive=True)
        assert involution_to_form(inv, want_positive=False).gram == inv.z
    with pytest.raises(FormError, match="^involution_to_form needs n >= 1$"):
        involution_to_form(MatrixInvolution("symmetric", QR, []), want_positive=True)


def test_matrix_involution_reads_its_size_off_z():
    assert [f.name for f in dataclasses.fields(MatrixInvolution)] == ["kind", "ring", "z"]
    two = adjoint_involution(diagonal_form_q([1, 1]))
    three = adjoint_involution(diagonal_form_q([1, 1, 1]))
    assert two.same_as(two) and three.same_as(three)
    assert not two.same_as(three) and not three.same_as(two)
    assert involution_to_form(three, want_positive=True).dim == 3


def test_positive_involution_test():
    assert is_positive_involution(adjoint_involution(diagonal_form_q([1, 1])))
    assert not is_positive_involution(
        MatrixInvolution("symmetric", QR, [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]])
    )


def test_invariants_symmetric_examples():
    inv = invariants(diagonal_form_q([1, 1]))
    assert inv.dim == 2
    assert inv.det_class == 1
    assert inv.hasse_minus_places() == []
    assert inv.signatures == [(2, 0)]

    inv2 = invariants(diagonal_form_q([-1, -1]))
    assert inv2.hasse_minus_places() == [2, REAL_PLACE]
    assert inv2.signatures == [(0, 2)]


def test_invariants_quat_skew_hermitian():
    ring = QuaternionRing(RationalRing(), Fraction(-1), Fraction(-1))
    i = ring.i()
    f = GramForm("quat-skew-hermitian", ring, [[i]])
    inv = invariants(f)
    assert inv.det_class == 1  # Nrd(i) = 1
    assert not inv.complete


def test_diagonalize_preserves_form():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.choice([2, 3, 4])
        g = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                g[i][j] = g[j][i]
        f = symmetric_form_q(g)
        if not f.is_nonsingular():
            continue
        diag, u = diagonalize(f)
        transformed = f.transform(u)
        for i in range(n):
            for j in range(n):
                expect = diag[i] if i == j else Fraction(0)
                assert transformed.gram[i][j] == expect


def test_is_norm_examples():
    assert is_norm(2, Fi)
    assert not is_norm(3, Fi)
    assert is_norm(1, Fi)
    assert is_norm(5, Fi)  # 5 = 1 + 4
    with pytest.raises(FormError):
        is_norm(2, F5)


def test_is_norm_against_search():
    # exhaustive a^2+b^2 search as oracle for Q(i)
    reachable = set()
    for a in range(0, 40):
        for b in range(0, 40):
            if a or b:
                reachable.add(a * a + b * b)
    for m in range(1, 60):
        claim = is_norm(m, Fi)
        # norms of Q(i)^x include m iff m * square is a sum of two squares
        truth = any(m * k * k in reachable for k in range(1, 12))
        assert claim == truth, m


def test_isometric_examples():
    f1 = diagonal_form_q([1, 1])
    f2 = diagonal_form_q([2, 2])
    dec = isometric(f1, f2)
    assert dec and dec.complete
    w = search_isometry_witness(f1, f2, 2)
    assert w is not None
    # verify u^T G1 u = G2
    transformed = f1.transform(w)
    assert transformed.gram == f2.gram

    f3 = diagonal_form_q([1, 3])
    dec2 = isometric(f1, f3)
    assert not dec2
    assert "det_class" in dec2.reason
    assert search_isometry_witness(f1, f3, 3) is None


def test_isometric_skew_dimension_only():
    j2 = GramForm("skew", QR, [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]])
    j2b = GramForm("skew", QR, [[Fraction(0), Fraction(5)], [Fraction(-5), Fraction(0)]])
    assert isometric(j2, j2b)
    s = skew_standard_witness(j2b)
    assert s is not None


@pytest.mark.parametrize("n", [2, 4, 6])
def test_skew_standard_witness_on_seeded_forms(n):
    """Seeded skew forms with entries in [-3, 3]: for every nonsingular one
    the witness S has S^T G S = J, the standard symplectic Gram (at n >= 4
    the rest of the space is projected against each hyperbolic pair), and
    a singular one is refused."""
    rng = random.Random(n)
    j = [[Fraction((i == j - 1) - (i == j + 1)) if i // 2 == j // 2 else Fraction(0) for j in range(n)]
         for i in range(n)]
    seen = 0
    for _ in range(40):
        g = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for k in range(i + 1, n):
                g[i][k] = Fraction(rng.randint(-3, 3))
                g[k][i] = -g[i][k]
        f = GramForm("skew", QR, g)
        if not f.is_nonsingular():
            with pytest.raises(FormError, match="^singular skew form$"):
                skew_standard_witness(f)
            continue
        seen += 1
        s = skew_standard_witness(f)
        assert mat_mul(mat_mul(transpose(s), g), s) == j
    assert seen >= 30


def test_etale_pair_isometry():
    f1 = etale_pair_form([[1, 0], [0, 1]])
    f2 = etale_pair_form([[2, 1], [0, 3]])
    assert isometric(f1, f2)
    w = etale_pair_witness(f1, f2)
    assert w is not None


def test_hermitian_imaginary_quadratic():
    ring = Fi
    one = Fi.one()
    f = GramForm("hermitian", ring, [[one]])
    inv = invariants(f)
    assert inv.dim == 1 and inv.det_is_norm and inv.signatures == [(1, 0)]
    two = Fi.from_rational(2)
    f2 = GramForm("hermitian", ring, [[two]])
    assert isometric(f, f2)  # det ratio 2 is a norm of Q(i)
    f3 = GramForm("hermitian", ring, [[Fi.from_rational(3)]])
    assert not isometric(f, f3)  # 3 is not a norm
    fneg = GramForm("hermitian", ring, [[Fi.from_rational(-1)]])
    assert not isometric(f, fneg)  # signatures differ


def test_hermitian_off_diagonal():
    ring = Fi
    i_elem = Fi.sqrtD()
    g = [[Fi.from_rational(2), i_elem], [-i_elem, Fi.from_rational(3)]]
    f = GramForm("hermitian", ring, g)
    assert is_positive_definite(f)
    inv = invariants(f)
    assert inv.dim == 2 and inv.signatures == [(2, 0)]


def test_quaternion_hermitian_type_iii():
    ring = QuaternionRing(RationalRing(), Fraction(-1), Fraction(-1))
    f = GramForm("hermitian", ring, [[ring.one()]])
    assert is_positive_definite(f)
    inv = invariants(f)
    assert inv.signatures == [(1, 0)] and inv.complete
    f2 = GramForm("hermitian", ring, [[ring.coerce(5)]])
    assert isometric(f, f2)


def test_fourth_power_examples():
    f1 = diagonal_form_q([1, 1])
    f2 = diagonal_form_q([1, 5])
    assert not isometric(f1, f2)
    ok, cert = fourth_power_isometric(f1, f2)
    assert ok
    assert cert["hasse_trivial"] and cert["invariants_match"]

    ok2, _ = fourth_power_isometric(f1, f1)
    assert ok2

    with pytest.raises(FormError):
        fourth_power_isometric(diagonal_form_q([1, -1]), f1)


def test_fourth_power_factors_each_entry_once(monkeypatch):
    """Over Q, `fourth_power_isometric` factors each distinct numerator and
    denominator of each form's diagonal once, into one local table per
    form, and never a product of entries such as a determinant."""
    from polarith import exact

    factored = []

    def counting(n):
        factored.append(n)
        return real(n)

    real = exact.factorint
    monkeypatch.setattr(exact, "factorint", counting)
    f1 = diagonal_form_q([Fraction(1, 3), 5, Fraction(7, 2), 12])
    f2 = diagonal_form_q([2, Fraction(3, 5), 11, Fraction(6, 7)])
    ok, cert = fourth_power_isometric(f1, f2)
    assert ok and cert["hasse_trivial"] and cert["sum_rule_checked"]
    assert sorted(factored) == sorted([2, 3, 5, 7, 12] + [2, 3, 5, 6, 7, 11])


def test_fourth_power_hermitian_imaginary():
    ring = Fi
    f1 = GramForm("hermitian", ring, [[Fi.one()]])
    f2 = GramForm("hermitian", ring, [[Fi.from_rational(3)]])
    ok, cert = fourth_power_isometric(f1, f2)
    assert ok and cert["det_is_norm"]


def test_fourth_power_random_pairs():
    rng = random.Random(99)
    non_isometric_seen = 0
    for _ in range(25):
        n = rng.choice([1, 2, 3])
        f1, f2 = rand_pos_def(rng, n), rand_pos_def(rng, n)
        if not isometric(f1, f2):
            non_isometric_seen += 1
        ok, _ = fourth_power_isometric(f1, f2)
        assert ok
    assert non_isometric_seen > 3


def test_witness_search_trivial_and_height():
    f = symmetric_form_q([[2, 1], [1, 1]])
    w = search_isometry_witness(f, f, 1)
    assert w == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_lemma_positive_adjoint_and_psi_q():
    """Positive definite f => adjoint involution positive; and for random
    q = b b^dagger, psi_q is positive definite."""
    rng = random.Random(41)
    for _ in range(12):
        n = rng.choice([2, 3])
        f = rand_pos_def(rng, n)
        inv = adjoint_involution(f)
        assert is_positive_involution(inv)
        while True:
            b = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            from polarith.linalg import det as qdet

            if qdet(b) != 0:
                break
        q = mat_mul(b, inv.apply(b), QR)
        psi_q = GramForm(f.kind, f.ring, mat_mul(f.gram, q, QR))
        assert is_positive_definite(psi_q)


def test_det_class_multiplicativity_and_sum_rule():
    rng = random.Random(17)
    from polarith.exact import hasse_invariant, hilbert_symbol, support_places

    for _ in range(10):
        d1 = [Fraction(rng.choice([x for x in range(-6, 7) if x]))
              for _ in range(rng.choice([1, 2]))]
        d2 = [Fraction(rng.choice([x for x in range(-6, 7) if x]))
              for _ in range(rng.choice([1, 2]))]
        f1, f2 = diagonal_form_q(d1), diagonal_form_q(d2)
        i1, i2 = invariants(f1), invariants(f2)
        isum = invariants(f1.direct_sum(f2))
        assert isum.det_class == square_class(i1.det_class * i2.det_class)
        det1 = Fraction(1)
        for x in d1:
            det1 *= x
        det2 = Fraction(1)
        for x in d2:
            det2 *= x
        for v in support_places(*(d1 + d2)):
            assert hasse_invariant(list(d1) + list(d2), v) == (
                hasse_invariant(d1, v) * hasse_invariant(d2, v) * hilbert_symbol(det1, det2, v)
            )


def test_symmetric_real_quadratic_invariants_flagged():
    ring = F5
    q = F5.from_sqrt_coords(3, 1)  # totally positive
    f1 = GramForm("symmetric", ring, [[q]])
    f2 = GramForm("symmetric", ring, [[q * 4]])
    # det ratio 4 is a square, but these invariants are not complete: the
    # pair is isometric (scale by 2), and no decision is claimed
    assert not invariants(f1).complete
    with pytest.raises(FormError, match="isometry is open"):
        isometric(f1, f2)
    f3 = GramForm("symmetric", ring, [[F5.from_rational(1)]])
    dec2 = isometric(f1, f3)
    assert not dec2 and not dec2.complete  # (3+sqrt5) is not a square times 1 in F
    # signature separation
    f4 = GramForm("symmetric", ring, [[F5.from_sqrt_coords(1, 1)]])  # mixed signs
    assert not isometric(f1, f4)


def test_fourth_power_symmetric_real_quadratic():
    ring = F5
    q1 = F5.from_sqrt_coords(3, 1)
    q2 = F5.from_rational(1)
    f1 = GramForm("symmetric", ring, [[q1]])
    f2 = GramForm("symmetric", ring, [[q2]])
    assert is_positive_definite(f1) and is_positive_definite(f2)
    ok, cert = fourth_power_isometric(f1, f2)
    assert ok and cert["det_fourth_power_square"]


def test_fourth_power_quaternion_hermitian():
    ring = QuaternionRing(RationalRing(), Fraction(-1), Fraction(-1))
    f1 = GramForm("hermitian", ring, [[ring.one()]])
    f2 = GramForm("hermitian", ring, [[ring.coerce(7)]])
    ok, cert = fourth_power_isometric(f1, f2)
    assert ok and cert["classified_by"] == "dimension and signature"


def test_isometric_never_false_with_witness_dim4():
    """Random dim <= 4, height <= 3: a found witness forces isometric."""
    rng = random.Random(3110)
    for _ in range(6):
        n = rng.choice([2, 3, 4])
        f1 = rand_pos_def(rng, n, bound=2)
        u = [[Fraction(rng.choice([-1, 0, 1, 2])) for _ in range(n)] for _ in range(n)]
        from polarith.linalg import det as qdet

        if qdet(u) == 0:
            continue
        f2 = f1.transform(u)
        if any(abs(x) > 40 for row in f2.gram for x in row):
            continue
        w = search_isometry_witness(f1, f2, 3)
        if w is not None:
            assert isometric(f1, f2)


from itertools import product

from hypothesis import given, seed, settings
from hypothesis import strategies as st


def _reference_isometry_search(f1, f2, height):
    """`search_isometry_witness` by its definition, in Fraction arithmetic:
    backtracking over columns, each column drawn from all vectors of
    entries +-num/den (num, den <= height) with the target value, in
    increasing height order."""
    n = f1.dim
    g1, g2 = f1.gram, f2.gram
    values = {Fraction(0)}
    for num in range(1, height + 1):
        for den in range(1, height + 1):
            values.add(Fraction(num, den))
            values.add(Fraction(-num, den))
    values = sorted(values, key=lambda v: (abs(v), v < 0))

    def pairing(v, w):
        return sum(v[i] * g1[i][j] * w[j] for i in range(n) for j in range(n))

    pools = {}

    def pool_for(target):
        if target not in pools:
            pools[target] = [c for c in product(values, repeat=n) if pairing(c, c) == target]
        return pools[target]

    cols = []

    def backtrack(j):
        if j == n:
            return True
        for cand in pool_for(g2[j][j]):
            if all(pairing(cols[i], cand) == g2[i][j] for i in range(j)):
                cols.append(cand)
                if backtrack(j + 1):
                    return True
                cols.pop()
        return False

    if not backtrack(0):
        return None
    return [[cols[j][i] for j in range(n)] for i in range(n)]


_entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _symmetric_q(draw, n):
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(_entry)
    return GramForm("symmetric", QR, g)


@st.composite
def _form_pair(draw):
    n = draw(st.integers(1, 3))
    f1 = draw(_symmetric_q(n))
    if draw(st.booleans()):
        step = st.sampled_from([0, 1, -1, 2, Fraction(-1, 2), Fraction(1, 3)])
        p = [[Fraction(draw(step)) for _ in range(n)] for _ in range(n)]
        return f1, f1.transform(p)
    return f1, draw(_symmetric_q(n))


@given(pair=_form_pair(), height=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_isometry_search_matches_reference(pair, height):
    """The integer search returns exactly what the definition returns,
    first witness included; f2 is often f1 moved by a small matrix, so
    hits occur."""
    f1, f2 = pair
    w = search_isometry_witness(f1, f2, height)
    assert w == _reference_isometry_search(f1, f2, height)
    if w is not None:
        assert f1.transform(w).gram == f2.gram


def test_isometry_search_rejects_other_forms():
    f = diagonal_form_q([1, 1])
    skew = GramForm("skew", QR, [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]])
    for a, b in ((skew, f), (f, skew)):
        with pytest.raises(FormError):
            search_isometry_witness(a, b, 2)
    with pytest.raises(FormError, match="height"):
        search_isometry_witness(f, f, 0)


# ---------------------------------------------------------------------------
# Positivity read off one diagonalization, over every supported base

BASES = {
    "Q": ("symmetric", QR),
    "real": ("symmetric", F5),
    "imag": ("hermitian", QuadField(-5)),
    "quat": ("hermitian", QuaternionRing(QR, Fraction(-1), Fraction(-1))),
    "pair": ("hermitian", EtalePairRing()),
}
BASE_PARAMS = [pytest.param(*BASES[name], id=name) for name in BASES]


def _rand_form(rng, kind, ring, n, signs):
    """U^dagger D U with U a random (possibly singular) matrix over the base
    and D diagonal with involution-fixed entries of the given signs (0 for
    a zero entry; over Q(sqrt5) a sign of 2 picks 1 + sqrt5, which is
    positive at one real place only)."""
    d = ring.dim_q
    u = [
        [ring.from_qcoords([Fraction(rng.randint(-2, 2)) for _ in range(d)]) for _ in range(n)]
        for _ in range(n)
    ]
    for i in range(n):
        u[i][i] = u[i][i] + ring.coerce(rng.randint(0, 3))
    diag = []
    for sign in signs:
        if sign == 2:
            diag.append(F5.from_sqrt_coords(1, 1))
        elif isinstance(ring, QuadField) and ring.is_real and sign > 0:
            diag.append(F5.from_sqrt_coords(rng.randint(3, 5), rng.choice([-1, 0, 1])))
        else:
            diag.append(ring.coerce(sign * rng.randint(1, 4)))
    dm = [[diag[i] if i == j else ring.zero() for j in range(n)] for i in range(n)]
    udag = transpose(u) if kind == "symmetric" else conj_transpose(u, ring)
    return GramForm(kind, ring, mat_mul(mat_mul(udag, dm, ring), u, ring))


def _reference_trace_gram(f):
    """The rational Gram matrix of Tr(psi(v, v); D) on the Q-vector space
    underlying the module, Tr(x) the trace sum_t coord_t(x e_t) of
    left multiplication by x on the base, e_t its Q-basis."""
    ring = f.ring
    d = ring.dim_q
    n = f.dim
    basis = [ring.from_qcoords([Fraction(int(i == t)) for i in range(d)]) for t in range(d)]

    def trace(x):
        return sum((ring.to_qcoords(x * e)[t] for t, e in enumerate(basis)), Fraction(0))

    big = [[Fraction(0)] * (n * d) for _ in range(n * d)]
    for i in range(n):
        for j in range(n):
            gij = f.gram[i][j]
            for s in range(d):
                for u in range(d):
                    big[i * d + s][j * d + u] = trace(f.entry_conj(basis[s]) * gij * basis[u])
    return big


def _reference_leading_minors_positive(m):
    """Sylvester test by exact LDL pivots."""
    n = len(m)
    a = [row[:] for row in m]
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            if a[i][k] != 0:
                fct = a[i][k] / a[k][k]
                for j in range(k, n):
                    a[i][j] -= fct * a[k][j]
    return True


def _reference_trace_form_positive(f) -> bool:
    """Positivity as `is_positive_definite` decided it before it read the
    answer off one diagonalization: the Sylvester test on the trace form."""
    return _reference_leading_minors_positive(_reference_trace_gram(f))


@pytest.mark.parametrize("kind, ring", BASE_PARAMS)
def test_diagonal_positivity_agrees_with_trace_form(kind, ring):
    rng = random.Random(2026)
    seen = set()
    choices = [1, 1, 1, -1, 0] + ([2] if isinstance(ring, QuadField) and ring.is_real else [])
    for _ in range(60):
        n = rng.randint(0, 3)
        f = _rand_form(rng, kind, ring, n, [rng.choice(choices) for _ in range(n)])
        positive = _reference_trace_form_positive(f)
        assert is_positive_definite(f) == positive, f.gram
        seen.add(positive)
    assert seen == {True, False}


@pytest.mark.parametrize("kind, ring", BASE_PARAMS)
@pytest.mark.parametrize("signs", [[1, 0], [0, 0], [1, -1], [-1, 1], [-1, -1], [-1]], ids=str)
def test_fourth_power_refuses_singular_indefinite_and_negative(kind, ring, signs):
    rng = random.Random(7)
    bad = _rand_form(rng, kind, ring, len(signs), signs)
    good = GramForm(kind, ring, [[ring.one() if i == j else ring.zero() for j in range(len(signs))]
                                 for i in range(len(signs))])
    assert not is_positive_definite(bad)
    for f1, f2 in ((bad, good), (good, bad), (bad, bad)):
        with pytest.raises(FormError, match="^fourth-power check needs positive definite forms$"):
            fourth_power_isometric(f1, f2)


@pytest.mark.parametrize("kind, ring", BASE_PARAMS)
def test_invariants_refuse_singular_forms(kind, ring):
    """A zero row: the diagonalization (or, over Q x Q, the whole-matrix
    test) fails, with the same message on every base."""
    g = _rand_form(random.Random(3), kind, ring, 3, [1, 1, 1]).gram
    g = [[ring.zero()] * 3] + [[ring.zero()] + row[1:] for row in g[1:]]
    f = GramForm(kind, ring, g)
    with pytest.raises(FormError, match="^singular forms have no invariants$"):
        invariants(f)


def test_etale_pair_form_with_zero_divisor_column_is_nonsingular():
    """Every entry of the first column is a zero divisor of Q x Q, but the
    form (A, A^T) with det A = 1 is nonsingular."""
    f = etale_pair_form([[0, 1, 0], [0, 2, 1], [1, 3, 5]])
    assert all(x.x == 0 or x.y == 0 for x in (row[0] for row in f.gram))
    assert f.is_nonsingular()
    assert invariants(f).dim == 3
    g = etale_pair_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert isometric(f, g)
    u = etale_pair_witness(f, g)
    assert f.transform(u).gram == g.gram


def test_nonsingular_agrees_with_inverse_on_skew_and_pair_forms():
    """Seeded skew forms over Q and etale-pair forms, dimension 1-4,
    entries in {-1, 0, 1} (some with a repeated row): `is_nonsingular` holds
    exactly when the Gram has an inverse."""
    rng = random.Random(15)
    seen = {True: 0, False: 0}
    for _ in range(120):
        n = rng.randint(1, 4)
        a = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.25:
            a[1] = a[0][:]
        if rng.random() < 0.5:
            g = [[Fraction(a[i][j] - a[j][i]) for j in range(n)] for i in range(n)]
            f = GramForm("skew", QR, g)
        else:
            f = etale_pair_form(a)
        try:
            inverse(f.gram, f.ring)
            invertible = True
        except ZeroDivisionError:
            invertible = False
        assert f.is_nonsingular() == invertible
        seen[invertible] += 1
    assert min(seen.values()) > 20


SPLIT_SKEW_GRAM = [
    [["0", "-1", "0", "1"], ["1", "-1", "-1", "1"]],
    [["-1", "-1", "-1", "1"], ["0", "0", "-1", "1"]],
]


SPLIT = QuaternionRing(QR, Fraction(1), Fraction(1))

# (1,1/Q) = M_2(Q): i -> diag(1, -1), j -> [[0, 1], [1, 0]], k = ij
_SPLIT_M2 = [[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, 1], [-1, 0]]]


def _m2(x):
    """The 2 x 2 rational matrix of a quaternion over (1,1/Q)."""
    return [[sum(c * b[r][s] for c, b in zip(x.coords, _SPLIT_M2)) for s in range(2)] for r in range(2)]


def _nrd_through_m2(g):
    """Nrd of a matrix over (1,1/Q): the determinant of its image in M_2n(Q)."""
    n = len(g)
    big = [[_m2(g[i // 2][j // 2])[i % 2][j % 2] for j in range(2 * n)] for i in range(2 * n)]
    return det(big)


def test_split_quaternions_embed_in_m2():
    basis = [SPLIT.one(), SPLIT.i(), SPLIT.j(), SPLIT.k()]
    for x in basis:
        for y in basis:
            assert _m2(x * y) == mat_mul(_m2(x), _m2(y))
        assert det(_m2(x)) == x.nrd()


def _check_unit_diagonalization(f):
    """diagonalize(f) has unit pivots, u^{iota T} G u is exactly the
    diagonal, and the det class is the square class of Nrd(G)."""
    diag, u = diagonalize(f)
    assert all(x.nrd() != 0 for x in diag)
    zero = SPLIT.zero()
    d = [[diag[i] if i == j else zero for j in range(f.dim)] for i in range(f.dim)]
    assert f.transform(u).gram == d
    assert invariants(f).det_class == square_class(_nrd_through_m2(f.gram))


def test_split_quaternion_form_diagonalizes_with_unit_pivots():
    """Over (1,1/Q) the pure quaternion -i + k has reduced norm 0.  It is
    the (0, 0) entry of this nonsingular skew-hermitian form, so the pivot
    is the unit below it on the diagonal."""
    g = [[SPLIT.from_qcoords([Fraction(c) for c in e]) for e in row] for row in SPLIT_SKEW_GRAM]
    f = GramForm("quat-skew-hermitian", SPLIT, g)
    assert f.is_nonsingular()
    with pytest.raises(ZeroDivisionError):
        SPLIT.inv(g[0][0])
    _check_unit_diagonalization(f)


def test_split_quaternion_skew_forms_get_invariants():
    """Seeded skew-hermitian forms over (1,1/Q), dimension 1-3, entries in
    {-1, 0, 1}: every nonsingular one is diagonalized with unit pivots and
    gets the det class of Nrd(G), computed through M_2(Q); every singular
    one has Nrd(G) = 0."""
    rng = random.Random(8)
    seen = {True: 0, False: 0}
    for _ in range(150):
        n = rng.randint(1, 3)
        g = [[None] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = SPLIT.from_qcoords([Fraction(0)] + [Fraction(rng.choice((-1, 0, 1))) for _ in range(3)])
            for j in range(i + 1, n):
                g[i][j] = SPLIT.from_qcoords([Fraction(rng.choice((-1, 0, 1))) for _ in range(4)])
                g[j][i] = -g[i][j].conj()
        f = GramForm("quat-skew-hermitian", SPLIT, g)
        nonsingular = f.is_nonsingular()
        seen[nonsingular] += 1
        if nonsingular:
            _check_unit_diagonalization(f)
        else:
            assert _nrd_through_m2(g) == 0
    assert min(seen.values()) > 10


# ---------------------------------------------------------------------------
# The Schur-complement elimination against the whole-column one


def _reference_diagonalize(f, unit_inverse=None):
    """The elimination `diagonalize` replaced: every column operation is
    applied to a whole column and a whole row of G and to a whole column
    of u, so rows and columns before k are zeroed as it goes."""
    ring, n = f.ring, f.dim
    g = [row[:] for row in f.gram]
    u = identity(n, ring)
    if unit_inverse is None:

        def unit_inverse(x):
            try:
                return ring.inv(x)
            except ZeroDivisionError:
                return None

    def col_op(target, source, c):
        for r in range(n):
            g[r][target] = g[r][target] + g[r][source] * c
        for r in range(n):
            g[target][r] = g[target][r] + f.entry_conj(c) * g[source][r]
        for r in range(n):
            u[r][target] = u[r][target] + u[r][source] * c

    def pivot(k):
        for i in range(k, n):
            inv = unit_inverse(g[i][i])
            if inv is not None:
                return i, inv
        for i in range(k, n):
            for j in range(k, n):
                if i == j:
                    continue
                for lam in qbasis(ring):
                    lam_c = f.entry_conj(lam)
                    inv = unit_inverse(g[i][i] + lam_c * g[j][i] + g[i][j] * lam + lam_c * g[j][j] * lam)
                    if inv is not None:
                        col_op(i, j, lam)
                        return i, inv
        raise FormError("cannot diagonalize: no unit pivot")

    for k in range(n):
        i, pivot_inv = pivot(k)
        if i != k:
            for r in range(n):
                g[r][k], g[r][i] = g[r][i], g[r][k]
            g[k], g[i] = g[i], g[k]
            for r in range(n):
                u[r][k], u[r][i] = u[r][i], u[r][k]
        for j in range(k + 1, n):
            if not ring.is_zero(g[k][j]):
                col_op(j, k, -(pivot_inv * g[k][j]))
    return [g[i][i] for i in range(n)], u


def _p_adic_unit_inverse(p):
    """The pivot rule of `lattices_local._reduce_to_standard`: x^{-1} for
    a p-adic unit x."""
    return lambda x: 1 / x if x and valuation(x, p) == 0 else None


# (kind, ring, largest dimension, pivot rule), one per base the elimination sees
DIAGONALIZE_CASES = {
    "Q": ("symmetric", QR, 8, None),
    "Q(sqrt5)": ("symmetric", F5, 4, None),
    "Q(sqrt-1)": ("hermitian", Fi, 4, None),
    "Q(sqrt-5)": ("hermitian", QuadField(-5), 4, None),
    "(-1,-1/Q)": ("hermitian", QuaternionRing(QR, Fraction(-1), Fraction(-1)), 3, None),
    "(1,1/Q) skew": ("quat-skew-hermitian", QuaternionRing(QR, Fraction(1), Fraction(1)), 3, None),
    "Q 3-adic": ("symmetric", QR, 6, 3),
    "Q 5-adic": ("symmetric", QR, 6, 5),
}

_coord = st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(3, 5)])
# p-integral, with units and non-units at p = 3 and 5
_p_adic_coord = st.sampled_from([0, 1, -1, 2, 3, 5, -6, 10])


@st.composite
def _diagonalize_case(draw):
    """(form, unit_inverse): the Gram's upper triangle drawn freely, its
    diagonal involution-fixed (pure quaternions for the skew kind).  The
    diagonal is drawn whole, with some entries zero, or all zero, so the
    v_i += v_j lam pivot search runs.  Q is drawn twice as often as the
    other bases, for its dimensions up to 8."""
    name = draw(st.sampled_from(["Q", *sorted(DIAGONALIZE_CASES)]))
    kind, ring, top, p = DIAGONALIZE_CASES[name]
    n = draw(st.integers(1, top))
    zeros = draw(st.sampled_from(["none", "some", "all"]))
    coord = _coord if p is None else _p_adic_coord

    def element():
        return ring.from_qcoords([Fraction(draw(coord)) for _ in range(ring.dim_q)])

    g = [[None] * n for _ in range(n)]
    for i in range(n):
        if zeros == "all" or (zeros == "some" and draw(st.booleans())):
            g[i][i] = ring.zero()
        elif kind == "quat-skew-hermitian":
            g[i][i] = ring.from_qcoords([Fraction(0)] + [Fraction(draw(_coord)) for _ in range(3)])
        elif kind == "hermitian":
            g[i][i] = ring.coerce(Fraction(draw(coord)))
        else:
            g[i][i] = element()
        for j in range(i + 1, n):
            g[i][j] = element()
            conj = g[i][j] if kind == "symmetric" else ring.conj(g[i][j])
            g[j][i] = -conj if kind == "quat-skew-hermitian" else conj
    f = GramForm(kind, ring, g)
    return f, None if p is None else _p_adic_unit_inverse(p)


def _diagonalize_outcome(fn, f, unit_inverse):
    try:
        return fn(f, unit_inverse)
    except FormError as exc:
        return "FormError", str(exc)


@seed(20161)
@given(case=_diagonalize_case())
@settings(max_examples=400, deadline=None)
def test_diagonalize_matches_reference(case):
    """`diagonalize` returns the diag and u of the whole-column elimination
    entry for entry, or refuses where it refuses, over every base and
    pivot rule it serves."""
    f, unit_inverse = case
    got = _diagonalize_outcome(diagonalize, f, unit_inverse)
    assert got == _diagonalize_outcome(_reference_diagonalize, f, unit_inverse)
    if got[0] != "FormError":
        diag, u = got
        n, zero = f.dim, f.ring.zero()
        assert f.transform(u).gram == [[diag[i] if i == j else zero for j in range(n)] for i in range(n)]


_large_entry = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)
)


@st.composite
def _large_rational_form(draw):
    """A symmetric form over Q of dimension 1-8 with denominators up to
    10^6, so that the integer elimination scales by a large common
    denominator and divides large minors; some or all of the diagonal is
    zero, as in `_diagonalize_case`."""
    n = draw(st.integers(1, 8))
    zeros = draw(st.sampled_from(["none", "some", "all"]))
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        if not (zeros == "all" or (zeros == "some" and draw(st.booleans()))):
            g[i][i] = draw(_large_entry)
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(_large_entry)
    return GramForm("symmetric", QR, g)


@seed(20201)
@given(f=st.one_of(_diagonalize_case().map(lambda case: case[0]), _large_rational_form()))
@settings(max_examples=400, deadline=None)
def test_diagonal_matches_reference(f):
    """`diagonal` (the integer elimination over Q, the elimination without
    u elsewhere) returns the diag of the whole-column elimination under
    the default pivot rule, or refuses with its message."""
    got = _diagonalize_outcome(lambda f, _: diagonal(f), f, None)
    want = _diagonalize_outcome(_reference_diagonalize, f, None)
    assert got == (want if want[0] == "FormError" else want[0])


@pytest.mark.parametrize(
    "gram, kind, ring, unit_inverse",
    [
        pytest.param([[0, 1], [1, 0]], "symmetric", QR, None, id="Q-hyperbolic-plane"),
        pytest.param([[0, 1, 2], [1, 0, 3], [2, 3, 0]], "symmetric", QR, None, id="Q-zero-diagonal"),
        pytest.param([[3, 1], [1, 3]], "symmetric", QR, _p_adic_unit_inverse(3), id="3-adic-lam"),
        pytest.param(SPLIT_SKEW_GRAM, "quat-skew-hermitian", SPLIT, None, id="split-zero-divisor"),
    ],
)
def test_diagonalize_matches_reference_on_pivot_searches(gram, kind, ring, unit_inverse):
    """Forms whose first diagonal entry is no pivot: a hyperbolic plane and
    a zero diagonal (the v_i += v_j lam search), a 3-adic non-unit
    diagonal, and a zero-divisor (0, 0) entry over (1,1/Q)."""
    if ring is QR:
        g = [[Fraction(x) for x in row] for row in gram]
    else:
        g = [[ring.from_qcoords([Fraction(c) for c in e]) for e in row] for row in gram]
    f = GramForm(kind, ring, g)
    if unit_inverse is None:
        with pytest.raises(ZeroDivisionError):
            ring.inv(g[0][0])
    else:
        assert unit_inverse(g[0][0]) is None
    got = _diagonalize_outcome(diagonalize, f, unit_inverse)
    assert got[0] != "FormError"
    assert got == _diagonalize_outcome(_reference_diagonalize, f, unit_inverse)


# ---------------------------------------------------------------------------
# Library preconditions, and the guards on another routine's answer


def test_etale_pair_inverse_is_componentwise():
    pair = EtalePairRing()
    assert pair.inv(PairElem(Fraction(2), Fraction(-3))) == PairElem(Fraction(1, 2), Fraction(-1, 3))
    with pytest.raises(ZeroDivisionError):
        pair.inv(PairElem(Fraction(2), Fraction(0)))


_SKEW_PLANE = GramForm("skew", QR, [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]])
_DEFINITE = QuaternionRing(QR, Fraction(-1), Fraction(-1))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GramForm("symmetric", QR, [[Fraction(1), Fraction(0)]]), "gram matrix must be square"),
        (lambda: GramForm("hermitian", QuaternionRing(F5, F5.from_rational(-1), F5.from_rational(-1)), [[1]]),
         "quaternion bases are supported over Q"),
        (lambda: diagonal_form_q([1]).direct_sum(GramForm("skew", QR, [[Fraction(0)]])),
         "direct sum needs matching kind and base"),
        (lambda: diagonal(_SKEW_PLANE), "skew forms do not diagonalize"),
        (lambda: diagonalize(_SKEW_PLANE), "skew forms do not diagonalize"),
        (lambda: adjoint_involution(diagonal_form_q([1, 0])), "singular form has no adjoint involution"),
        (lambda: involution_to_form(MatrixInvolution("hermitian", _DEFINITE, [[1]]), False),
         "supports matrix algebras over Q or a quadratic field"),
        (lambda: involution_to_form(MatrixInvolution("symmetric", QR, [[1, 2], [3, 4]]), False),
         "conjugator is neither symmetric nor skew"),
        (lambda: skew_standard_witness(diagonal_form_q([1, 1])), "needs a skew form"),
        (lambda: etale_pair_witness(diagonal_form_q([1]), diagonal_form_q([1])), "needs etale-pair forms"),
    ],
    ids=["non-square", "quaternion-over-F", "direct-sum", "diagonal", "diagonalize", "adjoint", "to-form-base",
         "to-form-conjugator", "symplectic", "etale-pair"],
)
def test_library_preconditions_refuse(call, message):
    """Preconditions of library entry points that the CLI never reaches:
    its parsers build square, matching, Q-based forms only."""
    with pytest.raises(FormError, match=message):
        call()


def test_involutions_differ_by_a_non_central_scalar():
    """Over (-1, -1 / Q) the conjugators 1 and i differ by the scalar i,
    which is not central: the involutions differ."""
    i = _DEFINITE.from_coords((0, 1, 0, 0))
    one = MatrixInvolution("hermitian", _DEFINITE, [[_DEFINITE.one()]])
    assert not one.same_as(MatrixInvolution("hermitian", _DEFINITE, [[i]]))


def test_involution_to_form_checks_the_positivity_test(monkeypatch):
    """<1, -1> has no positive definite rescaling; a positivity test that
    calls its involution positive contradicts that, and the guard fires."""
    from polarith import forms

    monkeypatch.setattr(forms, "is_positive_involution", lambda inv: True)
    inv = MatrixInvolution("symmetric", QR, diagonal_form_q([1, -1]).gram)
    with pytest.raises(FormError, match="internal: a positive involution must admit"):
        involution_to_form(inv, True)


def test_odd_skew_form_is_singular():
    """det A = det(-A^T) = -det A in odd dimension, so the singularity test
    refuses every odd skew form."""
    with pytest.raises(FormError, match="singular forms have no invariants"):
        invariants(GramForm("skew", QR, [[Fraction(0)]]))


def test_split_quaternion_skew_form_without_a_unit_pivot():
    """Over (2, -1 / Q), which is split, this nonsingular form has nilpotent
    diagonal entries -i + 2j -+ k, and no v_i += v_j lam over the Q-basis
    makes a diagonal entry a unit: the pivot search fails on a nonsingular
    form, and `invariants` says so rather than call the form singular."""
    B = QuaternionRing(QR, Fraction(2), Fraction(-1))
    g = [[B.from_coords(c) for c in row] for row in [[(0, -1, 2, -1), (0, 0, 0, 1)], [(0, 0, 0, 1), (0, -1, 2, 1)]]]
    f = GramForm("quat-skew-hermitian", B, g)
    assert f.is_nonsingular()
    with pytest.raises(FormError, match="cannot diagonalize: no unit pivot"):
        invariants(f)


def test_witness_search_edge_cases():
    assert search_isometry_witness(diagonal_form_q([1]), diagonal_form_q([1, 1]), 2) is None
    assert search_isometry_witness(diagonal_form_q([]), diagonal_form_q([]), 1) == []


def test_witness_search_checks_the_integer_search(monkeypatch):
    """Numerators doubled: the search finds u = 1 with u^T (2) u = 2, which
    is no isometry <1> -> <2>, and the exact check refuses it."""
    from polarith import forms

    real = forms.numerators

    def doubled(m):
        g, d = real(m)
        return [[2 * x for x in row] for row in g], d

    monkeypatch.setattr(forms, "numerators", doubled)
    with pytest.raises(FormError, match="internal: integer search returned a non-isometry"):
        search_isometry_witness(diagonal_form_q([1]), diagonal_form_q([2]), 1)


def test_skew_standard_witness_checks_its_basis(monkeypatch):
    from polarith import forms

    real = forms._standard_symplectic
    monkeypatch.setattr(forms, "_standard_symplectic", lambda n: [[-x for x in row] for row in real(n)])
    f = GramForm("skew", QR, real(2))
    with pytest.raises(FormError, match="internal: symplectic reduction failed verification"):
        skew_standard_witness(f)


def test_etale_pair_witness_declines():
    one, two = etale_pair_form([[1]]), etale_pair_form([[1, 0], [0, 1]])
    assert etale_pair_witness(one, two) is None
    assert etale_pair_witness(one, etale_pair_form([[0]])) is None


def test_etale_pair_witness_checks_its_answer(monkeypatch):
    from polarith import forms

    real = forms.inverse
    monkeypatch.setattr(forms, "inverse", lambda m, *ring: [[2 * x for x in row] for row in real(m, *ring)])
    with pytest.raises(FormError, match="internal: etale-pair witness failed verification"):
        etale_pair_witness(etale_pair_form([[1]]), etale_pair_form([[3]]))
