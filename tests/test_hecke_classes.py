import dataclasses
import random
from fractions import Fraction

import pytest

from polarith.hecke_classes import (
    HeckeError,
    PolClassRep,
    _make_totally_positive,
    equivalence_witness,
    equivalent,
    exhaustive_witness_search,
    generate_classes,
    rosati_transport_check,
)
from polarith.quadfield import QuadElem, QuadField, fundamental_unit, is_totally_positive

F5 = QuadField(5)
F2 = QuadField(2)


def sq5(s, t):
    return F5.from_sqrt_coords(s, t)


def test_rep_is_q_and_source_prime():
    assert [f.name for f in dataclasses.fields(PolClassRep)] == ["q", "source_prime"]
    rep = PolClassRep(sq5(3, 1), 11)
    assert rep.q.field == F5 and rep.source_prime == 11
    assert PolClassRep(F5.one()).source_prime is None


def test_rep_validation():
    with pytest.raises(HeckeError):
        PolClassRep(sq5(1, 1))  # not totally positive
    with pytest.raises(HeckeError):
        PolClassRep(sq5(Fraction(1, 2), 0))  # not integral
    PolClassRep(sq5(3, 1), 11)


def test_equivalent_spec_examples():
    q = sq5(3, 1)  # 3 + sqrt5
    r = F5.from_rational(2)
    assert equivalent(q, r)
    w = equivalence_witness(q, r)
    assert w is not None
    n, u = w
    assert rosati_transport_check(q, r, u, n)

    q2 = sq5(4, 1)  # norm 11
    r2 = sq5(Fraction(9, 2), Fraction(1, 2))  # norm 19
    assert not equivalent(q2, r2)
    assert exhaustive_witness_search(q2, r2, 20) is None

    assert equivalent(q, q)


def test_rosati_transport_examples():
    q = sq5(3, 1)
    r = F5.from_rational(2)
    u = sq5(Fraction(1, 2), Fraction(1, 2))  # (1+sqrt5)/2
    assert rosati_transport_check(q, r, u, 1)
    assert rosati_transport_check(q, q, F5.one(), 1)
    # q = 4+sqrt5, r = 1: no small witness
    q2 = sq5(4, 1)
    for x in range(-10, 11):
        for y in range(-10, 11):
            u = QuadElem(F5, Fraction(x), Fraction(y))
            if u.is_zero():
                continue
            for n in range(1, 11):
                assert not rosati_transport_check(q2, F5.one(), u, n)
                assert not rosati_transport_check(q2, F5.one(), u, -n)


def test_conjugate_generators_are_equivalent():
    # a and p/a generate conjugate primes; their classes agree
    a = sq5(4, 1)
    abar = a.conj()
    assert equivalent(a, abar)


def test_equivalence_is_equivalence_relation():
    eps = fundamental_unit(F5)
    qs = [
        F5.one(),
        sq5(3, 1),
        F5.from_rational(2),
        sq5(3, 1) * 4,
        (eps * eps) * 9,
        sq5(4, 1),
    ]
    for q in qs:
        assert is_totally_positive(q)
        assert equivalent(q, q)
    for q in qs:
        for r in qs:
            assert equivalent(q, r) == equivalent(r, q)
    for q in qs:
        for r in qs:
            for s in qs:
                if equivalent(q, r) and equivalent(r, s):
                    assert equivalent(q, s)


def test_witness_soundness_on_positives():
    qs = [F5.one(), sq5(3, 1), F5.from_rational(2), sq5(3, 1) * 4, sq5(7, 3) ** 2 * 3]
    for q in qs:
        for r in qs:
            w = equivalence_witness(q, r)
            if w is not None:
                n, u = w
                assert rosati_transport_check(q, r, u, n)
                assert n != 0 and u.is_integral()


def test_norm_obstruction_necessary():
    qs = [F5.one(), sq5(3, 1), sq5(4, 1), F5.from_rational(3)]
    from polarith.exact import is_rational_square

    for q in qs:
        for r in qs:
            if equivalent(q, r):
                assert is_rational_square(q.norm() / r.norm())


def test_generate_classes_sqrt5():
    reps = generate_classes(F5, 3)
    assert len(reps) == 3
    assert (reps[0].q - 1).is_zero()
    assert reps[1].source_prime == 11
    assert reps[2].source_prime == 19
    # the examples from the construction: classes of 4+sqrt5 and (9+sqrt5)/2
    assert equivalent(reps[1].q, sq5(4, 1))
    assert equivalent(reps[2].q, sq5(Fraction(9, 2), Fraction(1, 2)))
    for i in range(3):
        for j in range(3):
            assert equivalent(reps[i], reps[j]) == (i == j)


def test_generate_classes_sqrt2():
    reps = generate_classes(F2, 3)
    assert [r.source_prime for r in reps] == [None, 7, 17]
    for i in range(3):
        for j in range(3):
            assert equivalent(reps[i], reps[j]) == (i == j)


def test_equivalent_is_symmetric_on_representatives():
    """`equivalent` answers each pair the same in both orders, also when
    some representatives are equivalent."""
    reps = generate_classes(F5, 4)
    reps += [PolClassRep(reps[1].q * 4), PolClassRep(reps[2].q * 3)]
    m = [[equivalent(a, b) for b in reps] for a in reps]
    assert all(m[i][j] == m[j][i] for i in range(6) for j in range(6))
    assert m[1][4] and m[4][1] and m[2][5] and m[5][2]
    assert not m[4][5] and not m[5][4]


def test_generate_classes_count_one():
    reps = generate_classes(F5, 1)
    assert len(reps) == 1 and (reps[0].q - 1).is_zero()


def test_negative_pairs_have_no_bounded_witness():
    reps = generate_classes(F5, 4)
    for i in range(len(reps)):
        for j in range(len(reps)):
            if i != j:
                assert not equivalent(reps[i], reps[j])
                assert exhaustive_witness_search(reps[i].q, reps[j].q, 12) is None


def test_exhaustive_search_agrees_on_positive():
    q = sq5(3, 1)
    r = F5.from_rational(2)
    found = exhaustive_witness_search(q, r, 5)
    assert found is not None
    n, u = found
    assert (q * n - u * u * r).is_zero()


from hypothesis import example, given, seed, settings
from hypothesis import strategies as st


@given(
    D=st.sampled_from([2, 3, 5, 10, 15, 82]),
    zx=st.integers(-4, 4),
    zy=st.integers(-4, 4),
    n0=st.sampled_from([1, 2, 3, 5, 7, 11]),
    qx=st.integers(-5, 5),
    qy=st.integers(-5, 5),
)
@settings(max_examples=120, deadline=None)
def test_equivalent_closed_under_construction(D, zx, zy, n0, qx, qy):
    """q and n0 * u^2 * q are always equivalent; the witness verifies."""
    F = QuadField(D)
    u = QuadElem(F, Fraction(zx), Fraction(zy))
    q = QuadElem(F, Fraction(qx), Fraction(qy))
    if u.is_zero() or u.norm() == 0 or q.is_zero() or q.norm() == 0:
        return
    r = q * u * u * n0
    assert equivalent(q, r)
    w = equivalence_witness(q, r)
    n, uu = w
    assert rosati_transport_check(q, r, uu, n)


@pytest.mark.parametrize("D, c", [(10, 2), (10, 5), (10, 6), (15, 2), (15, 3), (82, 2)])
def test_rational_ramified_twists_are_equivalent(D, c):
    """1 ~ c, as c is in Q^x: over Q(sqrt(10)), Q(sqrt(15)) and
    Q(sqrt(82)) the square-root ideal of c is principal only after a
    ramified twist."""
    F = QuadField(D)
    one, r = F.one(), F.from_rational(c)
    assert equivalent(one, r)
    n, u = equivalence_witness(one, r)
    assert rosati_transport_check(one, r, u, n)


def test_decision_finds_every_bounded_witness():
    """Whenever the brute-force search at height 4 finds a witness, the
    decision procedure returns one that verifies: seeded pairs over eleven
    real fields, r a rational multiple of q, that over a square, or free."""
    rng = random.Random(14)
    hits = 0
    for _ in range(600):
        F = QuadField(rng.choice([2, 3, 5, 6, 7, 10, 13, 15, 21, 33, 82]))
        q = QuadElem(F, Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
        u0 = QuadElem(F, Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        c = rng.choice([1, 2, 3, 5, 6, 7, 10, 15, 41])
        mode = rng.choice(["rational", "square", "free"])
        if q.is_zero() or u0.is_zero():
            continue
        if mode == "rational":
            r = q * c
        elif mode == "square":
            r = q * c / (u0 * u0)
        else:
            r = QuadElem(F, Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
            if r.is_zero():
                continue
        if exhaustive_witness_search(q, r, 4) is None:
            continue
        hits += 1
        w = equivalence_witness(q, r)
        assert w is not None, (F, q, r)
        assert rosati_transport_check(q, r, w[1], w[0])
    assert hits > 200


def test_equivalent_agrees_with_the_witness():
    """`equivalent` (the norm test alone) says yes exactly when
    `equivalence_witness` builds a witness: seeded pairs over real fields,
    r = c q u^2, r = c q z / conj(z), r = c q or free, with c rational."""
    rng = random.Random(28)
    positives = negatives = 0
    for _ in range(400):
        F = QuadField(rng.choice([2, 3, 5, 6, 7, 10, 13, 15, 21, 33, 82]))
        q, z, free = (QuadElem(F, Fraction(rng.randint(-k, k)), Fraction(rng.randint(-k, k))) for k in (5, 3, 5))
        c = Fraction(rng.choice([1, -1, 2, 3, -5, 6]), rng.choice([1, 2, 7]))
        mode = rng.choice(["square", "hilbert90", "rational", "free"])
        if q.is_zero() or z.is_zero():
            continue
        if mode == "square":
            r = q * z * z * c
        elif mode == "hilbert90":
            r = q * z / z.conj() * c
        elif mode == "rational":
            r = q * c
        else:
            r = free
        if r.is_zero():
            continue
        w = equivalence_witness(q, r)
        assert equivalent(q, r) == (w is not None), (F, q, r)
        if w is None:
            negatives += 1
        else:
            positives += 1
            assert rosati_transport_check(q, r, w[1], w[0])
    assert positives > 200 and negatives > 20


def _reference_witness_search(q, r, height):
    """`exhaustive_witness_search` by its definition, in QuadElem
    arithmetic: the first u in x-then-y order with u^2 r / q rational and
    nonzero."""
    F = q.field
    for x in range(-height, height + 1):
        for y in range(-height, height + 1):
            u = QuadElem(F, Fraction(x), Fraction(y))
            if u.is_zero():
                continue
            cand = u * u * r / q
            if cand.is_rational() and cand.as_rational() != 0:
                return cand.as_rational(), u
    return None


_coord = st.fractions(min_value=-6, max_value=6, max_denominator=3)


@given(
    D=st.sampled_from([5, 2, 3, 13, -1, -3, -5, -7]),
    qc=st.tuples(_coord, _coord),
    rc=st.tuples(_coord, _coord),
    mode=st.sampled_from(["free", "hit", "zero"]),
    u0c=st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    c=_coord,
    height=st.integers(0, 6),
)
# r = 2 q: s is rational, d = 0, and the zero lines are (1, 0) and (-t, 2)
@example(D=5, qc=(Fraction(3), Fraction(1)), rc=(Fraction(0), Fraction(0)), mode="hit", u0c=(1, 0),
         c=Fraction(2), height=3)
# q = -3 + w = 1 + sqrt2, r = 1 over Q(sqrt2): Nm(s) = -1, the form is definite
@example(D=2, qc=(Fraction(-3), Fraction(1)), rc=(Fraction(1), Fraction(0)), mode="free", u0c=(0, 0),
         c=Fraction(0), height=6)
# r = 1 / u0^2 with u0 = 4 + 3w over Q(sqrt5): equivalent, but the primitive
# line vectors, u0 and u0 sqrt5 = -50 + 23w, both lie past height 3
@example(D=5, qc=(Fraction(1), Fraction(0)), rc=(Fraction(0), Fraction(0)), mode="hit", u0c=(4, 3),
         c=Fraction(1), height=3)
@settings(max_examples=250, deadline=None)
def test_witness_search_matches_reference(D, qc, rc, mode, u0c, c, height):
    """The integer kernel returns exactly what the definition returns, first
    witness included: real and imaginary fields, non-integral q and r,
    r = 0, and r = q c / u0^2 so that u0 (or an earlier point) is a hit."""
    F = QuadField(D)
    q = QuadElem(F, *qc)
    if q.is_zero():
        return
    u0 = QuadElem(F, Fraction(u0c[0]), Fraction(u0c[1]))
    if mode == "zero":
        r = F.zero()
    elif mode == "hit" and not u0.is_zero() and c != 0:
        r = q * c / (u0 * u0)
    else:
        r = QuadElem(F, *rc)
    assert exhaustive_witness_search(q, r, height) == _reference_witness_search(q, r, height)


def test_witness_search_at_a_huge_height_is_the_decision():
    """The form's discriminant is 4 Nm(s), so it has a nonzero integer zero
    exactly when Nm(q) Nm(r) is a square: at a height past every primitive
    line vector (10^12 here), the search finds a witness exactly when
    `equivalent` says yes.  Seeded pairs over real and imaginary fields, r
    free, a rational multiple of q, or q c / u0^2."""
    rng = random.Random(31)
    found = missed = 0
    for _ in range(600):
        F = QuadField(rng.choice([2, 3, 5, 13, 82, -1, -2, -3, -5, -23]))
        q, u0, free = (QuadElem(F, Fraction(rng.randint(-k, k), rng.choice([1, 2, 3])), Fraction(rng.randint(-k, k)))
                       for k in (5, 4, 5))
        c = Fraction(rng.choice([1, -1, 2, 3, -5, 6]), rng.choice([1, 2, 7]))
        mode = rng.choice(["free", "rational", "square"])
        if q.is_zero() or u0.is_zero():
            continue
        r = {"free": free, "rational": q * c, "square": q * c / (u0 * u0)}[mode]
        if r.is_zero():
            continue
        got = exhaustive_witness_search(q, r, 10**12)
        assert (got is not None) == equivalent(q, r), (F, q, r)
        if got is None:
            missed += 1
        else:
            found += 1
            assert rosati_transport_check(q, r, got[1], got[0])
    assert found > 200 and missed > 50


def test_witness_search_rejects_bad_input():
    with pytest.raises(HeckeError, match="height must be >= 0"):
        exhaustive_witness_search(sq5(4, 1), F5.one(), -1)
    with pytest.raises(HeckeError, match="zero element"):
        exhaustive_witness_search(F5.zero(), F5.one(), 2)
    assert exhaustive_witness_search(sq5(4, 1), F5.zero(), 4) is None


def _reference_make_totally_positive(g, eps):
    """`_make_totally_positive` as it was, in QuadElem arithmetic."""
    cand = g if g.norm() > 0 else g * eps
    if cand.norm() < 0:
        return None
    if not is_totally_positive(cand):
        cand = -cand
    return cand if cand.is_integral() else None


@seed(1923)
@given(
    D=st.sampled_from([2, 3, 5, 6, 7, 10, 13, 15, 21, 34, 79]),
    gc=st.tuples(_coord, _coord),
    unit_power=st.integers(-2, 2),
)
@settings(max_examples=300, deadline=None)
def test_make_totally_positive_matches_reference(D, gc, unit_power):
    """The integer adjustment returns the reference's element or None, for
    integral and non-integral generators of either norm sign, over fields
    whose fundamental unit has norm -1 (2, 5, 10, 13) or +1 (3, 6, 7, 15,
    21, 34, 79)."""
    F = QuadField(D)
    eps = fundamental_unit(F)
    g = QuadElem(F, *gc) * eps**unit_power
    if g.is_zero():
        return
    got = _make_totally_positive(g, eps)
    assert got == _reference_make_totally_positive(g, eps)
    if got is not None:
        assert got.is_integral() and is_totally_positive(got)

