import random
import re
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from sympy import factorint, primerange

import polarith.quadfield as qf
from polarith.exact import rational_sqrt
from polarith.quadfield import (
    QfIdeal,
    QuadElem,
    QuadField,
    QuadFieldError,
    ResourceError,
    fundamental_unit,
    is_principal,
    is_square_in_field,
    is_totally_positive,
    kronecker_splitting,
    prime_above,
    prime_exponents,
    prime_splitting,
    primes_above,
    principalize_with_ramified_twists,
    roots_mod_p,
    sqrt_in_field,
    square_root_up_to_rational,
)

F5 = QuadField(5)
F2 = QuadField(2)
F3 = QuadField(3)
Fm1 = QuadField(-1)
Fm5 = QuadField(-5)


def elem(field, s, t):
    return field.from_sqrt_coords(Fraction(s), Fraction(t))


def _contains(ideal, e):
    """e in the ideal: adding e to its basis leaves the ideal unchanged."""
    return QfIdeal.from_generators(ideal.basis_elements() + [e]) == ideal


def pell_fundamental_unit(field):
    """Oracle: minimal y >= 1 with disc*y^2 -+ 4 a perfect square gives the
    fundamental unit (x + y*sqrt(disc))/2."""
    disc = field.disc
    y = 1
    while y < 10**6:
        for sgn in (-1, 1):
            t = disc * y * y + 4 * sgn
            if t >= 0 and isqrt(t) ** 2 == t:
                x = isqrt(t)
                # (x + y*sqrt(disc))/2 with sqrt(disc) = sqrt(D) or 2*sqrt(D)
                mult = 2 if disc % 4 == 0 else 1
                return field.from_rational(Fraction(x, 2)) + field.sqrtD() * Fraction(
                    y * mult, 2
                )
        y += 1
    raise RuntimeError("no unit found")


def test_field_validation():
    with pytest.raises(QuadFieldError):
        QuadField(4)
    with pytest.raises(QuadFieldError):
        QuadField(1)
    with pytest.raises(QuadFieldError):
        QuadField(12)
    assert QuadField(5).disc == 5
    assert QuadField(2).disc == 8
    assert QuadField(-1).disc == -4
    assert QuadField(-5).disc == -20


def test_element_arithmetic_and_norm():
    s5 = F5.sqrtD()
    assert (s5 * s5).as_rational() == 5
    e = elem(F5, 3, 1)  # 3 + sqrt5
    assert e.norm() == 4
    assert e.trace() == 6
    assert (e * e.conj()).as_rational() == 4
    assert (e.inv() * e) == F5.one()


@given(
    xs=st.tuples(*(st.integers(-9, 9) for _ in range(4))),
)
@settings(max_examples=80, deadline=None)
def test_norm_multiplicative(xs):
    a = QuadElem(F5, Fraction(xs[0]), Fraction(xs[1]))
    b = QuadElem(F5, Fraction(xs[2]), Fraction(xs[3]))
    assert a.norm() * b.norm() == (a * b).norm()


_REAL_D = st.sampled_from([2, 3, 5, 10, 13, 15])
# integral coordinates half the time, so both paths of norm() are drawn
_QCOORD = st.one_of(
    st.integers(-40, 40).map(Fraction),
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
)


@given(D=_REAL_D, x=_QCOORD, y=_QCOORD)
@settings(max_examples=300, deadline=None)
def test_norm_matches_fraction_formula(D, x, y):
    """norm() is x^2 + x y t + y^2 nw, a Fraction, integral or not."""
    F = QuadField(D)
    n = QuadElem(F, x, y).norm()
    assert type(n) is Fraction
    assert n == x * x + x * y * F.w_trace + y * y * F.w_norm


@given(D=_REAL_D, x=_QCOORD, y=_QCOORD)
@settings(max_examples=300, deadline=None)
def test_totally_positive_matches_embedding_signs(D, x, y):
    """Total positivity read off the norm and the trace agrees with the
    signs of the two real embeddings."""
    e = QuadElem(QuadField(D), x, y)
    if e.is_zero():
        return
    assert is_totally_positive(e) == (e.sign_at(0) > 0 and e.sign_at(1) > 0)


@pytest.mark.parametrize("D", [-7, -5, -1, 2, 3, 5, 10, 13])
def test_prime_splitting_matches_root_count(D):
    """The Kronecker-symbol answer agrees with the definition by the roots
    of w's minimal polynomial mod p for every p < 2000, and primes_above
    builds (p, w - r) for the same roots."""
    F = QuadField(D)
    t, nw = F.w_trace, F.w_norm
    for p in primerange(2, 2000):
        roots = [r for r in range(p) if (r * r - t * r + nw) % p == 0]
        if F.disc % p == 0:
            kind = "ramified"
        else:
            kind = {0: "inert", 1: "ramified", 2: "split"}[len(roots)]
        assert prime_splitting(F, p) == kronecker_splitting(F, p) == kind
        expected = (
            [QfIdeal.from_rows(F, [[p, 0], [0, p]], 1)] if kind == "inert"
            else [QfIdeal.from_rows(F, [[p, 0], [-r, 1]], 1) for r in roots]
        )
        assert primes_above(F, p) == expected


def test_sign_at_embeddings():
    e = elem(F5, 1, 1)  # 1 + sqrt5: embeddings 1+2.23, 1-2.23
    assert e.sign_at(0) == 1
    assert e.sign_at(1) == -1
    assert is_totally_positive(elem(F5, 3, 1))
    assert not is_totally_positive(elem(F5, 1, 1))
    assert is_totally_positive(F5.one())
    with pytest.raises(QuadFieldError):
        is_totally_positive(Fm1.one())


def test_is_square_in_field():
    # (1+sqrt5)/2 squared = (3+sqrt5)/2
    eps = elem(F5, Fraction(1, 2), Fraction(1, 2))
    sq = eps * eps
    assert is_square_in_field(sq)
    r = sqrt_in_field(sq)
    assert r is not None and r * r == sq
    assert is_square_in_field(F5.from_rational(4))
    assert is_square_in_field(F5.from_rational(5))  # 5 = sqrt5^2
    assert not is_square_in_field(F5.from_rational(-1))
    assert not is_square_in_field(elem(F5, 1, 1))


def test_prime_splitting():
    assert prime_splitting(F5, 11) == "split"
    assert prime_splitting(F5, 3) == "inert"
    assert prime_splitting(F5, 5) == "ramified"
    assert prime_splitting(F5, 2) == "inert"  # 5 = 5 mod 8
    assert prime_splitting(QuadField(17), 2) == "split"
    assert prime_splitting(F2, 2) == "ramified"
    assert prime_splitting(F2, 7) == "split"
    # kronecker_splitting is the form without this check
    for n in (1, 4, 15):
        with pytest.raises(QuadFieldError, match="is not prime"):
            prime_splitting(F5, n)


def test_prime_exponents_split_11():
    ((p, kind, fac),) = prime_exponents(F5.from_rational(11))
    assert (p, kind) == (11, "split")
    assert len(fac) == 2
    assert all(e == 1 for _, e in fac)
    p1, p2 = fac[0][0], fac[1][0]
    assert p1.norm() == 11 and p2.norm() == 11
    assert p1.conj() == p2
    g = is_principal(p1)
    assert g is not None and abs(g.norm()) == 11
    # the known generator 4+sqrt5
    assert _contains(p1, elem(F5, 4, 1)) or _contains(p2, elem(F5, 4, 1))


def test_prime_exponents_unit_and_ramified():
    assert prime_exponents(F5.one()) == []
    ((p, kind, fac),) = prime_exponents(F5.from_rational(5))
    assert (p, kind) == (5, "ramified")
    assert len(fac) == 1
    pr, e = fac[0]
    assert e == 2 and pr.norm() == 5
    assert _contains(pr, F5.sqrtD())


def test_prime_exponents_fractional_roundtrip():
    x = elem(F5, Fraction(7, 3), Fraction(1, 2))
    fac = [f for _, _, prs in prime_exponents(x) for f in prs]
    acc = QfIdeal.unit_ideal(F5)
    for pr, e in fac:
        acc = acc * pr**e
    assert acc == QfIdeal.from_generators([x])
    assert any(e < 0 for _, e in fac)


def _reference_valuation(P, a):
    """v_P(a) for a nonzero integral a, by its definition: the largest k
    with a in P^k."""
    k, Pk = 0, P
    while _contains(Pk, a):
        k, Pk = k + 1, Pk * P
    return k


# 2 splits in Q(sqrt(-7)) and Q(sqrt(17)), is inert in Q(sqrt(5)) and
# Q(sqrt(13)) and ramifies in the others
@given(
    D=st.sampled_from([-7, -5, -1, 2, 3, 5, 10, 13, 15, 17]),
    x=st.fractions(min_value=-60, max_value=60, max_denominator=12),
    y=st.fractions(min_value=-60, max_value=60, max_denominator=12),
)
@settings(max_examples=300, deadline=None)
def test_prime_exponents_match_ideal_membership(D, x, y):
    """`prime_exponents` agrees with v_P(a/d) = v_P(a) - v_P(d), each read
    off membership in powers of P, for a = d e integral: no lifted root."""
    F = QuadField(D)
    e = QuadElem(F, x, y)
    if e.is_zero():
        return
    d = lcm(x.denominator, y.denominator)
    a = e * d
    expected = []
    for p in sorted(factorint(abs(int(a.norm())) * d)):
        prs = primes_above(F, p)
        vals = [_reference_valuation(P, a) - _reference_valuation(P, F.from_rational(d)) for P in prs]
        if any(vals):
            expected.append((p, prime_splitting(F, p), list(zip(prs, vals))))
    assert prime_exponents(e) == expected


@given(
    xs=st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
    ys=st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
)
@settings(max_examples=40, deadline=None)
def test_ideal_norm_multiplicative(xs, ys):
    a = QuadElem(F5, Fraction(xs[0]), Fraction(xs[1]))
    b = QuadElem(F5, Fraction(ys[0]), Fraction(ys[1]))
    if a.is_zero() or b.is_zero():
        return
    Ia, Ib = QfIdeal.from_generators([a]), QfIdeal.from_generators([b])
    assert (Ia * Ib).norm() == Ia.norm() * Ib.norm()
    assert Ia.norm() == abs(a.norm())


def test_split_primes_conjugate_norm_p():
    for field, p in [(F5, 11), (F5, 19), (F2, 7), (Fm5, 3)]:
        prs = primes_above(field, p)
        assert len(prs) == 2
        assert prs[0].conj() == prs[1]
        assert prs[0].norm() == p and prs[1].norm() == p


def test_fundamental_units():
    u5 = fundamental_unit(F5)
    assert u5 == elem(F5, Fraction(1, 2), Fraction(1, 2))
    assert u5.norm() == -1
    u2 = fundamental_unit(F2)
    assert u2 == elem(F2, 1, 1)
    assert u2.norm() == -1
    u3 = fundamental_unit(F3)
    assert u3 == elem(F3, 2, 1)
    assert u3.norm() == 1
    with pytest.raises(QuadFieldError):
        fundamental_unit(Fm1)


@pytest.mark.parametrize("D", [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 29, 31, 33, 37, 41, 43, 46, 53, 61, 94])
def test_fundamental_unit_against_pell_oracle(D):
    field = QuadField(D)
    u = fundamental_unit(field)
    assert u.is_unit()
    assert u.sign_at(0) == 1
    v = pell_fundamental_unit(field)
    assert v.is_unit()
    if v.sign_at(0) < 0:
        v = -v
    assert u == v or u == v.inv() or u == -v.inv()
    # minimality: u > 1, no unit strictly between 1 and u at bounded height
    assert (u - 1).sign_at(0) == 1


def test_no_smaller_unit_bounded_search():
    u = fundamental_unit(F5)
    for x in range(-6, 7):
        for y in range(-6, 7):
            e = QuadElem(F5, Fraction(x), Fraction(y))
            if e.is_zero() or not e.is_unit():
                continue
            if e.sign_at(0) > 0 and (e - 1).sign_at(0) > 0:
                # e > 1, so e >= u
                assert (e - u).sign_at(0) >= 0


def _reference_class_number(field: QuadField) -> int:
    """h(F) by enumeration below the Minkowski bound: close the primes of
    norm <= M under products of norm <= M, then keep one ideal per class,
    where I ~ J iff I J^-1 is principal (`is_principal`)."""
    d = abs(field.disc)
    # M = sqrt(d)/2 (real) or (2/pi) sqrt(d) < (2/3) sqrt(d) (imaginary), rounded up
    mb = isqrt(d) // 2 + 1 if field.is_real else (2 * isqrt(d)) // 3 + 1
    eps = fundamental_unit(field) if field.is_real else None
    gen_primes = [
        pr for p in primerange(2, mb + 1) for pr in primes_above(field, p) if pr.norm() <= mb
    ]
    ideals = {QfIdeal.unit_ideal(field)}
    frontier = list(ideals)
    while frontier:
        nxt = []
        for i in frontier:
            for pr in gen_primes:
                j = i * pr
                if j.norm() <= mb and j not in ideals:
                    ideals.add(j)
                    nxt.append(j)
        frontier = nxt
    reps: list[QfIdeal] = []
    for i in sorted(ideals, key=lambda j: (j.norm(), j.num)):
        if not any(is_principal(i * r.inv(), eps) is not None for r in reps):
            reps.append(i)
    return len(reps)


def test_class_groups():
    assert _reference_class_number(F5) == 1
    assert _reference_class_number(Fm1) == 1
    assert _reference_class_number(Fm5) == 2
    assert _reference_class_number(QuadField(-23)) == 3
    assert _reference_class_number(QuadField(10)) == 2
    assert _reference_class_number(QuadField(13)) == 1


def test_principalize():
    """`is_principal` finds a generator of a principal ideal and answers
    None on the non-principal prime above 2 in Q(sqrt(-5))."""
    I = QfIdeal.from_generators([elem(F5, 4, 1)])
    assert QfIdeal.from_generators([is_principal(I)]) == I
    g1 = is_principal(QfIdeal.unit_ideal(F5))
    assert g1.is_unit()

    p2 = primes_above(Fm5, 2)[0]
    assert is_principal(p2) is None


def test_ideal_equality_and_hnf_canonical():
    # same ideal generated differently
    a = elem(F5, 4, 1)
    I1 = QfIdeal.from_generators([a])
    I2 = QfIdeal.from_generators([a * elem(F5, 2, 1), a * F5.from_rational(3)])
    # (2+sqrt5, 3) generate the unit ideal: Nm(2+sqrt5) = -1... use coprime pair
    assert I1 == QfIdeal.from_generators([a, a * F5.omega()])


def test_prime_exponents_split():
    # 11 = (4+sqrt5)(4-sqrt5)
    e = elem(F5, 4, 1)
    ((p, _, fac),) = prime_exponents(e)
    v0, v1 = (v for _, v in fac)
    assert sorted([v0, v1]) == [0, 1]
    ((_, _, fac11),) = prime_exponents(F5.from_rational(11))
    assert [v for _, v in fac11] == [1, 1]


def test_principalize_with_ramified_twists():
    """The prime above 2 in Q(sqrt(10)) (class number 2) is not principal;
    its twist by itself is (2)."""
    F10 = QuadField(10)
    P2 = primes_above(F10, 2)[0]
    assert is_principal(P2) is None
    g, c = principalize_with_ramified_twists(P2)
    assert c == 2 and QfIdeal.from_generators([g]) == P2 * P2
    I = QfIdeal.from_generators([elem(F5, Fraction(7, 3), Fraction(1, 2))])
    g, c = principalize_with_ramified_twists(I)
    assert c == 1 and QfIdeal.from_generators([g]) == I


@pytest.mark.parametrize("D", [-1, -3, -5, -23, 2, 3, 5, 10, 15, 82])
def test_square_root_up_to_rational(D):
    """b^2 q = m with b integral and m a nonzero rational, for seeded
    q = c s^2 over real and imaginary fields, Q(i) and Q(sqrt(-3)) with
    their extra units among them; J is integral and J^2 (q) a rational
    ideal.  Over Q(sqrt(-5)), Q(sqrt(10)), Q(sqrt(15)) and Q(sqrt(82)) the
    square-root ideal J of some q is not principal, so only a ramified
    twist makes it so; over Q(sqrt(-23)), class number 3, J always is."""
    F = QuadField(D)
    rng = random.Random(D)
    nonprincipal = 0
    for _ in range(40):
        s = QuadElem(F, Fraction(rng.randint(-9, 9), rng.randint(1, 3)), Fraction(rng.randint(1, 9), rng.randint(1, 3)))
        q = s * s * Fraction(rng.choice([-10, -6, -3, -2, -1, 1, 2, 3, 5, 7]), rng.randint(1, 4))
        b, m, J = square_root_up_to_rational(q)
        assert b.is_integral() and m != 0 and b * b * q == F.from_rational(m)
        JJq = J * J * q
        assert J.is_integral() and JJq == QfIdeal.from_generators([F.from_rational(rational_sqrt(JJq.norm()))])
        nonprincipal += is_principal(J) is None
    assert (nonprincipal > 0) == (D in (-5, 10, 15, 82))


@pytest.mark.parametrize(
    "D, s, t",
    [(5, 4, 1), (5, 0, 1), (2, 1, 1), (34, 5, 1)],
    ids=["split-parity", "odd-ramified", "norm-minus-one-unit", "unramified-order-two-class"],
)
def test_square_root_up_to_rational_refuses(D, s, t):
    """None off Q^x F^x2: 4 + sqrt(5) (norm 11) has exponents 1 and 0 at the
    two primes above 11, sqrt(5) exponent 1 at the ramified prime, and the
    unit 1 + sqrt(2) of norm -1 is a square times no rational.  5 + sqrt(34)
    has norm -9 < 0, so it is no r x^2, and generates P^2 for a prime P
    above 3: the square-root ideal is its conjugate, of order 2 in the class
    group of Q(sqrt(34)) (h = 2, Nm eps = +1), where both ramified primes
    are principal, so no ramified twist makes it principal."""
    F = QuadField(D)
    assert square_root_up_to_rational(elem(F, s, t)) is None
    if D == 34:
        P, P_conj = primes_above(F, 3)
        assert QfIdeal.from_generators([elem(F, s, t)]) == P * P
        assert principalize_with_ramified_twists(P_conj) is None


def test_square_root_checks_the_generator_it_is_given(monkeypatch):
    """b0^2 q / M is a unit for every generator b0 of the twisted ideal; a
    generator search that answers twice a generator is caught."""
    search = qf.is_principal
    monkeypatch.setattr(qf, "is_principal", lambda ideal, eps=None: search(ideal, eps) * 2)
    with pytest.raises(QuadFieldError, match=re.escape("internal: b0^2 q / M is not a unit")):
        square_root_up_to_rational(F5.from_rational(11))


def test_zero_ideal_is_refused():
    for gens in ([], [F5.zero()]):
        with pytest.raises(QuadFieldError, match="zero ideal"):
            QfIdeal.from_generators(gens)


def test_real_class_group_nontrivial():
    assert _reference_class_number(QuadField(79)) == 3


def test_primes_above_two_ramified():
    Fm1_local = QuadField(-1)
    prs = primes_above(Fm1_local, 2)
    assert len(prs) == 1 and prs[0].norm() == 2


@given(
    x=st.integers(-12, 12),
    y=st.integers(-12, 12),
)
@settings(max_examples=60, deadline=None)
def test_square_detection_roundtrip(x, y):
    e = QuadElem(F5, Fraction(x), Fraction(y))
    if e.is_zero():
        return
    sq = e * e
    assert is_square_in_field(sq)
    r = sqrt_in_field(sq)
    assert r is not None and r * r == sq
    # 3 is neither a square nor 5 times a square: 3 * e^2 is never a square
    assert not is_square_in_field(sq * 3)


@pytest.mark.parametrize(
    "D,h",
    [
        (-1, 1), (-2, 1), (-3, 1), (-5, 2), (-6, 2), (-7, 1), (-10, 2),
        (-11, 1), (-13, 2), (-14, 4), (-15, 2), (-17, 4), (-19, 1),
        (-23, 3), (-31, 3), (-43, 1), (-47, 5), (-67, 1),
        (2, 1), (3, 1), (5, 1), (6, 1), (7, 1), (10, 2), (11, 1), (13, 1),
        (14, 1), (15, 2), (17, 1), (19, 1), (22, 1), (23, 1), (26, 2),
        (29, 1), (30, 2), (34, 2), (35, 2), (65, 2), (79, 3),
    ],
)
def test_class_number_table(D, h):
    assert _reference_class_number(QuadField(D)) == h


# real and imaginary fields, of class number 1 and above
_PRIME_IDEAL_DS = [-23, -15, -7, -5, -3, -1, 2, 3, 5, 10, 13, 15, 79]


def _brute_force_roots(F, p):
    t, nw = F.w_trace, F.w_norm
    return [r for r in range(p) if (r * r - t * r + nw) % p == 0]


@pytest.mark.parametrize("D", _PRIME_IDEAL_DS)
def test_roots_mod_p_and_prime_above_match_brute_force(D):
    """For every split or ramified p < 2000, `roots_mod_p` is the ascending
    list of roots of w's minimal polynomial mod p found by trying every
    residue, and `prime_above`'s closed-form HNF is the HNF that
    `QfIdeal.from_rows` computes for (p, w - r), at every root r."""
    F = QuadField(D)
    kinds = set()
    for p in primerange(2, 2000):
        roots = _brute_force_roots(F, p)
        if not roots:
            continue
        kinds.add(prime_splitting(F, p))
        assert roots_mod_p(F, p) == roots
        for r in roots:
            assert prime_above(F, p, r) == QfIdeal.from_rows(F, [[p, 0], [-r, 1]], 1)
    assert kinds == {"split", "ramified"}


# the most values of |y| the reference search scans before it gives up
_REFERENCE_CAP = 10**5


def _reference_generator_in_ideal(ideal: QfIdeal, eps: QuadElem | None) -> QuadElem | None:
    """The |y| search for a generator in Fraction arithmetic, y before -y:
    an element of the integral ideal with |Nm| = Nm(ideal), or None."""
    field = ideal.field
    N = ideal.norm()
    if not ideal.is_integral() or N.denominator != 1:
        raise QuadFieldError("internal: generator search needs an integral ideal")
    N = N.numerator
    t, nw = field.w_trace, field.w_norm

    def try_xy(y: int, target: int) -> QuadElem | None:
        # x^2 + t*x*y + nw*y^2 = target, solve for integer x
        A = 1
        B = t * y
        C = nw * y * y - target
        disc_q = B * B - 4 * A * C
        if disc_q < 0:
            return None
        r = isqrt(disc_q)
        if r * r != disc_q:
            return None
        for sgn in (1, -1):
            num = -B + sgn * r
            if num % 2 == 0:
                x = num // 2
                cand = QuadElem(field, Fraction(x), Fraction(y))
                if _contains(ideal, cand):
                    return cand
        return None

    if field.is_real:
        if eps is None:
            raise QuadFieldError("internal: a real field needs its fundamental unit")
        eps_num = (2 * eps.x + eps.y * field.disc + eps.y * (isqrt(field.disc) + 1)) / 2
        M = (isqrt(N) + 1) * (eps_num + 1)
        ymax = int(2 * M) // isqrt(field.disc) + 1
        targets = (N, -N)
    else:
        ymax = 2 * isqrt(N // max(1, abs(field.disc) // 4)) + 2
        targets = (N,)
    cap = _REFERENCE_CAP
    for y in range(min(ymax, cap) + 1):
        for yy in ((y,) if y == 0 else (y, -y)):
            for target in targets:
                g = try_xy(yy, target)
                if g is not None:
                    return g
    if ymax > cap:
        raise ResourceError(f"principality search stopped after |y| = {cap} without a generator")
    return None


def _reference_is_principal(ideal: QfIdeal, eps: QuadElem | None) -> QuadElem | None:
    g = _reference_generator_in_ideal(QfIdeal(ideal.field, ideal.num, 1), eps)
    return None if g is None else g / ideal.den


def _outcome(fn, *args):
    """What a call answers: its value, or the type and message it raises."""
    try:
        return fn(*args)
    except (QuadFieldError, ResourceError) as exc:
        return type(exc).__name__, str(exc)


def _prime_ideals(D):
    """(p, w - r) for every split or ramified p < 60 and every root r, built
    by the general HNF."""
    F = QuadField(D)
    return [
        QfIdeal.from_rows(F, [[p, 0], [-r, 1]], 1)
        for p in primerange(2, 60)
        for r in _brute_force_roots(F, p)
    ]


_PRIMES_OF = {D: _prime_ideals(D) for D in _PRIME_IDEAL_DS}
_EPS_OF = {D: fundamental_unit(QuadField(D)) if D > 0 else None for D in _PRIME_IDEAL_DS}


def _assert_matches_reference(got, want, ideal):
    """`got` is the reference search's answer `want`; where the search
    stopped at its cap, a generator `got` generates the ideal."""
    if isinstance(want, tuple) and want[0] == "ResourceError":
        assert got is None or QfIdeal.from_generators([got]) == ideal
    else:
        assert got == want


@seed(1917)
@given(
    D=st.sampled_from(_PRIME_IDEAL_DS),
    kind=st.sampled_from(["prime", "product", "principal"]),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=3),
    xy=st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
    den=st.integers(1, 6),
)
@settings(max_examples=400, deadline=None)
def test_generator_search_matches_reference(D, kind, picks, xy, den):
    """`is_principal` returns the element, None or the error of the Fraction
    |y| search, over real and imaginary fields: prime ideals, products of
    two or three of them, and principal ideals, and the same ideals scaled
    by 1/den."""
    F, primes, eps = QuadField(D), _PRIMES_OF[D], _EPS_OF[D]
    if kind == "principal":
        g = QuadElem(F, Fraction(xy[0]), Fraction(xy[1]))
        if g.is_zero():
            return
        ideal = QfIdeal.from_generators([g])
    else:
        ideal = primes[picks[0] % len(primes)]
        for i in picks[1:] if kind == "product" else []:
            ideal = ideal * primes[i % len(primes)]
    got = _outcome(is_principal, ideal, eps)
    _assert_matches_reference(got, _outcome(_reference_generator_in_ideal, ideal, eps), ideal)
    if kind == "principal":
        assert isinstance(got, QuadElem) and QfIdeal.from_generators([got]) == ideal
    fractional = ideal * Fraction(1, den)
    want = _outcome(_reference_is_principal, fractional, eps)
    _assert_matches_reference(_outcome(is_principal, fractional, eps), want, fractional)


@pytest.mark.parametrize("cap", [0, 1, 2, 5])
def test_cycle_step_limit(monkeypatch, cap):
    """Every walk on reduced forms stops at MAX_CYCLE_STEPS rho steps with
    a ResourceError naming the limit: the unit's walk round the principal
    cycle of Q(sqrt(106)), and the walk round the cycle of its
    non-principal prime above 3 (unit given), each about 10 steps long."""
    F = QuadField(106)
    eps, P3 = fundamental_unit(F), primes_above(F, 3)[0]
    assert is_principal(P3, eps) is None
    monkeypatch.setattr(qf, "MAX_CYCLE_STEPS", cap)
    message = f"the walk on reduced forms stopped at the limit of {cap} steps"
    with pytest.raises(ResourceError, match=message):
        fundamental_unit(F)
    with pytest.raises(ResourceError, match=message):
        is_principal(P3, eps)


def test_principality_past_the_search_cap():
    """Ideals on which a |y| search with a cap of 10^5 gave up.  Over
    Q(sqrt(106)) (h = 2) the prime P3 above 3 is not principal and P3^2
    is, so P3^9 and P3^11 are not; over Q(sqrt(151)) P5^7 and P7^5 are
    principal, with generators that generate them."""
    F106 = QuadField(106)
    assert _reference_class_number(F106) == 2
    P3 = primes_above(F106, 3)[0]
    assert is_principal(P3) is None
    assert QfIdeal.from_generators([is_principal(P3**2)]) == P3**2
    assert is_principal(P3**9) is None and is_principal(P3**11) is None
    F151 = QuadField(151)
    for p, k in ((5, 7), (7, 5)):
        I = primes_above(F151, p)[0] ** k
        g = is_principal(I)
        assert abs(g.norm()) == I.norm() and QfIdeal.from_generators([g]) == I


def test_principality_with_a_huge_fundamental_unit():
    """The fundamental unit of Q(sqrt(22841030009)) has about 2 * 10^5 bits;
    the cycle of reduced forms still decides the prime above 2 (principal)
    and returns a generator of it."""
    F = QuadField(22841030009)
    eps = fundamental_unit(F)
    assert eps.is_unit() and eps.y.numerator.bit_length() > 190_000
    P = primes_above(F, 2)[0]
    g = is_principal(P, eps)
    assert abs(g.norm()) == 2 and QfIdeal.from_generators([g]) == P


class _RefQuad:
    """x + y w with Fraction coordinates and the textbook formulas (w^2 =
    t w - nw, conj w = t - w): an oracle for the integer `QuadElem`."""

    def __init__(self, F, x, y):
        self.F, self.x, self.y = F, Fraction(x), Fraction(y)

    def __add__(self, o):
        return _RefQuad(self.F, self.x + o.x, self.y + o.y)

    def __sub__(self, o):
        return _RefQuad(self.F, self.x - o.x, self.y - o.y)

    def __mul__(self, o):
        if isinstance(o, Fraction):
            return _RefQuad(self.F, self.x * o, self.y * o)
        yy = self.y * o.y
        return _RefQuad(self.F, self.x * o.x - yy * self.F.w_norm, self.x * o.y + self.y * o.x + yy * self.F.w_trace)

    def conj(self):
        return _RefQuad(self.F, self.x + self.y * self.F.w_trace, -self.y)

    def norm(self):
        return self.x * self.x + self.x * self.y * self.F.w_trace + self.y * self.y * self.F.w_norm

    def trace(self):
        return 2 * self.x + self.y * self.F.w_trace

    def inv(self):
        return self.conj() * (1 / self.norm())

    def sign_at(self, embedding):
        """The sign of x + y (disc +- sqrt(disc)) / 2, at 60 digits."""
        with localcontext() as ctx:
            ctx.prec = 60
            root = Decimal(self.F.disc).sqrt()
            w = (self.F.disc + (root if embedding == 0 else -root)) / 2
            value = Decimal(self.x.numerator) / self.x.denominator + Decimal(self.y.numerator) / self.y.denominator * w
        return (value > 0) - (value < 0)


_COORDS = [Fraction(0), Fraction(1), Fraction(-2), Fraction(7), Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6),
           Fraction(-9, 10), Fraction(4, 9), Fraction(11, 12)]


def _assert_agrees(e, ref):
    """e has ref's coordinates, and its triple is normalized: d > 0 and
    gcd(a, b, d) = 1, on which `==` and `hash` rely."""
    assert e.d > 0 and gcd(e.a, e.b, e.d) == 1
    assert (e.x, e.y) == (ref.x, ref.y)


@pytest.mark.parametrize("D", [-1, -3, -7, -15, 2, 3, 5, 13])
def test_integer_elements_agree_with_fraction_coordinates(D):
    """Seeded: on pairs with mixed denominators and zero, every operation of
    `QuadElem` agrees with the Fraction-coordinate oracle, and every result
    is normalized."""
    F = QuadField(D)
    rng = random.Random(D)
    for _ in range(300):
        xs = [rng.choice(_COORDS) for _ in range(4)]
        p, q = QuadElem(F, xs[0], xs[1]), QuadElem(F, xs[2], xs[3])
        rp, rq = _RefQuad(F, xs[0], xs[1]), _RefQuad(F, xs[2], xs[3])
        c = rng.choice(_COORDS[1:])
        _assert_agrees(p, rp)
        _assert_agrees(p + q, rp + rq)
        _assert_agrees(p - q, rp - rq)
        _assert_agrees(-p, _RefQuad(F, 0, 0) - rp)
        _assert_agrees(p * q, rp * rq)
        _assert_agrees(p + c, rp + _RefQuad(F, c, 0))
        _assert_agrees(c - p, _RefQuad(F, c, 0) - rp)
        _assert_agrees(p * c, rp * c)
        _assert_agrees(c * p, rp * c)
        _assert_agrees(p / c, rp * (1 / c))
        _assert_agrees(p.conj(), rp.conj())
        assert p.norm() == rp.norm() and p.trace() == rp.trace()
        assert p.is_integral() == (rp.x.denominator == rp.y.denominator == 1)
        assert p.is_unit() == (p.is_integral() and abs(rp.norm()) == 1)
        assert (p == q) == ((rp.x, rp.y) == (rq.x, rq.y))
        if F.is_real:
            for embedding in (0, 1):
                assert p.sign_at(embedding) == rp.sign_at(embedding)
        if q.is_zero():
            with pytest.raises(ZeroDivisionError):
                q.inv()
            continue
        _assert_agrees(q.inv(), rq.inv())
        _assert_agrees(p / q, rp * rq.inv())
        _assert_agrees(q**-2, rq.inv() * rq.inv())
        _assert_agrees(q**3, rq * rq * rq)
        # the same element reached by two routes is equal, with one hash
        back = p * q / q
        assert back == p and hash(back) == hash(p)
    G = QuadField(7 if D != 7 else 11)
    one, other = F.one(), G.one()
    assert one != other
    for op in (lambda: one + other, lambda: one - other, lambda: one * other, lambda: one / other):
        with pytest.raises(QuadFieldError):
            op()
