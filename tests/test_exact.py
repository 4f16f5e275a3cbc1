import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from sympy import isprime, primerange

from polarith.exact import (
    ExactError,
    LocalPlace,
    REAL_PLACE,
    hasse_invariant,
    hilbert_symbol,
    is_rational_square,
    legendre,
    lift_root,
    sqrt_mod_p,
    square_class,
    support_places,
    unit_residue,
    valuation,
)

nonzero_small = st.fractions(
    min_value=Fraction(-60), max_value=Fraction(60), max_denominator=24
).filter(lambda x: x != 0)


def hilbert_by_enumeration(a: Fraction, b: Fraction, v: LocalPlace) -> int:
    """Independent oracle: exhaustive search for primitive solutions of
    z^2 = a x^2 + b y^2 modulo p^K, keeping only Hensel-liftable ones.

    With a, b squarefree integers, any p-adic zero has gradient valuation
    at most G = v_p(2) + 1, so working modulo p^{2G+1} is conclusive.
    """
    a = Fraction(square_class(a).representative)
    b = Fraction(square_class(b).representative)
    if v.is_real:
        return 1 if (a > 0 or b > 0) else -1
    p = v.p
    G = (1 if p != 2 else 2) + 1
    K = 2 * G - 1
    mod = p**K
    A, B = int(a) % mod, int(b) % mod

    def vp(n: int) -> int:
        if n % mod == 0:
            return K
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        return k

    # primitive triples up to unit scaling: first unit coordinate set to 1
    def candidates():
        for y in range(mod):
            for z in range(mod):
                yield 1, y, z
        for x0 in range(0, mod, p):
            for z in range(mod):
                yield x0, 1, z
            for y0 in range(0, mod, p):
                yield x0, y0, 1

    for x, y, z in candidates():
        q = (A * x * x + B * y * y - z * z) % mod
        if q != 0:
            continue
        g = min(vp(2 * A * x % mod), vp(2 * B * y % mod), vp(2 * z % mod))
        if K > 2 * g:
            return 1
    return -1


def test_valuation_examples():
    assert valuation(12, 2) == 2
    assert valuation(Fraction(1, 9), 3) == -2
    assert valuation(5, 2) == 0
    with pytest.raises(ExactError):
        valuation(0, 3)


def test_square_class_examples():
    assert square_class(4).representative == 1
    assert square_class(18).representative == 2
    assert square_class(-50).representative == -2
    assert square_class(Fraction(3, 4)).representative == 3
    assert square_class(Fraction(2, 3)).representative == 6
    with pytest.raises(ExactError):
        square_class(0)


def test_is_rational_square():
    assert is_rational_square(Fraction(9, 4))
    assert not is_rational_square(Fraction(8, 4))
    assert not is_rational_square(-4)


def test_hilbert_trivial_first_argument_one():
    for v in [REAL_PLACE, LocalPlace.finite(2), LocalPlace.finite(5)]:
        for b in [2, -3, Fraction(7, 5)]:
            assert hilbert_symbol(1, b, v) == 1


def test_hilbert_minus_one_minus_one():
    assert hilbert_symbol(-1, -1, LocalPlace.finite(2)) == -1
    assert hilbert_symbol(-1, -1, REAL_PLACE) == -1
    for p in (3, 5, 7, 11, 13):
        assert hilbert_symbol(-1, -1, LocalPlace.finite(p)) == 1


def test_hilbert_2_3_at_3():
    assert hilbert_symbol(2, 3, LocalPlace.finite(3)) == -1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hilbert_against_enumeration_oracle(p):
    v = LocalPlace.finite(p)
    rng = random.Random(p)
    values = [-1, 1, 2, 3, 5, 6, -2, -3, -5, p, -p, 2 * p]
    pairs = [(a, b) for a in values for b in values]
    rng.shuffle(pairs)
    for a, b in pairs[:40]:
        assert hilbert_symbol(a, b, v) == hilbert_by_enumeration(
            Fraction(a), Fraction(b), v
        ), (a, b, p)


def test_hilbert_against_oracle_at_infinity():
    for a in (-6, -1, 2, 5):
        for b in (-10, -2, 1, 3):
            assert hilbert_symbol(a, b, REAL_PLACE) == hilbert_by_enumeration(
                Fraction(a), Fraction(b), REAL_PLACE
            )


@given(a=nonzero_small, b=nonzero_small)
@settings(max_examples=150, deadline=None)
def test_hilbert_reciprocity(a, b):
    prod = 1
    for v in support_places(a, b):
        prod *= hilbert_symbol(a, b, v)
    assert prod == 1


@given(a=nonzero_small, ap=nonzero_small, b=nonzero_small)
@settings(max_examples=100, deadline=None)
def test_hilbert_bimultiplicative(a, ap, b):
    for v in support_places(a, ap, b):
        assert hilbert_symbol(a * ap, b, v) == hilbert_symbol(a, b, v) * hilbert_symbol(
            ap, b, v
        )


@given(a=nonzero_small)
@settings(max_examples=60, deadline=None)
def test_hilbert_a_minus_a(a):
    for v in support_places(a):
        assert hilbert_symbol(a, -a, v) == 1


def test_hasse_examples():
    v2 = LocalPlace.finite(2)
    assert hasse_invariant([1, 1, 1, 1], v2) == 1
    assert hasse_invariant([1, 1, 1, 1], REAL_PLACE) == 1
    assert hasse_invariant([-1, -1], v2) == -1
    assert hasse_invariant([-1, -1], v2) == hilbert_symbol(-1, -1, v2)


@given(
    phi=st.lists(nonzero_small, min_size=1, max_size=3),
    psi=st.lists(nonzero_small, min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_hasse_sum_rule(phi, psi):
    det_phi = Fraction(1)
    for x in phi:
        det_phi *= x
    det_psi = Fraction(1)
    for x in psi:
        det_psi *= x
    for v in support_places(*(phi + psi)):
        lhs = hasse_invariant(phi + psi, v)
        rhs = hasse_invariant(phi, v) * hasse_invariant(psi, v) * hilbert_symbol(
            det_phi, det_psi, v
        )
        assert lhs == rhs


@given(diag=st.lists(nonzero_small, min_size=2, max_size=4), seed=st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_hasse_permutation_invariance(diag, seed):
    rng = random.Random(seed)
    perm = diag[:]
    rng.shuffle(perm)
    for v in support_places(*diag):
        assert hasse_invariant(diag, v) == hasse_invariant(perm, v)


def test_hasse_rejects_singular():
    with pytest.raises(ExactError):
        hasse_invariant([1, 0, 2], REAL_PLACE)


def test_unit_residue():
    assert unit_residue(12, 2, 8) == 3
    assert unit_residue(Fraction(5, 3), 3) == valuation_free_residue()


def valuation_free_residue():
    # 5/3 = 3^-1 * 5 -> unit part 5, residue 5 mod 3 = 2
    return 2


def test_hilbert_rejects_zero():
    with pytest.raises(ExactError):
        hilbert_symbol(0, 3, REAL_PLACE)
    with pytest.raises(ExactError):
        hilbert_symbol(2, 0, LocalPlace.finite(3))


# ---------------------------------------------------------------------------
# The integer kernels against the Fraction bodies they replaced


def _reference_hilbert_symbol(a, b, v: LocalPlace) -> int:
    """The former Fraction-based body of `hilbert_symbol`."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ExactError("hilbert symbol needs nonzero arguments")
    if v.is_real:
        return -1 if (a < 0 and b < 0) else 1
    p = v.p
    alpha, beta = valuation(a, p), valuation(b, p)
    if p != 2:
        u = unit_residue(a, p)
        w = unit_residue(b, p)
        s = 1
        if alpha % 2 and beta % 2:
            s *= legendre(-1, p)
        if beta % 2:
            s *= legendre(u, p)
        if alpha % 2:
            s *= legendre(w, p)
        return s
    u = unit_residue(a, 2, 8)
    w = unit_residue(b, 2, 8)
    eps_u = (u - 1) // 2 % 2
    eps_w = (w - 1) // 2 % 2
    om_u = (u * u - 1) // 8 % 2
    om_w = (w * w - 1) // 8 % 2
    e = eps_u * eps_w + alpha * om_w + beta * om_u
    return -1 if e % 2 else 1


def _reference_hasse_invariant(diag, v: LocalPlace) -> int:
    """The former O(n^2) body of `hasse_invariant`."""
    entries = [Fraction(x) for x in diag]
    if any(x == 0 for x in entries):
        raise ExactError("singular form: zero diagonal entry")
    s = 1
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            s *= _reference_hilbert_symbol(entries[i], entries[j], v)
    return s


KERNEL_PLACES = [LocalPlace.finite(p) for p in (2, 3, 5, 7, 11)] + [REAL_PLACE]

# sign * unit * prod p^e over the kernel primes, e in [-3, 3]: negative
# valuations, units of every class mod 8 and mod the odd primes
structured = st.builds(
    lambda sign, unit, exps: sign
    * unit
    * Fraction(2) ** exps[0]
    * Fraction(3) ** exps[1]
    * Fraction(5) ** exps[2]
    * Fraction(7) ** exps[3]
    * Fraction(11) ** exps[4],
    st.sampled_from([1, -1]),
    st.sampled_from([1, 3, 5, 7, 13, 15, 17, 19, 23, 29, 31, 37]),
    st.lists(st.integers(-3, 3), min_size=5, max_size=5),
)
kernel_values = st.one_of(structured, nonzero_small, st.integers(-40, 40).filter(bool))


@given(a=kernel_values, b=kernel_values)
@settings(max_examples=300, deadline=None)
def test_hilbert_symbol_matches_reference(a, b):
    for v in KERNEL_PLACES:
        assert hilbert_symbol(a, b, v) == _reference_hilbert_symbol(a, b, v), (a, b, v)


@given(diag=st.lists(kernel_values, min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_hasse_invariant_matches_reference(diag):
    for v in KERNEL_PLACES:
        assert hasse_invariant(diag, v) == _reference_hasse_invariant(diag, v), (diag, v)


def test_hasse_invariant_units_of_every_class_mod_8():
    """Every pair of odd units and every power of 2 up to 2^3 at p = 2."""
    v2 = LocalPlace.finite(2)
    values = [u * Fraction(2) ** e for u in (1, 3, 5, 7, -1, -3, -5, -7) for e in (-3, -1, 0, 1, 2)]
    for a in values:
        for b in values:
            assert hilbert_symbol(a, b, v2) == _reference_hilbert_symbol(a, b, v2)
            assert hasse_invariant([a, b, a * b], v2) == _reference_hasse_invariant([a, b, a * b], v2)


@pytest.mark.parametrize("t, n", [(0, -2), (0, 1), (1, -1), (1, 1), (3, 5), (-1, -5)])
def test_lift_root_is_a_root_mod_pk(t, n):
    """Each simple root r0 mod p of x^2 - t x + n lifts to the root mod p^k
    that reduces to r0."""
    lifted = 0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
        for r0 in range(p):
            if (r0 * r0 - t * r0 + n) % p or (2 * r0 - t) % p == 0:
                continue
            for k in range(1, 9):
                r = lift_root(t, n, r0, p, k)
                assert 0 <= r < p**k and r % p == r0
                assert (r * r - t * r + n) % p**k == 0
            lifted += 1
    assert lifted >= 8


def test_sqrt_mod_p_every_square_below_500():
    """For every odd prime p < 500, each square mod p gets its least square
    root, min(x, p - x), also when written as a larger or negative
    representative, and each non-square is refused."""
    for p in primerange(3, 500):
        least = {}
        for x in range(p):
            least.setdefault(x * x % p, x)
        for a in range(p):
            if a in least:
                assert sqrt_mod_p(a, p) == sqrt_mod_p(a + 5 * p, p) == sqrt_mod_p(a - p, p) == least[a]
            else:
                with pytest.raises(ExactError, match="is not a square mod"):
                    sqrt_mod_p(a, p)


# p = 1 mod 8 with 2^16, 2^23, 2^27 and 2^32 dividing p - 1: the
# Tonelli-Shanks loop runs up to that many rounds
_LARGE_PRIMES = [65537, 998244353, 2013265921, 2**64 - 2**32 + 1]


@seed(1519)
@given(p=st.sampled_from(_LARGE_PRIMES), x=st.integers(1, 2**80))
@settings(max_examples=200, deadline=None)
def test_sqrt_mod_p_large_primes(p, x):
    assert isprime(p) and p % 8 == 1
    if x % p == 0:
        return
    a = x * x % p
    r = sqrt_mod_p(a, p)
    assert r * r % p == a and r <= p - r and r in (x % p, -x % p)
    # a times a non-square is a non-square
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    with pytest.raises(ExactError):
        sqrt_mod_p(a * n, p)
