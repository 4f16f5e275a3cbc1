import random
import time
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from sympy import factorint, isprime, nextprime, primerange
from sympy.ntheory.primetest import is_strong_lucas_prp, mr

from polarith import exact

from polarith.exact import (
    ExactError,
    REAL_PLACE,
    diagonal_folds,
    fold_column,
    hasse_invariant,
    hilbert_symbol,
    is_rational_square,
    least_nonresidue,
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


def hilbert_by_enumeration(a: Fraction, b: Fraction, v: int) -> int:
    """Independent oracle: exhaustive search for primitive solutions of
    z^2 = a x^2 + b y^2 modulo p^K, keeping only Hensel-liftable ones.

    With a, b squarefree integers, any p-adic zero has gradient valuation
    at most G = v_p(2) + 1, so working modulo p^{2G+1} is conclusive.
    """
    a = Fraction(square_class(a))
    b = Fraction(square_class(b))
    if v == REAL_PLACE:
        return 1 if (a > 0 or b > 0) else -1
    p = v
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
    assert square_class(4) == 1
    assert square_class(18) == 2
    assert square_class(-50) == -2
    assert square_class(Fraction(3, 4)) == 3
    assert square_class(Fraction(2, 3)) == 6
    with pytest.raises(ExactError):
        square_class(0)


def test_is_rational_square():
    assert is_rational_square(Fraction(9, 4))
    assert not is_rational_square(Fraction(8, 4))
    assert not is_rational_square(-4)


def test_hilbert_trivial_first_argument_one():
    for v in [REAL_PLACE, 2, 5]:
        for b in [2, -3, Fraction(7, 5)]:
            assert hilbert_symbol(1, b, v) == 1


def test_hilbert_minus_one_minus_one():
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, REAL_PLACE) == -1
    for p in (3, 5, 7, 11, 13):
        assert hilbert_symbol(-1, -1, p) == 1


def test_hilbert_2_3_at_3():
    assert hilbert_symbol(2, 3, 3) == -1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hilbert_against_enumeration_oracle(p):
    rng = random.Random(p)
    values = [-1, 1, 2, 3, 5, 6, -2, -3, -5, p, -p, 2 * p]
    pairs = [(a, b) for a in values for b in values]
    rng.shuffle(pairs)
    for a, b in pairs[:40]:
        assert hilbert_symbol(a, b, p) == hilbert_by_enumeration(
            Fraction(a), Fraction(b), p
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
    v2 = 2
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


def _table_diagonal(rng: random.Random) -> list:
    """A diagonal drawn with repeated entries, negative entries, primes in
    the denominators and numerators divisible by 2, 4 and 8; an entry with
    denominator 1 is sometimes an int."""
    pool = []
    for _ in range(rng.randint(1, 5)):
        num = rng.choice([-1, 1]) * rng.choice([1, 2, 4, 8, 16]) * rng.choice([1, 3, 5, 7, 11, 15, 21, 1009])
        x = Fraction(num, rng.choice([1, 1, 2, 3, 4, 5, 9, 25, 77, 1013]))
        pool.append(int(x) if x.denominator == 1 and rng.random() < 0.5 else x)
    return [rng.choice(pool) for _ in range(rng.randint(1, 9))]


def test_diagonal_folds_carry_every_invariant_of_a_diagonal():
    """On seeded diagonals: the folds' places are `support_places` less
    the real one (and, independently, 2 and the primes sympy finds); at
    each the triple is the Hasse invariant as a product of Hilbert
    symbols, the determinant's valuation and its unit residue, and the
    primes of odd valuation with the sign give the determinant's square
    class.  Off the places every Hilbert symbol is +1."""
    rng = random.Random(3701)
    for _ in range(300):
        diag = _table_diagonal(rng)
        folds = diagonal_folds([Fraction(x).as_integer_ratio() for x in diag])[0]
        assert [*folds, REAL_PLACE] == support_places(*diag)
        primes = {p for x in map(Fraction, diag) for n in (abs(x.numerator), x.denominator) for p in factorint(n)}
        assert list(folds) == sorted(primes | {2})
        det = prod(map(Fraction, diag))
        odd = []
        for p, (s, alpha, u) in folds.items():
            assert (alpha, u) == (valuation(det, p), unit_residue(det, p, 8 if p == 2 else p))
            pairs = [hilbert_symbol(a, b, p) for i, a in enumerate(diag) for b in diag[i + 1 :]]
            assert s == prod(pairs) == hasse_invariant(diag, p), (diag, p)
            odd += [p] if alpha % 2 else []
        assert prod(odd, start=-1 if det < 0 else 1) == square_class(det)
        off = nextprime(max(folds))
        assert all(hilbert_symbol(a, b, off) == 1 for a in diag for b in diag)


def test_diagonal_folds_refuse_zero():
    with pytest.raises(ExactError, match="cannot factor 0"):
        diagonal_folds([(3, 1), (0, 1), (5, 1)])
    with pytest.raises(ExactError, match="cannot factor 0"):
        support_places(3, 0)
    assert diagonal_folds([], (1, 4)) == [{2: (1, 0, 1)}, {2: (1, 0, 1)}]


def test_hasse_rejects_singular():
    with pytest.raises(ExactError):
        hasse_invariant([1, 0, 2], REAL_PLACE)


def test_unit_residue():
    assert unit_residue(12, 2, 8) == 3
    assert unit_residue(Fraction(5, 3), 3) == valuation_free_residue()


def valuation_free_residue():
    # 5/3 = 3^-1 * 5 -> unit part 5, residue 5 mod 3 = 2
    return 2


def _reference_unit_residue(x, p: int, modulus: int) -> int:
    """The unit part u = x / p^{v_p(x)} as a Fraction, read mod `modulus`."""
    u = Fraction(x) / Fraction(p) ** valuation(x, p)
    return u.numerator * pow(u.denominator, -1, modulus) % modulus


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_unit_residue_matches_the_fraction_formula(p):
    """Seeded ints and Fractions, signs and powers of p in numerator and
    denominator, read mod p (the default), p^k and 8; a denominator not
    prime to the modulus raises ValueError on both routes."""
    rng = random.Random(p)
    for _ in range(300):
        n = rng.choice([-1, 1]) * rng.randint(1, 10**6) * p ** rng.randint(0, 4)
        d = rng.randint(1, 10**4) * p ** rng.randint(0, 4)
        for x in (n, Fraction(n, d)):
            assert unit_residue(x, p) == _reference_unit_residue(x, p, p)
            for modulus in (p ** rng.randint(1, 6), 8):
                try:
                    want = _reference_unit_residue(x, p, modulus)
                except ValueError:
                    with pytest.raises(ValueError):
                        unit_residue(x, p, modulus)
                    continue
                assert unit_residue(x, p, modulus) == want
    with pytest.raises(ExactError):
        unit_residue(0, p)
    with pytest.raises(ExactError):
        unit_residue(5, p * p)


def test_hilbert_rejects_zero():
    with pytest.raises(ExactError):
        hilbert_symbol(0, 3, REAL_PLACE)
    with pytest.raises(ExactError):
        hilbert_symbol(2, 0, 3)


@pytest.mark.parametrize("v", [4, 9, 1, -3])
def test_places_must_be_prime_or_real(v):
    """A place is a prime or REAL_PLACE = 0; anything else raises (not an
    assert, so `python -O` refuses it too)."""
    with pytest.raises(ExactError, match="not a place"):
        hilbert_symbol(1, 1, v)
    with pytest.raises(ExactError, match="not a place"):
        hasse_invariant([1, 1], v)


# ---------------------------------------------------------------------------
# The integer kernels against the Fraction bodies they replaced


def _reference_hilbert_symbol(a, b, v: int) -> int:
    """The former Fraction-based body of `hilbert_symbol`."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ExactError("hilbert symbol needs nonzero arguments")
    if v == REAL_PLACE:
        return -1 if (a < 0 and b < 0) else 1
    p = v
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


def _reference_hasse_invariant(diag, v: int) -> int:
    """The former O(n^2) body of `hasse_invariant`."""
    entries = [Fraction(x) for x in diag]
    if any(x == 0 for x in entries):
        raise ExactError("singular form: zero diagonal entry")
    s = 1
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            s *= _reference_hilbert_symbol(entries[i], entries[j], v)
    return s


KERNEL_PLACES = [2, 3, 5, 7, 11, REAL_PLACE]

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
    v2 = 2
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


def test_least_nonresidue_below_5000():
    """The least non-square mod each odd prime p < 5000, against the squares
    listed mod p; p = 2, which has none, is refused."""
    for p in primerange(3, 5000):
        squares = {x * x % p for x in range(p)}
        assert least_nonresidue(p) == next(n for n in range(2, p) if n not in squares)
    with pytest.raises(ExactError, match="no quadratic non-residue"):
        least_nonresidue(2)


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


# -- isprime, primerange and factorint, against sympy as the reference -------


def _sympy_factorint(n: int) -> dict[int, int]:
    return dict(sorted(factorint(n).items()))


def test_isprime_and_factorint_agree_with_sympy_below_20000():
    for n in range(20000):
        assert exact.isprime(n) == isprime(n), n
        if n:
            assert list(exact.factorint(n).items()) == list(_sympy_factorint(n).items()), n
    with pytest.raises(ExactError):
        exact.factorint(0)


def test_isprime_agrees_with_sympy_on_2_to_90_bits():
    """Random n, and the products of two primes just above 2^10, the least
    composites that no prime below 2^10 divides."""
    assert not any(exact.isprime(p * q) for p in primerange(1024, 1200) for q in primerange(p, 1200))
    rng = random.Random(2301)
    for bits in range(2, 91):
        for _ in range(60):
            n = rng.getrandbits(bits) | 1 << (bits - 1)
            assert exact.isprime(n) == isprime(n), n
            assert exact.isprime(n | 1) == isprime(n | 1), n | 1


def test_factorint_agrees_with_sympy_on_2_to_64_bits():
    """Random integers, whose second-largest prime factor stays within the
    rho budget at 64 bits."""
    rng = random.Random(2302)
    for bits in range(2, 65):
        for _ in range(12):
            n = rng.getrandbits(bits) | 1 << (bits - 1)
            assert list(exact.factorint(n).items()) == list(_sympy_factorint(n).items()), n


def test_factorint_of_products_of_primes_up_to_35_bits():
    """Up to 90 bits, built from random primes of 11-35 bits (rho's share),
    small primes and prime powers, including squares and cubes of large
    primes."""
    rng = random.Random(2303)
    for _ in range(40):
        n = rng.choice([1, 2, 12, 3**5 * 1009])
        while n.bit_length() < 55:
            p = nextprime(rng.getrandbits(rng.randrange(11, 36)))
            n *= p ** rng.choice([1, 1, 1, 2, 3])
        assert list(exact.factorint(n).items()) == list(_sympy_factorint(n).items()), n
    for _ in range(6):
        p, q = (nextprime(rng.getrandbits(35) | 1 << 34) for _ in range(2))
        assert exact.factorint(p * q) == dict(sorted({p: 1, q: 1}.items()))
    p = nextprime(2**44)
    assert exact.factorint(p**2) == {p: 2}


def test_factorint_of_perfect_powers(monkeypatch):
    """A perfect-power cofactor is split by its root, not by rho, which
    would need about sqrt(p) steps on p^k; a composite root is factored
    once, with its exponent.  A prime power spends no rho step at all."""
    p, q, r = nextprime(2**50), nextprime(2**30), nextprime(2**31)
    prime_powers = [p**2, p**3, p**6, q**5, q**7 * 12, 1031**2, 1031**3, 1031**7, nextprime(2**200) ** 2]
    for n in prime_powers + [1031**7 * nextprime(2**40), (q * r) ** 3, (q * r) ** 2 * 5**4]:
        assert list(exact.factorint(n).items()) == list(_sympy_factorint(n).items()), n
    monkeypatch.setattr(exact, "MAX_RHO_STEPS", 0)
    for n in prime_powers:
        assert list(exact.factorint(n).items()) == list(_sympy_factorint(n).items()), n


def test_factorint_stops_at_the_rho_budget(monkeypatch):
    p, q = nextprime(2**30), nextprime(2**31)
    assert exact.factorint(p * q) == {p: 1, q: 1}
    monkeypatch.setattr(exact, "MAX_RHO_STEPS", 1000)
    with pytest.raises(exact.ResourceError, match=f"factoring {p * q} stopped at the limit of 1000 Pollard rho steps"):
        exact.factorint(6 * p * q)
    # trial division and a prime cofactor spend no rho steps
    assert exact.factorint(6 * p) == {2: 1, 3: 1, p: 1}


def _chernick(k: int) -> list[int] | None:
    """The factors of (6k + 1)(12k + 1)(18k + 1), a Carmichael number when
    all three are prime; else None."""
    factors = [6 * k + 1, 12 * k + 1, 18 * k + 1]
    return factors if all(map(isprime, factors)) else None


def test_carmichael_numbers_are_composite():
    """Listed ones, and Chernick's with k of 10-28 bits, up to 95 bits: the
    largest lie above the Miller-Rabin table, in the BPSW branch."""
    small = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657, 52633,
             62745, 63973, 75361, 101101, 115921, 126217, 162401, 172081, 188461, 252601, 278545]
    cases = [factorint(n) for n in small]
    rng = random.Random(2304)
    for bits in (10, 16, 22, 28, 28):
        while len(cases) < len(small) + 3 * (bits // 6):
            factors = _chernick(rng.getrandbits(bits))
            if factors:
                cases.append(dict.fromkeys(factors, 1))
    assert max(prod(c) for c in cases) > MILLER_RABIN_LAST_BOUND
    for case in cases:
        n = prod(p**e for p, e in case.items())
        # Korselt: squarefree, and p - 1 divides n - 1 for each prime p | n
        assert all(e == 1 and (n - 1) % (p - 1) == 0 for p, e in case.items()), n
        assert not exact.isprime(n), n


MILLER_RABIN_LAST_BOUND = 3317044064679887385961981


@pytest.mark.parametrize(
    "psi",
    [3215031751, 2152302898747, 3474749660383, 341550071728321, 3825123056546413051,
     318665857834031151167461, MILLER_RABIN_LAST_BOUND],
)
def test_each_tier_bound_is_composite(psi):
    """Each bound of the Miller-Rabin table is a strong pseudoprime to the
    bases its tier covers, so it is the least n that needs the next tier."""
    k = dict(exact.MILLER_RABIN_BOUNDS)[psi]
    assert mr(psi, exact.SMALL_PRIMES[:k]) and not isprime(psi)
    assert not exact.isprime(psi)


def test_bpsw_above_the_table():
    """Products of two primes near 2^45 lie above the table's last bound and
    take the BPSW branch, as do primes of 82-100 bits."""
    rng = random.Random(2305)
    for _ in range(40):
        p, q = (nextprime(rng.getrandbits(45) | 1 << 44) for _ in range(2))
        assert p * q > MILLER_RABIN_LAST_BOUND and not exact.isprime(p * q)
        r = nextprime(rng.getrandbits(rng.randrange(82, 101)) | 1 << 81)
        assert exact.isprime(r)


def test_strong_lucas_test_agrees_with_sympy():
    """Including strong Lucas pseudoprimes, which the test calls prime."""
    pseudoprimes = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519]
    assert all(exact._strong_lucas_probable_prime(n) for n in pseudoprimes)
    rng = random.Random(2306)
    odd = [rng.getrandbits(rng.randrange(8, 120)) | 1 for _ in range(600)]
    for n in pseudoprimes + [n for n in odd if n > 5 and not is_rational_square(n)]:
        assert exact._strong_lucas_probable_prime(n) == is_strong_lucas_prp(n), n


def test_strong_lucas_test_refuses_squares(monkeypatch):
    """A square reaches the Lucas test only as a base-2 strong pseudoprime,
    p^2 for a Wieferich prime p: 1093^2 and 3511^2 pass base 2.  The square
    test refuses them before Selfridge's D search, which finds no D with
    (D|n) = -1 on a square and stops only at D = +-p, after about p / 2
    Jacobi symbols."""
    monkeypatch.setattr(exact, "_jacobi", None)  # the D search is never entered
    for p in (1093, 3511):
        assert exact._strong_probable_prime(p * p, 2) and not exact._strong_lucas_probable_prime(p * p)


def test_perfect_power_gives_up_past_the_small_primes():
    """Above 10 * 1021 bits every prime exponent below 2^10 is tried, and a
    number that is no power (2^10300 + 1, by Mihailescu) answers None."""
    assert exact._perfect_power((1 << 10300) + 1) is None


def test_primerange_agrees_with_sympy():
    rng = random.Random(2307)
    ranges = [(0, 0), (5, 3), (0, 2), (2, 2), (-10, 3), (2, 3), (1023, 1025), (4000, 4200)]
    for _ in range(40):
        lo = rng.choice([rng.randrange(-5, 3000), rng.randrange(10**6), rng.randrange(10**6), rng.randrange(10**12)])
        ranges.append((lo, lo + rng.randrange(-20, 20000)))
    ranges += [(2**40 - 3000, 2**40 + 3000), (10**30, 10**30 + 400)]
    for lo, hi in ranges:
        assert list(exact.primerange(lo, hi)) == list(primerange(lo, hi)), (lo, hi)


def test_primerange_is_lazy():
    start = time.perf_counter()
    assert next(exact.primerange(2, 10**30)) == 2
    assert next(exact.primerange(10**6, 10**40)) == 1000003
    assert time.perf_counter() - start < 0.5
