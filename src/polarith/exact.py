"""Exact rational invariants: primes and factoring, p-adic valuations,
square classes, Hilbert symbols and Hasse invariants over Q.

Conventions
-----------
* The Hilbert symbol sigma(a, b, v) is +1 iff z^2 = a x^2 + b y^2 has a
  solution (x, y, z) != (0, 0, 0) over the completion of Q at v.
* The Hasse invariant of a diagonal form <a_1, ..., a_n> at v is the
  product over i < j of sigma(a_i, a_j, v).  Two conventions circulate in
  the literature (i < j versus i <= j); this package uses i < j, which is
  the one compatible with the direct-sum rule
  s(f + g) = s(f) s(g) sigma(det f, det g).
* A place of Q is an int: a finite place is its prime p and the real place
  is REAL_PLACE = 0, as in PARI/GP's hilbert(x, y, 0).  A square class of
  Q^x is its squarefree integer representative, sign included.
* At an odd prime p, with units w, w' and eps = (p - 1)/2,
  sigma(p^a w, p^b w') = (-1)^(eps a b) chi(w)^b chi(w')^a, chi the
  Legendre symbol (Serre, A Course in Arithmetic, ch. III, Thm. 1).
  Multiplied over the pairs i < j of a diagonal <p^(v_1) w_1, ...>, it
  gives the sparse fold of `diagonal_folds`: with S the entries of odd
  v_i, c = |S| and u the unit part of the determinant,
  s_p = (-1)^(eps c(c-1)/2) prod_{i in S} chi(w_i) chi(u)^[c odd],
  since only pairs in S meet the sign, and w_i is raised to
  sum_{j != i} v_j = v_p(det) - v_i: odd for i in S when c is even, and
  for i outside S when c is odd, where prod_{i not in S} chi(w_i) =
  chi(u) prod_{i in S} chi(w_i) (Cassels, Rational Quadratic Forms).
  The form repeated r times has rc odd entries and the r-th powers of
  the units, so psi^4 costs what psi does.  At p = 2 the pairs are
  folded one by one (`fold_column`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from fractions import Fraction
from itertools import compress, count
from math import gcd, isqrt, prod


class ExactError(ValueError):
    pass


class ResourceError(RuntimeError):
    pass


def _primes_below(n: int) -> list[int]:
    """The primes below n, by the sieve of Eratosthenes."""
    flags = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for p in range(2, isqrt(n - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n, p)))
    return list(compress(range(n), flags))


# the primes below 2^10: the trial divisors of `factorint`, and through their
# product `isprime`'s answer below 2^20
SMALL_PRIMES = _primes_below(1 << 10)
_SMALL_PRIME_SET = frozenset(SMALL_PRIMES)
_SMALL_PRIMORIAL = prod(SMALL_PRIMES)

# (psi_k, k): Miller-Rabin on the first k primes as bases proves every n <
# psi_k prime or composite (Jaeschke, Math. Comp. 61, 1993; Sorenson and
# Webster, Math. Comp. 86, 2017).  psi_7 = psi_8 and psi_9 = psi_10 = psi_11,
# so k = 8, 10 and 11 are left out, and psi_1 = 2047 too, since `isprime`
# answers every n < 2^20 before it reads the table.  Each psi_k is itself a
# strong pseudoprime to the first k bases, so no bound can be raised.
MILLER_RABIN_BOUNDS = (
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Whether the odd n > a passes the strong (Miller-Rabin) test to base a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a|n) for odd n > 0."""
    a, t = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test of the odd non-square n with Selfridge's
    parameters: the first D in 5, -7, 9, -11, ... with (D|n) = -1, P = 1
    and Q = (1 - D)/4 (Baillie and Wagstaff, Math. Comp. 35, 1980)."""
    if isqrt(n) ** 2 == n:
        return False
    for D in count(5, 2):
        D = D if D % 4 == 1 else -D
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    # U_k, V_k, Q^k mod n for k the leading bits of d; halving mod the odd n
    # adds n to an odd value first
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n, (D * U + V) % n
            U, V = (U + n * (U & 1)) // 2, (V + n * (V & 1)) // 2
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def isprime(n: int) -> bool:
    """Whether the integer n is prime.  Below 2^20 the primes below 2^10
    decide; up to 3.3 * 10^24, Miller-Rabin on as many bases as
    MILLER_RABIN_BOUNDS proves enough; above, BPSW (base-2 Miller-Rabin and
    a strong Lucas test), which has no known counterexample."""
    if n < 1 << 10:
        return n in _SMALL_PRIME_SET
    if gcd(n, _SMALL_PRIMORIAL) != 1:
        return False
    if n < 1 << 20:
        return True
    for bound, k in MILLER_RABIN_BOUNDS:
        if n < bound:
            return all(_strong_probable_prime(n, a) for a in SMALL_PRIMES[:k])
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def primerange(lo: int, hi: int) -> Iterator[int]:
    """The primes p with lo <= p < hi, ascending, as a lazy generator: read
    off SMALL_PRIMES below 2^10 and through `isprime` above, so a caller
    that stops early pays nothing for an unbounded hi."""
    yield from SMALL_PRIMES[bisect_left(SMALL_PRIMES, lo) : bisect_left(SMALL_PRIMES, hi)]
    yield from filter(isprime, range(max(lo, 1 << 10), hi))


# the most iterations of x -> x^2 + c that `factorint` spends on Pollard-Brent
# rho per call (2^20): enough for a cofactor with two prime factors of 35
# bits, about a second on a 168-bit cofactor
MAX_RHO_STEPS = 1_048_576


def _pollard_brent(n: int, steps: int) -> tuple[int, int]:
    """A proper divisor of the odd composite n, and what is left of `steps`
    iterations.  Brent's cycle search on x -> x^2 + c (Brent, BIT 20, 1980;
    Cohen, GTM 138, 8.5), with the gcds batched 128 iterations at a time and
    the last batch replayed one iteration at a time when it overshoots."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps -= 2 * r  # r to move y, at most r more against x
            if steps < 0:
                raise ResourceError(
                    f"factoring {n} stopped at the limit of {MAX_RHO_STEPS} Pollard rho steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g, steps


def _perfect_power(m: int) -> tuple[int, int] | None:
    """(r, k) with m = r^k for the least prime k, if m has no prime factor
    below 2^10 and is a perfect power; else None.  Such an r exceeds 2^10,
    so 10 k < m.bit_length()."""
    for k in SMALL_PRIMES:
        if 10 * k >= m.bit_length():
            return None
        # Newton's method for floor(m^(1/k)), from above
        x = 1 << -(-m.bit_length() // k)
        while (y := ((k - 1) * x + m // x ** (k - 1)) // k) < x:
            x = y
        if x**k == m:
            return x, k
    return None


def factorint(n: int) -> dict[int, int]:
    """{p: e} with n = prod p^e for an integer n >= 1, the primes ascending.
    Trial division by the primes below 2^10; a composite cofactor that is a
    perfect power r^k is factored as r, and any other is split by
    Pollard-Brent rho, at most MAX_RHO_STEPS iterations per call, past
    which ResourceError."""
    if n < 1:
        raise ExactError(f"cannot factor {n}")
    factors = {}
    for p in SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            factors[p] = e
    # what is left has no prime factor below 2^10, so below 2^20 it is prime
    # `rest` holds (m, e): m^e is still to be factored
    large, rest, steps = {}, [(n, 1)] if n > 1 else [], MAX_RHO_STEPS
    while rest:
        m, e = rest.pop()
        if m < 1 << 20 or isprime(m):
            large[m] = large.get(m, 0) + e
        elif power := _perfect_power(m):
            rest.append((power[0], e * power[1]))
        else:
            d, steps = _pollard_brent(m, steps)
            rest += [(d, e), (m // d, e)]
    factors.update(sorted(large.items()))
    return factors


REAL_PLACE = 0


def _local_data(n: int, d: int, p: int, modulus: int | None = None) -> tuple[int, int]:
    """(v_p(x), residue of the unit part of x mod `modulus`, by default p,
    or 8 at p = 2) for the nonzero rational x = n / d, d > 0.  p must
    already be known to be prime."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    m = modulus or (8 if p == 2 else p)
    return v, (n if d == 1 else n * pow(d, -1, m)) % m


def valuation(x: Fraction | int, p: int) -> int:
    """v_p(x) for x a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise ExactError("valuation of zero is undefined")
    if not isprime(p):
        raise ExactError(f"{p} is not prime")
    return _local_data(*x.as_integer_ratio(), p)[0]


def unit_residue(x: Fraction | int, p: int, modulus: int | None = None) -> int:
    """The residue of the p-adic unit part of x modulo `modulus` (default p)."""
    x = Fraction(x)
    valuation(x, p)  # refuses zero and a non-prime p
    return _local_data(*x.as_integer_ratio(), p, modulus or p)[1]


def square_class(x: Fraction | int) -> int:
    """Squarefree representative of x modulo rational squares."""
    x = Fraction(x)
    if x == 0:
        raise ExactError("zero has no square class")
    n = x.numerator * x.denominator
    rep = -1 if n < 0 else 1
    for q, e in factorint(abs(n)).items():
        if e % 2:
            rep *= q
    return rep


def rational_sqrt(x: Fraction | int) -> Fraction | None:
    """The positive square root of x when x is a positive rational square,
    else None.  Reads x in lowest terms as int numerator and denominator,
    and builds a Fraction only for a root."""
    num, den = x.as_integer_ratio()
    if num <= 0:
        return None
    n, d = isqrt(num), isqrt(den)
    if n * n != num or d * d != den:
        return None
    return Fraction(n, d)


def is_rational_square(x: Fraction | int) -> bool:
    return rational_sqrt(x) is not None


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p, a coprime to p: every caller
    passes a unit residue, or tests a % p first."""
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def least_nonresidue(p: int) -> int:
    """The least quadratic non-residue modulo the odd prime p, by Euler's
    criterion from 2 upward."""
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            return n
    raise ExactError(f"no quadratic non-residue mod {p}")


def sqrt_mod_p(a: int, p: int) -> int:
    """The square root x of a modulo the prime p with x <= p - x, by
    Tonelli-Shanks (Cohen, GTM 138, Alg. 1.5.1).  Raises ExactError when
    a is not a square mod p."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        raise ExactError(f"{a} is not a square mod {p}")
    # p - 1 = 2^e q with q odd; y = n^q for a non-square n generates the
    # 2-Sylow subgroup of (Z/p)^x
    q, e = p - 1, 0
    while q % 2 == 0:
        q, e = q // 2, e + 1
    y, r = pow(least_nonresidue(p), q, p), e
    x = pow(a, (q - 1) // 2, p)
    b, x = a * x * x % p, a * x % p
    # invariant: x^2 = a b, and b has order dividing 2^(r-1)
    while b != 1:
        m, b2 = 1, b * b % p
        while b2 != 1:
            m, b2 = m + 1, b2 * b2 % p
        t = pow(y, 1 << (r - m - 1), p)
        y, r = t * t % p, m
        x, b = x * t % p, b * y % p
    return min(x, p - x)


def lift_root(t: int, n: int, r: int, p: int, k: int) -> int:
    """Hensel lift of a simple root r of x^2 - t x + n modulo p to a root
    modulo p^k, by Newton's method with the precision doubling each step."""
    mod = p
    while mod < p**k:
        mod = min(mod * mod, p**k)
        r = (r - (r * r - t * r + n) * pow(2 * r - t, -1, mod)) % mod
    return r


def _hilbert_local(alpha: int, u: int, beta: int, w: int, p: int) -> int:
    """sigma(p^alpha u, p^beta w) at a finite prime p, for units u, w given
    by their residues mod p (mod 8 at p = 2)."""
    if p == 2:
        eps_u, eps_w = (u - 1) // 2, (w - 1) // 2
        e = eps_u * eps_w + alpha * ((w * w - 1) // 8) + beta * ((u * u - 1) // 8)
        return -1 if e % 2 else 1
    s = 1
    if alpha % 2 and beta % 2 and p % 4 == 3:
        s = -s
    if beta % 2:
        s *= legendre(u, p)
    if alpha % 2:
        s *= legendre(w, p)
    return s


def hilbert_symbol(a: Fraction | int, b: Fraction | int, v: int) -> int:
    """sigma(a, b) at the place v, by the standard closed formulas."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ExactError("hilbert symbol needs nonzero arguments")
    if v == REAL_PLACE:
        return -1 if (a < 0 and b < 0) else 1
    if not isprime(v):
        raise ExactError(f"{v} is not a place of Q")
    return _hilbert_local(*_local_data(*a.as_integer_ratio(), v), *_local_data(*b.as_integer_ratio(), v), v)


def fold_column(column: list[tuple[int, int]], p: int) -> tuple[int, int, int]:
    """(prod_{i<j} sigma(a_i, a_j), sum of the v_p(a_i), product of the unit
    residues) at the prime p for entries a_i given by their column of
    (v_p, unit residue mod p, or mod 8 at p = 2) pairs.  By
    bimultiplicativity the first is
    prod_j sigma(a_1 ... a_{j-1}, a_j), so one pass suffices, with the
    prefix a_1 ... a_{j-1} carried as its valuation sum and residue
    product; of a pair <a, b> it is sigma(a, b)."""
    m = 8 if p == 2 else p
    s, alpha, u = 1, 0, 1
    for beta, w in column:
        if p == 2 or (alpha | beta) & 1:  # at odd p, two even valuations give +1
            s *= _hilbert_local(alpha, u, beta, w, p)
        alpha, u = alpha + beta, u * w % m
    return s, alpha, u


def hasse_invariant(diag: list[Fraction | int], v: int) -> int:
    """prod_{i<j} sigma(a_i, a_j) at v for a diagonalized form <a_1, ..., a_n>:
    at a prime, `fold_column` over the entries' valuations and unit
    residues at v; at the real place, -1 to the number of pairs of negative
    entries.  For every place at once, `diagonal_folds` factors each entry
    once."""
    if any(x == 0 for x in diag):
        raise ExactError("singular form: zero diagonal entry")
    if v == REAL_PLACE:
        k = sum(1 for x in diag if x < 0)
        return -1 if k * (k - 1) // 2 % 2 else 1
    if not isprime(v):
        raise ExactError(f"{v} is not a place of Q")
    return fold_column([_local_data(*x.as_integer_ratio(), v) for x in diag], v)[0]


def diagonal_folds(entries: list[tuple[int, int]], rs: tuple[int, ...] = (1,)) -> list[dict[int, tuple[int, int, int]]]:
    """For each r in rs, {p: the `fold_column` triple (s_p, v_p(det), unit
    residue of det)} of the diagonal form <a_1, ..., a_n> repeated r times,
    for a_i = n_i / e_i given as coprime int pairs with n_i != 0 < e_i
    (`factorint` refuses a zero), at 2 and at each prime dividing some n_i
    or e_i, ascending: the finite places of `support_places`; elsewhere
    every Hilbert symbol of the entries is +1.

    Each distinct |n_i| and e_i is factored once, and the v_p(a_i) are
    read off the factorizations.  At p = 2 the column of (v_2, unit
    residue mod 8) pairs is folded, r times over.  At an odd p the sparse
    fold of the module docstring needs one Legendre symbol, of
    prod_{i in S} w_i^r times u^r when rc is odd (of 1 when c = 0);
    chi(w_i) is that of n_i e_i / p^|v_i|, the unit w_i times the square
    e_i^2."""
    factors = {k: factorint(k) for k in {abs(k) for pair in set(entries) for k in pair} - {1}}
    places: dict[int, dict[int, int]] = {2: {}}  # p -> {i: v_p(a_i) != 0}
    for i, (n, e) in enumerate(entries):
        for k, side in ((abs(n), 1), (e, -1)):
            for p, v in factors.get(k, {}).items():
                places.setdefault(p, {})[i] = side * v
    num, den = prod(n for n, _ in entries), prod(e for _, e in entries)
    column = [_local_data(n, e, 2) for n, e in entries]
    folds = [{2: fold_column(column * r, 2)} for r in rs]
    for p in sorted(places)[1:]:
        alpha, u = _local_data(num, den, p)
        odd = [entries[i][0] * entries[i][1] // p ** abs(v) for i, v in places[p].items() if v & 1]
        for fold, r in zip(folds, rs):
            c = r * len(odd)
            sign = -1 if p % 4 == 3 and c * (c - 1) // 2 % 2 else 1
            fold[p] = (sign * legendre(pow(prod(odd), r, p) * u ** (c & 1) % p, p), r * alpha, pow(u, r, p))
    return folds


def support_places(*values: Fraction | int) -> list[int]:
    """Finite primes dividing any value's numerator or denominator, plus 2,
    ascending, then the real place.  Hilbert symbols of the values are +1
    elsewhere."""
    return [*diagonal_folds([Fraction(x).as_integer_ratio() for x in values])[0], REAL_PLACE]
