#!/usr/bin/env python3
"""Empirical constants for the bounded-norm solver.

Builds seeded batches of commutative instances over a few real quadratic
fields (plus optional split-matrix instances), runs the solver and the
brute-force oracle on each, and prints the achieved ratios
Nm(b)^2 / Nm(q)^{2d-1} exactly.  The maximum over a batch is the measured
constant c^2 for that (R, dagger, Nm).
"""

import argparse
import random
import sys
from fractions import Fraction

from polarith.degree_bound import (
    BoundInstance,
    DegreeBoundError,
    matrix_instance,
    measure_constant,
    quadfield_instance,
)
from polarith.linalg import identity, mat, mat_mul, transpose, inverse
from polarith.quadfield import QuadElem, QuadField


def commutative_batch(D, count, seed, norm_bound):
    rng = random.Random(seed)
    F = QuadField(D)
    base = quadfield_instance(D, (1, 0), (1, 0))
    out = []
    guard = 0
    while len(out) < count and guard < 100 * count:
        guard += 1
        z = QuadElem(F, Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
        if z.is_zero() or z.norm() == 0:
            continue
        n0 = rng.choice([1, 2, 3, 5, 6, 7, 10])
        q = z * z * n0
        if not q.is_integral() or abs(q.norm()) > norm_bound:
            continue
        try:
            out.append(BoundInstance(base.order, (q,), (z.inv(),)))
        except DegreeBoundError:
            continue
    return out


def matrix_batch(count, seed):
    rng = random.Random(seed)
    out = []
    guard = 0
    while len(out) < count and guard < 100 * count:
        guard += 1
        u = identity(2)
        for _ in range(4):
            i, j = rng.randrange(2), rng.randrange(2)
            if i != j:
                c = Fraction(rng.randint(-2, 2))
                for r in range(2):
                    u[r][i] += c * u[r][j]
        d1 = rng.choice([1, 2, 3, 5])
        k = rng.choice([1, 2, 3])
        q = mat_mul(mat_mul(transpose(u), mat([[d1, 0], [0, d1 * k * k]])), u)
        a = mat_mul(inverse(u), mat([[1, 0], [0, Fraction(1, k)]]))
        try:
            out.append(matrix_instance(2, q, a))
        except DegreeBoundError:
            continue
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fields", type=int, nargs="*", default=[5, 2, 13])
    ap.add_argument("--count", type=int, default=12)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--norm-bound", type=int, default=10_000)
    ap.add_argument("--matrix", action="store_true", help="also run M_2(Z) instances")
    args = ap.parse_args()

    for D in args.fields:
        batch = commutative_batch(D, args.count, args.seed + D, args.norm_bound)
        report = measure_constant(batch)
        print(f"== Q(sqrt {D}): {len(batch)} instances, d = 2, exponent d - 1/2 = 3/2")
        for e in report.entries:
            print(
                f"   Nm(q) = {e['norm_q']:>8}  Nm(b) = {e['solver_norm_b']:>6}  "
                f"value = {e['solver_value']:>8}  c^2 = {e['ratio_squared']:>12}  "
                f"oracle<=: {e['oracle_found_leq']}"
            )
        print(f"   measured c^2 = {report.empirical_c_squared}")
    if args.matrix:
        batch = matrix_batch(args.count, args.seed)
        report = measure_constant(batch)
        print(f"== M_2(Z), transpose involution: {len(batch)} instances, d = 2")
        for e in report.entries:
            print(
                f"   Nm(q) = {e['norm_q']:>8}  Nm(b) = {e['solver_norm_b']:>6}  "
                f"method = {e['method']:<16} c^2 = {e['ratio_squared']}"
            )
        print(f"   measured c^2 = {report.empirical_c_squared}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
