#!/usr/bin/env python3
"""Separate polarized isogeny classes for a real quadratic multiplication
field: produce pairwise-inequivalent totally positive representatives and
show the split primes they come from, with witnesses for the diagonal."""

import argparse
import sys

from polarith.hecke_classes import (
    equivalence_witness,
    exhaustive_witness_search,
    generate_classes,
)
from polarith.quadfield import QuadField


def fmt(e):
    return f"{e.x} + {e.y}*w"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("D", type=int, help="squarefree D > 0")
    ap.add_argument("--count", type=int, default=10)
    ap.add_argument("--confirm-height", type=int, default=0,
                    help="re-confirm inequivalences by the witness search at this height")
    args = ap.parse_args()

    field = QuadField(args.D)
    reps = generate_classes(field, args.count)
    print(f"Q(sqrt {args.D}), disc {field.disc}: {len(reps)} classes")
    for i, r in enumerate(reps):
        print(f"  [{i}] q = {fmt(r.q)}   Nm = {r.q.norm()}   from p = {r.source_prime}")
    bad = 0
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            w = equivalence_witness(reps[i].q, reps[j].q)
            if w is not None:
                bad += 1
                print(f"  !! {i} ~ {j} with witness {w}")
            elif args.confirm_height:
                found = exhaustive_witness_search(reps[i].q, reps[j].q, args.confirm_height)
                if found is not None:
                    bad += 1
                    print(f"  !! decision procedure missed a witness for ({i},{j}): {found}")
    print("pairwise inequivalent" if bad == 0 else f"{bad} problems")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
