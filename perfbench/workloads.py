"""The three workloads: what a run sends, in which order, from its seed.

A run is a sequence of rounds.  Every stratum of a workload's pool (gen.py)
has a fixed `per_round` and `per_run` (SPECS): its first `per_round`
members, in pool order, are sent once in every round, and its next
`per_run` members, too slow to repeat, once in the first round.  So every
run sends the same requests, the same number of times, whatever its seed;
the seed sets the order in which each round sends them.  A run of
`--seconds` is `rounds_for(workload, seconds)` rounds, worked out from the
round time at the commit that defined the benchmark, so a faster library
finishes its run sooner.

Why the seed does not choose the members: the members of one stratum
differ in cost by up to 40 times (a dim-1 and a dim-8 form), so runs that
drew different members measured their draw more than the library; with
the same requests in every run, the spread from seed to seed is the
machine's alone.  The repeats let run.py take the median of a
request's times in a run.
"""

from __future__ import annotations

import json
import os
import random

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# Seconds one round takes, the first round's per-run requests spread over
# the rounds of a --seconds 24 run, at nominal machine speed (speed.py) at
# the commit that defined the benchmark.  Hecke's is set below its ~4.9 s
# so that a 24-second run has six rounds: 105 requests, ten of them beyond
# p90 (the run takes about 29 s).
ROUND_SECONDS = {"forms": 4.8, "solve": 6.0, "hecke": 4.0}

# stratum -> (per_round, per_run); the costs in the comments are per request.
SPECS = {
    # Rational forms carry the exact layer (Hilbert symbols, valuations,
    # sympy isprime); fourth-power checks grow steeply with the dimension.
    "forms": {
        "classify-q": (24, 0),       # 0.5-22 ms
        "classify-herm": (16, 0),    # 1-12 ms
        "classify-quat": (8, 0),     # 1-16 ms
        "isometric-q": (24, 0),      # 0.6-74 ms
        "isometric-herm": (12, 0),   # 1-19 ms
        "fourth-q-small": (16, 0),   # dims 1-4, 2-130 ms
        "fourth-q-5": (1, 0),        # ~0.17 s
        "fourth-q-6": (1, 0),        # ~0.4 s
        "fourth-q-7": (1, 0),        # ~0.65 s
        "fourth-q-8": (1, 0),        # ~0.9 s, sets the tail
        "fourth-herm": (6, 0),       # 6-370 ms
        "fourth-quat": (4, 0),       # 17-340 ms
    },
    # The degree-bound solver over quadratic fields (the once-per-run request
    # of a field builds its class group cold, as a CLI call does; the
    # other three find it built), the split M_2(Z) route and its dyadic
    # oracle fallbacks, p-adic maximal lattices and the local solver.
    "solve": {
        **{f"bound-D{D}": (3, 1) for D in (2, 5, 13, 101, 229, 401, -1, -5, -23, -101, -239)},
        "bound-glue": (15, 0),       # lattice glue, 4-7 ms
        "bound-oracle-fast": (1, 0),  # dyadic fallback, ~6.6k oracle points, ~0.65 s
        "bound-oracle-mid": (0, 1),   # dyadic fallback, ~29k points, ~2.6 s
        # ~84k points, ~10 s: the route of bound-oracle-mid at three times the
        # points; kept in the pool but not sent, to keep a run within its time
        "bound-oracle-slow": (0, 0),
        "maximal-n2": (8, 0),        # 3-9 ms
        "maximal-n3": (8, 0),        # 25-190 ms
        "maximal-n4-p3": (2, 0),     # 0.1-0.15 s
        "maximal-n4-p5": (2, 0),     # 0.55-0.8 s
        "maximal-n4-p7": (0, 2),     # 0.75 s and 1.7 s
        "maximal-n4-p11": (0, 1),    # ~5 s
        "local-solve": (8, 0),       # ~1 ms
    },
    # Ten separated classes per real quadratic field: many small
    # is_principal and factor_ideal calls, no class group.
    "hecke": {
        "height-3": (17, 0),         # 0.2-0.36 s
        "height-10": (0, 3),         # 1.8-2.3 s
    },
}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def load_pool(workload: str) -> tuple[list[dict], dict]:
    with open(os.path.join(DATA, f"{workload}.inputs.json")) as fh:
        pool = json.load(fh)["requests"]
    with open(os.path.join(DATA, f"{workload}.reference.json")) as fh:
        refs = json.load(fh)
    return pool, refs


def stratum_of(req: dict, ref: dict) -> str:
    """The generator's stratum, with split-matrix degree-bound requests
    divided by the route the reference took and, for oracle fallbacks, by
    the number of oracle points it explored (which sets their cost)."""
    if req["stratum"] != "bound-matrix":
        return req["stratum"]
    explored = ref.get("explored")
    if explored is None:
        return "bound-glue"
    if explored <= 10_000:
        return "bound-oracle-fast"
    return "bound-oracle-mid" if explored <= 50_000 else "bound-oracle-slow"


def rounds(workload: str, pool: list[dict], refs: dict, seed: int, n: int) -> list[list[dict]]:
    """The `n` rounds of one run, each in its own order drawn from the seed;
    the same seed gives the same rounds.  The first round sends the
    once-per-run requests before the others, so that they, and not a
    request that comes back, find the library's caches cold."""
    spec = SPECS[workload]
    members: dict[str, list[dict]] = {s: [] for s in spec}
    for req in pool:
        members[stratum_of(req, refs[req["id"]])].append(req)
    every_round, first_round = [], []
    for s, (per_round, per_run) in spec.items():
        if len(members[s]) < per_round + per_run:
            raise ValueError(f"{workload}: stratum {s} has {len(members[s])} requests, "
                             f"fewer than {per_round + per_run}")
        every_round += members[s][:per_round]
        first_round += members[s][per_round:per_round + per_run]
    rng = random.Random(f"{workload}:{seed}")
    rng.shuffle(first_round)
    out = []
    for i in range(n):
        batch = every_round[:]
        rng.shuffle(batch)
        out.append(first_round + batch if i == 0 else batch)
    return out
