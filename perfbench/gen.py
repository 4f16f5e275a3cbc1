"""Seeded request pools for the three benchmark workloads.

    python3 perfbench/gen.py --seed 0            # rewrite perfbench/data/*.inputs.json
    python3 perfbench/gen.py --seed 0 --reference   # ... and the reference outputs

The same seed always gives byte-identical pools.  `--reference` runs every
request once through `polarith.cli.main` (with `src/` on the path) and
records what the library at that commit answered: the exit code, the whole
stdout for the `forms` and `hecke` verbs, and `norm_b` and `method` for each
degree-bound request.  A run of the benchmark samples its requests from
these committed pools (see `workloads.py`), so every response it checks has
a reference.

Each request belongs to a stratum: requests of one stratum share a verb and
a cost class, and a run draws a fixed number from each stratum per round.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction

from check import hconj, hmul, minv, mmul, mtrans, qconj, qmul, qnorm

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
DEFAULT_SEED = 0


def _s(x) -> str:
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# forms


def _rational_pos_def(rng, n):
    """U^T U + a positive diagonal boost, U with entries in {-1, 0, 1}: the
    generator of the fourth-power acceptance criterion."""
    u = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
    g = [[sum(u[k][i] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    for i in range(n):
        g[i][i] += rng.randint(1, 3)
    return {"kind": "symmetric", "base": {"type": "Q"}, "gram": [[_s(x) for x in r] for r in g]}


def _unimodular(rng, n):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-1, 1)
            for r in range(n):
                m[r][i] += c * m[r][j]
    return m


def _rational_equivalent(rng, form):
    """The same form in another basis: U^T G U with U unimodular."""
    g = [[Fraction(x) for x in r] for r in form["gram"]]
    u = [[Fraction(x) for x in r] for r in _unimodular(rng, len(g))]
    h = mmul(mmul(mtrans(u), g), u)
    return {"kind": "symmetric", "base": {"type": "Q"}, "gram": [[_s(x) for x in r] for r in h]}


def _hermitian_gram(rng, n, mul, conj, zero, rand_entry):
    """U^* diag(d) U with U unitriangular: positive definite hermitian."""
    one = (Fraction(1),) + zero[1:]
    u = [[rand_entry() if j > i else (one if j == i else zero) for j in range(n)]
         for i in range(n)]
    d = [Fraction(rng.randint(1, 3)) for _ in range(n)]
    g = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for k in range(n):
                term = mul(conj(u[k][i]), tuple(c * d[k] for c in u[k][j]))
                acc = tuple(a + b for a, b in zip(acc, term))
            row.append([_s(c) for c in acc])
        g.append(row)
    return g


def _quadfield_hermitian(rng, D, n):
    zero = (Fraction(0), Fraction(0))
    g = _hermitian_gram(
        rng, n,
        lambda x, y: qmul(D, x, y),
        lambda x: qconj(D, x),
        zero,
        lambda: (Fraction(rng.randint(-1, 1)), Fraction(rng.randint(-1, 1))),
    )
    return {"kind": "hermitian", "base": {"type": "quadfield", "D": D}, "gram": g}


def _quaternion_hermitian(rng, a, b, n):
    zero = tuple(Fraction(0) for _ in range(4))
    g = _hermitian_gram(
        rng, n,
        lambda x, y: hmul(a, b, x, y),
        hconj,
        zero,
        lambda: tuple(Fraction(rng.randint(-1, 1)) for _ in range(4)),
    )
    return {"kind": "hermitian", "base": {"type": "quaternion", "a": _s(a), "b": _s(b)}, "gram": g}


def forms_pool(rng) -> list[dict]:
    """Rational forms of dim 1-8 as in the fourth-power criterion, hermitian
    forms over Q(sqrt -1), Q(sqrt -3), Q(sqrt -5), Q(sqrt -7), and definite
    quaternion forms.  The fourth-power check is split by dimension because
    its cost grows with it (dim 8 sets the tail)."""
    pool = []

    def add(stratum, verb, doc):
        pool.append({"stratum": stratum, "verb": verb, "input": doc})

    def pair(make):
        return make(), make()

    for _ in range(24):
        add("classify-q", "classify-form", {"form": _rational_pos_def(rng, rng.randint(1, 8))})
    for _ in range(16):
        D = rng.choice((-1, -3, -5, -7))
        add("classify-herm", "classify-form", {"form": _quadfield_hermitian(rng, D, rng.randint(1, 4))})
    for _ in range(8):
        a, b = rng.choice(((-1, -1), (-1, -3), (-2, -5)))
        add("classify-quat", "classify-form", {"form": _quaternion_hermitian(rng, a, b, rng.randint(1, 3))})
    for _ in range(24):
        n = rng.randint(1, 8)
        f1 = _rational_pos_def(rng, n)
        f2 = _rational_equivalent(rng, f1) if rng.random() < 0.5 else _rational_pos_def(rng, n)
        add("isometric-q", "isometric", {"form1": f1, "form2": f2})
    for _ in range(12):
        D = rng.choice((-1, -3, -5, -7))
        n = rng.randint(1, 4)
        f1, f2 = pair(lambda: _quadfield_hermitian(rng, D, n))
        add("isometric-herm", "isometric", {"form1": f1, "form2": f2})
    for n, count in ((1, 4), (2, 4), (3, 4), (4, 4), (5, 4), (6, 4), (7, 4), (8, 4)):
        for _ in range(count):
            f1, f2 = pair(lambda: _rational_pos_def(rng, n))
            stratum = "fourth-q-small" if n <= 4 else f"fourth-q-{n}"
            add(stratum, "fourth-power-check", {"form1": f1, "form2": f2})
    for _ in range(12):
        D = rng.choice((-1, -3, -5, -7))
        n = rng.randint(1, 4)
        f1, f2 = pair(lambda: _quadfield_hermitian(rng, D, n))
        add("fourth-herm", "fourth-power-check", {"form1": f1, "form2": f2})
    for _ in range(8):
        a, b = rng.choice(((-1, -1), (-1, -3), (-2, -5)))
        n = rng.randint(1, 3)
        f1, f2 = pair(lambda: _quaternion_hermitian(rng, a, b, n))
        add("fourth-quat", "fourth-power-check", {"form1": f1, "form2": f2})
    return pool


# ---------------------------------------------------------------------------
# solve


REAL_FIELDS = (2, 5, 13, 101, 229, 401)
IMAG_FIELDS = (-1, -5, -23, -101, -239)


def _quadfield_instance(rng, D):
    """q = n0 z^2 and a = 1/z, so a q a = n0 (identity involution): the
    generator of the commutative degree-bound criterion."""
    while True:
        z = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        if z == (0, 0) or qnorm(D, z) == 0:
            continue
        q = qmul(D, qmul(D, z, z), (Fraction(rng.choice((1, 2, 3, 5, 6, 7))), Fraction(0)))
        if abs(qnorm(D, q)) > 10**4:
            continue
        zc = qconj(D, z)
        nz = qnorm(D, z)
        a = (zc[0] / nz, zc[1] / nz)
        return {"instance": {"algebra": {"type": "quadfield", "D": D},
                             "q": [_s(c) for c in q], "a": [_s(c) for c in a]}}


def _split_matrix_instances(rng, tries):
    """The seeded M_2(Z) generator of `test_split_matrix_verified_random`:
    q = u^T diag(d1, d2) u, a = u^{-1} diag(1, 1/r) with d2/d1 = r^2."""
    out = []
    for _ in range(tries):
        u = [[Fraction(int(i == j)) for j in range(2)] for i in range(2)]
        for _ in range(4):
            i, j = rng.randrange(2), rng.randrange(2)
            if i != j:
                c = Fraction(rng.randint(-2, 2))
                for r in range(2):
                    u[r][i] += c * u[r][j]
        d1 = rng.choice([1, 2, 3, 5])
        d2 = d1 * rng.choice([1, 4, 9])
        q = mmul(mmul(mtrans(u), [[Fraction(d1), 0], [0, Fraction(d2)]]), u)
        r = math.isqrt(d2 // d1)
        a = mmul(minv(u), [[Fraction(1), 0], [0, Fraction(1, r)]])
        out.append({"instance": {"algebra": {"type": "matrix", "n": 2},
                                 "q": [[_s(x) for x in row] for row in q],
                                 "a": [[_s(x) for x in row] for row in a]}})
    return out


def _maximal_lattice_request(rng, p, n):
    """An integral form with p-unit diagonal in a unimodular basis, and a
    random sublattice of index up to p^(2n): the criterion-4 generator."""
    u = [[Fraction(x) for x in r] for r in _unimodular(rng, n)]
    diag = [rng.choice([x for x in range(1, 10) if x % p]) for _ in range(n)]
    g = mmul(mmul(mtrans(u), [[Fraction(diag[i] if i == j else 0) for j in range(n)] for i in range(n)]), u)
    s = [[Fraction(x) for x in r] for r in _unimodular(rng, n)]
    dd = [[Fraction(p ** rng.randint(0, 2) if i == j else 0) for j in range(n)] for i in range(n)]
    sub = mmul(s, dd)
    return {"p": p, "target_scale": 0,
            "basis": [[_s(x) for x in r] for r in sub],
            "form": {"kind": "symmetric", "base": {"type": "Q"},
                     "gram": [[_s(x) for x in r] for r in g]}}


ROTATIONS = (
    ((1, 0), (0, 1)),
    ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5))),
    ((Fraction(5, 13), Fraction(-12, 13)), (Fraction(12, 13), Fraction(5, 13))),
    ((Fraction(8, 17), Fraction(-15, 17)), (Fraction(15, 17), Fraction(8, 17))),
)


def _local_solve_request(rng, p, k):
    """q = diag(1, p^2k), a = diag(1, p^-k) R with R a rational rotation, so
    a^T q a = I; m' = p^2k (the criterion-6 generator)."""
    rot = [[Fraction(x) for x in r] for r in rng.choice(ROTATIONS)]
    q = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(p ** (2 * k))]]
    a = mmul([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1, p**k)]], rot)
    return {"p": p, "m_prime": p ** (2 * k),
            "q": [[_s(x) for x in r] for r in q], "a": [[_s(x) for x in r] for r in a]}


def solve_pool(rng) -> list[dict]:
    pool = []

    def add(stratum, verb, doc):
        pool.append({"stratum": stratum, "verb": verb, "input": doc})

    for D in REAL_FIELDS + IMAG_FIELDS:
        for _ in range(4):
            add(f"bound-D{D}", "degree-bound", _quadfield_instance(rng, D))
    for doc in _split_matrix_instances(rng, 20):
        add("bound-matrix", "degree-bound", doc)
    for p in (3, 5, 7, 11):
        for n in (2, 3, 4):
            for _ in range(2):
                stratum = f"maximal-n{n}-p{p}" if n == 4 else f"maximal-n{n}"
                add(stratum, "maximal-lattice", _maximal_lattice_request(rng, p, n))
    for p in (3, 5, 7, 11):
        for k in (1, 2):
            add("local-solve", "local-solve", _local_solve_request(rng, p, k))
    return pool


# ---------------------------------------------------------------------------
# hecke


HECKE_FIELDS = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 29, 31)


def hecke_pool(rng) -> list[dict]:
    """Ten separated classes per real quadratic field, negatives confirmed
    by the exhaustive witness search at height 3 (all fields) or 10 (the
    first three, each about eight times dearer)."""
    pool = []
    for height, fields in ((3, HECKE_FIELDS), (10, HECKE_FIELDS[:3])):
        for D in fields:
            pool.append({"stratum": f"height-{height}", "verb": "hecke-classes",
                         "args": ["--height", str(height)], "input": {"D": D, "count": 10}})
    rng.shuffle(pool)
    return pool


POOLS = {"forms": forms_pool, "solve": solve_pool, "hecke": hecke_pool}


def generate(workload: str, seed: int) -> list[dict]:
    """The request pool of one workload; identical for identical seeds."""
    rng = random.Random(f"{workload}:{seed}")
    pool = POOLS[workload](rng)
    for i, req in enumerate(pool):
        req["id"] = f"{workload}-{i:03d}"
        req.setdefault("args", [])
    return pool


def dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def record_reference(pool: list[dict]) -> dict:
    """The library's answers at this commit, keyed by request id."""
    from worker import call_cli, load_cli

    main = load_cli()
    refs = {}
    for req in pool:
        code, stdout, err = call_cli(main, req)
        if err is not None:
            raise SystemExit(f"{req['id']}: {err}")
        ref = {"exit": code}
        if req["verb"] == "degree-bound":
            out = json.loads(stdout)
            ref["norm_b"] = out["norm_b"]
            ref["method"] = out["method"]
            if "explored" in out["notes"]:
                ref["explored"] = out["notes"]["explored"]
        elif req["verb"] not in ("maximal-lattice", "local-solve"):
            ref["stdout"] = stdout
        refs[req["id"]] = ref
    return refs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--reference", action="store_true", help="also record reference outputs")
    ap.add_argument("--workload", choices=list(POOLS), action="append")
    args = ap.parse_args(argv)
    os.makedirs(DATA, exist_ok=True)
    for w in args.workload or POOLS:
        pool = generate(w, args.seed)
        with open(os.path.join(DATA, f"{w}.inputs.json"), "w") as fh:
            fh.write(dump({"seed": args.seed, "requests": pool}))
        if args.reference:
            with open(os.path.join(DATA, f"{w}.reference.json"), "w") as fh:
                fh.write(dump(record_reference(pool)))
        print(f"{w}: {len(pool)} requests", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
