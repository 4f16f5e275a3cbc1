"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from polarith.degree_bound import (
    BoundInstance,
    brute_force_oracle,
    quadfield_instance,
    solve_commutative,
    verify_result,
)
from polarith.exact import (
    REAL_PLACE,
    hasse_invariant,
    hilbert_symbol,
    support_places,
)
from polarith.forms import (
    adjoint_involution,
    diagonalize,
    fourth_power_isometric,
    GramForm,
    invariants,
    is_positive_definite,
    is_positive_involution,
    isometric,
    search_isometry_witness,
    symmetric_form_q,
)
from polarith.lattices_local import (
    PadicLattice,
    is_maximal,
    maximal_completion,
    scale,
    split_local_solve,
    unimodular_isometric,
)
from polarith.linalg import RationalRing, det, identity, mat, mat_mul, transpose
from polarith.quadfield import QuadElem, QuadField

QR = RationalRing()


def _passline(n, text):
    print(f"[PASS] criterion {n}: {text}")


def _rand_pos_def(rng, n, shift_max=3):
    # U^T U + diagonal boost; entries stay within [-n, n + shift_max]
    u = [[Fraction(rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)]
    g = [[sum(u[k][i] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    for i in range(n):
        g[i][i] += rng.randint(1, shift_max)
    return symmetric_form_q(g)


def _rand_unimodular(rng, n, bound=2, steps=None):
    m = identity(n)
    for _ in range(steps or 3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = Fraction(rng.randint(-bound, bound))
            for r in range(n):
                m[r][i] += c * m[r][j]
    return m


def test_criterion_1_fourth_power_theorem():
    """100 seeded random positive definite pairs (dim <= 6, entries <= 20):
    fourth powers isometric with verified certificates, 100/100; >= 30 base
    pairs non-isometric; < 30 s."""
    t0 = time.monotonic()
    rng = random.Random(20260809)
    ok = 0
    non_isometric = 0
    for _ in range(100):
        n = rng.randint(1, 6)
        f1 = _rand_pos_def(rng, n)
        f2 = _rand_pos_def(rng, n)
        assert all(abs(x) <= 20 for row in f1.gram for x in row)
        assert all(abs(x) <= 20 for row in f2.gram for x in row)
        if not isometric(f1, f2):
            non_isometric += 1
        good, cert = fourth_power_isometric(f1, f2)
        assert good, "fourth powers must be isometric"
        assert cert["invariants_match"] and cert["hasse_trivial"] and cert["sum_rule_checked"]
        ok += 1
    elapsed = time.monotonic() - t0
    assert ok == 100
    assert non_isometric >= 30
    assert elapsed < 30, f"runtime {elapsed:.1f}s exceeds 30s"
    _passline(1, f"fourth powers isometric 100/100 ({non_isometric} base pairs non-isometric, {elapsed:.1f}s)")


def test_criterion_2_reciprocity_and_sum_rule():
    """500 seeded (a, b): product of Hilbert symbols over the support is +1;
    200 form pairs obey the Hasse direct-sum rule at every supported place."""
    rng = random.Random(987)
    for _ in range(500):
        a = Fraction(rng.randint(-80, 80), rng.randint(1, 30))
        b = Fraction(rng.randint(-80, 80), rng.randint(1, 30))
        if a == 0 or b == 0:
            a, b = Fraction(3), Fraction(5)
        prod_v = 1
        for v in support_places(a, b):
            prod_v *= hilbert_symbol(a, b, v)
        assert prod_v == 1, (a, b)
    for _ in range(200):
        phi = [Fraction(rng.choice([x for x in range(-9, 10) if x])) for _ in range(rng.randint(1, 3))]
        psi = [Fraction(rng.choice([x for x in range(-9, 10) if x])) for _ in range(rng.randint(1, 3))]
        dphi = Fraction(1)
        for x in phi:
            dphi *= x
        dpsi = Fraction(1)
        for x in psi:
            dpsi *= x
        for v in support_places(*(phi + psi)):
            assert hasse_invariant(phi + psi, v) == hasse_invariant(phi, v) * hasse_invariant(
                psi, v
            ) * hilbert_symbol(dphi, dpsi, v)
    _passline(2, "Hilbert reciprocity 500/500 and Hasse sum rule 200/200, zero failures")


def test_criterion_3_isometry_oracle_equivalence():
    """All nonsingular symmetric forms of dim <= 2 with entries in [-3, 3]
    (and a seeded dim-3 sample): wherever the height-3 witness search is
    conclusive (finds a witness) `isometric` agrees; and no invariant-equal
    pair has a witness in one direction only."""
    rng = random.Random(5150)
    forms = []
    for d in (-3, -2, -1, 1, 2, 3):
        forms.append(symmetric_form_q([[d]]))
    # all nonsingular dim-2 forms with entries in [-3, 3]
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                f = symmetric_form_q([[a, b], [b, c]])
                if f.is_nonsingular():
                    forms.append(f)
    # dim 3 is sampled (the full cube is out of desk scale for witness runs)
    three_dim = []
    while len(three_dim) < 40:
        entries = [rng.randint(-3, 3) for _ in range(6)]
        g = [
            [entries[0], entries[1], entries[2]],
            [entries[1], entries[3], entries[4]],
            [entries[2], entries[4], entries[5]],
        ]
        f = symmetric_form_q(g)
        if f.is_nonsingular():
            three_dim.append(f)
    forms.extend(three_dim)

    # group by invariants within each dimension
    groups: dict[tuple, list] = {}
    for f in forms:
        inv = invariants(f)
        key = (
            inv.dim,
            inv.det_class,
            tuple(inv.hasse_minus_places()),
            tuple(inv.signatures[0]),
        )
        groups.setdefault(key, []).append(f)

    conclusive = 0
    checked_pairs = 0
    asymmetric_searches = 0
    for key, members in groups.items():
        rep = members[0]
        for other in members[1:4]:
            checked_pairs += 1
            w_fwd = search_isometry_witness(rep, other, 3)
            w_bwd = search_isometry_witness(other, rep, 3)
            for w, src, dst in ((w_fwd, rep, other), (w_bwd, other, rep)):
                if w is not None:
                    conclusive += 1
                    assert isometric(src, dst), "witness exists but isometric said no"
                    assert src.transform(w).gram == dst.gram
            # no one-directional case: a found witness must invert to an
            # exact witness of the other direction (the bounded search may
            # miss it only because the inverse exceeds the height)
            if (w_fwd is None) != (w_bwd is None):
                asymmetric_searches += 1
                w, src, dst = (w_fwd, rep, other) if w_fwd is not None else (w_bwd, other, rep)
                from polarith.linalg import inverse as _inv

                w_rev = _inv(w)
                assert dst.transform(w_rev).gram == src.gram, (
                    "one-directional witness does not invert"
                )
    # cross-class sampled checks: witness search must fail on non-isometric
    keys = sorted(groups.keys(), key=str)
    cross = 0
    for _ in range(40):
        k1, k2 = rng.sample(range(len(keys)), 2)
        f1 = groups[keys[k1]][0]
        f2 = groups[keys[k2]][0]
        if f1.dim != f2.dim:
            continue
        cross += 1
        assert not isometric(f1, f2)
        assert search_isometry_witness(f1, f2, 3) is None
    assert conclusive >= 20
    _passline(
        3,
        f"isometry/oracle agreement on {checked_pairs} invariant-equal pairs "
        f"({conclusive} conclusive, {asymmetric_searches} inverses exceeding the height, "
        f"all inverted exactly) and {cross} cross-class pairs",
    )


def test_criterion_4_maximal_lattices():
    """50 seeded integral forms over p in {3, 5, 7}: completions contain
    their input and are maximal; completions of two independent random
    sublattices are unimodular-isometric after scale normalization, 50/50."""
    rng = random.Random(4242)
    done = 0
    for trial in range(50):
        p = (3, 5, 7)[trial % 3]
        n = rng.choice([2, 3])
        u = _rand_unimodular(rng, n)
        diag = [rng.choice([x for x in range(1, 10) if x % p]) for _ in range(n)]
        g = mat_mul(
            mat_mul(transpose(u), mat([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])),
            u,
        )
        form = symmetric_form_q(g)
        completions = []
        for _ in range(2):
            s = _rand_unimodular(rng, n)
            dd = mat([[p ** rng.randint(0, 2) if i == j else 0 for j in range(n)] for i in range(n)])
            sub = mat_mul(s, dd)
            L = PadicLattice(p, sub, form)
            out = maximal_completion(L, 0)
            assert out.contains(L), "completion must contain its input"
            assert is_maximal(out), "completion must be maximal"
            completions.append(out)
        g1, g2 = completions[0].gram(), completions[1].gram()
        s1, s2 = scale(completions[0]), scale(completions[1])
        assert s1 == s2
        scale_fix = Fraction(1, p**s1)
        g1n = [[x * scale_fix for x in row] for row in g1]
        g2n = [[x * scale_fix for x in row] for row in g2]
        assert unimodular_isometric(g1n, g2n, p), "completions must be isometric"
        done += 1
    assert done == 50
    _passline(4, "maximal completions contain input, are maximal, and pair up isometric 50/50")


def test_criterion_5_degree_bound_commutative():
    """>= 25 instances over Q(sqrt5), Q(sqrt2), Q(sqrt13), Nm(q) <= 10^4:
    verified results, per-field achieved constant finite and reported, and
    the oracle confirms a solution at or below the solver's norm; < 60 s."""
    t0 = time.monotonic()
    rng = random.Random(1337)
    per_field_c2: dict[int, Fraction] = {}
    total = 0
    for D in (5, 2, 13):
        F = QuadField(D)
        count = 0
        attempts = 0
        while count < 9 and attempts < 200:
            attempts += 1
            z = QuadElem(F, Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
            if z.is_zero() or z.norm() == 0:
                continue
            n0 = rng.choice([1, 2, 3, 5, 6, 7])
            q = z * z * n0
            if not q.is_integral() or abs(q.norm()) > 10**4:
                continue
            base = quadfield_instance(D, (1, 0), (1, 0))
            try:
                inst = BoundInstance(base.order, (q,), (z.inv(),))
            except Exception:
                continue
            res = solve_commutative(inst)
            verify_result(inst, res)
            # ratio^2 = Nm(b)^2 / Nm(q)^3 for d = 2
            c2 = res.achieved_ratio_squared
            per_field_c2[D] = max(per_field_c2.get(D, Fraction(0)), c2)
            oracle = brute_force_oracle(inst, res.norm_b)
            assert oracle is not None, "oracle must find a solution at or below the solver norm"
            assert oracle.norm_b <= res.norm_b
            count += 1
            total += 1
        assert count >= 9, f"could not build enough instances over D={D}"
    elapsed = time.monotonic() - t0
    assert total >= 25
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 60s"
    report = {D: str(c2) for D, c2 in per_field_c2.items()}
    _passline(5, f"{total} verified instances; per-field c^2 = {report} ({elapsed:.1f}s)")


def test_criterion_6_local_bound_cp_one():
    """>= 10 split-matrix M_2 instances over p in {3, 5, 7} with non-unit q:
    split_local_solve's local norm obeys Nm_p(b) <= Nm_p(q)^{d - 1/2}
    (checked exactly on squared exponents), 10/10."""
    from polarith.exact import valuation

    rng = random.Random(607)
    rotations = [
        identity(2),
        mat([[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]),
        mat([[Fraction(5, 13), Fraction(-12, 13)], [Fraction(12, 13), Fraction(5, 13)]]),
    ]
    done = 0
    for p in (3, 5, 7):
        for k in (1, 2):
            for rot in rotations:
                if done >= 12:
                    break
                q = mat([[1, 0], [0, p ** (2 * k)]])
                a = mat_mul(mat([[Fraction(1), 0], [0, Fraction(1, p**k)]]), rot)
                aqa = mat_mul(mat_mul(transpose(a), q), a)
                assert aqa == identity(2)
                m_prime = p ** (2 * k)
                b = split_local_solve(q, a, m_prime, p, 12)
                prod_b = mat_mul(mat_mul(transpose(b), q), b)
                assert prod_b == mat([[m_prime, 0], [0, m_prime]])
                assert all(x == 0 or valuation(x, p) >= 0 for row in b for x in row)
                # d = 2, gamma = 1: Nm_p(b)^2 <= Nm_p(q)^3 exactly
                vb = valuation(det(mat(b)), p)
                vq = valuation(det(mat(q)), p)
                assert vq > 0, "instances must have non-unit q"
                assert 2 * vb <= 3 * vq, "local Cor-type bound violated"
                done += 1
    assert done >= 10
    _passline(6, f"local solver bound Nm_p(b) <= Nm_p(q)^{{3/2}} exact on {done}/10+ instances")


def test_criterion_7_hecke_separation():
    """10 pairwise-inequivalent totally positive representatives in Q(sqrt5)
    and Q(sqrt2); negatives confirmed at height 20 by the witness search,
    which reads the zero lines of its binary form instead of testing the
    box, positives carry verified witnesses; < 60 s."""
    t0 = time.monotonic()
    from polarith.hecke_classes import (
        equivalence_witness,
        equivalent,
        exhaustive_witness_search,
        generate_classes,
        rosati_transport_check,
    )

    for D in (5, 2):
        field = QuadField(D)
        reps = generate_classes(field, 10)
        assert len(reps) == 10
        for i in range(10):
            for j in range(10):
                if i == j:
                    w = equivalence_witness(reps[i].q, reps[j].q)
                    assert w is not None
                    n, u = w
                    assert rosati_transport_check(reps[i].q, reps[j].q, u, n)
                elif i < j:
                    assert not equivalent(reps[i], reps[j])
                    assert exhaustive_witness_search(reps[i].q, reps[j].q, 20) is None
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 60s"
    _passline(7, f"10 separated classes in Q(sqrt5) and Q(sqrt2), height-20 confirmed ({elapsed:.1f}s)")


def test_criterion_8_positivity_lemmas():
    """100 seeded positive definite forms: the adjoint involution passes the
    exact trace-positivity test, and psi_q is positive definite for random
    q = b b^dagger, 100/100."""
    rng = random.Random(808)
    done = 0
    for _ in range(100):
        n = rng.choice([1, 2, 3])
        f = _rand_pos_def(rng, n)
        inv = adjoint_involution(f)
        assert is_positive_involution(inv), "adjoint involution of a positive form must be positive"
        while True:
            b = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            if det(b) != 0:
                break
        q = mat_mul(b, inv.apply(b), QR)
        psi_q = GramForm(f.kind, f.ring, mat_mul(f.gram, q, QR))
        assert is_positive_definite(psi_q), "psi_q must be positive definite"
        done += 1
    assert done == 100
    _passline(8, "positivity of adjoint involutions and psi_q, 100/100")
