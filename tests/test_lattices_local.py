import json
import random
import re
from fractions import Fraction
from itertools import permutations, product
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polarith.lattices_local import (
    LatticeError,
    PadicLattice,
    _cayley_orthogonal_round,
    _first_superlattice,
    _kernel_points,
    _reduce_to_standard,
    _represent_one,
    _sign_charts,
    _sqrt_mod_pk,
    check_local_solve,
    is_maximal,
    maximal_completion,
    scale,
    solve_after_check,
    split_local_solve,
    unimodular_congruence_witness,
    unimodular_isometric,
    unit_case_parity,
)
from polarith import lattices_local
from polarith.cli import main
from polarith.exact import lift_root, valuation
from polarith.forms import diagonalize, symmetric_form_q
from polarith.linalg import (
    det,
    identity,
    inverse,
    kernel_mod_p,
    mat,
    mat_add,
    mat_mul,
    mat_scale,
    numerators,
    transpose,
)


def diag_form(*entries):
    n = len(entries)
    return symmetric_form_q(
        [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )


def lattice(p, basis, form):
    return PadicLattice(p, mat(basis), form)


def rand_unimodular_int_matrix(rng, n, bound=3):
    """Random integer matrix with determinant +-1 (product of elementary
    operations)."""
    m = identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = Fraction(rng.randint(-bound, bound))
        for r in range(n):
            m[r][i] += c * m[r][j]
    return m


def test_two_is_refused_only_where_the_theory_is_odd():
    """A lattice takes p = 2 and refuses a non-prime; the routines that
    need 2 invertible refuse p = 2 themselves."""
    lattice(2, identity(2), diag_form(1, 1))
    with pytest.raises(LatticeError):
        lattice(9, identity(2), diag_form(1, 1))
    q, a = identity(2), identity(2)
    with pytest.raises(LatticeError, match="p = 2"):
        split_local_solve(q, a, 1, 2)
    with pytest.raises(LatticeError, match="p = 2"):
        unit_case_parity(q, a, 2, 12)
    with pytest.raises(LatticeError):
        unimodular_isometric(q, q, 2)
    with pytest.raises(LatticeError, match="p = 2"):
        _reduce_to_standard(q, 2, 12)


def test_scale_examples():
    f = diag_form(1, 1)
    assert scale(lattice(3, [[1, 0], [0, 1]], f)) == 0
    f19 = diag_form(1, 9)
    assert scale(lattice(3, [[1, 0], [0, 1]], f19)) == 0
    assert scale(lattice(3, [[3, 0], [0, 3]], f)) == 2


def test_is_maximal_examples():
    assert is_maximal(lattice(3, [[1, 0], [0, 1]], diag_form(1, 1)))
    assert not is_maximal(lattice(3, [[1, 0], [0, 1]], diag_form(1, 9)))
    assert is_maximal(lattice(5, [[1, 0], [0, 1]], diag_form(2, 3)))


def test_maximal_completion_examples():
    L = lattice(3, [[1, 0], [0, 1]], diag_form(1, 9))
    out = maximal_completion(L, 0)
    assert out.contains(L)
    assert is_maximal(out)
    g = out.gram()
    assert det(g) != 0 and valuation(det(g), 3) == 0  # diag(1,1) class
    assert scale(out) == 0

    already = lattice(3, [[1, 0], [0, 1]], diag_form(1, 1))
    out2 = maximal_completion(already, 0)
    assert out2.equals(already)

    L5 = lattice(5, [[1, 0], [0, 1]], diag_form(1, 25))
    out5 = maximal_completion(L5, 0)
    assert is_maximal(out5) and valuation(det(out5.gram()), 5) == 0


def test_maximal_completion_scale_precondition():
    L = lattice(3, [[1, 0], [0, 1]], diag_form(1, 1))
    with pytest.raises(LatticeError):
        maximal_completion(L, 1)


def test_maximal_completion_refuses_degenerate_form():
    L = lattice(3, [[1, 0], [0, 1]], diag_form(1, 0))
    with pytest.raises(LatticeError, match="degenerate"):
        maximal_completion(L, 0)


def test_unimodular_isometric_examples():
    assert unimodular_isometric([[1, 0], [0, 1]], [[2, 0], [0, 2]], 3)
    assert not unimodular_isometric([[1, 0], [0, 1]], [[1, 0], [0, 2]], 3)
    g = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(7)]]
    assert unimodular_isometric(g, g, 3)
    with pytest.raises(LatticeError):
        unimodular_isometric([[3, 0], [0, 1]], [[1, 0], [0, 1]], 3)


def test_unimodular_congruence_witness():
    u1 = mat([[1, 0], [0, 1]])
    u2 = mat([[2, 0], [0, 2]])
    t = unimodular_congruence_witness(u1, u2, 3, 8)
    prod = mat_mul(mat_mul(transpose(t), u1), t)
    diff = [[prod[i][j] - u2[i][j] for j in range(2)] for i in range(2)]
    for row in diff:
        for x in row:
            assert x == 0 or valuation(x, 3) >= 8


def test_unimodular_congruence_witness_offdiag():
    u1 = mat([[2, 1], [1, 3]])  # det 5... not unimodular at 5; use det unit
    u1 = mat([[2, 1], [1, 4]])  # det 7, unit at 5
    u2 = mat([[1, 0], [0, 7]])
    assert unimodular_isometric(u1, u2, 5)
    t = unimodular_congruence_witness(u1, u2, 5, 6)
    prod = mat_mul(mat_mul(transpose(t), u1), t)
    for i in range(2):
        for j in range(2):
            d = prod[i][j] - u2[i][j]
            assert d == 0 or valuation(d, 5) >= 6


def test_lemma_completion_isometry_random():
    """Two completions from independent random sublattices are
    unimodular-isometric after scale normalization (20+ seeded forms)."""
    rng = random.Random(2024)
    checked = 0
    for p in (3, 5, 7):
        for _ in range(7):
            n = rng.choice([2, 3])
            u = rand_unimodular_int_matrix(rng, n)
            diag = [rng.choice([x for x in range(1, 9) if x % p]) for _ in range(n)]
            g = mat_mul(mat_mul(transpose(u), mat([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])), u)
            form = symmetric_form_q(g)
            subs = []
            for _ in range(2):
                s = rand_unimodular_int_matrix(rng, n)
                dd = [[p ** rng.randint(0, 2) if i == j else 0 for j in range(n)] for i in range(n)]
                subs.append(mat_mul(s, mat(dd)))
            outs = []
            for sub in subs:
                L = PadicLattice(p, sub, form)
                out = maximal_completion(L, 0)
                assert is_maximal(out)
                assert out.contains(PadicLattice(p, sub, form))
                outs.append(out)
            g1, g2 = outs[0].gram(), outs[1].gram()
            s1, s2 = scale(outs[0]), scale(outs[1])
            assert s1 == s2 == 0
            assert unimodular_isometric(g1, g2, p)
            checked += 1
    assert checked >= 20


def test_lemma_stabilizer_maximal():
    """Unimodular symmetric conjugators z in GL_n(Z_p): the standard lattice
    is maximal for the form z."""
    rng = random.Random(7)
    for p in (3, 5, 7):
        for _ in range(5):
            n = rng.choice([2, 3])
            u = rand_unimodular_int_matrix(rng, n)
            diag = [rng.choice([x for x in range(1, 9) if x % p]) for _ in range(n)]
            z = mat_mul(
                mat_mul(transpose(u), mat([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])),
                u,
            )
            form = symmetric_form_q(z)
            L = lattice(p, identity(n), form)
            assert is_maximal(L)


def test_split_local_solve_spec_example():
    q = [[1, 0], [0, 9]]
    a = [[Fraction(1), 0], [0, Fraction(1, 3)]]
    b = split_local_solve(q, a, 9, 3, 10)
    prod = mat_mul(mat_mul(transpose(b), mat(q)), b)
    assert prod == mat([[9, 0], [0, 9]])
    for row in b:
        for x in row:
            assert x == 0 or valuation(x, 3) >= 0
    # Cor 5.6 bookkeeping: |det b|_3^{-1} <= Nm_3(q)^{3/2}
    assert Fraction(3) ** valuation(det(mat(b)), 3) <= Fraction(9) ** Fraction(3, 2)


def test_split_local_solve_identity():
    b = split_local_solve(identity(2), identity(2), 1, 5, 8)
    assert b == identity(2)


def test_split_local_solve_q_scalar():
    q = [[2, 0], [0, 2]]
    b = split_local_solve(q, identity(2), 2, 5, 8)
    assert b == identity(2)


def test_split_local_solve_nontrivial_transport():
    """A case where s*a is not p-integral and the lattice transport runs."""
    q = mat([[1, 0], [0, 9]])
    # a = diag(1, 1/3) * rotation-ish: a^T q a = I still
    rot = mat([[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]])
    a = mat_mul(mat([[Fraction(1), 0], [0, Fraction(1, 3)]]), rot)
    aqa = mat_mul(mat_mul(transpose(a), q), a)
    assert aqa == identity(2)
    b = split_local_solve(q, a, 9, 3, 10)
    prod = mat_mul(mat_mul(transpose(b), q), b)
    assert prod == mat_scale(9, identity(2))
    for row in b:
        for x in row:
            assert x == 0 or valuation(x, 3) >= 0


def test_solve_after_check_doubles_the_precision_until_the_rounding_holds():
    """At k = 1 and k = 2 the Cayley rounding of this rotation by 5^-2
    misses an exact p-integral isometry, so the loop doubles k and answers
    at k = 4 with b^T b = I, b 5-integral."""
    q = identity(2)
    a = mat([["-7/25", "24/25"], ["-24/25", "-7/25"]])
    qinv, s = check_local_solve(q, a, Fraction(1), 5)
    with mock.patch.object(lattices_local, "_cayley_orthogonal_round",
                           wraps=lattices_local._cayley_orthogonal_round) as rounding:
        b = solve_after_check(q, a, Fraction(1), 5, 1, qinv, s)
    assert [c.args[2] for c in rounding.call_args_list] == [1, 2, 4]
    assert mat_mul(transpose(b), b) == identity(2)
    assert all(x == 0 or valuation(x, 5) >= 0 for row in b for x in row)


@pytest.mark.parametrize("h, p", [
    (mat([[-1, 0], [0, -1]]), 5),
    (mat([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]), 3),
])
def test_cayley_round_searches_past_the_identity_chart(h, p):
    """An exactly orthogonal h with eigenvalue -1 makes I + h singular, so
    the identity chart is skipped; the search reaches the chart j = h^-1,
    where h j = I, which rounds h to itself."""
    assert _cayley_orthogonal_round(h, p, 4) == h


def _reference_signed_permutations(n):
    """Every determinant-one signed permutation matrix, then a stable sort
    by the entrywise distance from the identity."""
    out = []
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            m = [[Fraction(0)] * n for _ in range(n)]
            for i, pi in enumerate(perm):
                m[pi][i] = Fraction(signs[i])
            if det(m) == 1:
                out.append(m)
    out.sort(key=lambda m: sum(abs(m[i][j] - (i == j)) for i in range(n) for j in range(n)))
    return out


def _is_diagonal(m):
    return all(x == 0 for i, row in enumerate(m) for j, x in enumerate(row) if i != j)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sign_charts_are_the_diagonal_signed_permutations_in_order(n):
    assert list(_sign_charts(n)) == [m for m in _reference_signed_permutations(n) if _is_diagonal(m)]


def _special_orthogonal_mod_p(n, p):
    """Every h in SO_n(F_p) for the form I_n, as integer matrices: columns
    of norm 1, pairwise orthogonal mod p, then det h = 1 mod p."""
    units = [v for v in product(range(p), repeat=n) if sum(x * x for x in v) % p == 1]

    def extend(cols):
        if len(cols) == n:
            yield [[cols[c][r] for c in range(n)] for r in range(n)]
            return
        for v in units:
            if all(sum(x * y for x, y in zip(v, c)) % p == 0 for c in cols):
                yield from extend(cols + [v])

    for h in extend([]):
        if (det(mat(h)) - 1) % p == 0:
            yield h


@pytest.mark.parametrize("n, p", [(2, 5), (3, 5), (4, 3)])
def test_sign_charts_suffice_on_special_orthogonal_group(n, p):
    """For every h in SO_n(F_p), the first det-one signed permutation j,
    in the reference order, with det(I + h j) a unit mod p is a sign
    chart: some sign chart is admissible, and it is the one the search
    over all signed permutations would pick."""
    reference = _reference_signed_permutations(n)
    eye = identity(n)
    seen = 0
    for h in _special_orthogonal_mod_p(n, p):
        seen += 1
        first = next(j for j in reference if det(mat_add(eye, mat_mul(h, j))) % p)
        assert _is_diagonal(first)
    assert seen == {(2, 5): 4, (3, 5): 120, (4, 3): 576}[(n, p)]


def test_split_local_solve_rejects_nonsquare_ratio():
    with pytest.raises(LatticeError):
        split_local_solve(identity(2), identity(2), 7, 3, 8)


def test_unit_case_parity_examples():
    case, _ = unit_case_parity(identity(2), mat_scale(3, identity(2)), 3, 8)
    assert case == "even-valuation"
    case2, b = unit_case_parity(mat([[1, 0], [0, 1]]), identity(2), 3, 8)
    assert case2 == "even-valuation"
    # odd valuation forces a witness path: a^T q a = 3 * I with q ~ I
    # q = diag(1, 1), a = antidiagonal sqrt-3-ish is impossible rationally;
    # instead check the dichotomy on q = diag(2,2), m = 2 (v odd at 2? no: use p=5)
    q = mat([[5, 0], [0, 5]])
    # q not unimodular: rejected
    with pytest.raises(LatticeError):
        unit_case_parity(q, identity(2), 5, 8)


def test_unit_case_parity_witness_branch():
    # p = 5: q = diag(2, 2): det 4 square unit; a with a^T q a = 10*I:
    # v_5(10) odd -> witness branch must produce b with b^T q b = I mod 5^k
    q = mat([[2, 0], [0, 2]])
    # a = sqrt(5) * rotation is irrational; use a = [[1,2],[-2,1]] -> a^T q a = 10 I
    a = mat([[1, 2], [-2, 1]])
    aqa = mat_mul(mat_mul(transpose(a), q), a)
    assert aqa == mat_scale(10, identity(2))
    case, b = unit_case_parity(q, a, 5, 8)
    assert case == "isometry-witness"
    prod = mat_mul(mat_mul(transpose(b), q), b)
    for i in range(2):
        for j in range(2):
            d = prod[i][j] - (1 if i == j else 0)
            assert d == 0 or valuation(d, 5) >= 8


def test_unit_case_parity_matches_square_class_analysis():
    """Square-class analysis cross-check.  For q = diag(1, 2) at p = 3 the
    determinant 2 is a non-residue, so q is not equivalent to a scalar
    multiple of the identity over Q_3 and NO a can satisfy a^T q a = m * I:
    the dichotomy's hypothesis is empty.  For q = diag(2, 2) (det a square
    unit) multipliers exist and their 3-adic valuation is always even, so
    the even-valuation branch must fire on every brute-force instance."""
    q_bad = mat([[1, 0], [0, 2]])
    for x00 in range(-3, 4):
        for x01 in range(-3, 4):
            for x10 in range(-3, 4):
                for x11 in range(-3, 4):
                    a = mat([[x00, x01], [x10, x11]])
                    aqa = mat_mul(mat_mul(transpose(a), q_bad), a)
                    d = aqa[0][0]
                    if d != 0 and aqa == mat_scale(d, identity(2)):
                        raise AssertionError(f"obstruction violated by {a}")
    q = mat([[2, 0], [0, 2]])
    found = 0
    for x in range(-3, 4):
        for y in range(-3, 4):
            a = mat([[x, -y], [y, x]])  # scaled rotations: a^T q a = 2(x^2+y^2) I
            aqa = mat_mul(mat_mul(transpose(a), q), a)
            d = aqa[0][0]
            if d != 0 and aqa == mat_scale(d, identity(2)):
                found += 1
                assert valuation(d, 3) % 2 == 0
                case, _ = unit_case_parity(q, a, 3, 6)
                assert case == "even-valuation"
    assert found > 10


def test_unimodular_congruence_witness_3x3_nonresidues():
    """3x3 witnesses exercise the non-residue pairing and the leftover
    non-residue normalization."""
    rng = random.Random(11)
    for p in (3, 5, 7):
        for _ in range(6):
            u = rand_unimodular_int_matrix(rng, 3)
            diag = [rng.choice([x for x in range(1, 12) if x % p]) for _ in range(3)]
            g1 = mat_mul(
                mat_mul(transpose(u), mat([[diag[i] if i == j else 0 for j in range(3)] for i in range(3)])),
                u,
            )
            # partner with matching determinant square class
            from polarith.exact import legendre, unit_residue

            d1 = det(g1)
            target = [1, 1, 1]
            if legendre(unit_residue(d1, p), p) == -1:
                nu = next(x for x in range(2, p) if legendre(x, p) == -1)
                target[2] = nu
            g2 = mat([[target[i] if i == j else 0 for j in range(3)] for i in range(3)])
            assert unimodular_isometric(g1, g2, p)
            t = unimodular_congruence_witness(g1, g2, p, 7)
            prod = mat_mul(mat_mul(transpose(t), g1), t)
            for i in range(3):
                for j in range(3):
                    dd = prod[i][j] - g2[i][j]
                    assert dd == 0 or valuation(dd, p) >= 7, (p, g1)


def test_split_local_solve_nondiagonal_q():
    rng = random.Random(5)
    p = 3
    for _ in range(5):
        u = rand_unimodular_int_matrix(rng, 2)
        from polarith.linalg import inverse

        q = mat_mul(mat_mul(transpose(u), mat([[1, 0], [0, p**2]])), u)
        a = mat_mul(inverse(u), mat([[1, 0], [0, Fraction(1, p)]]))
        aqa = mat_mul(mat_mul(transpose(a), q), a)
        assert aqa == identity(2)
        b = split_local_solve(q, a, p**2, p, 10)
        prod = mat_mul(mat_mul(transpose(b), q), b)
        assert prod == mat_scale(p**2, identity(2))
        for row in b:
            for x in row:
                assert x == 0 or valuation(x, p) >= 0


def test_unimodular_classification_against_modp_oracle():
    """For p odd, unimodular forms over Z_p are isometric iff their mod-p
    reductions are GL_n(F_p)-congruent (Hensel lifts the congruence).  The
    oracle enumerates T over GL_2(F_p)."""
    from itertools import product as iproduct
    from polarith.exact import unit_residue

    rng = random.Random(99)
    for p in (3, 5):
        pairs = 0
        while pairs < 8:
            d1 = [rng.choice([x for x in range(1, p * 2) if x % p]) for _ in range(2)]
            d2 = [rng.choice([x for x in range(1, p * 2) if x % p]) for _ in range(2)]
            u1 = mat([[d1[0], 0], [0, d1[1]]])
            u2 = mat([[d2[0], 0], [0, d2[1]]])
            claim = unimodular_isometric(u1, u2, p)
            found = False
            for entries in iproduct(range(p), repeat=4):
                t = [[entries[0], entries[1]], [entries[2], entries[3]]]
                dt = (t[0][0] * t[1][1] - t[0][1] * t[1][0]) % p
                if dt == 0:
                    continue
                ok = True
                prod_m = mat_mul(mat_mul(transpose(mat(t)), u1), mat(t))
                for i in range(2):
                    for j in range(2):
                        if (int(prod_m[i][j]) - int(u2[i][j])) % p != 0:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    found = True
                    break
            assert claim == found, (p, d1, d2)
            pairs += 1


# ---------------------------------------------------------------------------
# The integer superlattice scan against its definition


def _reference_scale(gram, p):
    """The scale exponent of a rational Gram, entry by entry: the least
    valuation of a nonzero entry."""
    vals = [valuation(x, p) for row in gram for x in row if x != 0]
    if not vals:
        raise LatticeError("zero matrix has no scale")
    return min(vals)


def _reference_exact_gram(basis, form):
    """B^T F B in Fractions."""
    return mat_mul(mat_mul(transpose(basis), form.gram), basis)


def _reference_contains(basis, other, p):
    """The span of the columns of `other` lies in that of `basis` over Z_p:
    the coordinates basis^-1 other are p-integral, in Fractions."""
    return all(x.denominator % p for row in mat_mul(inverse(basis), other) for x in row)


def _reference_superlattice_step(basis, form, p, t):
    """The kernel scan on Fractions: (basis, Gram) of the first index-p
    superlattice of scale >= t, or None; the Gram's numerators over their
    least common denominator, the winner's column and Gram as Fractions."""
    n = len(basis)
    gram = _reference_exact_gram(basis, form)
    g, den = numerators(gram)
    s = t + valuation(den, p)
    diag_mod = p ** max(0, s + 2)
    g_mod_p = [[x // p**s % p if s >= 0 else 0 for x in row] for row in g]
    for v in _kernel_points(kernel_mod_p(g_mod_p, p), p):
        i = v.index(1)
        gv = [sum(g[j][k] * v[k] for k in range(i, n)) for j in range(n)]
        vgv = sum(v[k] * gv[k] for k in range(i, n))
        if vgv % diag_mod:
            continue
        new_basis = [row[:] for row in basis]
        new_gram = [row[:] for row in gram]
        for r in range(n):
            new_basis[r][i] = sum(basis[r][k] * v[k] for k in range(n)) / p
            new_gram[r][i] = new_gram[i][r] = Fraction(gv[r], p * den)
        new_gram[i][i] = Fraction(vgv, p * p * den)
        return new_basis, new_gram
    return None


def _reference_lattice_scale(L):
    """The scale of L off B^T F B in Fractions."""
    return _reference_scale(_reference_exact_gram(L.basis, L.form), L.p)


@st.composite
def _rational_lattice_pair(draw, p):
    """Two lattices L, M in one nondegenerate rational form, n <= 4: Gram
    and basis entries a p^k / d with k in -2..2 and d in {1, 2, p}, so
    entries of positive and negative valuation and denominators divisible
    by p; M is L's basis times such a matrix, so M lies in L in some
    draws."""
    n = draw(st.integers(1, 4))
    entry = st.builds(
        lambda a, k, d: Fraction(a * Fraction(p) ** k, d),
        st.integers(-4, 4),
        st.integers(-2, 2),
        st.sampled_from([1, 2, p]),
    )
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(entry)
    assume(det(g) != 0)
    basis = [[draw(entry) for _ in range(n)] for _ in range(n)]
    assume(det(basis) != 0)
    change = [[draw(st.sampled_from([0, 1, -1, p, Fraction(1, p)])) for _ in range(n)] for _ in range(n)]
    assume(det(change) != 0)
    form = symmetric_form_q(g)
    return PadicLattice(p, basis, form), PadicLattice(p, mat_mul(basis, change), form)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@given(data=st.data(), drop=st.integers(0, 2))
@settings(max_examples=25, deadline=None)
def test_integer_lattice_agrees_with_the_fraction_definitions(p, data, drop):
    """scale, exact_gram, contains and one superlattice step on (N, d) and
    (G, D) agree with the same definitions on Fraction matrices."""
    L, M = data.draw(_rational_lattice_pair(p))
    gram = _reference_exact_gram(L.basis, L.form)
    g, d = L.exact_gram()
    assert [[Fraction(x, d) for x in row] for row in g] == L.gram() == gram
    assert scale(L) == _reference_scale(gram, p)
    assert L.contains(M) == _reference_contains(L.basis, M.basis, p)
    assert M.contains(L) == _reference_contains(M.basis, L.basis, p)
    t = scale(L) - drop
    got, want = _first_superlattice(L, t), _reference_superlattice_step(L.basis, L.form, p, t)
    assert (got is None) == (want is None)
    if got is not None:
        assert (got.basis, got.gram()) == want
        assert scale(got) == _reference_scale(want[1], p) >= t


def _reference_projective_points(p, n):
    """Representatives of P^{n-1}(F_p), first unit coordinate normalized to
    one, in lexicographic order: every point the scan visited before it
    visited only the kernel of G' mod p."""
    for lead in range(n):
        for tail in product(range(p), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + tail


def _reference_superlattices(L):
    """Every index-p superlattice of L as a Fraction lattice, in
    lexicographic order of the residue projective point that defines it."""
    p, n = L.p, L.dim
    for v in _reference_projective_points(p, n):
        i = next(k for k in range(n) if v[k] % p != 0)
        new_basis = [row[:] for row in L.basis]
        w = [sum(L.basis[r][k] * v[k] for k in range(n)) / p for r in range(n)]
        for r in range(n):
            new_basis[r][i] = w[r]
        yield PadicLattice(L.p, new_basis, L.form)


def _reference_first_superlattice(L, t):
    return next((sup for sup in _reference_superlattices(L) if _reference_lattice_scale(sup) >= t), None)


def _reference_is_maximal(L):
    s = _reference_lattice_scale(L)
    for sup in _reference_superlattices(L):
        if _reference_lattice_scale(sup) == s:
            return False
    return True


def _reference_maximal_completion(L, target_scale):
    if _reference_lattice_scale(L) < target_scale:
        raise LatticeError(f"scale {_reference_lattice_scale(L)} is below the requested target {target_scale}")
    current = L
    while (enlarged := _reference_first_superlattice(current, target_scale)) is not None:
        current = enlarged
    return current


@st.composite
def _lattices(draw, p):
    """A lattice in a nondegenerate rational form: Gram entries a p^k / d
    with d in {1, 2, p} (so the Gram has denominators, p among them), basis
    columns integral up to a power of p."""
    n = draw(st.integers(1, 4 if p <= 3 else 3))
    entry = st.builds(
        lambda a, k, d: Fraction(a * p**k, d),
        st.integers(-4, 4),
        st.integers(0, 2),
        st.sampled_from([1, 2, p]),
    )
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(entry)
    if det(g) == 0:
        g = [[g[i][j] + (p if i == j else 0) for j in range(n)] for i in range(n)]
    if det(g) == 0:
        g = identity(n)
    basis = [[Fraction(draw(st.integers(-3, 3))) for _ in range(n)] for _ in range(n)]
    if det(basis) == 0:
        basis = identity(n)
    shifts = [draw(st.integers(-1, 1)) for _ in range(n)]
    basis = [[basis[r][c] * Fraction(p) ** shifts[c] for c in range(n)] for r in range(n)]
    return lattice(p, basis, symmetric_form_q(g))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@given(data=st.data(), drop=st.integers(0, 2))
@settings(max_examples=25, deadline=None)
def test_superlattice_scan_matches_reference(p, data, drop):
    """Same answer as the Fraction definition: the same maximality verdict
    and the same completed basis, for targets at and below the lattice's
    own scale (negative and positive).  The definition does not depend on
    p, so p = 2 is tested alike.  n = 4 only at p <= 3, where the Fraction
    reference stays fast."""
    L = data.draw(_lattices(p))
    assert is_maximal(L) == _reference_is_maximal(L)
    target = scale(L) - drop
    out = maximal_completion(L, target)
    ref = _reference_maximal_completion(L, target)
    assert out.basis == ref.basis
    assert is_maximal(out)


def test_superlattice_scan_fixed_cases():
    """Hand-picked cases for each branch: a positive target, a negative
    scale, a Gram with p in its denominators, n = 1, n = 4 at p = 5, and
    s = t + v_p(den) < 0, where every projective point passes the row test.
    The first step, with its carried Gram, and the whole completion match
    the Fraction definition."""
    cases = [
        (lattice(3, [[3, 0], [0, 3]], diag_form(1, 1)), 2),
        (lattice(5, [[1, 0], [0, 1]], diag_form(Fraction(1, 5), Fraction(1, 125))), -3),
        (lattice(7, [[1, 2, 0], [0, 1, 0], [0, 0, 7]], diag_form(Fraction(2, 7), 49, 3)), -1),
        (lattice(3, [[9]], diag_form(Fraction(1, 2))), 0),
        (lattice(3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], diag_form(1, 9, 27, 81)), 0),
        (lattice(5, identity(4), diag_form(2, 5, 25, 3)), 0),
        (lattice(3, identity(2), diag_form(1, 1)), -1),  # e = 0, s = -1
        (lattice(3, identity(2), diag_form(Fraction(1, 3), 1)), -3),  # e = 1, s = -2
        (lattice(5, identity(3), diag_form(Fraction(2, 5), 5, 25)), -2),  # e = 1, s = -1
        (lattice(5, [[1]], diag_form(25)), 0),
        (lattice(3, [[1]], diag_form(2)), 0),
        (lattice(3, [[1]], diag_form(2)), -1),
        (lattice(7, [[Fraction(1, 7)]], diag_form(Fraction(3, 2))), -4),
    ]
    for L, target in cases:
        got, want = _first_superlattice(L, target), _reference_first_superlattice(L, target)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.basis == want.basis and got.gram() == want.gram()
        assert is_maximal(L) == _reference_is_maximal(L)
        out = maximal_completion(L, target)
        assert out.basis == _reference_maximal_completion(L, target).basis
        assert scale(out) >= target and is_maximal(out) and out.contains(L)


@pytest.mark.parametrize(
    "gram",
    [
        [["1", "0", "0"], ["0", "4", "0"], ["0", "0", "8"]],
        [["2", "1"], ["1", "2"]],
        [["8", "4", "0"], ["4", "6", "2"], ["0", "2", "12"]],
    ],
)
def test_maximal_lattice_verb_answers_at_two(tmp_path, gram):
    """`maximal-lattice` takes p = 2: it answers the Fraction reference
    completion, and the reference scan finds no index-2 superlattice of the
    same scale, as the verb's `maximal: true` says."""
    n = len(gram)
    doc = {
        "p": 2,
        "form": {"kind": "symmetric", "base": {"type": "Q"}, "gram": gram},
        "basis": [[str(int(i == j)) for j in range(n)] for i in range(n)],
    }
    inp, out_path = tmp_path / "in.json", tmp_path / "out.json"
    inp.write_text(json.dumps(doc))
    assert main(["maximal-lattice", str(inp), "-o", str(out_path)]) == 0
    out = json.loads(out_path.read_text())
    assert out["maximal"] is True and out["contains_input"] is True
    form = symmetric_form_q([[Fraction(x) for x in row] for row in gram])
    got = lattice(2, [[Fraction(x) for x in row] for row in out["basis"]], form)
    assert got.basis == _reference_maximal_completion(lattice(2, identity(n), form), 0).basis
    assert _reference_is_maximal(got) and scale(got) == out["scale"] >= 0


@st.composite
def _symmetric_of_low_rank(draw, p, n, rank):
    """A symmetric integer n x n matrix Y^T D Y + p Z with Y of r rows, so
    of rank at most r mod p.  `rank` "zero" forces r = 0 (the matrix is 0
    mod p), "corank-2" forces r = n - 2 (a kernel of dimension >= 2),
    "any" draws r from 0..n."""
    r = draw(st.integers(0, n)) if rank == "any" else {"zero": 0, "corank-2": max(n - 2, 0)}[rank]
    small = st.integers(-p, p)
    y = [[draw(small) for _ in range(n)] for _ in range(r)]
    d = [draw(small) for _ in range(r)]
    g = [[sum(y[k][i] * d[k] * y[k][j] for k in range(r)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] += p * draw(small)
            g[j][i] = g[i][j]
    return g


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("rank", ["zero", "corank-2", "any"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_kernel_points_are_the_filtered_projective_points(p, rank, data):
    """The kernel enumerator yields exactly the projective points that
    G' kills mod p, in the order of the full projective scan."""
    n = data.draw(st.integers(2 if rank == "corank-2" else 1, 4))
    g = data.draw(_symmetric_of_low_rank(p, n, rank))
    kernel = kernel_mod_p(g, p)
    assert len(kernel) >= {"zero": n, "corank-2": 2, "any": 0}[rank]
    want = [
        v for v in _reference_projective_points(p, n)
        if all(sum(x * c for x, c in zip(row, v)) % p == 0 for row in g)
    ]
    assert list(_kernel_points(kernel, p)) == want


@pytest.mark.parametrize("p", [3, 5, 7])
@given(data=st.data(), drop=st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_first_superlattice_matches_projective_scan(p, data, drop):
    """The scan over the kernel picks the same superlattice as the Fraction
    definition over every projective point, and carries its exact Gram.
    The Gram is M p^k / d with M of low rank mod p, so G' mod p has a
    kernel of dimension >= 2 in many draws; a target below the scale
    (drop >= 1) makes G' = 0 mod p, and a drop above scale(L) + e, with e
    the p-part of the Gram's denominator, makes s < 0."""
    n = data.draw(st.integers(1, 4 if p == 3 else 3))
    m = data.draw(_symmetric_of_low_rank(p, n, data.draw(st.sampled_from(["zero", "corank-2", "any"]))))
    if det(m) == 0:
        m = [[x + (p if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(m)]
    assume(det(m) != 0)
    c = Fraction(p) ** data.draw(st.integers(-1, 1)) / data.draw(st.sampled_from([1, 2, p]))
    L = lattice(p, identity(n), symmetric_form_q([[x * c for x in row] for row in m]))
    t = scale(L) - drop
    got, want = _first_superlattice(L, t), _reference_first_superlattice(L, t)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.basis == want.basis
        g, d = got.exact_gram()
        assert got.gram() == want.gram() == [[Fraction(x, d) for x in row] for row in g]


def test_kernel_points_fixed_cases():
    """n = 1, a unit and a zero matrix mod p, and the zero matrix that
    stands for s < 0: every point, in order."""
    assert list(_kernel_points(kernel_mod_p([[0]], 5), 5)) == [(1,)]
    assert list(_kernel_points(kernel_mod_p([[3]], 3), 3)) == [(1,)]
    assert list(_kernel_points(kernel_mod_p([[2]], 3), 3)) == []
    assert list(_kernel_points(kernel_mod_p([[0, 0], [0, 0]], 3), 3)) == [(1, 0), (1, 1), (1, 2), (0, 1)]
    assert list(_kernel_points(kernel_mod_p([[1, 2], [2, 4]], 5), 5)) == [(1, 2)]


# ---------------------------------------------------------------------------
# The shared unit-pivot diagonalization against the p-adic body it replaced


def _reference_p_adic_diagonalize(g, p):
    """(diag, t) with t^T g t = diag, t p-integral with unit determinant,
    for a p-unimodular symmetric g.  Exact rational arithmetic."""
    n = len(g)
    a = [row[:] for row in g]
    t = identity(n)

    def col_op(target, source, c):
        for r in range(n):
            a[r][target] += a[r][source] * c
        for r in range(n):
            a[target][r] += c * a[source][r]
        for r in range(n):
            t[r][target] += t[r][source] * c

    def col_swap(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]
        for r in range(n):
            t[r][i], t[r][j] = t[r][j], t[r][i]

    for k in range(n):
        piv = None
        for i in range(k, n):
            if a[i][i] != 0 and valuation(a[i][i], p) == 0:
                piv = i
                break
        if piv is None:
            found = False
            for i in range(k, n):
                for j in range(k, n):
                    if i != j and a[i][j] != 0 and valuation(a[i][j], p) == 0:
                        col_op(i, j, Fraction(1))
                        found = True
                        break
                if found:
                    break
            if not found:
                raise LatticeError("form is not unimodular at p")
            piv = next(i for i in range(k, n) if a[i][i] != 0 and valuation(a[i][i], p) == 0)
        if piv != k:
            col_swap(k, piv)
        for j in range(k + 1, n):
            if a[k][j] != 0:
                col_op(j, k, -a[k][j] / a[k][k])
    return [a[i][i] for i in range(n)], t


def _outcome(fn, *args):
    try:
        return fn(*args)
    except LatticeError as exc:
        return str(exc)


def _diagonalization_in_reduce(g, p, k):
    """The (diag, t) that `_reduce_to_standard` takes from the shared
    diagonalization for g, or the message of its refusal."""
    seen = []

    def spy(*args):
        seen.append(diagonalize(*args))
        return seen[-1]

    with mock.patch("polarith.lattices_local.diagonalize", spy):
        refusal = _outcome(_reduce_to_standard, g, p, k)
    return seen[0] if seen else refusal


@st.composite
def _p_integral_symmetric(draw, p):
    """Symmetric n x n, n = 1-4, entries a / d with d in {1, 2}; the
    diagonal is multiplied by p in about half the draws, so that no
    diagonal entry is a unit and the pivot comes from a column operation.
    Many draws are not unimodular."""
    n = draw(st.integers(1, 4))
    diag_scale = draw(st.sampled_from([1, p]))
    entry = st.builds(Fraction, st.integers(-2 * p, 2 * p), st.sampled_from([1, 2]))
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = draw(entry) * diag_scale
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(entry)
    return g


@pytest.mark.parametrize("p", [3, 5, 7])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_unit_pivot_diagonalization_matches_reference(p, data):
    """Same (diag, t), or the same refusal, as the p-adic body that
    `lattices_local` carried before it called `forms.diagonalize`."""
    g = data.draw(_p_integral_symmetric(p))
    ref = _outcome(_reference_p_adic_diagonalize, g, p)
    assert _diagonalization_in_reduce(g, p, 6) == ref
    if isinstance(ref, tuple):
        n = len(g)
        diag, t = ref
        assert mat_mul(mat_mul(transpose(t), g), t) == [
            [diag[i] if i == j else 0 for j in range(n)] for i in range(n)
        ]


def test_non_integral_unit_determinant_is_refused():
    """[[1/3, 1], [1, 6]] has determinant 1 but is not 3-integral.  No
    diagonal entry is a 3-adic unit, and v_0 += v_1 makes the (0, 0) entry
    25/3, not a unit either: the shared diagonalization refuses, where the
    old body ended in StopIteration.  `unimodular_isometric` refuses the
    matrix before that, instead of calling it unimodular from its
    determinant."""
    g = mat([[Fraction(1, 3), 1], [1, 6]])
    with pytest.raises(StopIteration):
        _reference_p_adic_diagonalize(g, 3)
    with pytest.raises(LatticeError, match="^form is not unimodular at p$"):
        _reduce_to_standard(g, 3, 12)
    unimodular = r"^forms must be unimodular \(p-integral, unit determinant\)$"
    for pair in ((g, identity(2)), (identity(2), g)):
        with pytest.raises(LatticeError, match=unimodular):
            unimodular_isometric(*pair, 3)
        with pytest.raises(LatticeError, match=unimodular):
            unimodular_congruence_witness(*pair, 3, 12)


@given(
    p=st.sampled_from([3, 5, 7, 11, 13, 31, 59]),
    k=st.sampled_from([1, 2, 3, 5, 12]),
    u=st.integers(1, 10**9),
    v=st.integers(1, 10**9),
)
@settings(max_examples=300, deadline=None)
def test_represent_one_solves_the_binary_unit_form(p, k, u, v):
    """u x^2 + v y^2 = 1 mod p^k, with x or y a unit, for units u and v."""
    if u % p == 0 or v % p == 0:
        u, v = u * p + 1, v * p + 1
    mod = p**k
    x, y = _represent_one(u % mod, v % mod, p, k)
    assert (u * x * x + v * y * y - 1) % mod == 0
    assert x % p or y % p


def _reference_sqrt_mod_pk(u, p, k):
    """`_sqrt_mod_pk` as it was: scan the residues for a root mod p, lift
    min(x, p - x)."""
    for x in range(1, p):
        if (x * x - u) % p == 0:
            return lift_root(0, -u, min(x, p - x), p, k)
    raise LatticeError("not a quadratic residue")


def test_sqrt_mod_pk_matches_residue_scan():
    """Every residue u mod p^2 for the odd primes p < 60, lifted to p^k for
    k = 1..4: the same root as the residue scan, or the same refusal of a
    non-square or a non-unit."""
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
        for u in range(p * p):
            for k in range(1, 5):
                try:
                    want = _reference_sqrt_mod_pk(u, p, k)
                except LatticeError as exc:
                    with pytest.raises(LatticeError, match=str(exc)):
                        _sqrt_mod_pk(u, p, k)
                else:
                    assert _sqrt_mod_pk(u, p, k) == want



# ---------------------------------------------------------------------------
# Library preconditions, and the guards on another routine's answer


def test_superlattice_scan_checks_the_kernel(monkeypatch):
    """A kernel routine that answers the whole space lets the point (1, 2)
    pass the diagonal test of diag(1, 2) at 3 (1 + 2 * 4 = 9) though it
    fails the row test; the re-checked scale catches it."""
    monkeypatch.setattr(lattices_local, "kernel_mod_p",
                        lambda g, p: [[int(i == j) for j in range(len(g))] for i in range(len(g))])
    L = PadicLattice(3, identity(2), symmetric_form_q([[1, 0], [0, 2]]))
    with pytest.raises(LatticeError, match="internal: integer superlattice test disagrees with the Gram"):
        _first_superlattice(L, 0)


def test_completion_checks_the_carried_gram(monkeypatch):
    """A superlattice that carries its parent's (G, D) (a stale update) is
    caught by the final check against B^T F B."""
    real, steps = lattices_local._first_superlattice, []

    def stale(L, t):
        if steps:
            return None
        steps.append(L)
        sup = real(L, t)
        return PadicLattice(sup.p, (sup.num, sup.den), sup.form, (L.gram_num, L.gram_den))

    monkeypatch.setattr(lattices_local, "_first_superlattice", stale)
    L = PadicLattice(3, identity(2), symmetric_form_q([[9, 0], [0, 1]]))
    with pytest.raises(LatticeError, match=re.escape("internal: the carried Gram disagrees with B^T F B")):
        maximal_completion(L, 0)


def test_unimodular_isometric_needs_equal_dimensions():
    assert unimodular_isometric(identity(1), identity(2), 3) is False


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: scale(PadicLattice(3, identity(2), symmetric_form_q([[0, 0], [0, 0]]))),
         "zero matrix has no scale"),
        # 2 is no square mod 3
        (lambda: unimodular_congruence_witness(mat([[1]]), mat([[2]]), 3, 2), "forms are not unimodular-isometric"),
        (lambda: unimodular_congruence_witness(mat([[1]]), mat([[1]]), 3, 0), "precision must be positive"),
        (lambda: unit_case_parity(identity(2), mat([[1, 1], [0, 1]]), 3, 2),
         "a\\^T q a must be a nonzero rational scalar"),
    ],
    ids=["zero-scale", "not-isometric", "precision", "not-scalar"],
)
def test_library_preconditions_refuse(call, message):
    """Preconditions of library entry points that the CLI checks before
    it calls them, or never reaches."""
    with pytest.raises(LatticeError, match=message):
        call()


def test_cayley_round_refuses_when_no_chart_is_integral():
    """h = diag(2, -2) at 3 (h^T h = 4 I = I mod 3, det h = -1 mod 3): I + h
    and I - h both have the non-unit determinant -3, so neither det-one
    chart gives a 3-integral Cayley parameter."""
    with pytest.raises(LatticeError, match="no Cayley chart found"):
        _cayley_orthogonal_round(mat([[2, 0], [0, -2]]), 3, 1)


_ROTATION_25 = mat([["-7/25", "24/25"], ["-24/25", "-7/25"]])


def test_solve_after_check_needs_a_unimodular_completion(monkeypatch):
    """A completion that answers 5 * Lambda_0 (Gram 25 I) is refused."""
    monkeypatch.setattr(lattices_local, "complete_after_check",
                        lambda L, t: PadicLattice(L.p, mat_scale(5, L.basis), L.form))
    q = identity(2)
    qinv, s = check_local_solve(q, _ROTATION_25, Fraction(1), 5)
    with pytest.raises(LatticeError, match="maximal completion did not reach a unimodular Gram"):
        solve_after_check(q, _ROTATION_25, Fraction(1), 5, 4, qinv, s)


def test_solve_after_check_doubles_k_when_no_chart_rounds(monkeypatch):
    """A rounding that finds no chart at k = 4 sends the loop on to k = 8,
    which answers."""
    real, calls = lattices_local._cayley_orthogonal_round, []

    def first_fails(h, p, k):
        calls.append(k)
        if len(calls) == 1:
            raise LatticeError("no Cayley chart found for the orthogonal rounding")
        return real(h, p, k)

    monkeypatch.setattr(lattices_local, "_cayley_orthogonal_round", first_fails)
    q = identity(2)
    qinv, s = check_local_solve(q, _ROTATION_25, Fraction(1), 5)
    b = solve_after_check(q, _ROTATION_25, Fraction(1), 5, 4, qinv, s)
    assert calls == [4, 8]
    assert mat_mul(transpose(b), b) == identity(2)
    assert all(x == 0 or valuation(x, 5) >= 0 for row in b for x in row)


def test_split_local_solve_gives_up_after_five_doublings(monkeypatch):
    """A rounding that always fails is tried at 1, 2, 4, 8 and 16 on the
    rotation by 5^-2, whose bound -min v_5(s a) = 2 the last try passes,
    and the solver says so, naming the bound."""
    calls = []

    def never(h, p, k):
        calls.append(k)
        raise LatticeError("no Cayley chart found for the orthogonal rounding")

    monkeypatch.setattr(lattices_local, "_cayley_orthogonal_round", never)
    message = "orthogonal rounding failed at all precisions up to 16 (the bound -min v_p(s a) is 2)"
    with pytest.raises(LatticeError, match=re.escape(message)):
        split_local_solve(identity(2), _ROTATION_25, 1, 5, precision=1)
    assert calls == [1, 2, 4, 8, 16]


def _rotation(e):
    """The rotation by ((3 + 4i) / 5)^e: orthogonal, with -v_5 of its
    entries e."""
    x, y = 1, 0
    for _ in range(e):
        x, y = 3 * x - 4 * y, 4 * x + 3 * y
    c, s = Fraction(x, 5**e), Fraction(y, 5**e)
    return [[c, -s], [s, c]]


@pytest.mark.parametrize("e, precision, tries", [
    (18, 1, [1, 2, 4, 8, 16, 32]),
    (200, 12, [12, 24, 48, 96, 192, 384]),
])
def test_split_local_solve_doubles_past_five_tries_up_to_the_bound(e, precision, tries):
    """The rounding of the rotation by ((3 + 4i) / 5)^e holds from k = e on:
    below the bound -min v_5(s a) = e after five tries, the solver doubles
    k once more and answers a 5-integral b with b^T b = I."""
    with mock.patch.object(lattices_local, "_cayley_orthogonal_round",
                           wraps=lattices_local._cayley_orthogonal_round) as rounding:
        b = split_local_solve(identity(2), _rotation(e), 1, 5, precision=precision)
    assert [c.args[2] for c in rounding.call_args_list] == tries
    assert mat_mul(transpose(b), b) == identity(2)
    assert all(x == 0 or valuation(x, 5) >= 0 for row in b for x in row)
