import random
from itertools import combinations

import pytest

from triality8 import linalg as la
from triality8.claims.clifford_model import _KAPPA_TABLE
from triality8.claims.orbit import _pythagorean_rotation, _random_unit_3form
from triality8.claims.rho_map import _RHOMAP_TIMES_4, _scal
from triality8.clifford import (
    _blade,
    _oct_mul_raw,
    _pair_classes,
    Spinor,
    SpinorMap,
    blade_apply,
    block,
    form_to_map,
    iota,
    kappa,
    kappa_block,
    kappa_form,
    mu,
    q_adjoint_check,
)
from triality8.exterior import Multivector, blades_of_grade, indices_of
from triality8.scalars import I, ONE, SQRT3, CScalar, Scalar, half

e = Multivector.blade


def _reference_generator(m):
    M = la.zeros(16, 16)
    for s, i, j in _KAPPA_TABLE[m]:
        M[i - 1][j - 1] = Scalar(-s)
        M[j - 1][i - 1] = Scalar(s)
    return M


def test_octonion_algebra():
    rng = random.Random(0)

    def norm2(x):
        return sum(c * c for c in x)

    for _ in range(10):
        x = tuple(rng.randint(-3, 3) for _ in range(8))
        y = tuple(rng.randint(-3, 3) for _ in range(8))
        # composition algebra: N(xy) = N(x)N(y)
        assert norm2(_oct_mul_raw(x, y)) == norm2(x) * norm2(y)


def test_kappa_matches_reference_tables():
    for m in _KAPPA_TABLE:
        assert la.mat_eq(kappa(e(m)), _reference_generator(m)), f"generator {m}"


def test_kappa_form_blades_match_reference_products():
    """Every blade matrix, the empty blade included, equals the dense
    product of the stored reference generators: an oracle that does not
    read the octonion table."""
    for mask in range(256):
        expected = la.identity(16)
        for i in indices_of(mask):
            expected = la.mat_mul(expected, _reference_generator(i))
        got = kappa_form(Multivector({mask: ONE}))
        assert la.mat_eq(got, expected), f"mask {mask:08b}"


CHIRALITY_PAIRS = [(t, s) for t in "+-" for s in "+-"]


def test_kappa_block_matches_dense_block_on_blades():
    for mask in range(256):
        alpha = Multivector({mask: ONE})
        M = kappa_form(alpha)
        for t, s in CHIRALITY_PAIRS:
            assert la.mat_eq(kappa_block(alpha, t, s), block(M, t, s)), (mask, t, s)


def test_kappa_block_matches_dense_block_on_mixed_grades():
    rng = random.Random(21)
    coeffs = [Scalar(2), Scalar(-1) / 3, SQRT3, I, ONE + I * 2]
    for _ in range(40):
        alpha = Multivector.zero()
        for _ in range(rng.randint(1, 12)):
            alpha = alpha + Multivector({rng.randrange(256): rng.choice(coeffs)})
        M = kappa_form(alpha)
        for t, s in CHIRALITY_PAIRS:
            assert la.mat_eq(kappa_block(alpha, t, s), block(M, t, s))


def test_blade_apply_matches_dense_product():
    """The signed-permutation action of one blade equals the kappa_block
    product, for the 8 vectors and the 56 3-blades, every chirality pair,
    on real and complex vectors and matrices with zero entries among them."""
    rng = random.Random(15)
    values = [Scalar(0), Scalar(2), Scalar(-1) / 3, SQRT3, Scalar(1, -2)]

    def entry(complex_):
        x = rng.choice(values)
        return CScalar(x, rng.choice(values)) if complex_ else x

    for complex_ in (False, True):
        v = [entry(complex_) for _ in range(8)]
        M = [[entry(complex_) for _ in range(5)] for _ in range(8)]
        for mask in blades_of_grade(1) + blades_of_grade(3):
            for t, s in CHIRALITY_PAIRS:
                B = kappa_block(Multivector({mask: ONE}), t, s)
                assert blade_apply(mask, t, s, v) == la.mat_vec(B, v), (mask, t, s)
                got = blade_apply(mask, t, s, M)
                assert got == la.mat_mul(B, M), (mask, t, s)
                assert not any(r is m for r in got for m in M)


def _isometry_dense(A):
    """M^T M = Id through the full product: the oracle for is_isometry."""
    return la.mat_eq(la.mat_mul(la.transpose(A.matrix), A.matrix), la.identity(8))


def test_is_isometry_matches_dense_gram(rho):
    rng = random.Random(23)
    forms = [rho, e(1, 2, 3), e(1, 2, 3) * (SQRT3 * half()) + e(4, 5, 6) * half()]
    forms += [rho * half(), e(1, 2, 3) + e(1, 4, 5), e(1, 2, 3) * I, rho * 2]
    forms += [_random_unit_3form(rng) for _ in range(60)]
    verdicts = [_isometry_dense(form_to_map(f)) for f in forms]
    assert [form_to_map(f).is_isometry() for f in forms] == verdicts
    assert True in verdicts and False in verdicts
    for _ in range(10):
        R = _pythagorean_rotation(rng)
        assert SpinorMap(R, "v", "+").is_isometry()
        i, j = rng.randrange(8), rng.randrange(8)
        R[i][j] = R[i][j] + Scalar(1) / 7
        A = SpinorMap(R, "v", "+")
        assert not A.is_isometry() and not _isometry_dense(A)


def _is_signed_permutation(A):
    nonzero = [(r, c, x) for r, row in enumerate(A) for c, x in enumerate(row) if x]
    return (
        len(nonzero) == 8
        and sorted(r for r, _, _ in nonzero) == list(range(8))
        and sorted(c for _, c, _ in nonzero) == list(range(8))
        and all(x in (ONE, -ONE) for _, _, x in nonzero)
    )


def _pair_classes_from_blades():
    """The table of _pair_classes read from the blade permutations: the
    class sign from row 0 of B_I^T B_J against row a - 8 of S_K, where row
    0 of kappa(e_I) has its entry in column a (by fact 2 one row fixes the
    whole product).  The oracle for the table built from index patterns."""
    table = {}
    for m, n in combinations(blades_of_grade(3), 2):
        shared = m & n
        if not shared or shared & (shared - 1):
            continue
        a, s = _blade(m)[0]
        k = min(m ^ n, 255 ^ m ^ n)
        sign = s * _blade(n)[0][1] * _blade(k)[a][1]
        table[m << 8 | n] = table[n << 8 | m] = (k, sign)
    return table


def test_pair_classes_match_blade_oracle():
    """Entry for entry, and 24 pairs of 3-blades in each of the 35 classes
    (the bound behind the slot width of orbits._susy_pass)."""
    table = _pair_classes()
    assert table == _pair_classes_from_blades()
    per_class = {}
    for key, (k, _) in table.items():
        if key >> 8 < key & 255:
            per_class[k] = per_class.get(k, 0) + 1
    assert len(per_class) == 35 and set(per_class.values()) == {24}


def test_pair_classes_facts():
    """The three facts behind orbits.is_supersymmetric, from dense products:
    Q_IJ = B_I^T B_J + B_J^T B_I is nonzero exactly for 3-blades sharing
    one index; then Q_IJ = 2 sign S_K with one signed permutation S_K per
    pair {K, K^c}, K = I xor J (35 classes; S_K is the D- -> D- block of
    kappa(e_K)); and Id, S_1, ..., S_35 have rank 36."""
    threes = blades_of_grade(3)
    B = {m: block(kappa_form(Multivector({m: ONE})), "+", "-") for m in threes}
    table = _pair_classes()
    S = {}
    pairs = 0
    for m, n in combinations(threes, 2):
        pairs += 1
        Q = la.mat_add(la.mat_mul(la.transpose(B[m]), B[n]),
                       la.mat_mul(la.transpose(B[n]), B[m]))
        shares_one = bin(m & n).count("1") == 1
        assert la.is_zero_matrix(Q) != shares_one
        assert (m << 8 | n in table) == shares_one == (n << 8 | m in table)
        if not shares_one:
            continue
        k, sign = table[m << 8 | n]
        assert table[n << 8 | m] == (k, sign)
        assert k in (m ^ n, 255 ^ m ^ n) and k < 255 ^ k
        half_q = la.mat_scale(Q, Scalar(sign) / 2)
        assert la.mat_eq(half_q, S.setdefault(k, half_q))
    assert pairs == 1540 and len(table) == 2 * 840
    assert len(S) == 35
    for k, Sk in S.items():
        assert _is_signed_permutation(Sk)
        assert la.mat_eq(Sk, block(kappa_form(Multivector({k: ONE})), "-", "-"))
    flat = [[x for row in A for x in row] for A in [la.identity(8), *S.values()]]
    assert la.rank(flat) == 36


def test_spinor_map_constructor_copies_its_matrix():
    A = la.identity(8)
    S = SpinorMap(A, "+", "+")
    A[0][0] = Scalar(5)
    assert S.matrix[0][0] == ONE and S.matrix is not A


def test_kappa_is_linear_on_vectors():
    rng = random.Random(8)
    coeffs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(8)]
    x = Multivector({1 << i: Scalar(c) for i, c in enumerate(coeffs)})
    expected = la.zeros(16, 16)
    for i, c in enumerate(coeffs, start=1):
        expected = la.mat_add(expected, la.mat_scale(kappa(e(i)), Scalar(c)))
    assert la.mat_eq(kappa(x), expected)


def test_kappa_rejects_non_vectors():
    with pytest.raises(ValueError, match="grade-1"):
        kappa(e(1, 2))


def test_clifford_relations():
    for i in range(1, 9):
        Ki = kappa(e(i))
        assert la.mat_eq(
            la.mat_mul(Ki, Ki), la.mat_scale(la.identity(16), Scalar(-1))
        )
        for j in range(i + 1, 9):
            Kj = kappa(e(j))
            assert la.is_zero_matrix(
                la.mat_add(la.mat_mul(Ki, Kj), la.mat_mul(Kj, Ki))
            )


def test_volume_form_chirality():
    vol = kappa_form(e(1, 2, 3, 4, 5, 6, 7, 8))
    Id8 = la.identity(8)
    assert la.mat_eq(block(vol, "+", "+"), Id8)
    assert la.mat_eq(block(vol, "-", "-"), la.mat_scale(Id8, Scalar(-1)))
    assert la.is_zero_matrix(block(vol, "+", "-"))
    assert la.is_zero_matrix(block(vol, "-", "+"))


def test_form_to_map_anchor(rho):
    A = form_to_map(rho)
    assert str(A.det()) == "-1"
    R = [[_scal(x) / 4 for x in row] for row in _RHOMAP_TIMES_4]
    assert la.mat_eq(A.matrix, R)
    assert A.is_isometry()


@pytest.mark.parametrize("p,sign", [(1, -1), (2, -1), (3, 1), (4, 1)])
def test_q_adjoint_sign_law(p, sign):
    rng = random.Random(p)
    mv = Multivector.zero()
    for _ in range(3):
        mv = mv + Multivector(
            {rng.choice(blades_of_grade(p)): Scalar(rng.randint(-3, 3))}
        )
    ok, s = q_adjoint_check(mv)
    assert ok and s == sign


def test_mu_iota_identity():
    for chir in ("+", "-"):
        for a in range(8):
            psi = Spinor.basis(chir, a)
            assert mu(iota(psi)) == psi


def test_mu_rank():
    cols = []
    for a in range(8):
        for c in range(8):
            M = la.zeros(8, 8)
            M[a][c] = ONE
            cols.append(list(mu(SpinorMap(M, "v", "+")).coords))
    r = la.rank(la.transpose(cols))
    assert r == 8 and 64 - r == 56
