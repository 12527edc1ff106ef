import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as hs

from triality8 import linalg as la
from triality8.claims.orbit import _pythagorean_rotation, _random_unit_3form
from triality8.clifford import block, form_to_map, kappa_form
from triality8.exterior import (
    Multivector, apply_linear, blades_of_grade, indices_of, mask_of,
)
from triality8.orbits import (
    _TRIPLES,
    BracketTable,
    OrbitClass,
    OrbitError,
    _l2_params,
    bracket_from_form,
    gamma,
    is_supersymmetric,
    jac,
    lie_classify,
    orbit_classify,
    supersymmetry_witness,
)
from triality8.scalars import I, ONE, SQRT3, ZERO, CScalar, Scalar, half
from triality8.structures import canonical_rho

e = Multivector.blade


def form_from_bracket(b):
    """The unit-norm 3-form with rho(x,y,z) = g([x,y],z), up to scale."""
    if b.is_zero():
        raise OrbitError("cannot normalize the zero bracket")
    rho = Multivector({mask_of(key): v for key, v in b.c.items()})
    n2 = rho.norm2()
    n = n2.sqrt() if isinstance(n2, Scalar) else None
    if n is None:
        raise OrbitError("norm falls outside the scalar field")
    return rho * n.inverse()


def coeff3(rho, i, j, k):
    """Fully antisymmetric coefficient rho_{ijk} for arbitrary index order."""
    sign, _, mask = _TRIPLES[i, j, k]
    if not sign:
        return ZERO
    c = rho.terms.get(mask, ZERO)
    return c if sign > 0 else -c


def rand3(rng, n=4):
    out = Multivector.zero()
    for _ in range(n):
        out = out + Multivector(
            {rng.choice(blades_of_grade(3)): Scalar(rng.randint(-3, 3))}
        )
    return out


def jac_dense(rho, tau):
    """Jac(rho (x) tau) over all 70 four-index sets, 6 pairings and 8
    contraction indices: the oracle for the sparse jac."""

    def pair(x, y, z, w):
        s = ZERO
        for k in range(1, 9):
            r = coeff3(rho, x, y, k)
            if r:
                t = coeff3(tau, z, w, k)
                if t:
                    s = s + r * t
        return s

    sixth = ONE / 6
    out = {}
    for a, b, c, d in combinations(range(1, 9), 4):
        v = (
            pair(a, b, c, d)
            + pair(a, c, d, b)
            + pair(a, d, b, c)
            + pair(b, c, a, d)
            + pair(b, d, c, a)
            + pair(c, d, a, b)
        )
        if v:
            out[mask_of((a, b, c, d))] = v * sixth
    return Multivector(out)


def test_jac_matches_dense_oracle(rho):
    rng = random.Random(19)
    units = [_random_unit_3form(rng) for _ in range(200)]
    for r in units:
        assert jac(r, r) == jac_dense(r, r)
    models = [rho, e(1, 2, 3) * (SQRT3 * half()) + e(4, 5, 6) * half()]
    models += [apply_linear(_pythagorean_rotation(rng), rho) for _ in range(2)]
    pairs = list(zip(units[:40], units[40:80]))
    pairs += [(rand3(rng, 6), rand3(rng, 6)) for _ in range(40)]
    pairs += [(f, g) for f in models for g in models + [rand3(rng) * I] if f is not g]
    nonzero = 0
    for r, t in pairs:
        got = jac(r, t)
        assert got == jac_dense(r, t)
        nonzero += not got.is_zero()
    assert nonzero > len(pairs) // 2


def test_jac_anchors(rho):
    assert jac(e(1, 2, 3), e(1, 2, 3)).is_zero()
    assert jac(rho, rho).is_zero()
    bad = e(1, 2, 3) + e(1, 4, 5)
    assert not jac(bad, bad).is_zero()


def test_gamma_identity_on_models(rho):
    Id8 = la.identity(8)
    for ch in "+-":
        assert la.mat_eq(gamma(rho, rho, ch).matrix, Id8)
        assert la.mat_eq(gamma(e(1, 2, 3), e(1, 2, 3), ch).matrix, Id8)


def test_gamma_matches_full_product(rho):
    """gamma against the chirality block of the 16x16 product."""
    rng = random.Random(29)
    forms = [rho, apply_linear(_pythagorean_rotation(rng), rho), rand3(rng) * I]
    forms += [rand3(rng) for _ in range(8)] + [_random_unit_3form(rng) for _ in range(8)]
    for _ in range(20):
        r, t = rng.choice(forms), rng.choice(forms)
        M = la.mat_mul(kappa_form(r), kappa_form(t))
        for ch in "+-":
            assert la.mat_eq(gamma(r, t, ch).matrix, block(M, ch, ch))


def test_gamma_transpose_law():
    rng = random.Random(2)
    for _ in range(10):
        r, t = rand3(rng), rand3(rng)
        for ch in "+-":
            assert la.mat_eq(
                la.transpose(gamma(r, t, ch).matrix), gamma(t, r, ch).matrix
            )


def _isometry_dense(rho):
    """M^T M = Id through the full product of the dense block M of rho:
    the oracle for is_supersymmetric."""
    M = form_to_map(rho).matrix
    return la.mat_eq(la.mat_mul(la.transpose(M), M), la.identity(8))


def _givens(i, j, c, s):
    G = la.identity(8)
    G[i][i], G[j][j], G[i][j], G[j][i] = c, c, -s, s
    return G


_THREES = blades_of_grade(3)
# coefficient patterns of unit norm on distinct (orthonormal) blades, and
# complex pairs with a^2 + b^2 = 1 in the bilinear form
_UNIT_PATTERNS = (
    (ONE,), (Scalar(3) / 5, Scalar(4) / 5), (SQRT3 * half(), half()),
    (half(),) * 4, (Scalar(2) / 3, Scalar(2) / 3, ONE / 3),
)
_COMPLEX_PATTERNS = ((Scalar(2), I * SQRT3), (Scalar(5) / 4, I * 3 / 4),
                     (Scalar(5) / 4, I * 3 / 8, I * 3 / 8, I * 3 / 8, I * 3 / 8))
# denominators 5 and 2 in one form, and in one complex coefficient: the
# first pattern is not unit, the other two are (c^2 + (i c)^2 = 0 for the
# last two coefficients of the third)
_MIXED_PATTERNS = ((Scalar(3) / 5, SQRT3 * half()),
                   (SQRT3 * 3 / 10, SQRT3 * 2 / 5, half()),
                   (ONE, Scalar(3) / 5 + I * SQRT3 * half(), SQRT3 * half() - I * 3 / 5))
# (cos, sin) with cos^2 + sin^2 = 1: Pythagorean angles, then complex ones
_ANGLES = ((Scalar(3) / 5, Scalar(4) / 5), (Scalar(5) / 13, Scalar(-12) / 13),
           (Scalar(20) / 29, Scalar(21) / 29), (Scalar(5) / 4, I * 3 / 4),
           (Scalar(2), I * SQRT3))
_MODELS = (canonical_rho(), e(1, 2, 3), e(1, 2, 3) * (SQRT3 * half()) + e(4, 5, 6) * half(),
           (e(1, 2, 3) + e(1, 4, 5) + e(1, 6, 7) + e(2, 4, 6)) * half())


@hs.composite
def three_forms(draw):
    """Unit, sparse integer, non-unit, rotated (real and complex
    rotations), complex and mixed-denominator 3-forms."""
    kind = draw(hs.sampled_from(("unit", "sparse", "nonunit", "rotated", "complex",
                                 "mixed")))
    if kind == "sparse":
        terms = draw(hs.dictionaries(hs.sampled_from(_THREES),
                                     hs.integers(-3, 3).map(Scalar), max_size=6))
        return Multivector(terms)
    if kind == "rotated":
        M = la.identity(8)
        for _ in range(draw(hs.integers(1, 3))):
            i, j = draw(hs.lists(hs.integers(0, 7), min_size=2, max_size=2, unique=True))
            M = la.mat_mul(M, _givens(i, j, *draw(hs.sampled_from(_ANGLES))))
        return apply_linear(M, draw(hs.sampled_from(_MODELS)))
    pattern = draw(hs.sampled_from({"complex": _COMPLEX_PATTERNS,
                                    "mixed": _MIXED_PATTERNS}.get(kind, _UNIT_PATTERNS)))
    masks = draw(hs.lists(hs.sampled_from(_THREES), min_size=len(pattern),
                          max_size=len(pattern), unique=True))
    f = Multivector(dict(zip(masks, pattern)))
    if kind == "nonunit":
        f = f * draw(hs.sampled_from((Scalar(2), half(), SQRT3, I)))
    return f


@settings(max_examples=150, deadline=None)
@given(three_forms())
def test_is_supersymmetric_matches_dense_oracle(f):
    assert is_supersymmetric(f) == _isometry_dense(f)


@settings(max_examples=100, deadline=None)
@given(three_forms())
def test_witness_is_none_exactly_when_dense_oracle_holds(f):
    witness = supersymmetry_witness(f)
    assert (witness is None) == _isometry_dense(f)
    if witness is not None and "norm2" in witness:
        assert witness["norm2"] == f.norm2() != ONE
        scale = witness["unit_scale"]
        assert scale is None or scale * scale * witness["norm2"] == ONE


def _gram_coordinates(f):
    """(n, {K: s_K}) with M^T M = n Id + sum_K 2 s_K S_K for the dense block
    M of f, solved from the 64 entries: the oracle for the witness.  S_K is
    the D- -> D- block of kappa(e_K), K the smaller mask of {K, K^c}."""
    ks = sorted(k for k in blades_of_grade(4) if k < 255 ^ k)
    basis = [la.identity(8)]
    basis += [la.mat_scale(block(kappa_form(Multivector({k: ONE})), "-", "-"), Scalar(2))
              for k in ks]
    M = form_to_map(f).matrix
    G = la.mat_mul(la.transpose(M), M)
    A = [[B[r][c] for B in basis] for r in range(8) for c in range(8)]
    x = la.solve(A, [G[r][c] for r in range(8) for c in range(8)])
    n = x[0].re if isinstance(x[0], CScalar) and not x[0].im else x[0]
    return n, dict(zip(ks, x[1:]))


def test_witness_matches_gram_coordinates(rho):
    """The witness's norm2, class and sum are the coordinates of M^T M in
    the basis Id, 2 S_K, and its class is the smallest failing one."""
    rng = random.Random(37)
    forms = [rho, rho * 2, rho.complexify(), rho.complexify() * I, rho.complexify() * 2,
             e(1, 2, 3) * 2,
             e(1, 2, 3) + e(4, 5, 6), e(1, 2, 3) + e(1, 4, 5), Multivector.zero(),
             e(1, 2, 3) * (Scalar(3) / 5) + e(1, 4, 5) * (Scalar(4) / 5)]
    forms += [_random_unit_3form(rng) for _ in range(12)]
    forms += [rand3(rng, rng.randint(1, 6)) for _ in range(8)]
    forms += [Multivector(dict(zip(rng.sample(_THREES, len(p)), p)))
              for p in _COMPLEX_PATTERNS + _MIXED_PATTERNS for _ in range(3)]
    forms += [apply_linear(_givens(0, 5, Scalar(5) / 4, I * 3 / 4), m) for m in _MODELS]
    seen = set()
    for f in forms:
        n, coords = _gram_coordinates(f)
        failing = sorted(k for k, s in coords.items() if s)
        witness = supersymmetry_witness(f)
        if n == ONE and not failing:
            assert witness is None
            continue
        assert ("norm2" in witness) == (n != ONE)
        if n != ONE:
            assert witness["norm2"] == n
            root = witness["unit_scale"]
            if isinstance(n, Scalar) and n.sqrt():
                assert root == n.sqrt().inverse()
            else:
                assert root is None
        assert ("class" in witness) == bool(failing)
        if failing:
            assert witness["class"] == indices_of(failing[0])
            assert witness["sum"] == coords[failing[0]]
        seen.add(tuple(sorted(witness)))
    assert seen == {("class", "sum"), ("norm2", "unit_scale"),
                    ("class", "norm2", "sum", "unit_scale")}


def test_complex_forms_classify(rho):
    z = rho.complexify()
    assert z.is_complex()
    assert orbit_classify(z) == OrbitClass("L1_psu3", "reversing")
    assert supersymmetry_witness(z) is None
    for bad in (z * 2, z * I, z * (ONE + I)):
        assert orbit_classify(bad) == OrbitClass("NotSupersymmetric")
        assert "norm2" in supersymmetry_witness(bad)


def test_is_supersymmetric_sweep_matches_dense_oracle():
    """Both verdicts, on real and complex forms, against the dense oracle."""
    rng = random.Random(31)
    forms = [_random_unit_3form(rng) for _ in range(150)]
    forms += [rand3(rng, rng.randint(1, 6)) for _ in range(40)]
    forms += [f * 2 for f in forms[:10]]
    forms += [apply_linear(_pythagorean_rotation(rng), m) for m in _MODELS for _ in range(2)]
    complex_ = [apply_linear(_givens(0, 5, Scalar(5) / 4, I * 3 / 4), m) for m in _MODELS]
    complex_ += [Multivector(dict(zip(rng.sample(_THREES, len(p)), p)))
                 for p in _COMPLEX_PATTERNS for _ in range(8)]
    verdicts = [_isometry_dense(f) for f in forms + complex_]
    assert [is_supersymmetric(f) for f in forms + complex_] == verdicts
    assert True in verdicts[:len(forms)] and False in verdicts[:len(forms)]
    assert True in verdicts[len(forms):] and False in verdicts[len(forms):]
    with pytest.raises(OrbitError, match="expected a 3-form"):
        is_supersymmetric(e(1, 2))


def test_supersymmetric_requires_unit_norm(rho):
    assert is_supersymmetric(rho)
    assert is_supersymmetric(e(1, 2, 3))
    assert not is_supersymmetric(rho * half())


def test_bracket_round_trip_and_lie_types(rho):
    b = bracket_from_form(rho)
    assert b.jacobi_holds()
    assert lie_classify(b) == (0, 8, True)
    assert lie_classify(bracket_from_form(e(1, 2, 3))) == (5, 3, True)
    assert lie_classify(bracket_from_form(e(1, 2, 3) + e(4, 5, 6))) == (2, 6, True)
    assert form_from_bracket(b) == rho
    assert b.c == {key: rho.coeff(*key) for key in combinations(range(1, 9), 3)
                   if rho.coeff(*key)}
    for bad in (e(1, 2), e(1, 2, 3) + e(1, 2, 3, 4)):
        with pytest.raises(OrbitError, match="expected a 3-form"):
            bracket_from_form(bad)


def test_orbit_classification(rho):
    oc = orbit_classify(rho)
    assert (oc.kind, oc.orientation) == ("L1_psu3", "reversing")
    oc = orbit_classify(e(1, 2, 3))
    assert (oc.kind, oc.orientation) == ("L3_sp1sp2", "preserving")
    oc = orbit_classify(e(1, 2, 3) * (SQRT3 * half()) + e(4, 5, 6) * half())
    assert oc.kind == "L2_su2su2_u1"
    assert oc.params == (Scalar(3) / 4, Scalar(1) / 4)
    assert orbit_classify(e(1, 2, 3) + e(1, 4, 5)).kind == "NotSupersymmetric"
    with pytest.raises(OrbitError):
        orbit_classify(e(1, 2))


def _trace(M):
    return sum((M[r][r] for r in range(len(M))), ZERO)


def killing_form_dense(b):
    """tr(ad_i ad_j) through the 36 products of the dense 8x8 ad matrices:
    the oracle for BracketTable.killing_form."""
    ads = [b.ad(i) for i in range(8)]
    K = la.zeros(8, 8)
    for i in range(8):
        for j in range(i, 8):
            K[i][j] = K[j][i] = _trace(la.mat_mul(ads[i], ads[j]))
    return K


def _same_entries(A, B):
    """Entry for entry equal and of the same type (Scalar or CScalar)."""
    return all(type(x) is type(y) and x == y for ra, rb in zip(A, B) for x, y in zip(ra, rb))


_L2 = e(1, 2, 3) * (SQRT3 * half()) + e(4, 5, 6) * half()


def test_killing_form_matches_ad_products(rho):
    """K = -2 C C^T equals tr(ad_i ad_j) on real, complex and non-Lie
    brackets, and the sum of the squares of its entries is tr K^2."""
    rng = random.Random(41)
    forms = [rho, e(1, 2, 3), e(1, 2, 3) + e(4, 5, 6), rho.complexify(), _L2.complexify()]
    forms += [apply_linear(_pythagorean_rotation(rng), m) for m in _MODELS for _ in range(2)]
    forms += [apply_linear(_givens(0, 5, Scalar(5) / 4, I * 3 / 4), m) for m in _MODELS]
    forms += [Multivector(dict(zip(rng.sample(_THREES, len(p)), p)))
              for p in _COMPLEX_PATTERNS + _MIXED_PATTERNS for _ in range(2)]
    forms += [_random_unit_3form(rng) for _ in range(100)]
    non_lie = [bracket_from_form(rand3(rng, rng.randint(2, 8))) for _ in range(40)]
    non_lie = [b for b in non_lie if not b.jacobi_holds()]
    assert len(non_lie) >= 10
    brackets = [bracket_from_form(f) for f in forms] + non_lie
    assert any(isinstance(x, CScalar) for b in brackets for x in b.c.values())
    for b in brackets:
        K = b.killing_form()
        assert _same_entries(K, killing_form_dense(b)), b.c
        squares = sum((x * x for row in K for x in row if x), ZERO)
        assert squares == _trace(la.mat_mul(K, K))


def test_l2_params_against_dense_trace():
    """The ideal norms (s^2, t^2) that _l2_params reads from the sum of the
    squares of K solve s^2 + t^2 = 1 and 12 (s^4 + t^4) = tr K^2, with tr K^2
    taken from the ad products."""
    rng = random.Random(43)
    forms = [_L2] + [apply_linear(_pythagorean_rotation(rng), _L2) for _ in range(4)]
    forms += [apply_linear(_givens(1, 4, c, s), _L2) for c, s in _ANGLES[:3]]
    for f in forms:
        b = bracket_from_form(f)
        K = killing_form_dense(b)
        hi, lo = _l2_params(b)
        assert hi + lo == ONE and hi.sign() >= 0 and (hi - lo).sign() >= 0
        assert (hi * hi + lo * lo) * 12 == _trace(la.mat_mul(K, K))
        assert (hi, lo) == (Scalar(3) / 4, Scalar(1) / 4)


def test_complex_l2_forms_classify():
    """tr K^2 of a complex L2 form arrives as a CScalar: a real one gives
    the ideal norms, and one that is not real is refused."""
    want = OrbitClass("L2_su2su2_u1", "preserving", (Scalar(3) / 4, Scalar(1) / 4))
    assert orbit_classify(_L2.complexify()) == orbit_classify(_L2) == want
    # unit under the bilinear norm: (i r3)^2 + 2^2 = 1
    w = e(1, 2, 3) * (I * SQRT3) + e(4, 5, 6) * 2
    assert orbit_classify(w) == OrbitClass("L2_su2su2_u1", "preserving", (Scalar(4), Scalar(-3)))
    # s = 2m/(1 + m^2), t = (1 - m^2)/(1 + m^2) at m = 1 + i: s^4 + t^4 is not real
    m2 = (ONE + I) * (ONE + I)
    v = e(1, 2, 3) * ((ONE + I) * 2 / (m2 + 1)) + e(4, 5, 6) * ((ONE - m2) / (m2 + 1))
    assert is_supersymmetric(v)
    with pytest.raises(OrbitError, match="ideal norms fall outside the scalar field"):
        orbit_classify(v)


def test_killing_form_takes_no_matrix_products(rho, monkeypatch):
    """killing_form and _l2_params read the constants only: they call
    neither la.mat_mul nor BracketTable.ad."""
    rotated = apply_linear(_pythagorean_rotation(random.Random(47)), _L2)
    brackets = [bracket_from_form(f) for f in (rho, rho.complexify(), _L2, rotated)]
    forms = [b.killing_form() for b in brackets]
    params = [_l2_params(b) for b in brackets[2:]]

    def refuse(*args):
        raise AssertionError("matrix product in the Killing form")

    monkeypatch.setattr(la, "mat_mul", refuse)
    monkeypatch.setattr(BracketTable, "ad", refuse)
    for b, K in zip(brackets, forms):
        assert _same_entries(b.killing_form(), K)
    assert [_l2_params(b) for b in brackets[2:]] == params


def test_conjugation_invariance(rho):
    rng = random.Random(5)
    models = [
        rho,
        e(1, 2, 3),
        e(1, 2, 3) * (SQRT3 * half()) + e(4, 5, 6) * half(),
    ]
    refs = [orbit_classify(f) for f in models]
    for n in range(12):
        M = _pythagorean_rotation(rng)
        assert la.mat_eq(la.mat_mul(la.transpose(M), M), la.identity(8))
        f = models[n % 3]
        assert orbit_classify(apply_linear(M, f)) == refs[n % 3]


def test_susy_equivalence_on_unit_forms():
    rng = random.Random(11)
    Id8 = la.identity(8)
    seen = {True: 0, False: 0}
    for _ in range(40):
        r = _random_unit_3form(rng)
        assert r.norm2() == ONE
        j0 = jac(r, r).is_zero()
        g_id = la.mat_eq(gamma(r, r, "+").matrix, Id8) and la.mat_eq(
            gamma(r, r, "-").matrix, Id8
        )
        assert g_id == j0
        assert j0 == bracket_from_form(r).jacobi_holds()
        seen[j0] += 1
    assert seen[True] and seen[False]


def test_jac_jacobi_equivalence_sparse():
    rng = random.Random(13)
    for _ in range(30):
        r = rand3(rng)
        assert jac(r, r).is_zero() == bracket_from_form(r).jacobi_holds()


def jacobi_brute(b):
    """The Jacobi identity on basis triples through three nested brackets:
    the oracle for the index form of BracketTable.jacobi_holds."""
    for i, j, k in combinations(range(8), 3):
        ei, ej, ek = ([ONE if t == u else ZERO for t in range(8)] for u in (i, j, k))
        s = b.bracket(b.bracket(ei, ej), ek)
        s = [x + y for x, y in zip(s, b.bracket(b.bracket(ej, ek), ei))]
        s = [x + y for x, y in zip(s, b.bracket(b.bracket(ek, ei), ej))]
        if any(s):
            return False
    return True


def test_jacobi_index_form_matches_brute_force(rho):
    rng = random.Random(17)
    models = [rho, e(1, 2, 3), e(1, 2, 3) * (SQRT3 * half()) + e(4, 5, 6) * half()]
    forms = models + [e(1, 2, 3) + e(1, 4, 5)]
    forms += [apply_linear(_pythagorean_rotation(rng), models[n % 3]) for n in range(3)]
    forms += [_random_unit_3form(rng) for _ in range(12)]
    forms += [rand3(rng) for _ in range(12)]
    verdicts = [jacobi_brute(bracket_from_form(f)) for f in forms]
    assert [bracket_from_form(f).jacobi_holds() for f in forms] == verdicts
    assert True in verdicts and False in verdicts


def test_orbit_class_hash_agrees_with_eq(rho):
    params = (Scalar(3) / 4, Scalar(1) / 4)
    a = OrbitClass("L2_su2su2_u1", "preserving", params)
    b = OrbitClass("L2_su2su2_u1", "preserving", (Scalar(3) / 4, ONE / 4))
    assert a == b and hash(a) == hash(b)
    assert len({a, b, OrbitClass("NotSupersymmetric")}) == 2
    M = _pythagorean_rotation(random.Random(3))
    ref = orbit_classify(rho)
    got = orbit_classify(apply_linear(M, rho))
    assert got == ref and hash(got) == hash(ref)


def _parity(t):
    """Sign of the permutation sorting t, by counting its cycles."""
    order = sorted(t)
    perm = [order.index(v) for v in t]
    seen, cycles = set(), 0
    for start in range(3):
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = perm[start]
    return 1 if (3 - cycles) % 2 == 0 else -1


def test_triple_sign_table_against_brute_force(rho):
    b = bracket_from_form(rho)
    for t in product(range(1, 9), repeat=3):
        sign, key, mask = _TRIPLES[t]
        assert key == tuple(sorted(t))
        if len(set(t)) < 3:
            assert sign == 0
            assert coeff3(rho, *t) == ZERO and b.coeff(*t) == ZERO
            continue
        assert sign == _parity(t) and mask == mask_of(key)
        assert coeff3(rho, *t) == rho.coeff(*key) * sign
        assert b.coeff(*t) == b.c.get(key, ZERO) * sign
    assert len(_TRIPLES) == 8**3
