import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as hs

from triality8 import linalg as la
from triality8.claims.orbit import _pythagorean_rotation, _random_unit_3form
from triality8.clifford import block, form_to_map, kappa_form
from triality8.exterior import Multivector, apply_linear, blades_of_grade, mask_of
from triality8.orbits import (
    _TRIPLES,
    OrbitClass,
    OrbitError,
    bracket_from_form,
    coeff3,
    gamma,
    is_supersymmetric,
    jac,
    lie_classify,
    orbit_classify,
)
from triality8.scalars import I, ONE, SQRT3, ZERO, Scalar, half
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
# (cos, sin) with cos^2 + sin^2 = 1: Pythagorean angles, then complex ones
_ANGLES = ((Scalar(3) / 5, Scalar(4) / 5), (Scalar(5) / 13, Scalar(-12) / 13),
           (Scalar(20) / 29, Scalar(21) / 29), (Scalar(5) / 4, I * 3 / 4),
           (Scalar(2), I * SQRT3))
_MODELS = (canonical_rho(), e(1, 2, 3), e(1, 2, 3) * (SQRT3 * half()) + e(4, 5, 6) * half(),
           (e(1, 2, 3) + e(1, 4, 5) + e(1, 6, 7) + e(2, 4, 6)) * half())


@hs.composite
def three_forms(draw):
    """Unit, sparse integer, non-unit, rotated (real and complex
    rotations) and complex 3-forms."""
    kind = draw(hs.sampled_from(("unit", "sparse", "nonunit", "rotated", "complex")))
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
    pattern = draw(hs.sampled_from(_COMPLEX_PATTERNS if kind == "complex" else _UNIT_PATTERNS))
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
