import random
from itertools import combinations, product

import pytest

from triality8 import linalg as la
from triality8.claims import _pythagorean_rotation, _random_unit_3form
from triality8.exterior import Multivector, apply_linear, blades_of_grade, mask_of
from triality8.orbits import (
    _TRIPLES,
    OrbitClass,
    OrbitError,
    bracket_from_form,
    coeff3,
    form_from_bracket,
    gamma,
    is_supersymmetric,
    jac,
    lie_classify,
    orbit_classify,
)
from triality8.scalars import ONE, SQRT3, ZERO, Scalar, half

e = Multivector.blade


def rand3(rng, n=4):
    out = Multivector.zero()
    for _ in range(n):
        out = out + Multivector(
            {rng.choice(blades_of_grade(3)): Scalar(rng.randint(-3, 3))}
        )
    return out


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


def test_gamma_transpose_law():
    rng = random.Random(2)
    for _ in range(10):
        r, t = rand3(rng), rand3(rng)
        for ch in "+-":
            assert la.mat_eq(
                la.transpose(gamma(r, t, ch).matrix), gamma(t, r, ch).matrix
            )


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
