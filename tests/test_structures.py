import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as hs

from triality8 import linalg as la
from triality8.clifford import act2_svf, mu
from triality8.exterior import Multivector, indices_of, parse_form, to_vector
from triality8.scalars import CScalar, I, ONE, SQRT3, Scalar
from triality8.structures import (
    L2_MASKS,
    betti,
    c_apply,
    calibration_form,
    c_operator,
    calibration,
    calibration_maxima,
    calibration_sample,
    kaehler_forms,
    l2_form,
    lambda4_split,
    p3,
    PROJECTIONS,
    project2,
    roots,
    sigma_canonical,
    sp_stabilizer_residuals,
    stabilizer,
    stabilizer_cached,
    su2_triple_check,
    weight_eigen_check,
)
from triality8.structures import _det3, _det4, _project2_formula

e = Multivector.blade


def test_canonical_forms(rho, omega):
    assert rho.norm2() == ONE
    assert omega.coeff(1, 2, 3, 4) == Scalar(-6)
    assert omega.star() == omega
    for w in kaehler_forms():
        assert w.contract(omega) == w * 5


def test_stabilizer_dimensions(rho):
    s_psu3 = stabilizer_cached("PSU3")
    s_sp = stabilizer_cached("SP1SP2")
    assert s_psu3.dim == 8
    assert s_sp.dim == 13
    assert stabilizer(Multivector.scalar(ONE)).dim == 28
    # contractions e_i -| rho span the 8-dimensional stabilizer
    vecs = [list(to_vector(e(i).contract(rho), L2_MASKS)) for i in range(1, 9)]
    assert all(s_psu3.contains(v) for v in vecs)
    assert la.rank(la.transpose(vecs)) == 8


def test_sp_stabilizer_equations():
    for v in stabilizer_cached("SP1SP2").basis:
        res = sp_stabilizer_residuals(l2_form(v))
        assert len(res) == 15 and not any(res)


def test_c_complex(rho):
    for k in range(7):
        assert la.is_zero_matrix(la.mat_mul(c_operator(k + 1), c_operator(k)))
    assert tuple(betti()) == (1, 0, 0, 1, 0, 1, 0, 0, 1)
    for m in L2_MASKS:
        alpha = Multivector({m: ONE})
        assert c_apply(alpha) == alpha.act2(rho)


def test_p3_printed_expansions():
    a = e(1, 2, 8)
    p = p3(a)
    assert p == (
        e(1, 2, 8) * 5 + e(3, 4, 5) * SQRT3 + e(3, 6, 7) * SQRT3
        - e(4, 5, 8) * 2 + e(6, 7, 8) * 2
    ) * (ONE / 8)
    assert p3(p) == (
        e(1, 2, 8) * 39 + e(3, 4, 5) * (SQRT3 * 7) + e(3, 6, 7) * (SQRT3 * 7)
        - e(4, 5, 8) * 18 + e(6, 7, 8) * 18
    ) * (ONE / 64)
    assert c_apply(p) == (
        e(1, 2, 4, 5) * (SQRT3 * 7) + e(1, 2, 6, 7) * (SQRT3 * 7)
        - e(1, 4, 6, 8) * 9 - e(1, 5, 7, 8) * 9
        + e(2, 4, 7, 8) * 9 - e(2, 5, 6, 8) * 9
    ) * (ONE / 32)


def test_lambda4_split():
    out, inn = lambda4_split()
    assert (out.dim, inn.dim) == (35, 35)


def test_projections(rho, omega):
    rng = random.Random(7)
    rho_c = rho.complexify()
    for _ in range(3):
        alpha = Multivector(
            {m: Scalar(rng.randint(-3, 3), rng.randint(-1, 1))
             for m in rng.sample(L2_MASKS, 6)}
        )
        a8 = project2(alpha, "psu3_8")
        a20 = project2(alpha, "psu3_20")
        assert a8 + a20 == alpha
        assert project2(a20, "psu3_20") == a20
        assert project2(a8, "psu3_20").is_zero()
        assert stabilizer_cached("PSU3").contains(to_vector(a8, L2_MASKS))
        s3 = project2(alpha, "sp_3")
        s10 = project2(alpha, "sp_10")
        s15 = project2(alpha, "sp_15")
        assert s3 + s10 + s15 == alpha
        assert s3.contract(omega) == s3 * 5
        assert s10.contract(omega) == s10 * (-3)
        assert s15.contract(omega) == s15 * 1
        p10p = project2(alpha, "psu3_10+")
        p10m = project2(alpha, "psu3_10-")
        assert p10p + p10m == a20.complexify()
        for beta, sgn in ((p10p, -1), (p10m, 1)):
            assert beta.act2(rho_c) == (rho_c ^ beta).star() * (I * SQRT3 * sgn)


# random exact 2-forms over Q(r3)[i]: all coefficients real, or all complex
_rationals = hs.fractions(min_value=-3, max_value=3, max_denominator=4)
_reals = hs.builds(Scalar, _rationals, _rationals)
_complexes = hs.builds(CScalar, _reals, _reals)
_two_forms = hs.one_of(*(
    hs.dictionaries(hs.sampled_from(L2_MASKS), c, max_size=10).map(Multivector)
    for c in (_reals, _complexes)
))


def _types(alpha):
    return {m: type(c) for m, c in alpha.terms.items()}


@settings(max_examples=40, deadline=None)
@given(_two_forms)
def test_project2_matches_formulas(alpha):
    """The cached columns, summed over the input's terms, give what the
    defining formulas give on the whole form: the same values and the
    same coefficient types."""
    for sel in PROJECTIONS:
        got, want = project2(alpha, sel), _project2_formula(alpha, sel)
        assert got == want, sel
        assert _types(got) == _types(want), sel


@settings(max_examples=40, deadline=None)
@given(_two_forms)
def test_projection_identities(alpha):
    parts = {sel: project2(alpha, sel) for sel in PROJECTIONS}
    for sel, part in parts.items():
        assert project2(part, sel) == part, sel
    assert parts["psu3_8"] + parts["psu3_20"] == alpha
    assert parts["sp_3"] + parts["sp_10"] + parts["sp_15"] == alpha
    assert parts["psu3_10+"] + parts["psu3_10-"] == parts["psu3_20"].complexify()


@pytest.mark.parametrize("alpha, selector, match", [
    (e(1, 2, 3), "psu3_8", "expects a 2-form"),
    (e(1, 2) + e(3), "sp_3", "expects a 2-form"),
    (e(1, 2), "psu3_7", "unknown selector"),
    (Multivector.zero(), "sp", "unknown selector"),
])
def test_project2_errors(alpha, selector, match):
    with pytest.raises(ValueError, match=match):
        project2(alpha, selector)


def test_sp_stabilizer_is_3_plus_10():
    for v in stabilizer_cached("SP1SP2").basis:
        assert project2(l2_form(v), "sp_15").is_zero()


def test_sigma_maps():
    dets = {}
    for kind, chis in (("PSU3", ("+", "-")), ("SP1SP2", ("+",))):
        stab = stabilizer_cached("SP1SP2" if kind == "SP1SP2" else "PSU3")
        for chi in chis:
            s = sigma_canonical(kind, chi)
            assert s.is_isometry()
            assert mu(s).is_zero()
            assert all(act2_svf(l2_form(v), s).is_zero() for v in stab.basis)
            dets[(kind, chi)] = s.det()
    assert dets[("PSU3", "+")] == ONE
    assert dets[("PSU3", "-")] == -ONE
    assert dets[("SP1SP2", "+")] == -ONE
    # the two special-side determinants must multiply to det of the induced
    # map, which is -1; equal signs are impossible
    assert dets[("PSU3", "+")] * dets[("PSU3", "-")] == -ONE


def test_roots_and_weights():
    assert su2_triple_check()
    for lam in roots("PSU3").extras["lambda"]:
        assert lam.norm2() == Scalar(1) / 4
    for kind in ("PSU3", "SP1SP2"):
        rep = weight_eigen_check(kind)
        for name, evs in rep.items():
            assert all(v is not None for v in evs.values()), (kind, name)


def test_calibrations():
    assert calibration("PSU3", [e(1), e(2), e(3)]) == ONE
    assert calibration("SP1SP2", [e(1), e(2), e(3), -e(4)]) == ONE
    assert calibration_sample("PSU3", 2000) <= 1 + 1e-9
    assert calibration_sample("SP1SP2", 2000) <= 1 + 1e-9


def _minor_det(M):
    """Recursive cofactor determinant: the oracle for the unrolled minors."""
    n = len(M)
    if n == 1:
        return M[0][0]
    if n == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    if n == 3:
        return (
            M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
            - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
            + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0])
        )
    det = 0.0
    for c in range(n):
        minor = [row[:c] + row[c + 1 :] for row in M[1:]]
        det += ((-1) ** c) * M[0][c] * _minor_det(minor)
    return det


def _calibration_sample_oracle(kind, count, seed):
    tau, k = calibration_form(kind)
    terms = [(indices_of(m), c.to_float()) for m, c in tau.terms.items()]
    rng = random.Random(seed)
    best = float("-inf")
    for _ in range(count):
        vecs = []
        for _r in range(k):
            v = [rng.gauss(0.0, 1.0) for _ in range(8)]
            for w in vecs:
                d = sum(a * b for a, b in zip(v, w))
                v = [a - d * b for a, b in zip(v, w)]
            n = sum(a * a for a in v) ** 0.5
            vecs.append([a / n for a in v])
        val = 0.0
        for ix, c in terms:
            val += c * _minor_det([[vec[i - 1] for i in ix] for vec in vecs])
        best = max(best, abs(val))
    return best


def test_calibration_sample_matches_recursive_minors():
    """The unrolled minors give the very floats of the recursive expansion,
    so the calib.bound report string cannot change."""
    rng = random.Random(3)
    for k, det in ((3, _det3), (4, _det4)):
        for _ in range(20):
            vecs = [[rng.gauss(0.0, 1.0) for _ in range(8)] for _ in range(k)]
            for ix in combinations(range(8), k):
                want = _minor_det([[vec[i] for i in ix] for vec in vecs])
                assert det(*vecs, *ix) == want
    for kind in ("PSU3", "SP1SP2"):
        for seed in (1, 20260826, 987654321):
            assert calibration_sample(kind, 200, seed=seed) == \
                _calibration_sample_oracle(kind, 200, seed)


def test_calibration_maxima_matches_per_kind_oracle():
    """One shared Gaussian stream gives each kind the maxima of its own
    stream, whichever kind ends first."""
    for counts in ({"PSU3": 60, "SP1SP2": 60},   # PSU3 ends first
                   {"PSU3": 90, "SP1SP2": 40},   # SP1SP2 ends first
                   {"SP1SP2": 7, "PSU3": 0}):
        for seed in (1, 987654321):
            assert calibration_maxima(counts, seed=seed) == {
                kind: _calibration_sample_oracle(kind, n, seed)
                for kind, n in counts.items()
            }
