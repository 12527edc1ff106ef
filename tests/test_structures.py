import random
import tracemalloc
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as hs

from triality8 import linalg as la
from triality8.calibration import (
    calibration,
    calibration_form,
    calibration_maxima,
    calibration_sample,
)
from triality8.clifford import act2_svf, mu
from triality8.exterior import (
    Multivector,
    blades_of_grade,
    from_vector,
    indices_of,
    mask_of,
    parse_form,
    to_vector,
)
from triality8.orbits import bracket_from_form
from triality8.scalars import (
    CScalar,
    Frozen,
    I,
    ONE,
    SQRT3,
    ZERO,
    Scalar,
    complexify,
    half,
    quarter,
)
from triality8.structures import (
    L2_MASKS,
    Subspace,
    betti,
    c_adjoint,
    c_apply,
    c_operator,
    canonical_omega,
    canonical_rho,
    kaehler_forms,
    l2_form,
    p3,
    PROJECTIONS,
    project2,
    projection_columns,
    sigma_canonical,
    sp_stabilizer_residuals,
    stabilizer,
    stabilizer_cached,
)

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


def lambda4_split():
    """(ker of the differential on Lambda^4, image of the adjoint from
    Lambda^5); the natural invariant splitting of Lambda^4, dims (35, 35)."""
    masks = blades_of_grade(4)
    out = Subspace("L4", la.nullspace(c_operator(4)))
    adj = c_adjoint(4)
    cols = [[adj[r][c] for r in range(len(masks))] for c in range(len(blades_of_grade(5)))]
    inn = Subspace("L4", la.column_space_basis(cols))
    return out, inn


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


def _c2_then_adjoint(alpha):
    """c_2^* c_2 alpha through the dense matrices of the complex."""
    v = to_vector(alpha, L2_MASKS)
    w = la.mat_vec(c_operator(2), v)
    u = la.mat_vec(c_adjoint(2), w)
    return from_vector(u, L2_MASKS)


def _project2_formula(alpha, selector):
    """The invariant projections of a 2-form by their defining formulas:
    the oracle for the columns of ``projection_columns``."""
    if selector == "psu3_20":
        return _c2_then_adjoint(alpha) * (Scalar(4) / 3)
    if selector == "psu3_8":
        return alpha - _project2_formula(alpha, "psu3_20")
    if selector in ("psu3_10+", "psu3_10-"):
        # halves of the 20-part picked out by the eigen-identity
        # beta * rho = -+ sqrt(3) i star(rho ^ beta)
        rho = canonical_rho().complexify()
        a = _c2_then_adjoint(alpha) * (Scalar(2) / 3)
        b = (c_apply(alpha).complexify() ^ rho).star() * (SQRT3 * 2 / Scalar(3)) * I
        return a.complexify() + (-b if selector.endswith("+") else b)
    om = canonical_omega()
    a1 = alpha.contract(om)
    a2 = a1.contract(om)
    if selector == "sp_3":
        return (alpha * Scalar(-3) + a1 * 2 + a2) * (ONE / 32)
    if selector == "sp_10":
        return (alpha * 5 - a1 * 6 + a2) * (ONE / 32)
    return (alpha * 15 + a1 * 2 - a2) * (ONE / 16)


def test_projection_columns_match_formulas():
    """The derived columns equal the defining formulas on every basis
    2-form, entry for entry and type for type."""
    for sel in PROJECTIONS:
        cols = projection_columns(sel)
        assert len(cols) == len(L2_MASKS)
        for m, col in zip(L2_MASKS, cols):
            want = _project2_formula(Multivector({m: ONE}), sel)
            assert col == want and _types(col) == _types(want), (sel, m)


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


# -- root and weight data ---------------------------------------------------


class RootData(Frozen):
    __slots__ = ("kind", "torus", "weight_vectors", "extras")

    def __init__(self, kind, torus, weight_vectors, extras):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "torus", torus)
        object.__setattr__(self, "weight_vectors", weight_vectors)
        object.__setattr__(self, "extras", extras)


def _cvec(*pairs):
    """Complex 1-form from (index, CScalar) pairs."""
    return Multivector({mask_of((i,)): complexify(c) for i, c in pairs})


@lru_cache(maxsize=None)
def roots(kind):
    e = Multivector.blade
    one, i_ = ONE, I
    if kind == "PSU3":
        rho = canonical_rho()
        torus = {
            "x3": e(3).contract(rho),
            "x8": e(8).contract(rho),
        }
        wv = {
            "alpha1": _cvec((4, one), (5, -i_)),
            "alpha2": _cvec((6, one), (7, i_)),
            "alpha1+alpha2": _cvec((1, one), (2, -i_)),
        }
        # E_1=e5, F_1=-e4; E_2=-e6, F_2=e7; E_3=e1, F_3=e2
        extras = {
            "E": (e(5), -e(6), e(1)),
            "F": (-e(4), e(7), e(2)),
            "lambda": (
                (e(3) + SQRT3 * e(8)) * quarter(),
                (e(3) - SQRT3 * e(8)) * quarter(),
                e(3) * half(),
            ),
        }
        return RootData(kind, torus, wv, extras)
    if kind == "SP1SP2":
        w_i, _, _ = kaehler_forms()
        torus = {
            "a1": w_i * half(),
            "a2": e(1, 2) + e(3, 4) + e(5, 6) + e(7, 8),
            "a3": e(1, 2) + e(3, 4) - e(5, 6) - e(7, 8),
        }
        wv = {
            "(a+b1)/2": _cvec((5, one), (6, -i_)),
            "(a-b1)/2": _cvec((7, one), (8, i_)),
            "(a+b1)/2+b2": _cvec((1, one), (2, -i_)),
            "(a-b1)/2-b2": _cvec((3, one), (4, i_)),
        }
        return RootData(kind, torus, wv, {})
    raise ValueError(f"unknown kind {kind!r}")


def su2_triple_check():
    """The bracket relations [T,E_i] = lambda_i(T) F_i etc. for the
    distinguished su(2)-triples of the canonical bracket."""
    rd = roots("PSU3")
    b = bracket_from_form(canonical_rho())
    t_basis = (Multivector.blade(3), Multivector.blade(8))
    results = []
    for Ei, Fi, lam in zip(rd.extras["E"], rd.extras["F"], rd.extras["lambda"]):
        ok = True
        for T in t_basis:
            lT = lam.inner(T)
            tE = _bracket_mv(b, T, Ei)
            tF = _bracket_mv(b, T, Fi)
            ok = ok and tE == Fi * lT and tF == -(Ei * lT)
        ok = ok and _bracket_mv(b, Ei, Fi) == lam
        results.append(ok)
    return results


def _bracket_mv(b, x, y):
    xv = [x.coeff(i) for i in range(1, 9)]
    yv = [y.coeff(i) for i in range(1, 9)]
    out = b.bracket(xv, yv)
    return Multivector({1 << i: v for i, v in enumerate(out)})


def weight_eigen_check(kind):
    """Each weight vector is an exact eigenvector of every torus generator
    under the so(8)-action; returns {name: {torus_name: eigenvalue}}, with
    None where a weight vector is not an eigenvector."""
    rd = roots(kind)
    report = {}
    for name, w in rd.weight_vectors.items():
        evs = {}
        for tname, t in rd.torus.items():
            img = t.act2(w)
            pairs = [(img.terms.get(m, ZERO), w.terms.get(m, ZERO))
                     for m in img.terms.keys() | w.terms.keys()]
            try:
                evs[tname] = la.common_ratio(pairs)
            except la.RatioError:
                evs[tname] = None
        report[name] = evs
    return report


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


# The cofactor expansions of calibration_maxima, one set of columns at a
# time: the determinant of the matrix whose rows are u, v, ... restricted
# to the columns i, j, ...  test_calibration_sample_matches_recursive_minors
# checks that they do the float operations of the recursive expansion, in
# its order.


def _det3(u, v, w, i, j, k):
    def m(a, b):
        return v[a] * w[b] - v[b] * w[a]

    return u[i] * m(j, k) - u[j] * m(i, k) + u[k] * m(i, j)


def _det4(u, v, w, x, i, j, k, l):
    return (
        0.0
        + u[i] * _det3(v, w, x, j, k, l)
        - u[j] * _det3(v, w, x, i, k, l)
        + u[k] * _det3(v, w, x, i, j, l)
        - u[l] * _det3(v, w, x, i, j, k)
    )


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
    """The unrolled minors give the very floats of the recursive expansion.
    calib.bound reports ok whenever both maxima are at most 1 + 1e-9 and
    prints them only after FAIL, so its report cannot show a changed
    maximum; this test compares the sampled values bitwise."""
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
        # one sample per seed, so that every value is compared, not only
        # the largest
        for seed in range(200):
            assert calibration_sample(kind, 1, seed=seed) == \
                _calibration_sample_oracle(kind, 1, seed)


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


def test_calibration_maxima_holds_one_block():
    """The Gaussian stream is drawn a block at a time, so the peak of the
    claim's 10,000 samples per kind is within a few KB of that of 10."""
    def peak(n):
        tracemalloc.start()
        try:
            calibration_maxima({"PSU3": n, "SP1SP2": n})
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    calibration_maxima({"PSU3": 10, "SP1SP2": 10})  # fill the form caches
    small, large = peak(10), peak(10000)
    assert large - small < 4096, (small, large)
