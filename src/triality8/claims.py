"""Verification claim registry: every headline exact computation of the
package is wrapped as a named claim with a frozen expected value, so the
whole build can be checked by running the registry and comparing formatted
actual values against expected ones.

Claims are pure and independent; randomized ones take an explicit seed
(fixed default) so runs are reproducible.
"""

from __future__ import annotations

import random
import time

from . import frames as fr
from . import linalg as la
from . import obstructions as ob
from . import torsion as to
from .clifford import (
    Spinor,
    act2_svf,
    block,
    form_to_map,
    iota,
    kappa,
    kappa_form,
    mu,
)
from .exterior import (
    Multivector,
    apply_linear,
    blades_of_grade,
    parse_form,
    to_vector,
)
from .orbits import bracket_from_form, gamma, jac, orbit_classify
from .scalars import Frozen, I, ONE, SQRT3, Scalar
from .structures import (
    L2_MASKS,
    betti,
    c_apply,
    calibration,
    calibration_sample,
    canonical_omega,
    canonical_rho,
    kaehler_forms,
    l2_form,
    p3,
    project2,
    sigma_canonical,
    sp_stabilizer_residuals,
    stabilizer_cached,
)

DEFAULT_SEED = 20260826

e = Multivector.blade


class Claim(Frozen):
    """A named exact check: runner returns a formatted actual value which
    must equal the frozen expected string."""

    __slots__ = ("id", "anchor", "expected", "run", "criteria", "seeded")

    def __init__(self, id, anchor, expected, run, criteria, seeded):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "run", run)
        object.__setattr__(self, "criteria", tuple(criteria))
        object.__setattr__(self, "seeded", bool(seeded))


class ClaimReport(Frozen):
    __slots__ = ("id", "anchor", "status", "expected", "actual", "runtime_ms")

    def __init__(self, id, anchor, status, expected, actual, runtime_ms):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "actual", actual)
        object.__setattr__(self, "runtime_ms", int(runtime_ms))

    def as_dict(self):
        return {
            "id": self.id,
            "anchor": self.anchor,
            "status": self.status,
            "expected": self.expected,
            "actual": self.actual,
            "runtime_ms": self.runtime_ms,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            d["id"], d["anchor"], d["status"], d["expected"], d["actual"],
            d["runtime_ms"],
        )


REGISTRY = {}


def _claim(id, anchor, expected, criteria, seeded=False):
    def wrap(fn):
        if id in REGISTRY:
            raise ValueError(f"duplicate claim id {id!r}")
        REGISTRY[id] = Claim(id, anchor, expected, fn, criteria, seeded)
        return fn

    return wrap


def _verdict(ok, detail=""):
    if ok:
        return "ok"
    return f"FAIL {detail}" if detail else "FAIL"


# -- reference data ---------------------------------------------------------

# Displayed matrices of the eight Clifford generators on Lambda^1 + spinors:
# entries (sign, row, col) of the upper triangle, rows/cols 1..16.
_KAPPA_TABLE = {
    1: [(-1, 1, 9), (-1, 2, 10), (-1, 3, 11), (-1, 4, 12),
        (-1, 5, 13), (-1, 6, 14), (-1, 7, 15), (-1, 8, 16)],
    2: [(1, 1, 10), (-1, 2, 9), (-1, 3, 12), (1, 4, 11),
        (-1, 5, 14), (1, 6, 13), (1, 7, 16), (-1, 8, 15)],
    3: [(1, 1, 11), (1, 2, 12), (-1, 3, 9), (-1, 4, 10),
        (-1, 5, 15), (-1, 6, 16), (1, 7, 13), (1, 8, 14)],
    4: [(1, 1, 12), (-1, 2, 11), (1, 3, 10), (-1, 4, 9),
        (-1, 5, 16), (1, 6, 15), (-1, 7, 14), (1, 8, 13)],
    5: [(1, 1, 13), (1, 2, 14), (1, 3, 15), (1, 4, 16),
        (-1, 5, 9), (-1, 6, 10), (-1, 7, 11), (-1, 8, 12)],
    6: [(1, 1, 14), (-1, 2, 13), (1, 3, 16), (-1, 4, 15),
        (1, 5, 10), (-1, 6, 9), (1, 7, 12), (-1, 8, 11)],
    7: [(1, 1, 15), (-1, 2, 16), (-1, 3, 13), (1, 4, 14),
        (1, 5, 11), (-1, 6, 12), (-1, 7, 9), (1, 8, 10)],
    8: [(1, 1, 16), (1, 2, 15), (-1, 3, 14), (-1, 4, 13),
        (1, 5, 12), (1, 6, 11), (-1, 7, 10), (-1, 8, 9)],
}

# Displayed matrix of the map Lambda^1 -> Lambda^1 induced by the canonical
# 3-form (the stored table is 4x the actual map).
_RHOMAP_TIMES_4 = [
    ["r3", 0, 0, 3, "-r3", 0, 0, 1],
    [2, "-r3", -1, 0, 2, "-r3", -1, 0],
    [0, 3, "-r3", 0, 0, -1, "-r3", 0],
    [-1, 0, 2, "r3", 1, 0, -2, "-r3"],
    ["-r3", 0, 0, 1, "r3", 0, 0, 3],
    [-2, "-r3", -1, 0, -2, "-r3", -1, 0],
    [0, -1, "-r3", 0, 0, 3, "-r3", 0],
    [1, 0, 2, "-r3", -1, 0, -2, "r3"],
]


def _scal(x):
    if x == "r3":
        return SQRT3
    if x == "-r3":
        return -SQRT3
    return Scalar(x)


def _pythagorean_rotation(rng):
    """A random exact rotation: product of rational Givens rotations."""
    pairs = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29)]
    M = la.identity(8)
    for _ in range(4):
        a, b, c = rng.choice(pairs)
        cth, sth = Scalar(a) / c, Scalar(b) / c
        if rng.random() < 0.5:
            sth = -sth
        i, j = rng.sample(range(8), 2)
        G = la.identity(8)
        G[i][i], G[j][j] = cth, cth
        G[i][j], G[j][i] = -sth, sth
        M = la.mat_mul(M, G)
    return M


def _random_unit_3form(rng):
    """A sparse 3-form of exact unit norm (orthonormal-blade patterns)."""
    patterns = [
        (ONE,),
        (Scalar(3) / 5, Scalar(4) / 5),
        (SQRT3 / 2, ONE / 2),
        (ONE / 2, ONE / 2, ONE / 2, ONE / 2),
        (Scalar(2) / 3, Scalar(2) / 3, ONE / 3),
    ]
    coeffs = rng.choice(patterns)
    masks = rng.sample(blades_of_grade(3), len(coeffs))
    terms = {}
    for m, c in zip(masks, coeffs):
        terms[m] = c if rng.random() < 0.5 else -c
    return Multivector(terms)


# -- Clifford model ---------------------------------------------------------


@_claim(
    "clifford.kappa_table",
    "the eight Clifford generator matrices from octonion right-"
    "multiplication equal the stored 16x16 reference tables verbatim",
    "ok", (1,),
)
def _run_kappa_table():
    for m, entries in _KAPPA_TABLE.items():
        M = la.zeros(16, 16)
        for s, i, j in entries:
            M[i - 1][j - 1] = Scalar(-s)
            M[j - 1][i - 1] = Scalar(s)
        if not la.mat_eq(kappa(e(m)), M):
            return _verdict(False, f"generator {m}")
    return "ok"


@_claim(
    "clifford.relations",
    "kappa(x)kappa(y) + kappa(y)kappa(x) = -2 g(x,y) Id for all basis pairs",
    "ok", (1,),
)
def _run_clifford_relations():
    for i in range(1, 9):
        Ki = kappa(e(i))
        if not la.mat_eq(la.mat_mul(Ki, Ki), la.mat_scale(la.identity(16), Scalar(-1))):
            return _verdict(False, f"square of generator {i}")
        for j in range(i + 1, 9):
            Kj = kappa(e(j))
            A = la.mat_add(la.mat_mul(Ki, Kj), la.mat_mul(Kj, Ki))
            if not la.is_zero_matrix(A):
                return _verdict(False, f"anticommutator {i},{j}")
    return "ok"


@_claim(
    "clifford.volume",
    "the volume form acts as +Id on the even and -Id on the odd spinors",
    "ok", (1,),
)
def _run_volume():
    vol = kappa_form(e(1, 2, 3, 4, 5, 6, 7, 8))
    Id8 = la.identity(8)
    ok = (
        la.mat_eq(block(vol, "+", "+"), Id8)
        and la.mat_eq(block(vol, "-", "-"), la.mat_scale(Id8, Scalar(-1)))
        and la.is_zero_matrix(block(vol, "+", "-"))
        and la.is_zero_matrix(block(vol, "-", "+"))
    )
    return _verdict(ok)


# -- canonical 3-form map ---------------------------------------------------


@_claim(
    "orbit.det_rho1",
    "determinant of the spinor map induced by the canonical 3-form",
    "-1", (2,),
)
def _run_det_rho1():
    return str(form_to_map(canonical_rho()).det())


@_claim(
    "orbit.rho_matrix",
    "the induced map equals the stored 8x8 reference matrix divided by 4, "
    "entrywise, and is an isometry",
    "ok", (2,),
)
def _run_rho_matrix():
    A = form_to_map(canonical_rho())
    R = [[_scal(x) / 4 for x in row] for row in _RHOMAP_TIMES_4]
    return _verdict(la.mat_eq(A.matrix, R) and A.is_isometry())


# -- orbit classification ---------------------------------------------------


@_claim(
    "orbit.classify_rho",
    "the canonical 3-form lies on the 8-dimensional stabilizer orbit and "
    "reverses orientation",
    "L1_psu3, reversing", (3,),
)
def _run_classify_rho():
    oc = orbit_classify(canonical_rho())
    return f"{oc.kind}, {oc.orientation}"


@_claim(
    "orbit.classify_e123",
    "a decomposable unit 3-form lies on the quaternionic orbit and "
    "preserves orientation",
    "L3_sp1sp2, preserving", (3,),
)
def _run_classify_e123():
    oc = orbit_classify(e(1, 2, 3))
    return f"{oc.kind}, {oc.orientation}"


@_claim(
    "orbit.classify_mixed",
    "(r3/2) e123 + (1/2) e456 lies on the two-parameter orbit with squared "
    "ideal norms 3/4 and 1/4",
    "L2_su2su2_u1, preserving, (3/4, 1/4)", (3,),
)
def _run_classify_mixed():
    oc = orbit_classify(e(1, 2, 3) * (SQRT3 / 2) + e(4, 5, 6) * (ONE / 2))
    return f"{oc.kind}, {oc.orientation}, ({oc.params[0]}, {oc.params[1]})"


@_claim(
    "orbit.conjugation_invariance",
    "classification of the three model forms is unchanged under 100 exact "
    "special-orthogonal conjugations",
    "ok", (3,), seeded=True,
)
def _run_conjugation(seed=DEFAULT_SEED):
    rng = random.Random(seed)
    models = [
        canonical_rho(),
        e(1, 2, 3),
        e(1, 2, 3) * (SQRT3 / 2) + e(4, 5, 6) * (ONE / 2),
    ]
    refs = [orbit_classify(f) for f in models]
    for n in range(100):
        M = _pythagorean_rotation(rng)
        f = models[n % 3]
        oc = orbit_classify(apply_linear(M, f))
        if oc != refs[n % 3]:
            return _verdict(False, f"trial {n}")
    return "ok"


@_claim(
    "orbit.susy_equivalence",
    "on 200 random exact unit 3-forms: both chirality maps equal Id iff "
    "the obstruction 4-form vanishes, iff the extracted bracket satisfies "
    "the Jacobi identity",
    "ok", (4,), seeded=True,
)
def _run_susy_equivalence(seed=DEFAULT_SEED):
    rng = random.Random(seed)
    Id8 = la.identity(8)
    seen = {True: 0, False: 0}
    for n in range(200):
        r = _random_unit_3form(rng)
        j0 = jac(r, r).is_zero()
        g_id = la.mat_eq(gamma(r, r, "+").matrix, Id8) and la.mat_eq(
            gamma(r, r, "-").matrix, Id8
        )
        if g_id != j0:
            return _verdict(False, f"gamma/jac split at trial {n}")
        if j0 != bracket_from_form(r).jacobi_holds():
            return _verdict(False, f"jac/jacobi split at trial {n}")
        seen[j0] += 1
    if not (seen[True] and seen[False]):
        return _verdict(False, f"degenerate sample {seen}")
    return "ok"


# -- stabilizers ------------------------------------------------------------


@_claim(
    "stab.rho",
    "the stabilizer of the canonical 3-form is 8-dimensional and spanned "
    "by the contractions e_i -| rho",
    "ok", (5,),
)
def _run_stab_rho():
    stab = stabilizer_cached("PSU3")
    if stab.dim != 8:
        return _verdict(False, f"dim {stab.dim}")
    rho = canonical_rho()
    vecs = []
    for i in range(1, 9):
        v = to_vector(e(i).contract(rho), L2_MASKS)
        if not stab.contains(v):
            return _verdict(False, f"e{i} -| rho outside stabilizer")
        vecs.append(list(v))
    if la.rank(la.transpose(vecs)) != 8:
        return _verdict(False, "contractions do not span")
    return "ok"


@_claim(
    "stab.omega",
    "the stabilizer of the quaternionic 4-form is 13-dimensional and "
    "solves all 15 stored linear stabilizer equations",
    "ok", (5,),
)
def _run_stab_omega():
    stab = stabilizer_cached("SP1SP2")
    if stab.dim != 13:
        return _verdict(False, f"dim {stab.dim}")
    for v in stab.basis:
        res = sp_stabilizer_residuals(l2_form(v))
        if len(res) != 15 or any(res):
            return _verdict(False, "residual equation fails")
    return "ok"


# -- 2-form projections -----------------------------------------------------


@_claim(
    "proj.omega_eigen",
    "contraction against the quaternionic 4-form has eigenvalues 5, -3, 1 "
    "on the three summands of Lambda^2",
    "ok", (6,), seeded=True,
)
def _run_omega_eigen(seed=DEFAULT_SEED):
    Om = canonical_omega()
    for w in kaehler_forms():
        if w.contract(Om) != w * 5:
            return _verdict(False, "Kaehler eigenvalue")
    rng = random.Random(seed)
    for _ in range(5):
        alpha = Multivector(
            {m: Scalar(rng.randint(-3, 3)) for m in rng.sample(L2_MASKS, 6)}
        )
        for sel, ev in (("sp_3", 5), ("sp_10", -3), ("sp_15", 1)):
            part = project2(alpha, sel)
            if part.contract(Om) != part * ev:
                return _verdict(False, sel)
    return "ok"


@_claim(
    "proj.idempotent",
    "the projection operators on Lambda^2 are idempotent, mutually "
    "orthogonal and sum to the identity (both families)",
    "ok", (6,), seeded=True,
)
def _run_proj_idempotent(seed=DEFAULT_SEED):
    rng = random.Random(seed)
    for _ in range(5):
        alpha = Multivector(
            {m: Scalar(rng.randint(-3, 3), rng.randint(-1, 1))
             for m in rng.sample(L2_MASKS, 6)}
        )
        a8 = project2(alpha, "psu3_8")
        a20 = project2(alpha, "psu3_20")
        if a8 + a20 != alpha or project2(a20, "psu3_20") != a20:
            return _verdict(False, "psu3 family")
        if not project2(a8, "psu3_20").is_zero():
            return _verdict(False, "psu3 orthogonality")
        s3, s10, s15 = (project2(alpha, s) for s in ("sp_3", "sp_10", "sp_15"))
        if s3 + s10 + s15 != alpha:
            return _verdict(False, "sp completeness")
        for part, sel in ((s3, "sp_3"), (s10, "sp_10"), (s15, "sp_15")):
            if project2(part, sel) != part:
                return _verdict(False, f"sp idempotence {sel}")
    return "ok"


@_claim(
    "proj.l210_identity",
    "on the two complex 10-dimensional summands: beta * rho = "
    "-+ i r3 star(rho ^ beta)",
    "ok", (6,), seeded=True,
)
def _run_l210(seed=DEFAULT_SEED):
    rng = random.Random(seed)
    rho_c = canonical_rho().complexify()
    for _ in range(5):
        alpha = Multivector(
            {m: Scalar(rng.randint(-3, 3)) for m in rng.sample(L2_MASKS, 6)}
        )
        for sel, sgn in (("psu3_10+", -1), ("psu3_10-", 1)):
            beta = project2(alpha, sel)
            if beta.act2(rho_c) != (rho_c ^ beta).star() * (I * SQRT3 * sgn):
                return _verdict(False, sel)
    return "ok"


# -- the elliptic complex ---------------------------------------------------


@_claim(
    "ccomplex.c_squared",
    "the contraction complex satisfies c . c = 0 in every degree",
    "ok", (7,),
)
def _run_c_squared():
    from .structures import c_operator

    for k in range(7):
        if not la.is_zero_matrix(la.mat_mul(c_operator(k + 1), c_operator(k))):
            return _verdict(False, f"degree {k}")
    return "ok"


@_claim(
    "ccomplex.betti",
    "cohomology dimensions of the contraction complex",
    "(1, 0, 0, 1, 0, 1, 0, 0, 1)", (7,),
)
def _run_betti():
    return str(tuple(betti()))


@_claim(
    "ccomplex.c2_action",
    "in degree two the complex acts as the derivation action on the "
    "canonical 3-form, on every 2-form basis element",
    "ok", (7,),
)
def _run_c2_action():
    rho = canonical_rho()
    for m in L2_MASKS:
        alpha = Multivector({m: ONE})
        if c_apply(alpha) != alpha.act2(rho):
            return _verdict(False, str(alpha))
    return "ok"


@_claim(
    "ccomplex.p3_anchors",
    "the degree-three projector and its compositions on e128 match the "
    "three stored expansions coefficient-for-coefficient",
    "ok", (7,),
)
def _run_p3_anchors():
    a = e(1, 2, 8)
    p = p3(a)
    want = (
        e(1, 2, 8) * 5 + e(3, 4, 5) * SQRT3 + e(3, 6, 7) * SQRT3
        - e(4, 5, 8) * 2 + e(6, 7, 8) * 2
    ) * (ONE / 8)
    if p != want:
        return _verdict(False, "p3")
    want2 = (
        e(1, 2, 8) * 39 + e(3, 4, 5) * (SQRT3 * 7) + e(3, 6, 7) * (SQRT3 * 7)
        - e(4, 5, 8) * 18 + e(6, 7, 8) * 18
    ) * (ONE / 64)
    if p3(p) != want2:
        return _verdict(False, "p3^2")
    want3 = (
        e(1, 2, 4, 5) * (SQRT3 * 7) + e(1, 2, 6, 7) * (SQRT3 * 7)
        - e(1, 4, 6, 8) * 9 - e(1, 5, 7, 8) * 9
        + e(2, 4, 7, 8) * 9 - e(2, 5, 6, 8) * 9
    ) * (ONE / 32)
    if c_apply(p) != want3:
        return _verdict(False, "c3 p3")
    return "ok"


# -- spinor-valued forms ----------------------------------------------------


@_claim(
    "sigma.isometry",
    "the three canonical spinor-valued 1-forms are isometries",
    "ok", (8,),
)
def _run_sigma_isometry():
    for kind, chis in (("PSU3", ("+", "-")), ("SP1SP2", ("+",))):
        for chi in chis:
            if not sigma_canonical(kind, chi).is_isometry():
                return _verdict(False, f"{kind} {chi}")
    return "ok"


@_claim(
    "sigma.dets",
    "determinants of the canonical spinor-valued 1-forms "
    "(psu3 +, psu3 -, sp)",
    "(1, -1, -1)", (8,),
)
def _run_sigma_dets():
    vals = (
        sigma_canonical("PSU3", "+").det(),
        sigma_canonical("PSU3", "-").det(),
        sigma_canonical("SP1SP2", "+").det(),
    )
    return f"({vals[0]}, {vals[1]}, {vals[2]})"


@_claim(
    "sigma.mu_zero",
    "Clifford contraction mu annihilates the canonical spinor-valued "
    "1-forms",
    "ok", (8,),
)
def _run_sigma_mu():
    for kind, chis in (("PSU3", ("+", "-")), ("SP1SP2", ("+",))):
        for chi in chis:
            if not mu(sigma_canonical(kind, chi)).is_zero():
                return _verdict(False, f"{kind} {chi}")
    return "ok"


@_claim(
    "sigma.annihilated",
    "the canonical spinor-valued 1-forms are annihilated by the full "
    "stabilizer basis under the combined action",
    "ok", (8,),
)
def _run_sigma_annihilated():
    for kind, chis in (("PSU3", ("+", "-")), ("SP1SP2", ("+",))):
        stab = stabilizer_cached(kind)
        for chi in chis:
            s = sigma_canonical(kind, chi)
            for v in stab.basis:
                if not act2_svf(l2_form(v), s).is_zero():
                    return _verdict(False, f"{kind} {chi}")
    return "ok"


@_claim(
    "sigma.mu_iota",
    "mu composed with the insertion map iota is the identity on spinors",
    "ok", (8,),
)
def _run_mu_iota():
    for chi in ("+", "-"):
        for a in range(8):
            psi = Spinor.basis(chi, a)
            if mu(iota(psi)) != psi:
                return _verdict(False, f"{chi} {a}")
    return "ok"


# -- torsion operators, quaternionic side -----------------------------------


@_claim(
    "torsion.sp_ranks",
    "the first-order operator on quaternionic torsion tensors maps a "
    "120-dimensional domain onto the 56-dimensional target",
    "domain 120, rank 56", (9,),
)
def _run_sp_ranks():
    ka = to.kernel_analysis("SP1SP2")
    return f"domain {ka['domain_dim']}, rank {ka['dhat_rank']}"


@_claim(
    "torsion.sp_kernels",
    "kernel of the first-order operator equals the kernel of the "
    "half-spinor Dirac operator, dimension 64",
    "ok", (9,),
)
def _run_sp_kernels():
    ka = to.kernel_analysis("SP1SP2")
    ok = (
        ka["harmonic_dim"] == 64
        and ka["dirac_dim"] == 64
        and ka["kernels_equal"]
    )
    return _verdict(ok, f"{ka['harmonic_dim']} {ka['dirac_dim']}")


@_claim(
    "torsion.L_anchor",
    "the symmetrized operator on the 56-dimensional torsion summand sends "
    "the first anchor tensor to twice itself, matching the stored 7-term "
    "expansion, with calibration constant exactly 1",
    "ok", (9,),
)
def _run_L_anchor():
    if to._l_scale() != ONE:
        return _verdict(False, "calibration constant")
    t1 = e(1).contract(canonical_omega()) * 4
    if to.L_op(t1) != t1 * 2:
        return _verdict(False, "eigenvalue")
    want = parse_form(
        "-6 e234 + 2 e256 - 2 e278 + 2 e357 + 2 e368 + 2 e458 - 2 e467"
    ) * 8
    return _verdict(t1 * 2 == want, "expansion")


@_claim(
    "torsion.L_spectrum",
    "spectrum of the symmetrized operator with eigenspace dimensions",
    "{2: 8, 12: 32, 20: 16}", (9,),
)
def _run_L_spectrum():
    return str(to.l_spectrum())


# -- torsion operators, special side ----------------------------------------


@_claim(
    "torsion.dhat_anchor",
    "the first-order operator on e1 (x) e18",
    "-1/2 e1238 - 1/4 e1478 + 1/4 e1568", (10,),
)
def _run_dhat_anchor():
    T = to.TorsionTensor.simple("PSU3", e(1), e(1, 8))
    return str(to.dhat(T))


@_claim(
    "torsion.surjd",
    "the degree-two complex map factors through the first-order operator "
    "on the insertion of the orthogonal complement, on a full basis",
    "ok", (10,),
)
def _run_surjd():
    rho = canonical_rho()
    for m in blades_of_grade(3):
        alpha = Multivector({m: ONE})
        perp = alpha - rho * alpha.inner(rho)
        if c_apply(perp) != to.dhat(to.iota_rho_perp(perp)) * (ONE / 2):
            return _verdict(False, str(alpha))
    if not to.iota_rho_perp(rho).is_zero():
        return _verdict(False, "iota(rho)")
    return "ok"


@_claim(
    "torsion.psu3_ranks",
    "both first-order operators on special torsion tensors are surjective "
    "(ranks 70 and 28 from a 160-dimensional domain)",
    "domain 160, ranks 70, 28", (10,),
)
def _run_psu3_ranks():
    ka = to.kernel_analysis("PSU3")
    return f"domain {ka['domain_dim']}, ranks {ka['dhat_rank']}, {ka['dstar_rank']}"


@_claim(
    "torsion.psu3_kernels",
    "the joint kernel of the two first-order operators equals the joint "
    "kernel of the two Dirac operators, dimension 70",
    "ok", (10,),
)
def _run_psu3_kernels():
    ka = to.kernel_analysis("PSU3")
    ok = (
        ka["harmonic_dim"] == 70
        and ka["dirac_dim"] == 70
        and ka["kernels_equal"]
    )
    return _verdict(ok, f"{ka['harmonic_dim']} {ka['dirac_dim']}")


@_claim(
    "torsion.z22",
    "first Schur constant relating the two Dirac operators on the complex "
    "10-dimensional summand",
    "1/8 + 1/8 r3 i", (10,),
)
def _run_z22():
    z22, _ = to.z_constants()
    return str(z22)


@_claim(
    "torsion.z11",
    "second Schur constant (after averaging with Clifford contraction)",
    "1/8 - 1/8 r3 i", (10,),
)
def _run_z11():
    _, z11 = to.z_constants()
    return str(z11)


@_claim(
    "torsion.tau12_dirac",
    "the bracket-type torsion tensor is not annihilated by either Dirac "
    "operator",
    "ok", (10,),
)
def _run_tau12():
    tb = to.tau_bracket12()
    ok = not to.Dhat(tb, "+").is_zero() and not to.Dhat(tb, "-").is_zero()
    return _verdict(ok)


# -- frame geometry ---------------------------------------------------------


@_claim(
    "frame.su3",
    "the bi-invariant frame has parallel canonical 3-form and Einstein "
    "curvature (3/16) Id",
    "ok", (11,),
)
def _run_frame_su3():
    F, _, _ = fr.catalog("su3_biinvariant")
    if not all(a.is_zero() for a in fr.nabla_form(canonical_rho(), F)):
        return _verdict(False, "nabla rho")
    ok = la.mat_eq(fr.ricci(F), la.mat_scale(la.identity(8), Scalar(3) / 16))
    return _verdict(ok, "ricci")


@_claim(
    "frame.nil_harmonic",
    "the nilmanifold frame is harmonic: d rho = 0 and d star rho = 0",
    "(True, True)", (11,),
)
def _run_nil_harmonic():
    F, _, _ = fr.catalog("psu3_nilmanifold")
    return str(fr.harmonic_check(F, "PSU3"))


@_claim(
    "nil.ricci",
    "exact Ricci diagonal of the nilmanifold frame (off-diagonal zero)",
    "(0, 0, 0, -1/2, -1/2, -1/2, -1/2, 1)", (11,),
)
def _run_nil_ricci():
    F, _, _ = fr.catalog("psu3_nilmanifold")
    ric = fr.ricci(F)
    if any(ric[i][j] for i in range(8) for j in range(8) if i != j):
        return "FAIL off-diagonal"
    return "(" + ", ".join(str(ric[i][i]) for i in range(8)) + ")"


@_claim(
    "nil.torsion",
    "the nilmanifold intrinsic torsion is nonzero, lies in the "
    "70-dimensional joint kernel, satisfies both first-order identities "
    "and the curvature constraint vanishes",
    "ok", (11,),
)
def _run_nil_torsion():
    F, _, _ = fr.catalog("psu3_nilmanifold")
    rho = canonical_rho()
    T = fr.intrinsic_torsion(F, "PSU3")
    if T.is_zero():
        return _verdict(False, "torsion zero")
    if to.dhat(T) != fr.coframe_d(rho, F):
        return _verdict(False, "d identity")
    if to.dstar_hat(T) != -fr.codifferential(rho, F):
        return _verdict(False, "d* identity")
    gk = to.gkind("PSU3")
    from .structures import l2_vector

    M = la.transpose([list(b) for b in gk.gperp.basis])
    coords = []
    for a in T.projected().slots:
        coords.extend(la.solve(M, l2_vector(a)))
    if not to.kernel_analysis("PSU3")["harmonic_kernel"].contains(coords):
        return _verdict(False, "kernel membership")
    ric = fr.ricci(F)
    for chi in ("+", "-"):
        if not fr.ricci_constraint(ric, "PSU3", chi).is_zero():
            return _verdict(False, f"constraint {chi}")
    return "ok"


@_claim(
    "frame.salamon_nabla",
    "the quaternionic nilmanifold frame reproduces the stored covariant-"
    "derivative table (up to the documented global sign)",
    "ok", (11,),
)
def _run_salamon_nabla():
    F, _, _ = fr.catalog("salamon_sp1sp2")
    conn = fr.levi_civita(F)
    h = ONE / 2
    table = {
        (3, 1): e(6) * h, (4, 1): e(5) * h, (5, 1): e(4) * h, (6, 1): e(3) * h,
        (1, 3): e(6) * (-h), (6, 3): e(1) * (-h),
        (1, 5): e(4) * (-h), (4, 5): e(1) * (-h),
    }
    for (i, j), want in table.items():
        if conn.nabla_vec(i, j) != want:
            return _verdict(False, f"nabla_{i} e{j}")
    return "ok"


@_claim(
    "salamon.ricci",
    "exact Ricci diagonal of the quaternionic nilmanifold frame",
    "(-1, 0, -1/2, 1/2, -1/2, 1/2, 0, 0)", (11,),
)
def _run_salamon_ricci():
    F, _, _ = fr.catalog("salamon_sp1sp2")
    ric = fr.ricci(F)
    return "(" + ", ".join(str(ric[i][i]) for i in range(8)) + ")"


@_claim(
    "frame.gh",
    "the hyperkaehler-fibred frame at x = 1 is harmonic with covariant "
    "derivative of the canonical 3-form supported in two slots of the "
    "stored shape",
    "ok", (11,),
)
def _run_frame_gh():
    F, _, _ = fr.catalog("gibbons_hawking", Scalar(1))
    if fr.harmonic_check(F, "PSU3") != (True, True):
        return _verdict(False, "harmonicity")
    nab = fr.nabla_form(canonical_rho(), F)
    w1p = e(4, 7) + e(5, 6)
    w2p = e(4, 6) - e(5, 7)
    want4 = (w1p ^ e(8)) * (-(SQRT3) / 4)
    want5 = (w2p ^ e(8)) * (-(SQRT3) / 4)
    if nab[3] != want4 or nab[4] != want5:
        return _verdict(False, "slots 4/5")
    if any(nab[i] for i in range(8) if i not in (3, 4)):
        return _verdict(False, "extra slots")
    T = fr.intrinsic_torsion(F, "PSU3")
    rho = canonical_rho()
    ok = (
        to.dhat(T) == fr.coframe_d(rho, F)
        and to.dstar_hat(T) == -fr.codifferential(rho, F)
    )
    return _verdict(ok, "first-order identities")


# -- calibrations -----------------------------------------------------------


@_claim(
    "calib.equality",
    "the calibration forms attain 1 exactly on their model planes",
    "ok", (12,),
)
def _run_calib_equality():
    ok = (
        calibration("PSU3", [e(1), e(2), e(3)]) == ONE
        and calibration("SP1SP2", [e(1), e(2), e(3), -e(4)]) == ONE
    )
    return _verdict(ok)


@_claim(
    "calib.bound",
    "sampled calibration maxima over 10^4 random planes per structure "
    "stay below 1 + 1e-9 (float check)",
    "ok", (12,), seeded=True,
)
def _run_calib_bound(seed=DEFAULT_SEED):
    m1 = calibration_sample("PSU3", 10000, seed=seed)
    m2 = calibration_sample("SP1SP2", 10000, seed=seed)
    return _verdict(m1 <= 1 + 1e-9 and m2 <= 1 + 1e-9, f"{m1} {m2}")


# -- characteristic-class arithmetic ----------------------------------------


@_claim(
    "obstruct.identities",
    "under 4 p2 = p1^2 the A-hat genus equals p1^2/960 and the signature "
    "identity holds over a symbolic sweep",
    "ok", (13,),
)
def _run_obstruct_identities():
    from fractions import Fraction

    for n in range(-1041, 1042, 7):
        p1sq = 960 * n
        d = ob.CharData(
            p1_squared_M=p1sq, p2_M=p1sq // 4, signature=p1sq // 60
        )
        if ob.ahat_eval(d) != Fraction(p1sq, 960):
            return _verdict(False, f"ahat at {n}")
        if ob.sgn_identity_check(d)["status"] != "pass":
            return _verdict(False, f"signature at {n}")
    return "ok"


@_claim(
    "obstruct.su3_datum",
    "the trivial-tangent-bundle datum passes every necessary and lifting "
    "condition",
    "ok", (13,),
)
def _run_obstruct_su3():
    d = ob.CharData.su3()
    ok = (
        ob.necessary_psu3(d)["all_pass"]
        and ob.su3_lift_check(d)["all_pass"]
        and ob.su3_lift_check(d)["ahat_in_40Z"]
        and ob.su3_lift_check(d)["sgn_in_640Z"]
        and ob.sgn_identity_check(d)["status"] == "pass"
    )
    return _verdict(ok)


@_claim(
    "obstruct.failing_data",
    "constructed failing data are rejected by the right predicate: "
    "nonzero Euler number, mismatched Pontrjagin pairing, signature off "
    "the identity, p1^2 outside 216Z",
    "ok", (13,),
)
def _run_obstruct_failing():
    if ob.necessary_psu3(ob.CharData(euler_M=2))["euler_zero"]:
        return _verdict(False, "euler")
    if ob.necessary_psu3(ob.CharData(p2_M=1))["p1sq_eq_4p2"]:
        return _verdict(False, "pontrjagin")
    bad = ob.CharData(p1_squared_M=960, p2_M=240, signature=8)
    if ob.sgn_identity_check(bad)["status"] != "fail":
        return _verdict(False, "signature")
    r = ob.su3_lift_check(ob.CharData(p1_squared_M=36, p2_M=9))
    if r["p1sq_in_216Z"] or r["all_pass"]:
        return _verdict(False, "divisibility")
    return "ok"


# -- runner -----------------------------------------------------------------


def claim_ids():
    return sorted(REGISTRY)


def claims_for_criterion(n):
    return sorted(c.id for c in REGISTRY.values() if n in c.criteria)


def run_claim(claim, seed=DEFAULT_SEED):
    t0 = time.perf_counter()
    try:
        actual = claim.run(seed=seed) if claim.seeded else claim.run()
        status = "pass" if actual == claim.expected else "fail"
    except Exception as ex:  # noqa: BLE001 - reported, not swallowed
        actual = f"{type(ex).__name__}: {ex}"
        status = "error"
    ms = (time.perf_counter() - t0) * 1000
    return ClaimReport(claim.id, claim.anchor, status, claim.expected, actual, ms)


def select_claims(pattern="all"):
    """Claims whose id matches the glob pattern ('all' selects every one)."""
    import fnmatch

    if pattern in ("all", "*", ""):
        return [REGISTRY[i] for i in claim_ids()]
    return [REGISTRY[i] for i in claim_ids() if fnmatch.fnmatch(i, pattern)]


def run_claims(pattern="all", seed=DEFAULT_SEED):
    """(reports, exit_code): 0 if all pass, 1 otherwise; the caller is
    responsible for treating an empty selection as a usage error."""
    reports = [run_claim(c, seed=seed) for c in select_claims(pattern)]
    code = 0 if all(r.status == "pass" for r in reports) else 1
    return reports, code


def summarize(reports):
    out = {"pass": 0, "fail": 0, "error": 0, "skipped": 0}
    for r in reports:
        out[r.status] += 1
    return out
