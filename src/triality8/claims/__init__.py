"""Verification claim registry: every headline exact computation of the
package is wrapped as a named claim with a frozen expected value, so the
whole build can be checked by running the registry and comparing formatted
actual values against expected ones.

Claims are pure and independent; randomized ones take an explicit seed
(fixed default) so runs are reproducible.

This module is the index.  ``REGISTRY`` is complete at import: each
claim's id, anchor, expected value, criteria and seeded flag, and its body
named as a (module, function) pair of strings.  The body of claim ``a.b``
is the function ``a_b`` of one area module ``triality8.claims.<area>``,
one module per section below, and that module is imported the first time
one of its claims runs.  So importing the index runs only ``scalars``
(the claim classes derive from ``Frozen``), listing the claims runs no
area module, and verifying one claim compiles and runs the index and one
area module.  The area modules hold the other submodules through
``triality8.lazy``, so they too run only when a claim uses them.
"""

from __future__ import annotations

import importlib
import time

from .. import lazy
from ..scalars import Frozen

# the other submodules, which run when a claim first uses one of their
# names.  The area modules take these handles from here, and each waits in
# sys.modules once the index has run (perfbench/spans.py looks for it there)
cf = lazy("clifford")
ex = lazy("exterior")
fr = lazy("frames")
la = lazy("linalg")
ob = lazy("obstructions")
orb = lazy("orbits")
st = lazy("structures")
to = lazy("torsion")

DEFAULT_SEED = 20260826


def e(*indices):
    """The basis blade e_{i1...ik}."""
    return ex.Multivector.blade(*indices)


def _verdict(ok, detail=""):
    if ok:
        return "ok"
    return f"FAIL {detail}" if detail else "FAIL"


class Claim(Frozen):
    """A named exact check: the body, function ``function`` of the area
    module ``module``, returns a formatted actual value which must equal
    the frozen expected string."""

    __slots__ = ("id", "anchor", "expected", "module", "function", "criteria",
                 "seeded")

    def __init__(self, id, anchor, expected, module, function, criteria, seeded):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "function", function)
        object.__setattr__(self, "criteria", tuple(criteria))
        object.__setattr__(self, "seeded", bool(seeded))

    def body(self):
        """The body function, its area module imported on first use."""
        return getattr(importlib.import_module(self.module), self.function)


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


def _claim(id, area, expected, criteria, anchor, seeded=False):
    if id in REGISTRY:
        raise ValueError(f"duplicate claim id {id!r}")
    REGISTRY[id] = Claim(id, anchor, expected, f"{__name__}.{area}",
                         id.replace(".", "_"), criteria, seeded)


# -- Clifford model (clifford_model) ----------------------------------------

_claim("clifford.kappa_table", "clifford_model", "ok", (1,),
       "the eight Clifford generator matrices from octonion right-"
       "multiplication equal the stored 16x16 reference tables verbatim")

_claim("clifford.relations", "clifford_model", "ok", (1,),
       "kappa(x)kappa(y) + kappa(y)kappa(x) = -2 g(x,y) Id for all basis pairs")

_claim("clifford.volume", "clifford_model", "ok", (1,),
       "the volume form acts as +Id on the even and -Id on the odd spinors")

# -- canonical 3-form map (rho_map) -----------------------------------------

_claim("orbit.det_rho1", "rho_map", "-1", (2,),
       "determinant of the spinor map induced by the canonical 3-form")

_claim("orbit.rho_matrix", "rho_map", "ok", (2,),
       "the induced map equals the stored 8x8 reference matrix divided by 4, "
       "entrywise, and is an isometry")

# -- orbit classification (orbit) -------------------------------------------

_claim("orbit.classify_rho", "orbit", "L1_psu3, reversing", (3,),
       "the canonical 3-form lies on the 8-dimensional stabilizer orbit and "
       "reverses orientation")

_claim("orbit.classify_e123", "orbit", "L3_sp1sp2, preserving", (3,),
       "a decomposable unit 3-form lies on the quaternionic orbit and "
       "preserves orientation")

_claim("orbit.classify_mixed", "orbit", "L2_su2su2_u1, preserving, (3/4, 1/4)", (3,),
       "(r3/2) e123 + (1/2) e456 lies on the two-parameter orbit with squared "
       "ideal norms 3/4 and 1/4")

_claim("orbit.conjugation_invariance", "orbit", "ok", (3,),
       "classification of the three model forms is unchanged under 100 exact "
       "special-orthogonal conjugations", seeded=True)

_claim("orbit.susy_equivalence", "orbit", "ok", (4,),
       "on 200 random exact unit 3-forms: both chirality maps equal Id iff "
       "the obstruction 4-form vanishes, iff the extracted bracket satisfies "
       "the Jacobi identity", seeded=True)

# -- stabilizers (stab) -----------------------------------------------------

_claim("stab.rho", "stab", "ok", (5,),
       "the stabilizer of the canonical 3-form is 8-dimensional and spanned "
       "by the contractions e_i -| rho")

_claim("stab.omega", "stab", "ok", (5,),
       "the stabilizer of the quaternionic 4-form is 13-dimensional and "
       "solves all 15 stored linear stabilizer equations")

# -- 2-form projections (proj) ----------------------------------------------

_claim("proj.omega_eigen", "proj", "ok", (6,),
       "contraction against the quaternionic 4-form has eigenvalues 5, -3, 1 "
       "on the three summands of Lambda^2", seeded=True)

_claim("proj.idempotent", "proj", "ok", (6,),
       "the projection operators on Lambda^2 are idempotent, mutually "
       "orthogonal and sum to the identity (both families)", seeded=True)

_claim("proj.l210_identity", "proj", "ok", (6,),
       "on the two complex 10-dimensional summands: beta * rho = "
       "-+ i r3 star(rho ^ beta)", seeded=True)

# -- the elliptic complex (ccomplex) ----------------------------------------

_claim("ccomplex.c_squared", "ccomplex", "ok", (7,),
       "the contraction complex satisfies c . c = 0 in every degree")

_claim("ccomplex.betti", "ccomplex", "(1, 0, 0, 1, 0, 1, 0, 0, 1)", (7,),
       "cohomology dimensions of the contraction complex")

_claim("ccomplex.c2_action", "ccomplex", "ok", (7,),
       "in degree two the complex acts as the derivation action on the "
       "canonical 3-form, on every 2-form basis element")

_claim("ccomplex.p3_anchors", "ccomplex", "ok", (7,),
       "the degree-three projector and its compositions on e128 match the "
       "three stored expansions coefficient-for-coefficient")

# -- spinor-valued forms (sigma) --------------------------------------------

_claim("sigma.isometry", "sigma", "ok", (8,),
       "the three canonical spinor-valued 1-forms are isometries")

_claim("sigma.dets", "sigma", "(1, -1, -1)", (8,),
       "determinants of the canonical spinor-valued 1-forms "
       "(psu3 +, psu3 -, sp)")

_claim("sigma.mu_zero", "sigma", "ok", (8,),
       "Clifford contraction mu annihilates the canonical spinor-valued "
       "1-forms")

_claim("sigma.annihilated", "sigma", "ok", (8,),
       "the canonical spinor-valued 1-forms are annihilated by the full "
       "stabilizer basis under the combined action")

_claim("sigma.mu_iota", "sigma", "ok", (8,),
       "mu composed with the insertion map iota is the identity on spinors")

# -- torsion operators, quaternionic side (torsion_sp) ----------------------

_claim("torsion.sp_ranks", "torsion_sp", "domain 120, rank 56", (9,),
       "the first-order operator on quaternionic torsion tensors maps a "
       "120-dimensional domain onto the 56-dimensional target")

_claim("torsion.sp_kernels", "torsion_sp", "ok", (9,),
       "kernel of the first-order operator equals the kernel of the "
       "half-spinor Dirac operator, dimension 64")

_claim("torsion.L_anchor", "torsion_sp", "ok", (9,),
       "the symmetrized operator on the 56-dimensional torsion summand sends "
       "the first anchor tensor to twice itself, matching the stored 7-term "
       "expansion, with calibration constant exactly 1")

_claim("torsion.L_spectrum", "torsion_sp", "{2: 8, 12: 32, 20: 16}", (9,),
       "spectrum of the symmetrized operator with eigenspace dimensions")

# -- torsion operators, special side (torsion_psu3) -------------------------

_claim("torsion.dhat_anchor", "torsion_psu3",
       "-1/2 e1238 - 1/4 e1478 + 1/4 e1568", (10,),
       "the first-order operator on e1 (x) e18")

_claim("torsion.surjd", "torsion_psu3", "ok", (10,),
       "the degree-two complex map factors through the first-order operator "
       "on the insertion of the orthogonal complement, on a full basis")

_claim("torsion.psu3_ranks", "torsion_psu3", "domain 160, ranks 70, 28", (10,),
       "both first-order operators on special torsion tensors are surjective "
       "(ranks 70 and 28 from a 160-dimensional domain)")

_claim("torsion.psu3_kernels", "torsion_psu3", "ok", (10,),
       "the joint kernel of the two first-order operators equals the joint "
       "kernel of the two Dirac operators, dimension 70")

_claim("torsion.z22", "torsion_psu3", "1/8 + 1/8 r3 i", (10,),
       "first Schur constant relating the two Dirac operators on the complex "
       "10-dimensional summand")

_claim("torsion.z11", "torsion_psu3", "1/8 - 1/8 r3 i", (10,),
       "second Schur constant (after averaging with Clifford contraction)")

_claim("torsion.tau12_dirac", "torsion_psu3", "ok", (10,),
       "the bracket-type torsion tensor is not annihilated by either Dirac "
       "operator")

# -- frame geometry (frame) -------------------------------------------------

_claim("frame.su3", "frame", "ok", (11,),
       "the bi-invariant frame has parallel canonical 3-form and Einstein "
       "curvature (3/16) Id")

_claim("frame.nil_harmonic", "frame", "(True, True)", (11,),
       "the nilmanifold frame is harmonic: d rho = 0 and d star rho = 0")

_claim("nil.ricci", "frame", "(0, 0, 0, -1/2, -1/2, -1/2, -1/2, 1)", (11,),
       "exact Ricci diagonal of the nilmanifold frame (off-diagonal zero)")

_claim("nil.torsion", "frame", "ok", (11,),
       "the nilmanifold intrinsic torsion is nonzero, lies in the "
       "70-dimensional joint kernel, satisfies both first-order identities "
       "and the curvature constraint vanishes")

_claim("frame.salamon_nabla", "frame", "ok", (11,),
       "the quaternionic nilmanifold frame reproduces the stored covariant-"
       "derivative table (up to the documented global sign)")

_claim("salamon.ricci", "frame", "(-1, 0, -1/2, 1/2, -1/2, 1/2, 0, 0)", (11,),
       "exact Ricci diagonal of the quaternionic nilmanifold frame")

_claim("frame.gh", "frame", "ok", (11,),
       "the hyperkaehler-fibred frame at x = 1 is harmonic with covariant "
       "derivative of the canonical 3-form supported in two slots of the "
       "stored shape")

# -- calibrations (calib) ---------------------------------------------------

_claim("calib.equality", "calib", "ok", (12,),
       "the calibration forms attain 1 exactly on their model planes")

_claim("calib.bound", "calib", "ok", (12,),
       "sampled calibration maxima over 10^4 random planes per structure "
       "stay below 1 + 1e-9 (float check)", seeded=True)

# -- characteristic-class arithmetic (obstruct) -----------------------------

_claim("obstruct.identities", "obstruct", "ok", (13,),
       "under 4 p2 = p1^2 the A-hat genus equals p1^2/960 and the signature "
       "identity holds over a symbolic sweep")

_claim("obstruct.su3_datum", "obstruct", "ok", (13,),
       "the trivial-tangent-bundle datum passes every necessary and lifting "
       "condition")

_claim("obstruct.failing_data", "obstruct", "ok", (13,),
       "constructed failing data are rejected by the right predicate: "
       "nonzero Euler number, mismatched Pontrjagin pairing, signature off "
       "the identity, p1^2 outside 216Z")


# -- runner -----------------------------------------------------------------


def claim_ids():
    return sorted(REGISTRY)


def claims_for_criterion(n):
    return sorted(c.id for c in REGISTRY.values() if n in c.criteria)


def run_claim(claim, seed=DEFAULT_SEED):
    t0 = time.perf_counter()
    try:
        body = claim.body()
        actual = body(seed=seed) if claim.seeded else body()
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


def run_claims(claims, seed=DEFAULT_SEED):
    """(reports, exit_code) of the selected claims: 0 if all pass, 1
    otherwise; the caller is responsible for treating an empty selection as
    a usage error."""
    reports = [run_claim(c, seed=seed) for c in claims]
    code = 0 if all(r.status == "pass" for r in reports) else 1
    return reports, code


def summarize(reports):
    out = {"pass": 0, "fail": 0, "error": 0, "skipped": 0}
    for r in reports:
        out[r.status] += 1
    return out
