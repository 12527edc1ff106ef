"""Claims on the invariant projections of 2-forms for both structure
groups."""

import random

from ..scalars import I, SQRT3, Scalar
from . import DEFAULT_SEED, _verdict, ex, st


def proj_omega_eigen(seed=DEFAULT_SEED):
    Om = st.canonical_omega()
    for w in st.kaehler_forms():
        if w.contract(Om) != w * 5:
            return _verdict(False, "Kaehler eigenvalue")
    rng = random.Random(seed)
    for _ in range(5):
        alpha = ex.Multivector(
            {m: Scalar(rng.randint(-3, 3)) for m in rng.sample(st.L2_MASKS, 6)}
        )
        for sel, ev in (("sp_3", 5), ("sp_10", -3), ("sp_15", 1)):
            part = st.project2(alpha, sel)
            if part.contract(Om) != part * ev:
                return _verdict(False, sel)
    return "ok"


def proj_idempotent(seed=DEFAULT_SEED):
    rng = random.Random(seed)
    for _ in range(5):
        alpha = ex.Multivector(
            {m: Scalar(rng.randint(-3, 3), rng.randint(-1, 1))
             for m in rng.sample(st.L2_MASKS, 6)}
        )
        a8 = st.project2(alpha, "psu3_8")
        a20 = st.project2(alpha, "psu3_20")
        if a8 + a20 != alpha or st.project2(a20, "psu3_20") != a20:
            return _verdict(False, "psu3 family")
        if not st.project2(a8, "psu3_20").is_zero():
            return _verdict(False, "psu3 orthogonality")
        s3, s10, s15 = (st.project2(alpha, s) for s in ("sp_3", "sp_10", "sp_15"))
        if s3 + s10 + s15 != alpha:
            return _verdict(False, "sp completeness")
        for part, sel in ((s3, "sp_3"), (s10, "sp_10"), (s15, "sp_15")):
            if st.project2(part, sel) != part:
                return _verdict(False, f"sp idempotence {sel}")
    return "ok"


def proj_l210_identity(seed=DEFAULT_SEED):
    rng = random.Random(seed)
    rho_c = st.canonical_rho().complexify()
    for _ in range(5):
        alpha = ex.Multivector(
            {m: Scalar(rng.randint(-3, 3)) for m in rng.sample(st.L2_MASKS, 6)}
        )
        for sel, sgn in (("psu3_10+", -1), ("psu3_10-", 1)):
            beta = st.project2(alpha, sel)
            if beta.act2(rho_c) != (rho_c ^ beta).star() * (I * SQRT3 * sgn):
                return _verdict(False, sel)
    return "ok"
