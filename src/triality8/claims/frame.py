"""Claims on the frame geometries of the catalog: connections, Ricci
curvature and intrinsic torsion."""

from ..scalars import ONE, SQRT3, Scalar
from . import _verdict, e, fr, la, st, to


def frame_su3():
    F, _, _ = fr.catalog("su3_biinvariant")
    if not all(a.is_zero() for a in fr.nabla_form(st.canonical_rho(), F)):
        return _verdict(False, "nabla rho")
    ok = la.mat_eq(fr.ricci(F), la.mat_scale(la.identity(8), Scalar(3) / 16))
    return _verdict(ok, "ricci")


def frame_nil_harmonic():
    F, _, _ = fr.catalog("psu3_nilmanifold")
    return str(fr.harmonic_check(F, "PSU3"))


def nil_ricci():
    F, _, _ = fr.catalog("psu3_nilmanifold")
    ric = fr.ricci(F)
    if any(ric[i][j] for i in range(8) for j in range(8) if i != j):
        return "FAIL off-diagonal"
    return "(" + ", ".join(str(ric[i][i]) for i in range(8)) + ")"


def nil_torsion():
    F, _, _ = fr.catalog("psu3_nilmanifold")
    rho = st.canonical_rho()
    T = fr.intrinsic_torsion(F, "PSU3")
    if T.is_zero():
        return _verdict(False, "torsion zero")
    if to.dhat(T) != fr.coframe_d(rho, F):
        return _verdict(False, "d identity")
    if to.dstar_hat(T) != -fr.codifferential(rho, F):
        return _verdict(False, "d* identity")
    gk = to.gkind("PSU3")
    M = la.transpose([list(b) for b in gk.gperp.basis])
    xs = la.solve(M, *(st.l2_vector(a) for a in T.projected().slots))
    if any(x is None for x in xs):
        return _verdict(False, "g-perp coordinates")
    coords = [c for x in xs for c in x]
    if not to.kernel_analysis("PSU3")["harmonic_kernel"].contains(coords):
        return _verdict(False, "kernel membership")
    ric = fr.ricci(F)
    for chi in ("+", "-"):
        if not fr.ricci_constraint(ric, "PSU3", chi).is_zero():
            return _verdict(False, f"constraint {chi}")
    return "ok"


def frame_salamon_nabla():
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


def salamon_ricci():
    F, _, _ = fr.catalog("salamon_sp1sp2")
    ric = fr.ricci(F)
    return "(" + ", ".join(str(ric[i][i]) for i in range(8)) + ")"


def frame_gh():
    F, _, _ = fr.catalog("gibbons_hawking", Scalar(1))
    if fr.harmonic_check(F, "PSU3") != (True, True):
        return _verdict(False, "harmonicity")
    nab = fr.nabla_form(st.canonical_rho(), F)
    w1p = e(4, 7) + e(5, 6)
    w2p = e(4, 6) - e(5, 7)
    want4 = (w1p ^ e(8)) * (-(SQRT3) / 4)
    want5 = (w2p ^ e(8)) * (-(SQRT3) / 4)
    if nab[3] != want4 or nab[4] != want5:
        return _verdict(False, "slots 4/5")
    if any(nab[i] for i in range(8) if i not in (3, 4)):
        return _verdict(False, "extra slots")
    T = fr.intrinsic_torsion(F, "PSU3")
    rho = st.canonical_rho()
    ok = (
        to.dhat(T) == fr.coframe_d(rho, F)
        and to.dstar_hat(T) == -fr.codifferential(rho, F)
    )
    return _verdict(ok, "first-order identities")
