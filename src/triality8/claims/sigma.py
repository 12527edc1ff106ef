"""Claims on the canonical spinor-valued 1-forms: isometry, determinants,
Clifford contraction and invariance."""

from . import _verdict, cf, st


def sigma_isometry():
    for kind, chis in (("PSU3", ("+", "-")), ("SP1SP2", ("+",))):
        for chi in chis:
            if not st.sigma_canonical(kind, chi).is_isometry():
                return _verdict(False, f"{kind} {chi}")
    return "ok"


def sigma_dets():
    vals = (
        st.sigma_canonical("PSU3", "+").det(),
        st.sigma_canonical("PSU3", "-").det(),
        st.sigma_canonical("SP1SP2", "+").det(),
    )
    return f"({vals[0]}, {vals[1]}, {vals[2]})"


def sigma_mu_zero():
    for kind, chis in (("PSU3", ("+", "-")), ("SP1SP2", ("+",))):
        for chi in chis:
            if not cf.mu(st.sigma_canonical(kind, chi)).is_zero():
                return _verdict(False, f"{kind} {chi}")
    return "ok"


def sigma_annihilated():
    for kind, chis in (("PSU3", ("+", "-")), ("SP1SP2", ("+",))):
        stab = st.stabilizer_cached(kind)
        for chi in chis:
            s = st.sigma_canonical(kind, chi)
            for v in stab.basis:
                if not cf.act2_svf(st.l2_form(v), s).is_zero():
                    return _verdict(False, f"{kind} {chi}")
    return "ok"


def sigma_mu_iota():
    for chi in ("+", "-"):
        for a in range(8):
            psi = cf.Spinor.basis(chi, a)
            if cf.mu(cf.iota(psi)) != psi:
                return _verdict(False, f"{chi} {a}")
    return "ok"
