"""Claims on the torsion operators of the 3-form geometry: the anchor
value, surjectivity, kernels and the two Schur constants."""

from ..scalars import ONE
from . import _verdict, e, ex, st, to


def torsion_dhat_anchor():
    T = to.TorsionTensor.simple("PSU3", e(1), e(1, 8))
    return str(to.dhat(T))


def torsion_surjd():
    rho = st.canonical_rho()
    for m in ex.blades_of_grade(3):
        alpha = ex.Multivector({m: ONE})
        perp = alpha - rho * alpha.inner(rho)
        if st.c_apply(perp) != to.dhat(to.iota_rho_perp(perp)) * (ONE / 2):
            return _verdict(False, str(alpha))
    if not to.iota_rho_perp(rho).is_zero():
        return _verdict(False, "iota(rho)")
    return "ok"


def torsion_psu3_ranks():
    ka = to.kernel_analysis("PSU3")
    return f"domain {ka['domain_dim']}, ranks {ka['dhat_rank']}, {ka['dstar_rank']}"


def torsion_psu3_kernels():
    ka = to.kernel_analysis("PSU3")
    ok = (
        ka["harmonic_dim"] == 70
        and ka["dirac_dim"] == 70
        and ka["kernels_equal"]
    )
    return _verdict(ok, f"{ka['harmonic_dim']} {ka['dirac_dim']}")


def torsion_z22():
    z22, _ = to.z_constants()
    return str(z22)


def torsion_z11():
    _, z11 = to.z_constants()
    return str(z11)


def torsion_tau12_dirac():
    tb = to.tau_bracket12()
    ok = not to.Dhat(tb, "+").is_zero() and not to.Dhat(tb, "-").is_zero()
    return _verdict(ok)
