"""Claims on the torsion operators of the quaternionic geometry: ranks,
kernels and the symmetrized operator L on 3-forms."""

from ..scalars import ONE
from . import _verdict, e, ex, st, to


def torsion_sp_ranks():
    r = to.operator_ranks("SP1SP2")
    return f"domain {r['domain_dim']}, rank {r['dhat_rank']}"


def torsion_sp_kernels():
    ka = to.kernel_analysis("SP1SP2")
    ok = (
        ka["harmonic_dim"] == 64
        and ka["dirac_dim"] == 64
        and ka["kernels_equal"]
    )
    return _verdict(ok, f"{ka['harmonic_dim']} {ka['dirac_dim']}")


def torsion_L_anchor():
    if to._l_scale() != ONE:
        return _verdict(False, "calibration constant")
    t1 = e(1).contract(st.canonical_omega()) * 4
    if to.L_op(t1) != t1 * 2:
        return _verdict(False, "eigenvalue")
    want = ex.parse_form(
        "-6 e234 + 2 e256 - 2 e278 + 2 e357 + 2 e368 + 2 e458 - 2 e467"
    ) * 8
    return _verdict(t1 * 2 == want, "expansion")


def torsion_L_spectrum():
    return str(to.l_spectrum())
