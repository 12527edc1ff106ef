"""Claims on the stabilizers of the canonical 3-form and of the
quaternionic 4-form."""

from . import _verdict, e, ex, la, st


def stab_rho():
    stab = st.stabilizer_cached("PSU3")
    if stab.dim != 8:
        return _verdict(False, f"dim {stab.dim}")
    rho = st.canonical_rho()
    vecs = []
    for i in range(1, 9):
        v = ex.to_vector(e(i).contract(rho), st.L2_MASKS)
        if not stab.contains(v):
            return _verdict(False, f"e{i} -| rho outside stabilizer")
        vecs.append(list(v))
    if la.rank(la.transpose(vecs)) != 8:
        return _verdict(False, "contractions do not span")
    return "ok"


def stab_omega():
    stab = st.stabilizer_cached("SP1SP2")
    if stab.dim != 13:
        return _verdict(False, f"dim {stab.dim}")
    for v in stab.basis:
        res = st.sp_stabilizer_residuals(st.l2_form(v))
        if len(res) != 15 or any(res):
            return _verdict(False, "residual equation fails")
    return "ok"
