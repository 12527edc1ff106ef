"""Claims on the contraction complex of the canonical 3-form: c . c = 0,
its cohomology, its degree-two action and the degree-three anchors."""

from ..scalars import ONE, SQRT3
from . import _verdict, e, ex, la, st


def ccomplex_c_squared():
    for k in range(7):
        if not la.is_zero_matrix(la.mat_mul(st.c_operator(k + 1), st.c_operator(k))):
            return _verdict(False, f"degree {k}")
    return "ok"


def ccomplex_betti():
    return str(tuple(st.betti()))


def ccomplex_c2_action():
    rho = st.canonical_rho()
    for m in st.L2_MASKS:
        alpha = ex.Multivector({m: ONE})
        if st.c_apply(alpha) != alpha.act2(rho):
            return _verdict(False, str(alpha))
    return "ok"


def ccomplex_p3_anchors():
    a = e(1, 2, 8)
    p = st.p3(a)
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
    if st.p3(p) != want2:
        return _verdict(False, "p3^2")
    want3 = (
        e(1, 2, 4, 5) * (SQRT3 * 7) + e(1, 2, 6, 7) * (SQRT3 * 7)
        - e(1, 4, 6, 8) * 9 - e(1, 5, 7, 8) * 9
        + e(2, 4, 7, 8) * 9 - e(2, 5, 6, 8) * 9
    ) * (ONE / 32)
    if st.c_apply(p) != want3:
        return _verdict(False, "c3 p3")
    return "ok"
