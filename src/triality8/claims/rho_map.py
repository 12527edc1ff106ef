"""Claims on the spinor map induced by the canonical 3-form: its
determinant and the stored reference matrix."""

from ..scalars import SQRT3, Scalar
from . import _verdict, cf, la, st


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


def orbit_det_rho1():
    return str(cf.form_to_map(st.canonical_rho()).det())


def orbit_rho_matrix():
    A = cf.form_to_map(st.canonical_rho())
    R = [[_scal(x) / 4 for x in row] for row in _RHOMAP_TIMES_4]
    return _verdict(la.mat_eq(A.matrix, R) and A.is_isometry())
