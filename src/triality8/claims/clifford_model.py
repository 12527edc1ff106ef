"""Claims on the octonionic Clifford model: the eight generator matrices
against the stored reference tables, the Clifford relations and the
action of the volume form."""

from ..scalars import Scalar
from . import _verdict, cf, e, la


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


def clifford_kappa_table():
    for m, entries in _KAPPA_TABLE.items():
        M = la.zeros(16, 16)
        for s, i, j in entries:
            M[i - 1][j - 1] = Scalar(-s)
            M[j - 1][i - 1] = Scalar(s)
        if not la.mat_eq(cf.kappa(e(m)), M):
            return _verdict(False, f"generator {m}")
    return "ok"


def clifford_relations():
    for i in range(1, 9):
        Ki = cf.kappa(e(i))
        if not la.mat_eq(la.mat_mul(Ki, Ki), la.mat_scale(la.identity(16), Scalar(-1))):
            return _verdict(False, f"square of generator {i}")
        for j in range(i + 1, 9):
            Kj = cf.kappa(e(j))
            A = la.mat_add(la.mat_mul(Ki, Kj), la.mat_mul(Kj, Ki))
            if not la.is_zero_matrix(A):
                return _verdict(False, f"anticommutator {i},{j}")
    return "ok"


def clifford_volume():
    vol = cf.kappa_form(e(1, 2, 3, 4, 5, 6, 7, 8))
    Id8 = la.identity(8)
    ok = (
        la.mat_eq(cf.block(vol, "+", "+"), Id8)
        and la.mat_eq(cf.block(vol, "-", "-"), la.mat_scale(Id8, Scalar(-1)))
        and la.is_zero_matrix(cf.block(vol, "+", "-"))
        and la.is_zero_matrix(cf.block(vol, "-", "+"))
    )
    return _verdict(ok)
