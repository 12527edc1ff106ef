"""Canonical invariant objects of the two geometries and their algebra:
the 3-form rho, the quaternionic 4-form Omega, stabilizer subalgebras,
projection operators on 2-forms, the structure-constant complex with its
cohomology, and the supersymmetric spinor-valued 1-forms.  The
calibrations are in ``calibration``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from . import lazy
from .exterior import (
    Multivector,
    antiderivation,
    blades_of_grade,
    from_vector,
    mask_of,
    to_vector,
)
from .scalars import Frozen, I, SQRT3, Scalar, half, quarter

# run when first used: the calibration claims need neither
cf = lazy("clifford")
la = lazy("linalg")

ZERO = Scalar(0)
ONE = Scalar(1)


@lru_cache(maxsize=None)
def canonical_rho():
    e = Multivector.blade
    q = quarter()
    return (
        e(1, 2, 3) * half()
        + (e(1) ^ (e(4, 7) - e(5, 6))) * q
        + (e(2) ^ (e(4, 6) + e(5, 7))) * q
        + (e(3) ^ (e(4, 5) - e(6, 7))) * q
        + (e(8) ^ (e(4, 5) + e(6, 7))) * (SQRT3 * q)
    )


@lru_cache(maxsize=None)
def kaehler_forms():
    e = Multivector.blade
    w_i = e(1, 2) - e(3, 4) + e(5, 6) - e(7, 8)
    w_j = e(1, 3) + e(2, 4) + e(5, 7) + e(6, 8)
    w_k = e(1, 4) - e(2, 3) + e(5, 8) - e(6, 7)
    return w_i, w_j, w_k


@lru_cache(maxsize=None)
def canonical_omega():
    w_i, w_j, w_k = kaehler_forms()
    return (w_i ^ w_i) + (w_j ^ w_j) + (w_k ^ w_k)


class Subspace(Frozen):
    """Exact subspace of a coordinatized ambient space with the given basis:
    the vectors must be linearly independent (a nullspace is; reduce a
    spanning set with la.column_space_basis first)."""

    __slots__ = ("ambient", "basis", "dim")

    def __init__(self, ambient, basis):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "dim", len(basis))

    def contains(self, vector):
        return la.in_span(self.basis, vector)

    def __repr__(self):
        return f"Subspace({self.ambient!r}, dim={self.dim})"


L2_MASKS = tuple(blades_of_grade(2))


def _act_matrix_on(gamma_form):
    """Matrix of a in Lambda^2 |-> a * gamma, in blade coordinates."""
    out_masks = sorted(
        {m for a in L2_MASKS for m in Multivector({a: ONE}).act2(gamma_form).terms}
    ) or [0]
    cols = []
    for a in L2_MASKS:
        img = Multivector({a: ONE}).act2(gamma_form)
        cols.append([img.terms.get(m, ZERO) for m in out_masks])
    return la.transpose(cols)


def stabilizer(gamma_form):
    """Subspace of Lambda^2 annihilating gamma under the so(8)-action."""
    M = _act_matrix_on(gamma_form)
    return Subspace("L2", la.nullspace(M))


def invariant_form(kind):
    """(canonical invariant form, its degree) of the geometry named kind."""
    if kind == "PSU3":
        return canonical_rho(), 3
    if kind == "SP1SP2":
        return canonical_omega(), 4
    raise ValueError(f"unknown kind {kind!r}")


@lru_cache(maxsize=None)
def stabilizer_cached(kind):
    return stabilizer(invariant_form(kind)[0])


def l2_vector(alpha):
    return to_vector(alpha, L2_MASKS)


def l2_form(vector):
    return from_vector(vector, L2_MASKS)


# -- the structure-constant complex ----------------------------------------
#
# c_1 e_i = sum_{j<k} C_ijk e_j ^ e_k, extended as a graded
# anti-derivation; its square vanishes since the constants obey the
# Jacobi identity.  The normalization C_ijk = rho_ijk is the one for
# which c_2(alpha) = alpha * rho (the infinitesimal rotation of rho),
# which pins sign and scale.


@lru_cache(maxsize=None)
def _c1_images():
    rho = canonical_rho()
    imgs = []
    for i in range(1, 9):
        terms = {}
        for j, k in combinations(range(1, 9), 2):
            if i in (j, k):
                continue
            v = rho.terms.get(mask_of((i, j, k)))
            if v:
                # rho_ijk is -rho_jik when i lies between j and k
                terms[mask_of((j, k))] = -v if j < i < k else v
        imgs.append(Multivector(terms))
    return imgs


def c_apply(alpha):
    """The invariant differential on Lambda*, an anti-derivation."""
    return antiderivation(alpha, _c1_images())


@lru_cache(maxsize=None)
def c_operator(k):
    """Exact matrix of the differential Lambda^k -> Lambda^{k+1}."""
    src = blades_of_grade(k)
    dst = blades_of_grade(k + 1)
    pos = {m: r for r, m in enumerate(dst)}
    M = la.zeros(len(dst), len(src))
    for cidx, m in enumerate(src):
        img = c_apply(Multivector({m: ONE}))
        for mm, v in img.terms.items():
            M[pos[mm]][cidx] = v
    return M


def c_adjoint(k):
    """Metric adjoint Lambda^{k+1} -> Lambda^k (transpose in blade basis)."""
    return la.transpose(c_operator(k))


@lru_cache(maxsize=None)
def betti():
    dims = []
    ranks = [0] + [la.rank(c_operator(k)) for k in range(8)] + [0]
    for k in range(9):
        n = len(blades_of_grade(k))
        dims.append(n - ranks[k + 1] - ranks[k])
    return tuple(dims)


def p3(alpha):
    """c_4^* c_3 on 3-forms."""
    if not alpha.is_homogeneous(3):
        raise ValueError("p3 expects a 3-form")
    v = to_vector(alpha, blades_of_grade(3))
    w = la.mat_vec(c_operator(3), v)
    u = la.mat_vec(c_adjoint(3), w)
    return from_vector(u, blades_of_grade(3))


# 15 linear equations cutting out the stabilizer of the quaternionic
# 4-form inside Lambda^2; entries are signed index pairs of a_{ij}.
SP_STABILIZER_EQUATIONS = (
    ((1, (6, 8)), (-1, (1, 3)), (-1, (2, 4)), (1, (5, 7))),
    ((1, (4, 6)), (-1, (1, 7))),
    ((1, (4, 7)), (-1, (2, 5))),
    ((1, (2, 3)), (-1, (1, 4)), (-1, (6, 7)), (1, (5, 8))),
    ((1, (3, 5)), (1, (1, 7))),
    ((1, (2, 8)), (1, (1, 7))),
    ((1, (3, 4)), (-1, (7, 8)), (1, (5, 6)), (-1, (1, 2))),
    ((1, (4, 5)), (1, (1, 8))),
    ((1, (2, 6)), (-1, (4, 8))),
    ((1, (3, 8)), (1, (2, 5))),
    ((1, (1, 6)), (1, (2, 5))),
    ((1, (2, 7)), (-1, (1, 8))),
    ((1, (3, 6)), (1, (1, 8))),
    ((1, (1, 5)), (-1, (4, 8))),
    ((1, (3, 7)), (-1, (4, 8))),
)


def sp_stabilizer_residuals(alpha):
    """The 15 linear combinations of a_{ij} that vanish exactly on the
    stabilizer of the quaternionic 4-form."""
    out = []
    for eq in SP_STABILIZER_EQUATIONS:
        s = ZERO
        for sgn, (i, j) in eq:
            v = alpha.coeff(i, j)
            s = s + (v if sgn > 0 else -v)
        out.append(s)
    return out


# -- projections on 2-forms ------------------------------------------------


@lru_cache(maxsize=None)
def _c2_images():
    """c_apply of the 28 basis 2-forms, in L2_MASKS order."""
    return tuple(c_apply(Multivector({m: ONE})) for m in L2_MASKS)


PROJECTIONS = ("psu3_8", "psu3_20", "psu3_10+", "psu3_10-", "sp_3", "sp_10", "sp_15")


@lru_cache(maxsize=None)
def _psu3_split():
    """(2/3) sqrt(3) i star(c(alpha) ^ rho) for each basis 2-form alpha: the
    term whose sign picks out the complex halves of the 20-part, by the
    eigen-identity beta * rho = -+ sqrt(3) i star(rho ^ beta)."""
    rho = canonical_rho().complexify()
    return tuple(
        (c.complexify() ^ rho).star() * (SQRT3 * 2 / Scalar(3)) * I
        for c in _c2_images()
    )


@lru_cache(maxsize=None)
def _omega_contractions():
    """(alpha -| Omega, alpha -| Omega -| Omega) for each basis 2-form alpha,
    shared by the three sp projections."""
    om = canonical_omega()
    out = []
    for m in L2_MASKS:
        a1 = Multivector({m: ONE}).contract(om)
        out.append((a1, a1.contract(om)))
    return tuple(out)


# sp projection = (c0 alpha + c1 alpha -| Omega + c2 alpha -| Omega -| Omega) / d
_SP_WEIGHTS = {"sp_3": (-3, 2, 1, 32), "sp_10": (5, -6, 1, 32), "sp_15": (15, 2, -1, 16)}


@lru_cache(maxsize=None)
def projection_columns(selector):
    """The images of the 28 basis 2-forms (in L2_MASKS order) under one
    projection, built once: the 20-part as 4/3 c_2^* c_2, whose entries
    4/3 <c_2 e_a, c_2 e_b> are inner products of the sparse images of the
    basis (406 pairs, by symmetry), the 8-part and the complex halves of
    the 20-part from its columns, and the sp parts from shared
    contractions with Omega."""
    if selector not in PROJECTIONS:
        raise ValueError(f"unknown selector {selector!r}")
    basis = [Multivector({m: ONE}) for m in L2_MASKS]
    if selector == "psu3_20":
        images = _c2_images()
        gram = [[None] * len(images) for _ in images]
        for a, ca in enumerate(images):
            for b in range(a, len(images)):
                gram[a][b] = gram[b][a] = ca.inner(images[b])
        scale = Scalar(4) / 3
        return tuple(
            Multivector({m: v * scale for m, v in zip(L2_MASKS, row)})
            for row in gram
        )
    if selector == "psu3_8":
        return tuple(a - p for a, p in zip(basis, projection_columns("psu3_20")))
    if selector.startswith("psu3_10"):
        plus = selector.endswith("+")
        return tuple(
            (p * half()).complexify() + (-b if plus else b)
            for p, b in zip(projection_columns("psu3_20"), _psu3_split())
        )
    c0, c1, c2, d = _SP_WEIGHTS[selector]
    return tuple(
        (a * c0 + a1 * c1 + a2 * c2) * (ONE / d)
        for a, (a1, a2) in zip(basis, _omega_contractions())
    )


_L2_POSITION = {m: n for n, m in enumerate(L2_MASKS)}


def project2(alpha, selector):
    """Invariant projections of a 2-form, per structure group: "psu3_8",
    "psu3_20" and its complex halves "psu3_10+"/"psu3_10-" for the 3-form,
    "sp_3", "sp_10", "sp_15" for the 4-form.  Each is a complex-linear map,
    applied as the sum of the input's coefficients times the cached images
    of its basis 2-forms (``projection_columns``)."""
    if not alpha.is_homogeneous(2):
        raise ValueError("project2 expects a 2-form")
    columns = projection_columns(selector)
    out = {}
    for m, c in alpha.terms.items():
        for k, v in columns[_L2_POSITION[m]].terms.items():
            t = c * v
            s = out.get(k)
            out[k] = t if s is None else s + t
    return Multivector(out)


# -- supersymmetric maps (reference matrices) ------------------------------


def _sig(rows):
    table = {"0": ZERO, "h": half(), "q": quarter(), "r": SQRT3 * quarter(), "1": ONE}
    out = []
    for row in rows:
        out_row = []
        for tok in row.split():
            neg = tok.startswith("-")
            v = table[tok.lstrip("-")]
            out_row.append(-v if neg else v)
        out.append(out_row)
    return out


_SIGMA_PSU3_PLUS = _sig(
    [
        "0 -h 0 q -r -q r h",
        "-h 0 -h -r -q -r -q 0",
        "0 h 0 q -r q -r h",
        "-h 0 h r q -r -q 0",
        "0 -h 0 -q r q -r h",
        "h 0 h -r -q -r -q 0",
        "0 -h 0 q -r q -r -h",
        "-h 0 h -r -q r q 0",
    ]
)

_SIGMA_PSU3_MINUS = _sig(
    [
        "-h 0 h r -q -r q 0",
        "0 -h 0 q r q r h",
        "-h 0 -h -r q -r q 0",
        "0 h 0 q r -q -r h",
        "-h 0 h -r q r -q 0",
        "0 h 0 q r q r -h",
        "h 0 h -r q -r q 0",
        "0 h 0 -q -r q r h",
    ]
)

_SIGMA_SP_PLUS = _sig(
    [
        "1 0 0 0 0 0 0 0",
        "0 -1 0 0 0 0 0 0",
        "0 0 -1 0 0 0 0 0",
        "0 0 0 -1 0 0 0 0",
        "0 0 0 0 1 0 0 0",
        "0 0 0 0 0 1 0 0",
        "0 0 0 0 0 0 1 0",
        "0 0 0 0 0 0 0 1",
    ]
)


def sigma_canonical(kind, chirality):
    """The invariant supersymmetric map of the given label.

    The labels follow the classical presentation of these matrices; in
    the chirality convention fixed by clifford (volume = +Id on D+), the
    map labelled '+' takes values in the '-' block and vice versa.  The
    SpinorMap target tag records the actual codomain.
    """
    if kind == "PSU3":
        M = _SIGMA_PSU3_PLUS if chirality == "+" else _SIGMA_PSU3_MINUS
    elif kind == "SP1SP2":
        if chirality != "+":
            raise ValueError("only the '+'-labelled map is available")
        M = _SIGMA_SP_PLUS
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return cf.SpinorMap(M, "v", "-" if chirality == "+" else "+")
