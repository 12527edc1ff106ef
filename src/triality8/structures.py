"""Canonical invariant objects of the two geometries and their algebra:
the 3-form rho, the quaternionic 4-form Omega, stabilizer subalgebras,
projection operators on 2-forms, the structure-constant complex with its
cohomology, root/weight data and calibration checks.
"""

from __future__ import annotations

import random as _random
from functools import lru_cache
from itertools import combinations

from . import linalg as la
from .clifford import SpinorMap
from .exterior import (
    Multivector,
    antiderivation,
    blades_of_grade,
    from_vector,
    indices_of,
    mask_of,
    to_vector,
)
from .orbits import bracket_from_form, coeff3
from .scalars import Frozen, I, SQRT3, Scalar, complexify, half, quarter

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
    """Exact subspace of a coordinatized ambient space."""

    __slots__ = ("ambient", "basis", "dim")

    def __init__(self, ambient, vectors):
        basis = la.column_space_basis(vectors)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "dim", len(basis))

    def contains(self, vector):
        return la.in_span(self.basis, vector)

    def equals(self, other):
        return self.dim == other.dim and all(
            other.contains(v) for v in self.basis
        )

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


@lru_cache(maxsize=None)
def stabilizer_cached(kind):
    if kind == "PSU3":
        return stabilizer(canonical_rho())
    if kind == "SP1SP2":
        return stabilizer(canonical_omega())
    raise ValueError(f"unknown kind {kind!r}")


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
            v = coeff3(rho, i, j, k)
            if v:
                terms[mask_of((j, k))] = v
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


@lru_cache(maxsize=None)
def lambda4_split():
    """(ker of the differential on Lambda^4, image of the adjoint from
    Lambda^5); the natural invariant splitting of Lambda^4, dims (35, 35)."""
    masks = blades_of_grade(4)
    out = Subspace("L4", la.nullspace(c_operator(4)))
    adj = c_adjoint(4)
    cols = [[adj[r][c] for r in range(len(masks))] for c in range(len(blades_of_grade(5)))]
    inn = Subspace("L4", cols)
    return out, inn


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


def _c2_then_adjoint(alpha):
    v = to_vector(alpha, L2_MASKS)
    w = la.mat_vec(c_operator(2), v)
    u = la.mat_vec(c_adjoint(2), w)
    return from_vector(u, L2_MASKS)


def project2(alpha, selector):
    """Invariant projections of a 2-form, per structure group."""
    if not alpha.is_homogeneous(2):
        raise ValueError("project2 expects a 2-form")
    if selector == "psu3_20":
        return _c2_then_adjoint(alpha) * (Scalar(4) / 3)
    if selector == "psu3_8":
        return alpha - project2(alpha, "psu3_20")
    if selector in ("psu3_10+", "psu3_10-"):
        # halves of the 20-part picked out by the eigen-identity
        # beta * rho = -+ sqrt(3) i star(rho ^ beta)
        rho = canonical_rho().complexify()
        a = _c2_then_adjoint(alpha) * (Scalar(2) / 3)
        b = (c_apply(alpha).complexify() ^ rho).star() * (SQRT3 * 2 / Scalar(3)) * I
        return a.complexify() + (-b if selector.endswith("+") else b)
    if selector in ("sp_3", "sp_10", "sp_15"):
        om = canonical_omega()
        a1 = alpha.contract(om)
        a2 = a1.contract(om)
        if selector == "sp_3":
            return (alpha * Scalar(-3) + a1 * 2 + a2) * (ONE / 32)
        if selector == "sp_10":
            return (alpha * 5 - a1 * 6 + a2) * (ONE / 32)
        return (alpha * 15 + a1 * 2 - a2) * (ONE / 16)
    raise ValueError(f"unknown selector {selector!r}")


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
    return SpinorMap(M, "v", "-" if chirality == "+" else "+")


# -- root and weight data --------------------------------------------------


class RootData(Frozen):
    __slots__ = ("kind", "torus", "weight_vectors", "extras")

    def __init__(self, kind, torus, weight_vectors, extras):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "torus", torus)
        object.__setattr__(self, "weight_vectors", weight_vectors)
        object.__setattr__(self, "extras", extras)


def _cvec(*pairs):
    """Complex 1-form from (index, CScalar) pairs."""
    return Multivector({mask_of((i,)): complexify(c) for i, c in pairs})


@lru_cache(maxsize=None)
def roots(kind):
    e = Multivector.blade
    one, i_ = ONE, I
    if kind == "PSU3":
        rho = canonical_rho()
        torus = {
            "x3": e(3).contract(rho),
            "x8": e(8).contract(rho),
        }
        wv = {
            "alpha1": _cvec((4, one), (5, -i_)),
            "alpha2": _cvec((6, one), (7, i_)),
            "alpha1+alpha2": _cvec((1, one), (2, -i_)),
        }
        # E_1=e5, F_1=-e4; E_2=-e6, F_2=e7; E_3=e1, F_3=e2
        extras = {
            "E": (e(5), -e(6), e(1)),
            "F": (-e(4), e(7), e(2)),
            "lambda": (
                (e(3) + SQRT3 * e(8)) * quarter(),
                (e(3) - SQRT3 * e(8)) * quarter(),
                e(3) * half(),
            ),
        }
        return RootData(kind, torus, wv, extras)
    if kind == "SP1SP2":
        w_i, _, _ = kaehler_forms()
        torus = {
            "a1": w_i * half(),
            "a2": e(1, 2) + e(3, 4) + e(5, 6) + e(7, 8),
            "a3": e(1, 2) + e(3, 4) - e(5, 6) - e(7, 8),
        }
        wv = {
            "(a+b1)/2": _cvec((5, one), (6, -i_)),
            "(a-b1)/2": _cvec((7, one), (8, i_)),
            "(a+b1)/2+b2": _cvec((1, one), (2, -i_)),
            "(a-b1)/2-b2": _cvec((3, one), (4, i_)),
        }
        return RootData(kind, torus, wv, {})
    raise ValueError(f"unknown kind {kind!r}")


def su2_triple_check():
    """The bracket relations [T,E_i] = lambda_i(T) F_i etc. for the
    distinguished su(2)-triples of the canonical bracket."""
    rd = roots("PSU3")
    b = bracket_from_form(canonical_rho())
    t_basis = (Multivector.blade(3), Multivector.blade(8))
    results = []
    for Ei, Fi, lam in zip(rd.extras["E"], rd.extras["F"], rd.extras["lambda"]):
        ok = True
        for T in t_basis:
            lT = lam.inner(T)
            tE = _bracket_mv(b, T, Ei)
            tF = _bracket_mv(b, T, Fi)
            ok = ok and tE == Fi * lT and tF == -(Ei * lT)
        ok = ok and _bracket_mv(b, Ei, Fi) == lam
        results.append(ok)
    return results


def _bracket_mv(b, x, y):
    xv = [x.coeff(i) for i in range(1, 9)]
    yv = [y.coeff(i) for i in range(1, 9)]
    out = b.bracket(xv, yv)
    return Multivector({1 << i: v for i, v in enumerate(out)})


def weight_eigen_check(kind):
    """Each weight vector is an exact eigenvector of every torus generator
    under the so(8)-action; returns {name: {torus_name: eigenvalue}}, with
    None where a weight vector is not an eigenvector."""
    rd = roots(kind)
    report = {}
    for name, w in rd.weight_vectors.items():
        evs = {}
        for tname, t in rd.torus.items():
            img = t.act2(w)
            pairs = [(img.terms.get(m, ZERO), w.terms.get(m, ZERO))
                     for m in img.terms.keys() | w.terms.keys()]
            try:
                evs[tname] = la.common_ratio(pairs)
            except la.RatioError:
                evs[tname] = None
        report[name] = evs
    return report


# -- calibrations ----------------------------------------------------------


def calibration_form(kind):
    if kind == "PSU3":
        return canonical_rho() * 2, 3
    if kind == "SP1SP2":
        return canonical_omega() * (ONE / 6), 4
    raise ValueError(f"unknown kind {kind!r}")


def calibration(kind, plane):
    """Evaluate the calibration form on an ordered orthonormal k-tuple of
    exact vectors (grade-1 multivectors)."""
    tau, k = calibration_form(kind)
    if len(plane) != k:
        raise ValueError(f"expected {k} vectors")
    for a in range(k):
        for b in range(a, k):
            v = plane[a].inner(plane[b])
            want = ONE if a == b else ZERO
            if v != want:
                raise ValueError("plane is not orthonormal")
    wedge = plane[0]
    for x in plane[1:]:
        wedge = wedge ^ x
    return tau.inner(wedge)


def calibration_sample(kind, count, seed=20260826):
    """Max of the calibration form over random float planes."""
    tau, k = calibration_form(kind)
    terms = [(indices_of(m), c.to_float()) for m, c in tau.terms.items()]
    rng = _random.Random(seed)
    best = float("-inf")
    for _ in range(count):
        vecs = []
        for _r in range(k):
            v = [rng.gauss(0.0, 1.0) for _ in range(8)]
            for w in vecs:
                d = sum(a * b for a, b in zip(v, w))
                v = [a - d * b for a, b in zip(v, w)]
            n = sum(a * a for a in v) ** 0.5
            vecs.append([a / n for a in v])
        val = 0.0
        for ix, c in terms:
            val += c * _minor_det([[vec[i - 1] for i in ix] for vec in vecs])
        best = max(best, abs(val))
    return best


def _minor_det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    if n == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    if n == 3:
        return (
            M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
            - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
            + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0])
        )
    det = 0.0
    for c in range(n):
        minor = [row[:c] + row[c + 1 :] for row in M[1:]]
        det += ((-1) ** c) * M[0][c] * _minor_det(minor)
    return det
