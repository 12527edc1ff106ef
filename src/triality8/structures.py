"""Canonical invariant objects of the two geometries and their algebra:
the 3-form rho, the quaternionic 4-form Omega, stabilizer subalgebras,
projection operators on 2-forms, the structure-constant complex with its
cohomology, root/weight data and calibration checks.
"""

from __future__ import annotations

import random as _random
from functools import lru_cache
from itertools import combinations
from operator import mul

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
from .orbits import coeff3
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


PROJECTIONS = ("psu3_8", "psu3_20", "psu3_10+", "psu3_10-", "sp_3", "sp_10", "sp_15")


@lru_cache(maxsize=None)
def _psu3_split():
    """(2/3) sqrt(3) i star(c(alpha) ^ rho) for each basis 2-form alpha: the
    term whose sign picks out the complex halves of the 20-part, by the
    eigen-identity beta * rho = -+ sqrt(3) i star(rho ^ beta)."""
    rho = canonical_rho().complexify()
    return tuple(
        (c_apply(Multivector({m: ONE})).complexify() ^ rho).star()
        * (SQRT3 * 2 / Scalar(3)) * I
        for m in L2_MASKS
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
    projection, built once: the 20-part as 4/3 c_2^* c_2, the 8-part and
    the complex halves of the 20-part from its columns, and the sp parts
    from shared contractions with Omega."""
    if selector not in PROJECTIONS:
        raise ValueError(f"unknown selector {selector!r}")
    basis = [Multivector({m: ONE}) for m in L2_MASKS]
    if selector == "psu3_20":
        return tuple(_c2_then_adjoint(a) * (Scalar(4) / 3) for a in basis)
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
    return calibration_maxima({kind: count}, seed)[kind]


# the 2- and 3-subsets of the 8 columns, in the order of the minor lists,
# and the positions of the 2x2 cofactors (jk, ik, ij) of each (i, j, k)
_PAIRS = tuple(combinations(range(8), 2))
_TRIPLES = tuple(combinations(range(8), 3))
_AT = {s: n for subsets in (_PAIRS, _TRIPLES) for n, s in enumerate(subsets)}


def _cofactors(ix):
    """Positions of the minors on ix minus one column, for each column."""
    return tuple(_AT[ix[:a] + ix[a + 1:]] for a in range(len(ix)))


_TRIPLE_COFACTORS = tuple((t, _cofactors(t)) for t in _TRIPLES)


def calibration_maxima(counts, seed=20260826):
    """{kind: calibration_sample(kind, n, seed)} for each kind -> n of
    `counts`, from one Gaussian stream of 8-vectors drawn once.

    Sample s of a kind with k vectors reads stream vectors k*s ... k*s+k-1,
    orthonormalized in order, exactly as a lone call draws them, so each
    maximum is bitwise that of calibration_sample.  A term c e_I of the
    form is valued by the cofactor expansion of the minor on the columns I
    along its first row, with the float operations, in the order, of the
    recursive expansion (the oracle in tests/test_structures.py).  The 28
    2x2 minors of the last two vectors, and for k = 4 the 56 3x3 minors of
    the last three, are built once per sample: each 3-subset is a cofactor
    of exactly one of the 14 terms of Omega/6.
    """
    plan = []
    for kind, count in counts.items():
        tau, k = calibration_form(kind)
        terms = []
        for m, c in tau.terms.items():
            ix = tuple(i - 1 for i in indices_of(m))
            terms.append((c.to_float(), ix, _cofactors(ix)))
        plan.append((kind, k, k * count, terms))
    rng = _random.Random(seed)
    window = []  # the last 4 stream vectors
    best = {kind: float("-inf") for kind in counts}
    for pos in range(max((p[2] for p in plan), default=0)):
        window = window[-3:] + [[rng.gauss(0.0, 1.0) for _ in range(8)]]
        for kind, k, end, terms in plan:
            if pos % k != k - 1 or pos >= end:
                continue
            vecs = []
            for v in window[-k:]:
                for w in vecs:
                    d = sum(map(mul, v, w))
                    v = [a - d * b for a, b in zip(v, w)]
                n = sum(map(mul, v, v)) ** 0.5
                vecs.append([a / n for a in v])
            v, w = vecs[-2:]
            m = [v[a] * w[b] - v[b] * w[a] for a, b in _PAIRS]
            u = vecs[0]
            val = 0.0
            if k == 3:
                for c, (i, j, l), (a, b, d) in terms:
                    val += c * (u[i] * m[a] - u[j] * m[b] + u[l] * m[d])
            else:
                v = vecs[1]
                m = [v[i] * m[a] - v[j] * m[b] + v[l] * m[d]
                     for (i, j, l), (a, b, d) in _TRIPLE_COFACTORS]
                for c, (i, j, l, r), (a, b, d, f) in terms:
                    val += c * (0.0 + u[i] * m[a] - u[j] * m[b] + u[l] * m[d]
                                - u[r] * m[f])
            best[kind] = max(best[kind], abs(val))
    return best
