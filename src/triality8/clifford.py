"""Octonions, the Clifford representation Cliff(R^8) = End(D+ (+) D-),
and the Clifford action on spinors and spinor-valued 1-forms.

Octonions are Cayley-Dickson doubles of the quaternions with product
(a,b)(c,d) = (ac - conj(d) b, da + b conj(c)), in the basis
1, i, j, k, e, (0,i), (0,j), (0,k).  kappa(u) is the block matrix
[[0, R_u], [-R_conj(u), 0]] where R_u is right multiplication; with this
convention kappa reproduces the eight reference matrices entry for entry.
Spinor slots: D+ = coordinates 1..8, D- = 9..16.
"""

from __future__ import annotations

from . import linalg as la
from .exterior import Multivector, indices_of
from .scalars import Frozen, Scalar, half

ZERO = Scalar(0)
ONE = Scalar(1)


def _qmul(x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def _qconj(x):
    return (x[0], -x[1], -x[2], -x[3])


def _oct_mul_raw(u, v):
    a, b = u[:4], u[4:]
    c, d = v[:4], v[4:]
    first = tuple(p - q for p, q in zip(_qmul(a, c), _qmul(_qconj(d), b)))
    second = tuple(p + q for p, q in zip(_qmul(d, a), _qmul(b, _qconj(c))))
    return first + second


# integer structure table: _TABLE[a][b] = coordinates of basis_a * basis_b
_TABLE = [
    [
        _oct_mul_raw(
            tuple(1 if t == a else 0 for t in range(8)),
            tuple(1 if t == b else 0 for t in range(8)),
        )
        for b in range(8)
    ]
    for a in range(8)
]


class Octonion(Frozen):
    """Element of the octonions, 8 Scalar coordinates."""

    __slots__ = ("coords",)

    BASIS_NAMES = ("1", "i", "j", "k", "e", "e.i", "e.j", "e.k")

    def __init__(self, coords):
        cs = tuple(c if isinstance(c, Scalar) else Scalar(c) for c in coords)
        if len(cs) != 8:
            raise ValueError("octonion needs 8 coordinates")
        object.__setattr__(self, "coords", cs)

    @classmethod
    def basis(cls, a):
        return cls([1 if t == a else 0 for t in range(8)])

    def __add__(self, other):
        return Octonion([x + y for x, y in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return Octonion([x - y for x, y in zip(self.coords, other.coords)])

    def __neg__(self):
        return Octonion([-x for x in self.coords])

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return Octonion([x * other for x in self.coords])
        out = [ZERO] * 8
        for a, x in enumerate(self.coords):
            if not x:
                continue
            for b, y in enumerate(other.coords):
                if not y:
                    continue
                xy = x * y
                for t, s in enumerate(_TABLE[a][b]):
                    if s:
                        out[t] = out[t] + xy * s
        return Octonion(out)

    __rmul__ = __mul__

    def conj(self):
        return Octonion([self.coords[0]] + [-x for x in self.coords[1:]])

    def norm2(self):
        s = ZERO
        for x in self.coords:
            s = s + x * x
        return s

    def __eq__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        parts = [
            f"{c} {n}" for c, n in zip(self.coords, self.BASIS_NAMES) if c
        ]
        return "Octonion(" + (" + ".join(parts) or "0") + ")"


def right_mult_matrix(u):
    """R_u with R_u[a][b] = coefficient of basis_a in basis_b * u."""
    M = la.zeros(8, 8)
    for b in range(8):
        w = Octonion.basis(b) * u
        for a in range(8):
            M[a][b] = w.coords[a]
    return M


class Spinor(Frozen):
    """Chirality-tagged spinor, 8 Scalar/CScalar coordinates."""

    __slots__ = ("chirality", "coords")

    def __init__(self, chirality, coords):
        if chirality not in ("+", "-"):
            raise ValueError("chirality must be '+' or '-'")
        object.__setattr__(self, "chirality", chirality)
        object.__setattr__(self, "coords", tuple(coords))

    @classmethod
    def basis(cls, chirality, a):
        return cls(chirality, [ONE if t == a else ZERO for t in range(8)])

    def __add__(self, other):
        if other.chirality != self.chirality:
            raise ValueError("chirality mismatch")
        return Spinor(self.chirality, [x + y for x, y in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Spinor(self.chirality, [-x for x in self.coords])

    def __mul__(self, s):
        return Spinor(self.chirality, [x * s for x in self.coords])

    __rmul__ = __mul__

    def is_zero(self):
        return all(not x for x in self.coords)

    def q(self, other):
        """The invariant inner product (Euclidean on each chirality)."""
        if other.chirality != self.chirality:
            return ZERO
        s = ZERO
        for x, y in zip(self.coords, other.coords):
            if x and y:
                s = s + x * y
        return s

    def __eq__(self, other):
        if not isinstance(other, Spinor):
            return NotImplemented
        return self.chirality == other.chirality and all(
            x == y for x, y in zip(self.coords, other.coords)
        )

    def __hash__(self):
        return hash((self.chirality, self.coords))

    def __repr__(self):
        return f"Spinor({self.chirality!r}, {list(self.coords)!r})"


_TAGS = ("v", "+", "-")  # Lambda^1, D+, D-


class SpinorMap(Frozen):
    """8x8 exact matrix between chirality-tagged spaces (or Lambda^1)."""

    __slots__ = ("matrix", "source", "target")

    def __init__(self, matrix, source, target):
        if source not in _TAGS or target not in _TAGS:
            raise ValueError(f"tags must be one of {_TAGS}")
        object.__setattr__(self, "matrix", [row[:] for row in matrix])
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)

    @classmethod
    def identity(cls, tag):
        return cls(la.identity(8), tag, tag)

    def compose(self, other):
        """self o other; requires other.target == self.source."""
        if other.target != self.source:
            raise ValueError(
                f"cannot compose: {other.target!r} feeds {self.source!r}"
            )
        return SpinorMap(la.mat_mul(self.matrix, other.matrix), other.source, self.target)

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other):
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("tag mismatch")
        return SpinorMap(la.mat_add(self.matrix, other.matrix), self.source, self.target)

    def __sub__(self, other):
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("tag mismatch")
        return SpinorMap(la.mat_sub(self.matrix, other.matrix), self.source, self.target)

    def __neg__(self):
        return self * Scalar(-1)

    def __mul__(self, s):
        return SpinorMap(la.mat_scale(self.matrix, s), self.source, self.target)

    __rmul__ = __mul__

    def transpose(self):
        return SpinorMap(la.transpose(self.matrix), self.target, self.source)

    def det(self):
        return la.det(self.matrix)

    def is_zero(self):
        return la.is_zero_matrix(self.matrix)

    def is_isometry(self):
        return la.mat_eq(
            la.mat_mul(la.transpose(self.matrix), self.matrix), la.identity(8)
        )

    def apply(self, v):
        """Apply to 8 coordinates (vector or Spinor), returning coordinates."""
        coords = v.coords if isinstance(v, Spinor) else v
        return la.mat_vec(self.matrix, list(coords))

    def column(self, i):
        """Image of e_{i+1} / basis spinor i, as a Spinor when target is D+-."""
        col = [self.matrix[r][i] for r in range(8)]
        if self.target in ("+", "-"):
            return Spinor(self.target, col)
        return col

    def __eq__(self, other):
        if not isinstance(other, SpinorMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and la.mat_eq(self.matrix, other.matrix)
        )

    def __repr__(self):
        return f"SpinorMap({self.source!r}->{self.target!r})"


# -- the Clifford representation -------------------------------------------


def kappa(x):
    """kappa of a grade-1 multivector, as a 16x16 matrix."""
    if not x.is_homogeneous(1):
        raise ValueError("kappa requires a grade-1 form")
    u = Octonion([x.coeff(i) for i in range(1, 9)])
    R = right_mult_matrix(u)
    Rc = right_mult_matrix(u.conj())
    M = la.zeros(16, 16)
    for a in range(8):
        for b in range(8):
            M[a][8 + b] = R[a][b]
            M[8 + a][b] = -Rc[a][b]
    return M


def _kappa_blade(mask):
    M = la.identity(16)
    for i in indices_of(mask):
        M = la.mat_mul(M, kappa(Multivector.blade(i)))
    return M


_BLADE_CACHE = {}


def kappa_form(alpha):
    """Extend kappa to Lambda* via kappa(e_I) = kappa(e_i1) ... kappa(e_ik)."""
    M = la.zeros(16, 16)
    for mask, c in alpha.terms.items():
        K = _BLADE_CACHE.get(mask)
        if K is None:
            K = _BLADE_CACHE[mask] = _kappa_blade(mask)
        for r in range(16):
            Kr = K[r]
            Mr = M[r]
            for s in range(16):
                if Kr[s]:
                    Mr[s] = Mr[s] + c * Kr[s]
    return M


def block(M, target, source):
    """Chirality block of a 16x16 matrix: target/source in {'+','-'}."""
    r0 = 0 if target == "+" else 8
    c0 = 0 if source == "+" else 8
    return [[M[r0 + r][c0 + c] for c in range(8)] for r in range(8)]


def form_to_map(rho):
    """The D- -> D+ block of kappa_form(rho), for a 3-form."""
    if not rho.is_homogeneous(3):
        raise ValueError("form_to_map requires a grade-3 form")
    return SpinorMap(block(kappa_form(rho), "+", "-"), "-", "+")


def q_adjoint_check(alpha):
    """Transpose sign law kappa(alpha)^T = (-1)^{p(p+1)/2} kappa(alpha)."""
    gs = alpha.grades()
    if len(gs) != 1:
        raise ValueError("q_adjoint_check requires a homogeneous form")
    p = gs[0]
    sign = -1 if (p * (p + 1) // 2) % 2 else 1
    M = kappa_form(alpha)
    return la.mat_eq(la.transpose(M), la.mat_scale(M, Scalar(sign))), sign


# -- spinor-valued 1-forms -------------------------------------------------
#
# A spinor-valued 1-form sigma: Lambda^1 -> D+- is a SpinorMap with
# source "v"; column i is sigma(e_{i+1}).


def mu(sigma):
    """Clifford multiplication mu(sigma) = sum_i e_i . sigma(e_i)."""
    if sigma.source != "v" or sigma.target not in ("+", "-"):
        raise ValueError("mu expects a map Lambda^1 -> D+-")
    t = sigma.target
    flip = "-" if t == "+" else "+"
    out = [ZERO] * 8
    for i in range(8):
        B = block(kappa(Multivector.blade(i + 1)), flip, t)
        img = la.mat_vec(B, list(sigma.column(i).coords))
        out = [x + y for x, y in zip(out, img)]
    return Spinor(flip, out)


def iota(psi):
    """iota(psi)(X) = -X . psi / 8; right inverse of mu."""
    cols = []
    scale = Scalar(-1) / 8
    target = "-" if psi.chirality == "+" else "+"
    for i in range(8):
        B = block(kappa(Multivector.blade(i + 1)), target, psi.chirality)
        img = la.mat_vec(B, list(psi.coords))
        cols.append([x * scale for x in img])
    return SpinorMap(la.transpose(cols), "v", target)


def spin_action(a, chirality):
    """so(8)-action of a 2-form on D+-: the chirality block of kappa(a)/2."""
    if not a.is_homogeneous(2):
        raise ValueError("spin_action requires a 2-form")
    M = block(kappa_form(a), chirality, chirality)
    return SpinorMap(la.mat_scale(M, half()), chirality, chirality)


def vector_action_matrix(a):
    """The 8x8 matrix of Z |-> a * Z on Lambda^1 (exterior.act2)."""
    M = la.zeros(8, 8)
    for j in range(8):
        w = a.act2(Multivector.blade(j + 1))
        for i in range(8):
            M[i][j] = w.coeff(i + 1)
    return M


def act2_svf(a, sigma):
    """so(8)-action of a 2-form on a spinor-valued 1-form.

    a(psi (x) Z) = (spin action on psi) (x) Z + psi (x) a*Z, i.e. on the
    matrix sigma: (kappa(a)/2) sigma - sigma A with A = matrix of a* on
    Lambda^1.
    """
    if sigma.source != "v":
        raise ValueError("expected a map out of Lambda^1")
    spin = spin_action(a, sigma.target)
    A = SpinorMap(vector_action_matrix(a), "v", "v")
    return spin @ sigma - sigma @ A
