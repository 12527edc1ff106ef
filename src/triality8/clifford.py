"""The Clifford representation Cliff(R^8) = End(D+ (+) D-) built from the
octonions, and the Clifford action on spinors and spinor-valued 1-forms.

The octonions are Cayley-Dickson doubles of the quaternions with product
(a,b)(c,d) = (ac - conj(d) b, da + b conj(c)), in the basis
1, i, j, k, e, (0,i), (0,j), (0,k); _TABLE holds the products of basis
elements as integer 8-tuples.  kappa(u) is the block matrix
[[0, R_u], [-R_conj(u), 0]] where R_u is right multiplication; with this
convention kappa reproduces the eight reference matrices entry for entry.
A product of basis octonions is a signed basis octonion, so each generator
kappa(e_i), and with it each blade kappa(e_I), is a signed permutation of
the 16 spinor slots: one entry +-1 per row.  The generators are read from
_TABLE as such permutations, and kappa_form adds +-c at one entry per row
for each term c e_I.  kappa_block fills one 8x8 chirality block of
kappa(alpha) the same way; an even blade maps each chirality to itself
and an odd one swaps them, so a term either fills all 8 rows of the
block or none.  blade_apply multiplies a vector or matrix by the block of
one blade through its permutation, without building the block.
_pair_classes() derives, from the index pattern, how two 3-blades combine
in the Gram matrix of that block (orbits.is_supersymmetric).
Spinor slots: D+ = coordinates 1..8, D- = 9..16.
"""

from __future__ import annotations

from . import linalg as la
from .exterior import Multivector, blades_of_grade, indices_of
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
    def _own(cls, matrix, source, target):
        """A map that keeps `matrix` itself, without the defensive copy:
        for a matrix its caller has just built and shares with no one."""
        self = object.__new__(cls)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        return self

    @classmethod
    def identity(cls, tag):
        return cls(la.identity(8), tag, tag)

    def compose(self, other):
        """self o other; requires other.target == self.source."""
        if other.target != self.source:
            raise ValueError(
                f"cannot compose: {other.target!r} feeds {self.source!r}"
            )
        return SpinorMap._own(la.mat_mul(self.matrix, other.matrix), other.source, self.target)

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other):
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("tag mismatch")
        return SpinorMap._own(la.mat_add(self.matrix, other.matrix), self.source, self.target)

    def __sub__(self, other):
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("tag mismatch")
        return SpinorMap._own(la.mat_sub(self.matrix, other.matrix), self.source, self.target)

    def __neg__(self):
        return self * Scalar(-1)

    def __mul__(self, s):
        return SpinorMap._own(la.mat_scale(self.matrix, s), self.source, self.target)

    __rmul__ = __mul__

    def det(self):
        return la.det(self.matrix)

    def is_zero(self):
        return la.is_zero_matrix(self.matrix)

    def is_isometry(self):
        """M^T M = Id, one Gram entry at a time over the nonzero entries of
        each column; False at the first entry that differs.  Column j is
        read when the entries (i, j), i <= j, are due."""
        cols = []
        for j in range(8):
            cj = {r: row[j] for r, row in enumerate(self.matrix) if row[j]}
            cols.append(cj)
            for i, ci in enumerate(cols):
                s = ZERO
                for r, x in ci.items():
                    y = cj.get(r)
                    if y is not None:
                        s = s + x * y
                if s != (ONE if i == j else ZERO):
                    return False
        return True

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


def _generator(i):
    """kappa(e_i) as a signed permutation: row r holds (column, sign).

    R_u[a][b] is the coefficient of basis_a in basis_b * u, and for u the
    basis octonion i-1 each column b has its one entry at the row a where
    _TABLE[b][i-1] is nonzero.  conj(u) = u for the unit, -u otherwise.
    """
    conj = 1 if i == 1 else -1
    perm = [None] * 16
    for b in range(8):
        ((a, s),) = [(t, s) for t, s in enumerate(_TABLE[b][i - 1]) if s]
        perm[a] = (8 + b, s)
        perm[8 + a] = (b, -conj * s)
    return tuple(perm)


_GENERATORS = {i: _generator(i) for i in range(1, 9)}
_IDENTITY = tuple((r, 1) for r in range(16))


def _kappa_blade(mask):
    """kappa(e_I) = kappa(e_i1) ... kappa(e_ik) as a signed permutation."""
    perm = _IDENTITY
    for i in indices_of(mask):
        g = _GENERATORS[i]
        perm = tuple((g[c][0], s * g[c][1]) for c, s in perm)
    return perm


_BLADE_CACHE = {}


def _blade(mask):
    perm = _BLADE_CACHE.get(mask)
    if perm is None:
        perm = _BLADE_CACHE[mask] = _kappa_blade(mask)
    return perm


_PAIR_CLASSES = {}


def _pair_classes():
    """How pairs of 3-blades meet in the Gram matrix of the D- -> D+ block.

    For a 3-form rho = sum c_I e_I let B_I be the D- -> D+ block of
    kappa(e_I), a signed permutation, so B_I^T B_I = Id and the block
    M = sum c_I B_I has
        M^T M = (sum c_I^2) Id + sum_{I<J} c_I c_J Q_IJ,
        Q_IJ = B_I^T B_J + B_J^T B_I.
    Three facts, proved exactly in tests/test_clifford.py, make this a
    test of M^T M = Id on pairs of terms alone:
      1. Q_IJ != 0 exactly when e_I and e_J share one index;
      2. then Q_IJ = +-2 S_K, where S_K depends only on the pair {K, K^c}
         of complementary 4-sets with K = I xor J: 35 classes;
      3. Id, S_1, ..., S_35 are linearly independent (rank 36).
    Returns {(I << 8) | J: (K, sign)} for both orders of every pair of
    3-blade masks sharing one index, with K the smaller mask of the pair
    {K, K^c} and Q_IJ = 2 sign S_K, S_K the D- -> D- block of kappa(e_K).
    Built on first use from the index pattern, without the blades.
    kappa(e_I) is symmetric for a 3-blade, so B_I^T B_J is the D- -> D-
    block of kappa(e_I e_J), and e_I e_J = e_J e_I = eps e_{I xor J} with
    eps = -(-1)^#{a in I, b in J: a > b}, the shared e_r squaring to -1.
    When I xor J is the larger mask of its pair, e_{I xor J} = tau e_K vol
    with e_K e_{I xor J} = tau vol, tau = (-1)^(sum of the indices of K),
    and kappa(vol) = chi diag(Id, -Id), with chi read from the octonion
    table as row 0 of the product of the eight generators; the sign is
    then -eps tau chi.
    """
    if not _PAIR_CLASSES:
        row, chi = 0, 1
        for i in range(1, 9):
            row, s = _GENERATORS[i][row]
            chi *= s
        # the 4-set I xor J -> (K, the sign that turns eps into the class sign)
        to_class = {}
        for k in blades_of_grade(4):
            if k < 255 ^ k:
                to_class[k] = (k, 1)
                to_class[255 ^ k] = (k, chi if sum(indices_of(k)) % 2 else -chi)
        threes = blades_of_grade(3)
        for x, m in enumerate(threes):
            # bits b of the indices below an odd number of indices of m,
            # so that (-1)^#{a in m, b in n: a > b} = (-1)^|above & n|
            lo, mid, hi = indices_of(m)
            above = (1 << lo - 1) - 1 | (1 << hi - 1) - (1 << mid - 1)
            for n in threes[x + 1:]:
                shared = m & n
                if not shared or shared & (shared - 1):
                    continue
                k, t = to_class[m ^ n]
                sign = t if (above & n).bit_count() % 2 else -t
                _PAIR_CLASSES[m << 8 | n] = _PAIR_CLASSES[n << 8 | m] = (k, sign)
    return _PAIR_CLASSES


def kappa_form(alpha):
    """Extend kappa to Lambda* via kappa(e_I) = kappa(e_i1) ... kappa(e_ik)."""
    M = la.zeros(16, 16)
    for mask, c in alpha.terms.items():
        for Mr, (col, s) in zip(M, _blade(mask)):
            Mr[col] = Mr[col] + c if s > 0 else Mr[col] - c
    return M


def _block_rows(mask, target, source):
    """The 8 rows of kappa(e_I) in the target block, as (column, sign)
    pairs, or None when the blade maps them into the other block; and the
    first column of the source block."""
    c0 = 0 if source == "+" else 8
    rows = _blade(mask)[:8] if target == "+" else _blade(mask)[8:]
    return (rows if rows[0][0] // 8 == c0 // 8 else None), c0


def kappa_block(alpha, target, source):
    """block(kappa_form(alpha), target, source), filled straight from the
    blade permutations."""
    B = [[ZERO] * 8 for _ in range(8)]
    for mask, c in alpha.terms.items():
        rows, c0 = _block_rows(mask, target, source)
        if rows is None:
            continue
        c = ZERO + c  # a field element even for an int coefficient
        signed = (None, c, -c)  # indexed by the sign s = +-1
        for Br, (col, s) in zip(B, rows):
            col -= c0
            x = Br[col]
            # an entry no term has reached yet is still the ZERO object
            Br[col] = signed[s] if x is ZERO else x + signed[s]
    return B


def blade_apply(mask, target, source, x):
    """kappa_block(e_I, target, source) x for the blade e_I with bit mask
    `mask` and x a vector (8 entries) or a matrix (8 rows).  The block is a
    signed permutation, so entry or row r of the product is entry or row
    col(r) of x, signed; rows are copied.  A blade that maps the target rows
    into the other block gives zeros."""
    rows, c0 = _block_rows(mask, target, source)
    if isinstance(x[0], (list, tuple)):
        if rows is None:
            return [[ZERO] * len(x[0]) for _ in range(8)]
        return [list(x[c - c0]) if s > 0 else [-y for y in x[c - c0]] for c, s in rows]
    if rows is None:
        return [ZERO] * 8
    return [x[c - c0] if s > 0 else -x[c - c0] for c, s in rows]


def kappa(x):
    """kappa of a grade-1 multivector, as a 16x16 matrix."""
    if not x.is_homogeneous(1):
        raise ValueError("kappa requires a grade-1 form")
    return kappa_form(x)


def block(M, target, source):
    """Chirality block of a 16x16 matrix: target/source in {'+','-'}."""
    r0 = 0 if target == "+" else 8
    c0 = 0 if source == "+" else 8
    return [[M[r0 + r][c0 + c] for c in range(8)] for r in range(8)]


def form_to_map(rho):
    """The D- -> D+ block of kappa_form(rho), for a 3-form."""
    if not rho.is_homogeneous(3):
        raise ValueError("form_to_map requires a grade-3 form")
    return SpinorMap._own(kappa_block(rho, "+", "-"), "-", "+")


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
        img = blade_apply(1 << i, flip, t, [row[i] for row in sigma.matrix])
        out = [x + y for x, y in zip(out, img)]
    return Spinor(flip, out)


def iota(psi):
    """iota(psi)(X) = -X . psi / 8; right inverse of mu."""
    cols = []
    scale = Scalar(-1) / 8
    target = "-" if psi.chirality == "+" else "+"
    for i in range(8):
        img = blade_apply(1 << i, target, psi.chirality, psi.coords)
        cols.append([x * scale for x in img])
    return SpinorMap(la.transpose(cols), "v", target)


def spin_action(a, chirality):
    """so(8)-action of a 2-form on D+-: the chirality block of kappa(a)/2."""
    if not a.is_homogeneous(2):
        raise ValueError("spin_action requires a 2-form")
    M = kappa_block(a, chirality, chirality)
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
