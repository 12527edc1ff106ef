"""Classification of supersymmetric 3-forms on R^8.

A 3-form rho is supersymmetric when the induced map D- -> D+ is an
isometry; equivalently rho has unit norm and g([x,y],z) = rho(x,y,z)
defines a Lie bracket.  The possible brackets are su(3),
su(2)+su(2)+z^2 and su(2)+z^5, and the orbit kind is decided by the
center dimension of the extracted bracket.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd

from . import linalg as la
from .clifford import SpinorMap, _pair_classes, form_to_map, kappa_block
from .exterior import GRADE_MASKS, Multivector, indices_of, mask_of
from .scalars import CScalar, Frozen, Scalar

ZERO = Scalar(0)
ONE = Scalar(1)
_GRADE3 = GRADE_MASKS[3]


class OrbitError(ValueError):
    pass


def _triple_table():
    """(i, j, k) -> (sign, sorted triple, its blade mask) for every index
    triple in 1..8; the sign is the parity of the permutation sorting
    (i, j, k), and 0 when an index repeats."""
    table = {}
    for t in product(range(1, 9), repeat=3):
        key = tuple(sorted(t))
        if len(set(t)) < 3:
            table[t] = (0, key, None)
        else:
            odd = sum(a > b for a, b in combinations(t, 2)) % 2
            table[t] = (-1 if odd else 1, key, mask_of(key))
    return table


_TRIPLES = _triple_table()


def jac(rho, tau):
    """The 4-form Jac(rho (x) tau), the Jacobi obstruction.

    Jac_abcd is a sixth of the sum over the six pairings (xy|zw) of
    {a, b, c, d}, each taken as an even permutation of (a, b, c, d), of
    sum_k rho_xyk tau_zwk.  A term is nonzero only where a term e_xyk of
    rho and a term e_zwk of tau share exactly the index k, so the sum runs
    over such pairs of terms.
    """
    if not rho.is_homogeneous(3) or not tau.is_homogeneous(3):
        raise OrbitError("jac requires grade-3 forms")
    out = {}
    for m, r in rho.terms.items():
        for n, t in tau.terms.items():
            shared = m & n
            if not shared or shared & (shared - 1):
                continue
            (k,) = indices_of(shared)
            x, y = indices_of(m ^ shared)
            z, w = indices_of(n ^ shared)
            # the signs of (x, y, k), (z, w, k) and (x, y, z, w) against
            # their sorted orders
            sign = _TRIPLES[x, y, k][0] * _TRIPLES[z, w, k][0]
            if ((x > z) + (x > w) + (y > z) + (y > w)) % 2:
                sign = -sign
            p = r * t
            acc = out.get(m ^ n, ZERO)
            out[m ^ n] = acc + p if sign > 0 else acc - p
    sixth = ONE / 6
    return Multivector({key: v * sixth for key, v in out.items() if v})


def gamma(rho, tau, chirality):
    """Gamma(rho (x) tau): the chirality block of kappa(rho) kappa(tau).

    Both forms are odd, so the block is the product of the chirality
    block of kappa(rho) into `chirality` and that of kappa(tau) out of it.
    """
    if not rho.is_homogeneous(3) or not tau.is_homogeneous(3):
        raise OrbitError("gamma requires grade-3 forms")
    flip = "-" if chirality == "+" else "+"
    M = la.mat_mul(kappa_block(rho, chirality, flip), kappa_block(tau, flip, chirality))
    return SpinorMap._own(M, chirality, chirality)


def _unpack(v, width):
    """The parts (re, re r3, im, im r3), as ints, of a sum v of products of
    packed numerators: v = sum s_j 2^(width j) with signed slots s_j,
    |s_j| < 2^(width - 1), where slot u + 3 w holds the coefficient of
    r3^u i^w, and r3^2 = 3, i^2 = -1."""
    half = 1 << width - 1
    if -half <= v < half:
        return v, 0, 0, 0
    s = [0] * 9
    mask = (1 << width) - 1
    j = 0
    while v:
        t = ((v & mask) ^ half) - half
        s[j] = t
        v = (v - t) >> width
        j += 1
    return s[0] + 3 * s[2] - s[6] - 3 * s[8], s[1] - s[7], s[3] + 3 * s[5], s[4]


def _susy_pass(rho):
    """None when rho is supersymmetric, else the integer evidence against
    it, (L, norm, K, parts): the parts of L^2 sum c_I^2 when that sum is
    not 1, and the smallest class mask K whose signed sum is not zero with
    the parts of L^2 times that sum; each None when it holds.

    Every coefficient is read as (a + b r3 + (x + y r3) i)/L over one
    common denominator L and packed into one int
    a + b 2^W + x 2^(3W) + y 2^(4W), so that the product of two packed
    numerators carries the 9 coefficients of r3^u i^w (u, w <= 2) in W-bit
    slots: one integer multiply per pair of terms.  Then sum c_I^2 = 1 is
    sum num_I^2 = L^2 and each class of clifford._pair_classes sums signed
    integer products; see is_supersymmetric.
    """
    terms = rho.terms
    if not terms.keys() <= _GRADE3:
        raise OrbitError("expected a 3-form")
    nums = [c.numerators() for c in terms.values()]
    L = 1
    top = 0
    for a, b, x, y, d in nums:
        if L % d:
            L = L * d // gcd(L, d)
        t = a * a + b * b + x * x + y * y
        if t > top:
            top = t
    # a part over L is at most L sqrt(top); a slot sums at most 4 products
    # of parts in each of at most 56 squares or 24 pairs (the pairs of one
    # class), so |slot| < 2^8 top L^2 < 2^(width - 2)
    width = (top * L * L).bit_length() + 10
    w3 = 3 * width
    packed = []
    squares = 0
    for m, (a, b, x, y, d) in zip(terms, nums):
        v = (a + (b << width) + (x << w3) + (y << w3 + width)) * (L // d)
        packed.append((m, v))
        squares += v * v
    norm = _unpack(squares, width)
    if norm == (L * L, 0, 0, 0):
        norm = None
    classes = _pair_classes()
    sums = {}
    for at, (m, v) in enumerate(packed):
        m <<= 8
        for n, w in packed[at + 1:]:
            hit = classes.get(m | n)
            if hit is not None:
                k, sign = hit
                sums[k] = sums.get(k, 0) + sign * v * w
    bad = None
    for k, v in sums.items():
        if v and (bad is None or k < bad):
            parts = _unpack(v, width)
            if parts != (0, 0, 0, 0):
                bad, bad_parts = k, parts
    if bad is not None:
        return L, norm, bad, bad_parts
    return None if norm is None else (L, norm, None, None)


def is_supersymmetric(rho):
    """True iff the induced map M: D- -> D+ is an isometry, M^T M = Id,
    decided from pairs of terms in one pass over integer numerators,
    without building M or any Scalar.

    For rho = sum c_I e_I, M^T M = (sum c_I^2) Id + sum_{I<J} c_I c_J Q_IJ,
    where Q_IJ = +-2 S_K is nonzero only for blades sharing one index and
    S_K depends only on the class {K, K^c}, K = I xor J, of the pair
    (clifford._pair_classes).  Id and the 35 S_K are linearly independent,
    so M^T M = Id exactly when sum c_I^2 = 1 and, in every class, the
    signed sum of the c_I c_J vanishes.  Work is O(t^2) on t terms.
    """
    return _susy_pass(rho) is None


def supersymmetry_witness(rho):
    """None when rho is supersymmetric; else why not, as a dict, from the
    same pass as is_supersymmetric.

    When sum c_I^2 is not 1 it holds "norm2", that sum, and "unit_scale",
    1/sqrt(norm2), the scale that would make rho unit, or None when the
    square root is not in Q(r3).  When a class sum is not zero it holds
    "class", the indices of the smallest class mask K whose signed sum of
    products c_I c_J is not zero, and "sum", that sum s: the Gram matrix
    is M^T M = norm2 Id + 2 s S_K + (the other classes).
    """
    evidence = _susy_pass(rho)
    if evidence is None:
        return None
    L, norm, k, parts = evidence
    witness = {}
    if norm is not None:
        norm2 = _field_value(norm, L * L)
        root = norm2.sqrt() if type(norm2) is Scalar and norm2 else None
        witness["norm2"] = norm2
        witness["unit_scale"] = None if root is None else root.inverse()
    if k is not None:
        witness["class"] = indices_of(k)
        witness["sum"] = _field_value(parts, L * L)
    return witness


def _field_value(parts, den):
    """(re + re' r3 + (im + im' r3) i)/den as a Scalar, or a CScalar when
    its imaginary part is not zero."""
    re, re3, im, im3 = parts
    value = Scalar.from_ints(re, re3, den)
    return CScalar(value, Scalar.from_ints(im, im3, den)) if im or im3 else value


class BracketTable(Frozen):
    """Totally antisymmetric structure constants of an adapted bracket."""

    __slots__ = ("c",)

    def __init__(self, c):
        # c: dict (i<j<k) -> Scalar; extended antisymmetrically on lookup
        cleaned = {}
        for key, v in c.items():
            i, j, k = key
            if not (1 <= i < j < k <= 8):
                raise OrbitError("constants must be keyed by i<j<k")
            if v:
                cleaned[key] = v
        object.__setattr__(self, "c", cleaned)

    def coeff(self, i, j, k):
        sign, key, _ = _TRIPLES[i, j, k]
        if not sign:
            return ZERO
        v = self.c.get(key, ZERO)
        return v if sign > 0 else -v

    def bracket(self, x, y):
        """[x, y] for coordinate 8-vectors, as a coordinate 8-vector."""
        out = [ZERO] * 8
        for (i, j, k), v in self.c.items():
            # pairs (i,j)->k, (j,k)->i, (i,k)->j with signs +v, +v, -v
            for a, b, t, s in ((i, j, k, 1), (j, k, i, 1), (i, k, j, -1)):
                w = x[a - 1] * y[b - 1] - x[b - 1] * y[a - 1]
                if w:
                    out[t - 1] = out[t - 1] + (w * v if s > 0 else -(w * v))
        return out

    def ad(self, i):
        """Matrix of ad_{e_i}."""
        M = la.zeros(8, 8)
        for j in range(8):
            for k in range(8):
                M[k][j] = self.coeff(i + 1, j + 1, k + 1)
        return M

    def is_zero(self):
        return not self.c

    def jacobi_holds(self):
        """Jacobi identity in index form: with [e_i, e_j] = sum_t c_ijt e_t,
        sum_t c_ijt c_tkl + c_jkt c_til + c_kit c_tjl = 0 for all i<j<k, l."""
        # nonzero c_ijt per ordered pair (i, j), as (t, c_ijt)
        nonzero = {(i, j): [] for i in range(1, 9) for j in range(1, 9)}
        for (i, j, k), v in self.c.items():
            for a, b, t in ((i, j, k), (j, k, i), (k, i, j)):
                nonzero[a, b].append((t, v))
                nonzero[b, a].append((t, -v))
        for i, j, k in combinations(range(1, 9), 3):
            acc = {}
            for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
                for t, v in nonzero[a, b]:
                    for l, w in nonzero[t, d]:
                        acc[l] = acc.get(l, ZERO) + v * w
            if any(acc.values()):
                return False
        return True

    def killing_form(self):
        """K = -2 C C^T for the 8 x 28 matrix C[i][(k, l)] = c_ikl, k < l:
        by total antisymmetry tr(ad_i ad_j) = sum_{k,l} c_ilk c_jkl =
        -2 sum_{k<l} c_ikl c_jkl."""
        # the nonzero entries of each column (k, l) of C, as (row, c_ikl)
        columns = {}
        for (i, j, k), v in self.c.items():
            for pair, row, x in (((j, k), i, v), ((i, k), j, -v), ((i, j), k, v)):
                columns.setdefault(pair, []).append((row - 1, x))
        K = la.zeros(8, 8)
        for column in columns.values():
            for n, (i, x) in enumerate(column):
                for j, y in column[n:]:
                    a, b = (i, j) if i < j else (j, i)
                    K[a][b] = K[a][b] + x * y
        for i in range(8):
            for j in range(i, 8):
                K[i][j] = K[j][i] = K[i][j] * -2
        return K


def bracket_from_form(rho):
    """Structure constants c_{ijk} = rho(e_i, e_j, e_k)."""
    if not rho.is_homogeneous(3):
        raise OrbitError("expected a 3-form")
    return BracketTable({indices_of(m): v for m, v in rho.terms.items()})


def lie_classify(b):
    """(center_dim, derived_dim, reductive) for a Lie bracket table."""
    if not b.jacobi_holds():
        raise OrbitError("not a Lie bracket: Jacobi identity fails")
    ads = [b.ad(i) for i in range(8)]
    # center: common kernel of all ad_{e_i}, i.e. nullspace of stacked ads
    stacked = []
    for M in ads:
        stacked.extend(M)
    center_dim = 8 - la.rank(stacked)
    # derived subalgebra: span of all [e_i, e_j]
    vectors = []
    for i in range(8):
        for j in range(i + 1, 8):
            col = [b.coeff(i + 1, j + 1, k) for k in range(1, 9)]
            if any(col):
                vectors.append(col)
    derived = la.column_space_basis(vectors)
    derived_dim = len(derived)
    # reductive <=> center (+) derived = everything and the Killing form is
    # nondegenerate on the derived part
    reductive = False
    if center_dim + derived_dim == 8:
        K = b.killing_form()
        G = [
            [
                sum((x * y2 for x, y2 in zip(la.mat_vec(K, v), w)), ZERO)
                for w in derived
            ]
            for v in derived
        ]
        reductive = derived_dim == 0 or bool(la.det(G))
    return center_dim, derived_dim, reductive


class OrbitClass(Frozen):
    __slots__ = ("kind", "orientation", "params")

    KINDS = ("L1_psu3", "L2_su2su2_u1", "L3_sp1sp2", "NotSupersymmetric")

    def __init__(self, kind, orientation=None, params=None):
        if kind not in self.KINDS:
            raise OrbitError(f"unknown kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "orientation", orientation)
        object.__setattr__(self, "params", params)

    def __eq__(self, other):
        if not isinstance(other, OrbitClass):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.orientation == other.orientation
            and self.params == other.params
        )

    def __hash__(self):
        return hash((self.kind, self.orientation, self.params))

    def __repr__(self):
        bits = [self.kind]
        if self.orientation:
            bits.append(self.orientation)
        if self.params:
            bits.append(f"params={self.params}")
        return "OrbitClass(" + ", ".join(bits) + ")"


_NOT_SUPERSYMMETRIC = OrbitClass("NotSupersymmetric")


def _l2_params(b):
    """Squared norms of the restriction to the two su(2) ideals.

    The Killing form has eigenvalue -2 s^2 on one ideal and -2 t^2 on the
    other, with s^2 + t^2 = 1; tr K^2 = 12 (s^4 + t^4) pins the pair.
    K is symmetric, so tr K^2 is the sum of the squares of its entries.
    """
    tr2 = sum((x * x for row in b.killing_form() for x in row if x), ZERO)
    if type(tr2) is CScalar:  # a complex form: only a real tr K^2 gives norms in the field
        if tr2.im:
            raise OrbitError("ideal norms fall outside the scalar field")
        tr2 = tr2.re
    s4t4 = tr2 / 12
    # s^2, t^2 are roots of x^2 - x + (1 - (s^4+t^4))/2
    prod = (ONE - s4t4) / 2
    disc = ONE - 4 * prod
    root = disc.sqrt()
    if root is None:
        raise OrbitError("ideal norms fall outside the scalar field")
    hi = (ONE + root) / 2
    lo = (ONE - root) / 2
    return (hi, lo)


def orbit_classify(rho):
    if _susy_pass(rho) is not None:  # raises OrbitError unless a 3-form
        return _NOT_SUPERSYMMETRIC
    orientation = "preserving" if form_to_map(rho).det() == ONE else "reversing"
    b = bracket_from_form(rho)
    center_dim, _, _ = lie_classify(b)
    if center_dim == 0:
        kind, params = "L1_psu3", None
    elif center_dim == 2:
        kind, params = "L2_su2su2_u1", _l2_params(b)
    elif center_dim == 5:
        kind, params = "L3_sp1sp2", None
    else:
        raise OrbitError(
            f"internal inconsistency: isometry with center dimension {center_dim}"
        )
    return OrbitClass(kind, orientation, params)
