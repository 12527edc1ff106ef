"""Classification of supersymmetric 3-forms on R^8.

A 3-form rho is supersymmetric when the induced map D- -> D+ is an
isometry; equivalently rho has unit norm and g([x,y],z) = rho(x,y,z)
defines a Lie bracket.  The possible brackets are su(3),
su(2)+su(2)+z^2 and su(2)+z^5, and the orbit kind is decided by the
center dimension of the extracted bracket.
"""

from __future__ import annotations

from itertools import combinations, product

from . import linalg as la
from .clifford import SpinorMap, _pair_classes, form_to_map, kappa_block
from .exterior import Multivector, indices_of, mask_of
from .scalars import Frozen, Scalar

ZERO = Scalar(0)
ONE = Scalar(1)


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


def coeff3(rho, i, j, k):
    """Fully antisymmetric coefficient rho_{ijk} for arbitrary index order."""
    sign, _, mask = _TRIPLES[i, j, k]
    if not sign:
        return ZERO
    c = rho.terms.get(mask, ZERO)
    return c if sign > 0 else -c


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


def is_supersymmetric(rho):
    """True iff the induced map M: D- -> D+ is an isometry, M^T M = Id,
    decided from pairs of terms without building M.

    For rho = sum c_I e_I, M^T M = (sum c_I^2) Id + sum_{I<J} c_I c_J Q_IJ,
    where Q_IJ = +-2 S_K is nonzero only for blades sharing one index and
    S_K depends only on the class {K, K^c}, K = I xor J, of the pair
    (clifford._pair_classes).  Id and the 35 S_K are linearly independent,
    so M^T M = Id exactly when sum c_I^2 = 1 and, in every class, the
    signed sum of the c_I c_J vanishes.  Work is O(t^2) on t terms.
    """
    if not rho.is_homogeneous(3):
        raise OrbitError("expected a 3-form")
    if rho.norm2() != ONE:
        return False
    terms = list(rho.terms.items())
    classes = _pair_classes()
    sums = {}
    for a, (m, c) in enumerate(terms):
        m <<= 8
        for n, d in terms[a + 1:]:
            hit = classes.get(m | n)
            if hit is not None:
                k, sign = hit
                p = c * d
                acc = sums.get(k)
                if acc is None:
                    sums[k] = p if sign > 0 else -p
                else:
                    sums[k] = acc + p if sign > 0 else acc - p
    return not any(sums.values())


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
        ads = [self.ad(i) for i in range(8)]
        K = la.zeros(8, 8)
        for i in range(8):
            for j in range(i, 8):
                M = la.mat_mul(ads[i], ads[j])
                t = ZERO
                for r in range(8):
                    t = t + M[r][r]
                K[i][j] = t
                K[j][i] = t
        return K


def bracket_from_form(rho):
    """Structure constants c_{ijk} = rho(e_i, e_j, e_k)."""
    if not rho.is_homogeneous(3):
        raise OrbitError("expected a 3-form")
    return BracketTable({indices_of(m): v for m, v in rho.terms.items()})


def form_from_bracket(b):
    """Unit-norm 3-form with rho(x,y,z) = g([x,y],z), up to scale."""
    if b.is_zero():
        raise OrbitError("cannot normalize the zero bracket")
    rho = Multivector({mask_of(key): v for key, v in b.c.items()})
    n2 = rho.norm2()
    n = n2.sqrt() if isinstance(n2, Scalar) else None
    if n is None:
        raise OrbitError("norm falls outside the scalar field")
    return rho * n.inverse()


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
                sum_scalar(x * y2 for x, y2 in zip(la.mat_vec(K, v), w))
                for w in derived
            ]
            for v in derived
        ]
        reductive = derived_dim == 0 or bool(la.det(G))
    return center_dim, derived_dim, reductive


def sum_scalar(items):
    s = ZERO
    for x in items:
        s = s + x
    return s


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


def _l2_params(b):
    """Squared norms of the restriction to the two su(2) ideals.

    The Killing form has eigenvalue -2 s^2 on one ideal and -2 t^2 on the
    other, with s^2 + t^2 = 1; tr K^2 = 12 (s^4 + t^4) pins the pair.
    """
    K = b.killing_form()
    K2 = la.mat_mul(K, K)
    tr2 = sum_scalar(K2[i][i] for i in range(8))
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
    if not is_supersymmetric(rho):  # raises OrbitError unless a 3-form
        return OrbitClass("NotSupersymmetric")
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
