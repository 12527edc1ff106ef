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
from .clifford import SpinorMap, block, form_to_map, kappa_form
from .exterior import Multivector, mask_of
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
    """The 4-form Jac(rho (x) tau), the Jacobi obstruction."""
    if not rho.is_homogeneous(3) or not tau.is_homogeneous(3):
        raise OrbitError("jac requires grade-3 forms")

    def pair(x, y, z, w):
        s = ZERO
        for k in range(1, 9):
            r = coeff3(rho, x, y, k)
            if r:
                t = coeff3(tau, z, w, k)
                if t:
                    s = s + r * t
        return s

    sixth = ONE / 6
    out = {}
    for a, b, c, d in combinations(range(1, 9), 4):
        v = (
            pair(a, b, c, d)
            + pair(a, c, d, b)
            + pair(a, d, b, c)
            + pair(b, c, a, d)
            + pair(b, d, c, a)
            + pair(c, d, a, b)
        )
        if v:
            out[mask_of((a, b, c, d))] = v * sixth
    return Multivector(out)


def gamma(rho, tau, chirality):
    """Gamma(rho (x) tau): the chirality block of kappa(rho) kappa(tau)."""
    if not rho.is_homogeneous(3) or not tau.is_homogeneous(3):
        raise OrbitError("gamma requires grade-3 forms")
    M = la.mat_mul(kappa_form(rho), kappa_form(tau))
    return SpinorMap(block(M, chirality, chirality), chirality, chirality)


def is_supersymmetric(rho):
    """True iff the induced map D- -> D+ is an isometry."""
    return form_to_map(rho).is_isometry()


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
    return BracketTable(
        {(i, j, k): rho.coeff(i, j, k) for i, j, k in combinations(range(1, 9), 3)}
    )


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
    if not rho.is_homogeneous(3):
        raise OrbitError("expected a 3-form")
    induced = form_to_map(rho)
    if not induced.is_isometry():
        return OrbitClass("NotSupersymmetric")
    orientation = "preserving" if induced.det() == ONE else "reversing"
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
