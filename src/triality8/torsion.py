"""Equivariant operators on the torsion module Lambda^1 (x) g-perp.

For an invariant p-form gamma with stabilizer algebra g inside so(8) =
Lambda^2, the torsion module is Lambda^1 (x) g-perp.  The operators

    d:  X (x) a |-> X ^ a(gamma),    d*: X (x) a |-> X -| a(gamma),
    D:  X (x) a |-> X . a(sigma)

(wedge/contraction on forms, Clifford multiplication on the spinor slot)
control closedness, cocloseness and the twisted Dirac equation of the
structure.  Here a(gamma) = -a.act2(gamma): the operator convention is
pinned by the reference value d(e1 (x) e18) for the 3-form geometry and
by the identity c_3(alpha) = d(iota(alpha))/2 relating d to the
structure-constant complex.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

from . import lazy
from . import linalg as la
from .exterior import (
    Multivector,
    blades_of_grade,
    indices_of,
    mask_of,
    to_vector,
)
from .scalars import Frozen, I, SQRT3, Scalar
from .structures import (
    L2_MASKS,
    Subspace,
    c_apply,
    canonical_omega,
    canonical_rho,
    invariant_form,
    l2_form,
    l2_vector,
    project2,
    projection_columns,
    sigma_canonical,
)

# run when first used: the form-side operators (dhat, dstar_hat) need no spinors
cf = lazy("clifford")

ZERO = Scalar(0)
ONE = Scalar(1)


class TorsionError(ValueError):
    pass


class GKind(Frozen):
    """Invariant data of one of the two geometries: the form, its degree,
    the complement g-perp of its stabilizer g as a basis of Lambda^2, the
    Dirac chiralities and the harmonic stack (the form operators whose joint
    kernel is the harmonic kernel).  Only the operator matrices need it; the
    operators on single tensors read _SLOTS and the invariant form."""

    __slots__ = ("kind", "gamma", "degree", "gperp", "gperp_forms", "chiralities", "harmonic")

    def __init__(self, kind, gamma, degree, gperp, gperp_forms, chiralities, harmonic):
        for name in self.__slots__:
            object.__setattr__(self, name, locals()[name])

    def __repr__(self):
        return f"GKind({self.kind!r})"


# kind -> (the slot-2 projection selector, the chiralities of its Dirac maps,
# the harmonic stack: for SP1SP2 dstar_hat = +-star dhat, Omega is self-dual)
_SLOTS = {"PSU3": ("psu3_20", ("+", "-"), ("dhat", "dstar_hat")),
          "SP1SP2": ("sp_15", ("+",), ("dhat",))}


def _slots(kind):
    if kind not in _SLOTS:
        raise TorsionError(f"unknown kind {kind!r}")
    return _SLOTS[kind]


@lru_cache(maxsize=None)
def gkind(kind):
    selector, chis, harmonic = _slots(kind)
    gamma, degree = invariant_form(kind)
    gperp = Subspace("L2", la.column_space_basis(
        [l2_vector(a) for a in projection_columns(selector)]))
    forms = tuple(l2_form(v) for v in gperp.basis)
    return GKind(kind, gamma, degree, gperp, forms, chis, harmonic)


def _project_slot(kind, a):
    """Slot-2 projection to g-perp (project2 is complex-linear)."""
    if a.is_zero():
        return a
    return project2(a, _SLOTS[kind][0])


class TorsionTensor(Frozen):
    """Element of Lambda^1 (x) Lambda^2; slot i holds the 2-form paired
    with e_{i+1}.  Only the g-perp part of each slot is meaningful: every
    operator projects the slots first."""

    __slots__ = ("kind", "slots")

    def __init__(self, kind, slots):
        _slots(kind)  # validate the label
        ss = tuple(slots)
        if len(ss) != 8:
            raise TorsionError("need 8 slots")
        for a in ss:
            if not a.is_homogeneous(2):
                raise TorsionError("slots must be 2-forms")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "slots", ss)

    @classmethod
    def simple(cls, kind, x, a):
        """x (x) a for a grade-1 x and a 2-form a."""
        if not x.is_homogeneous(1):
            raise TorsionError("expected a grade-1 first factor")
        return cls(kind, [a * x.coeff(i) for i in range(1, 9)])

    def __add__(self, other):
        if other.kind != self.kind:
            raise TorsionError("kind mismatch")
        return TorsionTensor(self.kind, [a + b for a, b in zip(self.slots, other.slots)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TorsionTensor(self.kind, [-a for a in self.slots])

    def __mul__(self, s):
        return TorsionTensor(self.kind, [a * s for a in self.slots])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TorsionTensor):
            return NotImplemented
        return self.kind == other.kind and all(
            a == b for a, b in zip(self.slots, other.slots)
        )

    def is_zero(self):
        return all(a.is_zero() for a in self.slots)

    def projected(self):
        return TorsionTensor(
            self.kind, [_project_slot(self.kind, a) for a in self.slots]
        )

    def __repr__(self):
        parts = [
            f"e{i + 1} (x) ({a})" for i, a in enumerate(self.slots) if a
        ]
        return "TorsionTensor(" + (" + ".join(parts) or "0") + ")"


# -- the form-side operators -----------------------------------------------


def _form_action(a, gamma):
    """a(gamma) in the operator convention: minus the derivation action."""
    if a.is_complex() and not gamma.is_complex():
        gamma = gamma.complexify()
    return -(a.act2(gamma))


def _form_side(T, x_times):
    """Sum x_times(X_i, a_i(gamma)) over the projected slots a_i."""
    gamma, _ = invariant_form(T.kind)
    out = Multivector.zero()
    for i, a in enumerate(T.slots):
        a = _project_slot(T.kind, a)
        if a:
            out = out + x_times(Multivector.blade(i + 1), _form_action(a, gamma))
    return out


def dhat(T):
    """Sum X_i ^ a_i(gamma), a (p+1)-form."""
    return _form_side(T, Multivector.__xor__)


def dstar_hat(T):
    """Sum X_i -| a_i(gamma), a (p-1)-form."""
    return _form_side(T, Multivector.contract)


def _embed3(alpha, kind, project=True):
    """Cyclic embedding of a 3-form, slot-2 projected to g-perp:
    x^y^z |-> x (x) (y^z) + y (x) (z^x) + z (x) (x^y)."""
    slots = [Multivector.zero() for _ in range(8)]
    for m, c in alpha.terms.items():
        i, j, k = indices_of(m)
        slots[i - 1] = slots[i - 1] + Multivector({mask_of((j, k)): c})
        slots[j - 1] = slots[j - 1] - Multivector({mask_of((i, k)): c})
        slots[k - 1] = slots[k - 1] + Multivector({mask_of((i, j)): c})
    if project:
        slots = [_project_slot(kind, a) for a in slots]
    return TorsionTensor(kind, slots)


def iota_rho_perp(alpha):
    """Embedding of the orthogonal complement of the 3-form into the
    torsion module; the component along the invariant form is removed
    first.  Normalized so that c_3(alpha) = dhat(iota(alpha))/2."""
    if not alpha.is_homogeneous(3):
        raise TorsionError("expected a 3-form")
    rho = canonical_rho()
    coef = alpha.inner(rho.complexify() if alpha.is_complex() else rho)
    alpha = alpha - rho * coef
    return _embed3(alpha, "PSU3")


# -- the spinor-side operator ----------------------------------------------


def Dhat(T, chirality="+"):
    """Sum X_i . (a_i(sigma_chirality)), a map Lambda^1 -> D-/+.

    The 2-forms act on the supersymmetric map through act2_svf and the
    grade-1 Clifford multiplication, a signed permutation, flips the
    chirality of the result.
    """
    if chirality not in _SLOTS[T.kind][1]:
        raise TorsionError(f"chirality {chirality!r} unavailable for {T.kind}")
    sigma = sigma_canonical(T.kind, chirality)
    src = sigma.target
    dst = "-" if src == "+" else "+"
    total = None
    for i, a in enumerate(T.slots):
        a = _project_slot(T.kind, a)
        if a.is_zero():
            continue
        term = cf.blade_apply(1 << i, dst, src, cf.act2_svf(a, sigma).matrix)
        total = term if total is None else la.mat_add(total, term)
    return cf.SpinorMap(total if total is not None else la.zeros(8, 8), "v", dst)


# -- the operator L on 3-forms (quaternionic geometry) ---------------------

_L3_MASKS = tuple(blades_of_grade(3))


@lru_cache(maxsize=None)
def _l3_images(kind, chirality, target):
    """The nonzero entries (r, i, w) of e_I . sigma(e_i) in the target
    block, for each 3-blade e_I, with sigma = sigma_canonical(kind,
    chirality).  They do not depend on the 3-form, so every L_op shares
    one table."""
    sigma = sigma_canonical(kind, chirality)
    out = []
    for mask in _L3_MASKS:
        img = cf.blade_apply(mask, target, sigma.target, sigma.matrix)
        out.append((mask, tuple((r, i, img[r][i]) for i in range(8)
                                for r in range(8) if img[r][i])))
    return tuple(out)


def _pair_to_l3(rows, images):
    """Projection D- (x) D+ -> Lambda^3: sum_I q(Psi_-, e_I . Psi_+) e_I
    applied slotwise to the rows of a map and to sigma, given the images
    of sigma from _l3_images."""
    out = {}
    for mask, entries in images:
        s = None
        for r, i, w in entries:
            v = rows[r][i]
            if v:
                t = v * w
                s = t if s is None else s + t
        if s is not None and s:
            out[mask] = s
    return Multivector(out)


def _l_raw(tau):
    D = Dhat(_embed3(tau, "SP1SP2"), "+")
    return _pair_to_l3(D.matrix, _l3_images("SP1SP2", "+", D.target))


@lru_cache(maxsize=None)
def _l_scale():
    # single loose normalization, calibrated so that the embedded image
    # of X -| Omega is a 2-eigenvector; the 12 and 20 eigenvalues are
    # then forced
    t1 = Multivector.blade(1).contract(canonical_omega())
    raw = _l_raw(t1)
    pairs = [(raw.terms.get(m, ZERO), t1.terms.get(m, ZERO))
             for m in raw.terms.keys() | t1.terms.keys()]
    try:
        s = la.common_ratio(pairs)
    except la.RatioError:
        s = ZERO
    if not s:
        raise TorsionError("calibration vector is not an eigenvector")
    return Scalar(2) / s


def L_op(tau):
    """The invariant operator on 3-forms with spectrum {2, 12, 20}."""
    if not tau.is_homogeneous(3):
        raise TorsionError("expected a 3-form")
    if tau.is_complex():
        re, im = tau.real_imag()
        return L_op(re).complexify() + L_op(im).complexify() * I
    return _l_raw(tau) * _l_scale()


def _l_columns():
    """L_op(e_ijk) for each 3-blade, by linearity: Dhat of e_i (x) e_jk -
    e_j (x) e_ik + e_k (x) e_ij from one act2_svf per basis 2-form."""
    sigma = sigma_canonical("SP1SP2", "+")
    src, dst = sigma.target, "-" if sigma.target == "+" else "+"
    svf = {m: cf.act2_svf(_project_slot("SP1SP2", Multivector({m: ONE})), sigma).matrix
           for m in L2_MASKS}
    cols = []
    for mask in _L3_MASKS:
        i, j, k = indices_of(mask)
        D = la.mat_sub(cf.blade_apply(1 << (i - 1), dst, src, svf[mask_of((j, k))]),
                       cf.blade_apply(1 << (j - 1), dst, src, svf[mask_of((i, k))]))
        D = la.mat_add(D, cf.blade_apply(1 << (k - 1), dst, src, svf[mask_of((i, j))]))
        L = _pair_to_l3(D, _l3_images("SP1SP2", "+", dst)) * _l_scale()
        cols.append(to_vector(L, _L3_MASKS))
    return cols


@lru_cache(maxsize=None)
def l_spectrum():
    """Exact eigenvalue -> multiplicity table of L on Lambda^3."""
    M = la.transpose(_l_columns())
    out = {}
    total = 0
    for lam in (2, 12, 20):
        A = [row[:] for row in M]
        for i in range(56):
            A[i][i] -= lam
        dim = len(la.nullspace(A))
        out[lam] = dim
        total += dim
    if total != 56:
        raise TorsionError(f"spectrum does not exhaust Lambda^3: {out}")
    return out


# -- exact kernel analysis -------------------------------------------------
# The matrices act on the basis tensors e_i (x) b, b over the g-perp basis;
# each b is a column of the slot-2 projection, so none is projected again.


@lru_cache(maxsize=None)
def _form_matrices(kind):
    """The matrices of dhat and dstar_hat, keyed by name: one form action
    per b, then e_i by wedge and contraction."""
    gk = gkind(kind)
    acts = [_form_action(b, gk.gamma) for b in gk.gperp_forms]
    xs = [Multivector.blade(i) for i in range(1, 9)]
    up, down = blades_of_grade(gk.degree + 1), blades_of_grade(gk.degree - 1)
    return {"dhat": la.transpose([to_vector(x ^ f, up) for x in xs for f in acts]),
            "dstar_hat": la.transpose([to_vector(x.contract(f), down)
                                       for x in xs for f in acts])}


@lru_cache(maxsize=None)
def _dirac_matrix(kind):
    """The matrix of Dhat with the kind's chiralities stacked in order, 64
    rows each: one act2_svf per b and chirality, then e_i by Clifford
    multiplication."""
    gk = gkind(kind)
    rows = []
    for c in gk.chiralities:
        sigma = sigma_canonical(kind, c)
        svfs = [cf.act2_svf(b, sigma).matrix for b in gk.gperp_forms]
        dst = "-" if sigma.target == "+" else "+"
        rows += la.transpose([list(chain.from_iterable(
            cf.blade_apply(1 << i, dst, sigma.target, S))) for i in range(8) for S in svfs])
    return rows


@lru_cache(maxsize=None)
def operator_ranks(kind):
    """The dimension of Lambda^1 (x) g-perp (domain_dim) and the exact
    ranks of dhat and dstar_hat on it (dhat_rank, dstar_rank).  It builds
    the form matrices only, no spinor."""
    M = _form_matrices(kind)
    return {"domain_dim": len(M["dhat"][0]), "dhat_rank": la.rank(M["dhat"]),
            "dstar_rank": la.rank(M["dstar_hat"])}


@lru_cache(maxsize=None)
def kernel_analysis(kind):
    """operator_ranks(kind), the harmonic kernel (of the form operators of
    the kind's harmonic stack) and the Dirac kernel (of Dhat, every
    chirality stacked; its dimension also as dirac<chiralities>_kernel_dim),
    and whether they are equal.  A kernel determines the unique RREF of its
    matrix, and la.nullspace reads its basis off that RREF, so two kernels
    are equal exactly when their bases are the same list."""
    gk = gkind(kind)
    forms = _form_matrices(kind)
    harmonic = Subspace("torsion", la.nullspace([r for op in gk.harmonic for r in forms[op]]))
    dirac = Subspace("torsion", la.nullspace(_dirac_matrix(kind)))
    out = dict(operator_ranks(kind), harmonic_kernel=harmonic, dirac_kernel=dirac,
               harmonic_dim=harmonic.dim, dirac_dim=dirac.dim,
               kernels_equal=harmonic.basis == dirac.basis)
    out[f"dirac{''.join(gk.chiralities)}_kernel_dim"] = dirac.dim
    return out


# -- the proof constants ---------------------------------------------------


def _rho_block(source):
    """The invariant map between the two spinor blocks induced by the
    3-form, in the classical entrywise scale (4 x the Clifford block)."""
    R = la.mat_scale(cf.form_to_map(canonical_rho()).matrix, Scalar(4))
    if source == "-":
        return cf.SpinorMap(R, "-", "+")
    return cf.SpinorMap(la.transpose(R), "+", "-")


@lru_cache(maxsize=None)
def z_constants():
    """The two Schur constants of the 3-form geometry relating the two
    twisted Dirac operators on the complex-type torsion modules."""
    e = Multivector.blade
    # the [2,2]-type module: slots are the 10-part projections of
    # 6(e1 (x) e18 - e2 (x) e28)
    slots = [Multivector.zero() for _ in range(8)]
    slots[0] = _project_slot10(e(1, 8) * 6)
    slots[1] = _project_slot10(e(2, 8) * (-6))
    T = TorsionTensor("PSU3", slots)
    Dp = Dhat(T, "+")
    Dm = Dhat(T, "-")
    R = _rho_block(Dp.target) @ Dp
    z22_pairs = zip(chain.from_iterable(Dm.matrix), chain.from_iterable(R.matrix))
    # the [1,1]-type module, isolated by Clifford contraction
    slots = [Multivector.zero() for _ in range(8)]
    slots[0] = _project_slot10(e(1, 8)) * (SQRT3 * 2 * I)
    T = TorsionTensor("PSU3", slots)
    sp = cf.mu(Dhat(T, "-"))
    sm = cf.mu(Dhat(T, "+"))
    mapped = la.mat_vec(_rho_block(sm.chirality).matrix, sm.coords)
    try:
        return la.common_ratio(z22_pairs), la.common_ratio(zip(sp.coords, mapped))
    except la.RatioError as exc:
        raise TorsionError(f"no common ratio: {exc}") from exc


def _project_slot10(a):
    """The 10-part projection entering the proof constants (the half of
    the 20-part whose displayed slot values are reproduced verbatim)."""
    return project2(a, "psu3_10+")


def tau_bracket12():
    """The sample tensor of mixed symmetry type: the embedded
    differential of 4 e18.  The slots are kept unprojected (two of them
    carry a stabilizer component) so the classical 15-term display is
    reproduced verbatim; the operators project them away regardless."""
    return _embed3(c_apply(Multivector.blade(1, 8) * 4), "PSU3", project=False)
