"""Orthonormal-frame differential geometry from structure coefficients:
coframe differentials, the Levi-Civita connection by the Koszul formula,
covariant derivatives of invariant forms, Ricci curvature, harmonicity
verdicts and intrinsic-torsion extraction, together with the catalog of
reference frames.

Conventions: a frame is given by brackets [e_i, e_j] = sum c_ijk e_k on
an orthonormal basis; the coframe differential is d(e^k) = -sum_{i<j}
c_ijk e^i ^ e^j.  Catalog entries specified through their structure
equations (de^k) store the brackets derived from them, so coframe_d
reproduces the structure equations verbatim.
"""

from __future__ import annotations

from . import linalg as la
from .clifford import Spinor, blade_apply
from .exterior import Multivector, antiderivation, indices_of, mask_of
from .orbits import bracket_from_form
from .scalars import Frozen, Scalar, half
from .structures import canonical_rho, invariant_form, sigma_canonical
from .torsion import TorsionTensor, _form_action, gkind

ZERO = Scalar(0)


class FrameError(ValueError):
    pass


class FrameAlgebra(Frozen):
    """Structure coefficients of an orthonormal frame."""

    __slots__ = ("brackets", "constant_structure", "note")

    def __init__(self, brackets, constant_structure=True, note=""):
        cleaned = {}
        for (i, j), v in brackets.items():
            if not (1 <= i < j <= 8):
                raise FrameError("brackets must be keyed by i < j")
            if not v.is_homogeneous(1):
                raise FrameError("bracket values must be grade-1")
            if v:
                cleaned[(i, j)] = v
        object.__setattr__(self, "brackets", cleaned)
        object.__setattr__(self, "constant_structure", bool(constant_structure))
        object.__setattr__(self, "note", note)

    def bracket(self, i, j):
        """[e_i, e_j] as a grade-1 multivector."""
        if i == j:
            return Multivector.zero()
        if i < j:
            return self.brackets.get((i, j), Multivector.zero())
        return -self.brackets.get((j, i), Multivector.zero())

    def c(self, i, j, k):
        """c_ijk = g([e_i, e_j], e_k)."""
        return self.bracket(i, j).coeff(k)

    def jacobi_holds(self):
        from itertools import combinations

        for i, j, k in combinations(range(1, 9), 3):
            s = Multivector.zero()
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                w = self.bracket(a, b)
                for t in range(1, 9):
                    v = w.coeff(t)
                    if v:
                        s = s + self.bracket(t, c) * v
            if s:
                return False
        return True

    @property
    def d_images(self):
        """d(e^k) = -sum_{i<j} c_ijk e^i ^ e^j for k = 1..8."""
        imgs = []
        for k in range(1, 9):
            terms = {}
            for (i, j), w in self.brackets.items():
                v = w.coeff(k)
                if v:
                    terms[mask_of((i, j))] = -v
            imgs.append(Multivector(terms))
        return imgs

    def __repr__(self):
        parts = [f"[e{i},e{j}]={v}" for (i, j), v in sorted(self.brackets.items())]
        return "FrameAlgebra(" + "; ".join(parts) + ")"


def coframe_d(alpha, F):
    """Exterior differential of a constant-coefficient form, extended
    from the coframe differentials as an anti-derivation."""
    return antiderivation(alpha, F.d_images)


def codifferential(alpha, F):
    """Codifferential -*d* (dimension 8)."""
    return -(coframe_d(alpha.star(), F).star())


class Connection(Frozen):
    """Metric-compatible connection: nabla_{e_i} acts on Lambda^1 as the
    2-form A_i = sum_{j<k} Gamma_ijk e_j ^ e_k (derivation action)."""

    __slots__ = ("forms",)

    def __init__(self, forms):
        fs = tuple(forms)
        if len(fs) != 8 or any(not a.is_homogeneous(2) for a in fs):
            raise FrameError("need 8 connection 2-forms")
        object.__setattr__(self, "forms", fs)

    def gamma(self, i, j, k):
        """Coefficient of e_k in nabla_{e_i} e_j."""
        if j == k:
            return ZERO
        v = self.forms[i - 1].coeff(*sorted((j, k)))
        return v if j < k else -v

    def nabla_vec(self, i, j):
        return self.forms[i - 1].act2(Multivector.blade(j))

    def matrix(self, i):
        """8x8 matrix of nabla_{e_i} on Lambda^1."""
        M = la.zeros(8, 8)
        for j in range(1, 9):
            w = self.nabla_vec(i, j)
            for k in range(1, 9):
                M[k - 1][j - 1] = w.coeff(k)
        return M


def levi_civita(F):
    """Koszul formula Gamma_ijk = (c_ijk + c_kij + c_kji)/2."""
    h = half()
    forms = []
    for i in range(1, 9):
        terms = {}
        for j in range(1, 9):
            for k in range(j + 1, 9):
                g = (F.c(i, j, k) + F.c(k, i, j) + F.c(k, j, i)) * h
                if g:
                    terms[mask_of((j, k))] = g
        forms.append(Multivector(terms))
    return Connection(forms)


def nabla_form(alpha, F):
    """Slotwise covariant derivative: slot i holds nabla_{e_i} alpha."""
    conn = levi_civita(F)
    return [conn.forms[i].act2(alpha) for i in range(8)]


def ricci(F):
    """The Ricci tensor Ric(X, Y) = sum_i g(R(e_i, X)Y, e_i) as an exact
    symmetric 8x8 matrix; constant structure coefficients only."""
    if not F.constant_structure:
        raise FrameError("Ricci requires constant structure coefficients")
    conn = levi_civita(F)
    N = [conn.matrix(i) for i in range(1, 9)]
    ric = la.zeros(8, 8)
    for a in range(1, 9):
        for i in range(1, 9):
            if i == a:
                continue
            R = la.mat_sub(la.mat_mul(N[i - 1], N[a - 1]),
                           la.mat_mul(N[a - 1], N[i - 1]))
            for k in range(1, 9):
                v = F.c(i, a, k)
                if v:
                    R = la.mat_sub(R, la.mat_scale(N[k - 1], v))
            for b in range(1, 9):
                ric[a - 1][b - 1] = ric[a - 1][b - 1] + R[i - 1][b - 1]
    return ric


def harmonic_check(F, kind):
    """(d gamma = 0, d * gamma = 0) for the canonical invariant form."""
    gamma, _ = invariant_form(kind)
    return (
        coframe_d(gamma, F).is_zero(),
        coframe_d(gamma.star(), F).is_zero(),
    )


def intrinsic_torsion(F, kind):
    """The unique T in Lambda^1 (x) g-perp with nabla gamma = T(gamma)."""
    gk = gkind(kind)
    gamma = gk.gamma
    nab = nabla_form(gamma, F)
    images = [_form_action(b, gamma).terms for b in gk.gperp_forms]
    masks = sorted({m for img in images for m in img})
    M = la.transpose([[img.get(m, ZERO) for m in masks] for img in images])
    xs = la.solve(M, *([w.terms.get(m, ZERO) for m in masks] for w in nab))
    if any(x is None for x in xs) or any(set(w.terms) - set(masks) for w in nab):
        raise FrameError("nabla gamma not in torsion image")
    slots = []
    for x in xs:
        s = Multivector.zero()
        for coef, b in zip(x, gk.gperp_forms):
            if coef:
                s = s + b * coef
        slots.append(s)
    return TorsionTensor(kind, slots)


def ricci_constraint(ric, kind, chirality="+"):
    """The spinor sum_{i,j} Ric_ij e_i . sigma(e_j); its vanishing is the
    integrability constraint on the Ricci tensor."""
    sigma = sigma_canonical(kind, chirality)
    src = sigma.target
    dst = "-" if src == "+" else "+"
    out = [ZERO] * 8
    for i in range(8):
        # e_i . sum_j Ric_ij sigma(e_j)
        img = blade_apply(1 << i, dst, src, la.mat_vec(sigma.matrix, ric[i]))
        out = [x + y for x, y in zip(out, img)]
    return Spinor(dst, out)


# -- catalog ----------------------------------------------------------------


def _brackets_from_structure_eqs(eqs):
    """Brackets derived from coframe equations de^k = given 2-form."""
    out = {}
    for k, form in eqs.items():
        for m, v in form.terms.items():
            i, j = indices_of(m)
            cur = out.get((i, j), Multivector.zero())
            out[(i, j)] = cur + Multivector.blade(k) * (-v)
    return out


def catalog(name, x0=None):
    """(FrameAlgebra, kind, expected-results record) for the reference
    frames.  gibbons_hawking takes the evaluation point x0 > 0 with
    sqrt(x0^3) in the scalar field."""
    e = Multivector.blade
    if name == "su3_biinvariant":
        b = bracket_from_form(canonical_rho())
        brackets = {
            (i, j): Multivector(
                {1 << (k - 1): b.coeff(i, j, k) for k in range(1, 9)}
            )
            for i in range(1, 9)
            for j in range(i + 1, 9)
        }
        F = FrameAlgebra(brackets)
        expected = {
            "kind": "PSU3",
            "harmonic": (True, True),
            "ricci_diag": [Scalar(3) / 16] * 8,
            "parallel": True,
        }
        return F, "PSU3", expected
    if name == "psu3_nilmanifold":
        F = FrameAlgebra(_brackets_from_structure_eqs({8: e(4, 7) + e(5, 6)}))
        expected = {
            "kind": "PSU3",
            "harmonic": (True, True),
            "ricci_diag": [ZERO] * 3 + [Scalar(-1) / 2] * 4 + [Scalar(1)],
            "parallel": False,
        }
        return F, "PSU3", expected
    if name == "salamon_sp1sp2":
        F = FrameAlgebra(
            _brackets_from_structure_eqs({4: e(1, 5), 6: e(1, 3)})
        )
        expected = {
            "kind": "SP1SP2",
            "ricci_diag": [
                Scalar(-1), ZERO, Scalar(-1) / 2, Scalar(1) / 2,
                Scalar(-1) / 2, Scalar(1) / 2, ZERO, ZERO,
            ],
            "parallel": False,
        }
        return F, "SP1SP2", expected
    if name == "gibbons_hawking":
        if x0 is None:
            raise FrameError("gibbons_hawking needs the evaluation point x0")
        if not isinstance(x0, Scalar):
            x0 = Scalar(x0)
        if x0.sign() <= 0:
            raise FrameError("x0 must be positive")
        r = (x0 * x0 * x0).sqrt()
        if r is None:
            raise FrameError("sqrt(x0^3) falls outside the scalar field")
        s = r.inverse()
        h = half()
        F = FrameAlgebra(
            {
                (4, 6): e(4) * (-s * h),
                (5, 6): e(5) * (s * h),
                (4, 7): e(5) * s,
                (6, 7): e(7) * (s * h),
            },
            constant_structure=False,
            note=f"structure coefficients frozen at x = {x0}",
        )
        expected = {"kind": "PSU3", "harmonic": (True, True), "parallel": False}
        return F, "PSU3", expected
    raise FrameError(f"unknown catalog id {name!r}")
