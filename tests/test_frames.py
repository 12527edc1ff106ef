import pytest

from triality8 import frames as fr
from triality8 import linalg as la
from triality8 import torsion as to
from triality8.claims import frame
from triality8.exterior import Multivector, blades_of_grade
from triality8.scalars import ONE, SQRT3, Scalar
from triality8.structures import l2_vector

e = Multivector.blade


@pytest.fixture(scope="module")
def nil():
    return fr.catalog("psu3_nilmanifold")[0]


def test_structure_equations(nil):
    assert fr.coframe_d(e(8), nil) == e(4, 7) + e(5, 6)
    assert nil.jacobi_holds()
    for k in range(9):
        for m in blades_of_grade(k):
            dd = fr.coframe_d(fr.coframe_d(Multivector({m: ONE}), nil), nil)
            assert dd.is_zero()


def test_levi_civita_properties(nil):
    conn = fr.levi_civita(nil)
    for i in range(1, 9):
        for j in range(1, 9):
            for k in range(1, 9):
                assert conn.gamma(i, j, k) == -conn.gamma(i, k, j)
            w = conn.nabla_vec(i, j) - conn.nabla_vec(j, i) - nil.bracket(i, j)
            assert w.is_zero()
    assert conn.nabla_vec(7, 4) == e(8) * (ONE / 2)
    assert conn.nabla_vec(8, 4) == e(7) * (ONE / 2)


def test_nilmanifold_geometry(nil, rho):
    assert fr.harmonic_check(nil, "PSU3") == (True, True)
    ric = fr.ricci(nil)
    diag = [ric[i][i] for i in range(8)]
    assert diag == [Scalar(0)] * 3 + [Scalar(-1) / 2] * 4 + [Scalar(1)]
    assert all(not ric[i][j] for i in range(8) for j in range(8) if i != j)
    nab = fr.nabla_form(rho, nil)
    assert nab[3].coeff(4, 5, 7) == SQRT3 / 8
    for chi in ("+", "-"):
        assert fr.ricci_constraint(ric, "PSU3", chi).is_zero()


def _harmonic_by_matrix(T):
    """Membership the matrix way: the g-perp coordinates of the projected
    slots, in the nullspace of the stacked matrices of dhat and dstar_hat."""
    gk = to.gkind("PSU3")
    M = la.transpose([list(b) for b in gk.gperp.basis])
    coords = [c for x in la.solve(M, *(l2_vector(a) for a in T.projected().slots)) for c in x]
    return to.kernel_analysis("PSU3")["harmonic_kernel"].contains(coords)


def test_nilmanifold_torsion(nil, rho):
    """nil.torsion applies dhat and dstar_hat to T; the kernel of the
    stacked operator matrices gives the same answer, on T and off it."""
    T = fr.intrinsic_torsion(nil, "PSU3")
    assert not T.is_zero()
    assert T.projected() == T
    assert to.dhat(T) == fr.coframe_d(rho, nil)
    assert to.dstar_hat(T) == -fr.codifferential(rho, nil)
    other = to.TorsionTensor.simple("PSU3", e(2), e(1, 8) * 3).projected()
    assert not other.is_zero()
    for X, harmonic in ((T, True), (T * 2, True), (other, False), (T + other, False)):
        by_operators = to.dhat(X).is_zero() and to.dstar_hat(X).is_zero()
        assert by_operators == _harmonic_by_matrix(X) == harmonic
    assert frame.nil_torsion() == "ok"


def test_intrinsic_torsion_computes_each_image_once(nil, monkeypatch):
    calls = []
    form_action = to._form_action

    def counted(b, gamma):
        calls.append(b)
        return form_action(b, gamma)

    # frames calls the form action through its torsion handle
    monkeypatch.setattr(to, "_form_action", counted)
    fr.intrinsic_torsion(nil, "PSU3")
    assert len(calls) == len(to.gkind("PSU3").gperp_forms) == 20


def test_ricci_constraint_rank():
    cols = []
    for i in range(1, 9):
        for j in range(i, 9):
            A = la.zeros(8, 8)
            A[i - 1][j - 1] = ONE
            A[j - 1][i - 1] = ONE
            cols.append(list(fr.ricci_constraint(A, "PSU3", "+").coords))
    assert la.rank(la.transpose(cols)) == 8


def test_su3_biinvariant(rho):
    F, _, _ = fr.catalog("su3_biinvariant")
    assert F.jacobi_holds()
    assert all(a.is_zero() for a in fr.nabla_form(rho, F))
    assert la.mat_eq(fr.ricci(F), la.mat_scale(la.identity(8), Scalar(3) / 16))
    assert fr.harmonic_check(F, "PSU3") == (True, True)
    assert fr.intrinsic_torsion(F, "PSU3").is_zero()


def test_salamon_frame():
    F, kind, _ = fr.catalog("salamon_sp1sp2")
    assert kind == "SP1SP2"
    assert fr.coframe_d(e(4), F) == e(1, 5)
    assert fr.coframe_d(e(6), F) == e(1, 3)
    conn = fr.levi_civita(F)
    h = ONE / 2
    assert conn.nabla_vec(3, 1) == e(6) * h
    assert conn.nabla_vec(4, 1) == e(5) * h
    assert conn.nabla_vec(5, 1) == e(4) * h
    assert conn.nabla_vec(6, 1) == e(3) * h
    assert conn.nabla_vec(1, 3) == e(6) * (-h)
    assert conn.nabla_vec(6, 3) == e(1) * (-h)
    ric = fr.ricci(F)
    assert [ric[i][i] for i in range(8)] == [
        Scalar(-1), Scalar(0), Scalar(-1) / 2, Scalar(1) / 2,
        Scalar(-1) / 2, Scalar(1) / 2, Scalar(0), Scalar(0),
    ]
    T = fr.intrinsic_torsion(F, "SP1SP2")
    gamma = to.gkind("SP1SP2").gamma
    assert to.dhat(T) == fr.coframe_d(gamma, F)
    assert to.dstar_hat(T) == -fr.codifferential(gamma, F)


def test_gibbons_hawking(rho):
    F, _, _ = fr.catalog("gibbons_hawking", Scalar(1))
    assert not F.constant_structure
    assert fr.harmonic_check(F, "PSU3") == (True, True)
    nab = fr.nabla_form(rho, F)
    w1p = e(4, 7) + e(5, 6)
    w2p = e(4, 6) - e(5, 7)
    assert nab[3] == (w1p ^ e(8)) * (-(SQRT3) / 4)
    assert nab[4] == (w2p ^ e(8)) * (-(SQRT3) / 4)
    assert all(nab[i].is_zero() for i in range(8) if i not in (3, 4))
    T = fr.intrinsic_torsion(F, "PSU3")
    assert to.dhat(T) == fr.coframe_d(rho, F)
    assert to.dstar_hat(T) == -fr.codifferential(rho, F)
    with pytest.raises(fr.FrameError):
        fr.ricci(F)
    with pytest.raises(fr.FrameError):
        fr.catalog("gibbons_hawking", Scalar(2))  # sqrt(8) not in the field
    assert fr.catalog("gibbons_hawking", Scalar(3))  # sqrt(27) = 3 r3


def test_catalog_unknown():
    with pytest.raises(fr.FrameError):
        fr.catalog("nope")
