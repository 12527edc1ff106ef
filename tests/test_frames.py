import random

import pytest

from triality8 import clifford as cf
from triality8 import frames as fr
from triality8 import linalg as la
from triality8 import torsion as to
from triality8.claims import frame
from triality8.exterior import Multivector, blades_of_grade
from triality8.orbits import bracket_from_form
from triality8.scalars import ONE, SQRT3, Scalar
from triality8.structures import l2_vector

e = Multivector.blade


@pytest.fixture(scope="module")
def nil():
    return fr.catalog("psu3_nilmanifold")[0]


def test_structure_equations(nil):
    assert fr.coframe_d(e(8), nil) == e(4, 7) + e(5, 6)
    for k in range(9):
        for m in blades_of_grade(k):
            dd = fr.coframe_d(fr.coframe_d(Multivector({m: ONE}), nil), nil)
            assert dd.is_zero()


def test_levi_civita_properties(nil):
    A = fr.levi_civita(nil)
    for i in range(1, 9):
        for j in range(1, 9):
            w = A[i - 1].act2(e(j)) - A[j - 1].act2(e(i)) - nil.bracket(i, j)
            assert w.is_zero()
    assert A[6].act2(e(4)) == e(8) * (ONE / 2)
    assert A[7].act2(e(4)) == e(7) * (ONE / 2)


def _ricci_by_matrices(F):
    """The oracle: N_i is the matrix of A_i on Lambda^1, R(e_i, e_a) =
    N_i N_a - N_a N_i - sum_k c_iak N_k, and Ric_ab = sum_{i != a} R_ib."""
    N = [cf.vector_action_matrix(a) for a in fr.levi_civita(F)]
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


def _is_lie(F):
    """d^2 = 0 on the coframe: the Jacobi identity for constant structure."""
    return all(fr.coframe_d(fr.coframe_d(e(k), F), F).is_zero() for k in range(1, 9))


def _random_frames(rng):
    """Constant frames: almost abelian (e_1 acting on the other seven) and
    2-step nilpotent (brackets into e_7, e_8) Lie algebras, and sparse
    random brackets, which break Jacobi."""
    def coef():
        return Scalar(rng.randint(-2, 2), rng.randint(-1, 1)) / rng.randint(1, 3)

    def vec(lo):
        return sum((e(k) * coef() for k in range(lo, 9)), Multivector.zero())

    for _ in range(4):
        yield fr.FrameAlgebra({(1, j): vec(2) for j in range(2, 9)})
        yield fr.FrameAlgebra({(i, j): vec(7)
                               for i in range(1, 7) for j in range(i + 1, 7)
                               if rng.random() < 0.5})
    for _ in range(12):
        pairs = [(i, j) for i in range(1, 9) for j in range(i + 1, 9)]
        yield fr.FrameAlgebra({p: vec(1) for p in rng.sample(pairs, 6)})


def test_ricci_matches_the_matrix_formula():
    """Ricci from the curvature 2-forms equals the matrix product formula
    in all 64 entries, Lie or not."""
    frames = [fr.catalog(name)[0]
              for name in ("su3_biinvariant", "psu3_nilmanifold", "salamon_sp1sp2")]
    frames += list(_random_frames(random.Random(7)))
    lie = [_is_lie(F) for F in frames]
    assert all(lie[:11]) and not any(lie[11:])
    off_diagonal = 0
    for F, is_lie in zip(frames, lie):
        ric = fr.ricci(F)
        assert ric == _ricci_by_matrices(F)
        assert ric == la.transpose(ric) or not is_lie
        off_diagonal += sum(1 for i in range(8) for j in range(8) if i != j and ric[i][j])
    assert off_diagonal


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
    assert _is_lie(F)
    # the brackets, signs included, are those read off rho by orbits
    b = bracket_from_form(rho)
    for i in range(1, 9):
        for j in range(1, 9):
            for k in range(1, 9):
                assert F.c(i, j, k) == b.coeff(i, j, k)
    assert all(a.is_zero() for a in fr.nabla_form(rho, F))
    assert la.mat_eq(fr.ricci(F), la.mat_scale(la.identity(8), Scalar(3) / 16))
    assert fr.harmonic_check(F, "PSU3") == (True, True)
    assert fr.intrinsic_torsion(F, "PSU3").is_zero()


def test_salamon_frame():
    F, kind, _ = fr.catalog("salamon_sp1sp2")
    assert kind == "SP1SP2"
    assert fr.coframe_d(e(4), F) == e(1, 5)
    assert fr.coframe_d(e(6), F) == e(1, 3)
    A = fr.levi_civita(F)
    h = ONE / 2
    assert A[2].act2(e(1)) == e(6) * h
    assert A[3].act2(e(1)) == e(5) * h
    assert A[4].act2(e(1)) == e(4) * h
    assert A[5].act2(e(1)) == e(3) * h
    assert A[0].act2(e(3)) == e(6) * (-h)
    assert A[5].act2(e(3)) == e(1) * (-h)
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
