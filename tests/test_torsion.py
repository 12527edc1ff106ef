import pytest

from triality8 import linalg as la
from triality8 import torsion as to
from triality8.clifford import act2_svf, block, kappa_form
from triality8.exterior import Multivector, blades_of_grade, parse_form, to_vector
from triality8.scalars import CScalar, I, ONE, SQRT3, Scalar
from triality8.structures import c_apply, l2_form, p3, sigma_canonical, stabilizer_cached

e = Multivector.blade


def test_dhat_anchor():
    T = to.TorsionTensor.simple("PSU3", e(1), e(1, 8))
    assert to.dhat(T) == (
        -e(1, 2, 3, 8) * (ONE / 2) - e(1, 4, 7, 8) * (ONE / 4)
        + e(1, 5, 6, 8) * (ONE / 4)
    )


def test_surjectivity_identity(rho):
    for alpha in (p3(e(1, 2, 8)), e(1, 2, 8) - rho * e(1, 2, 8).inner(rho)):
        assert c_apply(alpha) == to.dhat(to.iota_rho_perp(alpha)) * (ONE / 2)
    assert to.iota_rho_perp(rho).is_zero()


@pytest.mark.parametrize("kind", ["PSU3", "SP1SP2"])
def test_operators_vanish_on_stabilizer_slots(kind):
    gk = to.gkind(kind)
    for v in stabilizer_cached(kind).basis[:3]:
        Tg = to.TorsionTensor.simple(kind, e(2), l2_form(v))
        assert to.dhat(Tg).is_zero()
        assert to.dstar_hat(Tg).is_zero()
        assert all(to.Dhat(Tg, c).is_zero() for c in gk.chiralities)


def test_L_operator(omega):
    t1 = e(1).contract(omega) * 4
    assert to._l_scale() == ONE
    assert to.L_op(t1) == t1 * 2
    assert t1 * 2 == parse_form(
        "-6 e234 + 2 e256 - 2 e278 + 2 e357 + 2 e368 + 2 e458 - 2 e467"
    ) * 8
    hw = parse_form("e157 + e168 + e258 - e267") + parse_form(
        "e158 - e167 - e257 - e268"
    ) * I
    assert to.L_op(hw) == hw * 20
    v = e(1, 3, 4) * (Scalar(-1) / 3) + e(1, 7, 8)
    assert to.L_op(v) == parse_form(
        "-12 e134 - 8 e156 + 44 e178 + 4 e358 - 4 e367 - 4 e457 - 4 e468"
    ) * (ONE / 3)


def _pair_to_l3_direct(M, sigma):
    """The pairing with every Clifford image rebuilt per call: the oracle
    for the shared table of to._l3_images."""
    out = {}
    for mask in to._L3_MASKS:
        B = block(kappa_form(Multivector({mask: ONE})), M.target, sigma.target)
        s = Scalar(0)
        for i in range(8):
            img = la.mat_vec(B, [sigma.matrix[r][i] for r in range(8)])
            for r in range(8):
                s = s + M.matrix[r][i] * img[r]
        if s:
            out[mask] = s
    return Multivector(out)


def test_l3_images_match_direct_pairing():
    sigma = sigma_canonical("SP1SP2", "+")
    for tau in (e(1, 2, 3), e(1, 3, 4) * (Scalar(-1) / 3) + e(1, 7, 8),
                e(2, 5, 8) * SQRT3 - e(4, 6, 7) * 2):
        D = to.Dhat(to._embed3(tau, "SP1SP2"), "+")
        assert to._l_raw(tau) == _pair_to_l3_direct(D, sigma)


def test_L_spectrum():
    assert to.l_spectrum() == {2: 8, 12: 32, 20: 16}


def test_l_columns_match_L_op():
    """The columns built by linearity are L_op of the basis 3-forms, entry
    for entry."""
    cols = to._l_columns()
    assert len(cols) == len(to._L3_MASKS)
    for m, col in zip(to._L3_MASKS, cols):
        assert col == to_vector(to.L_op(Multivector({m: ONE})), to._L3_MASKS), m


@pytest.mark.parametrize("kind", ["PSU3", "SP1SP2"])
def test_operator_columns_match_per_tensor_operators(kind):
    """The columns built by linearity are dhat, dstar_hat and Dhat of the
    basis tensors e_i (x) b, entry for entry."""
    gk = to.gkind(kind)
    up, down = blades_of_grade(gk.degree + 1), blades_of_grade(gk.degree - 1)
    cols_d, cols_ds, cols_D = to._operator_columns(kind)
    basis = [to.TorsionTensor.simple(kind, e(i), b)
             for i in range(1, 9) for b in gk.gperp_forms]
    assert len(cols_d) == len(cols_ds) == len(basis) == gk.gperp.dim * 8
    for n, t in enumerate(basis):
        assert cols_d[n] == to_vector(to.dhat(t), up), n
        assert cols_ds[n] == to_vector(to.dstar_hat(t), down), n
        for c in gk.chiralities:
            M = to.Dhat(t, c).matrix
            assert cols_D[c][n] == [M[r][s] for r in range(8) for s in range(8)], (c, n)


def test_tau_bracket_slots_and_dirac():
    tb = to.tau_bracket12()
    printed = {
        1: "-1r3 e45 - 1r3 e67", 2: "2 e38", 3: "-2 e28",
        4: "1r3 e15 + e78", 5: "-1r3 e14 - e68", 6: "1r3 e17 + e58",
        7: "-1r3 e16 - e48", 8: "2 e23 + e47 - e56",
    }
    for i, s in printed.items():
        assert tb.slots[i - 1] == parse_form(s), i
    assert not to.Dhat(tb, "+").is_zero()
    assert not to.Dhat(tb, "-").is_zero()


def torsion_act(g, T):
    """so(8)-action of a 2-form g on the torsion module (derivation on
    both tensor slots)."""
    slots = [Multivector.zero() for _ in range(8)]
    for i, a in enumerate(T.slots):
        if a:
            gX = g.act2(Multivector.blade(i + 1))
            for j in range(1, 9):
                c = gX.coeff(j)
                if c:
                    slots[j - 1] = slots[j - 1] + a * c
            slots[i] = slots[i] + g.act2(a)
    return to.TorsionTensor(T.kind, slots)


def test_equivariance():
    g = l2_form(stabilizer_cached("PSU3").basis[0])
    T = to.TorsionTensor.simple("PSU3", e(3), e(1, 2)) + to.TorsionTensor.simple(
        "PSU3", e(5), e(4, 8)
    )
    assert to.dhat(torsion_act(g, T)) == g.act2(to.dhat(T))
    assert to.dstar_hat(torsion_act(g, T)) == g.act2(to.dstar_hat(T))
    assert to.Dhat(torsion_act(g, T), "+") == act2_svf(g, to.Dhat(T, "+"))


def test_schur_constants():
    z22, z11 = to.z_constants()
    assert z22 == CScalar(ONE, SQRT3) * (ONE / 8)
    assert z11 == CScalar(ONE, -SQRT3) * (ONE / 8)


def test_kernel_analysis_sp():
    ka = to.kernel_analysis("SP1SP2")
    assert ka["domain_dim"] == 120
    assert ka["dhat_rank"] == 56
    assert ka["harmonic_dim"] == 64
    assert ka["dirac_dim"] == 64
    assert ka["kernels_equal"]


def test_kernel_analysis_psu3():
    ka = to.kernel_analysis("PSU3")
    assert ka["domain_dim"] == 160
    assert (ka["dhat_rank"], ka["dstar_rank"]) == (70, 28)
    assert ka["harmonic_dim"] == 70
    assert ka["dirac_dim"] == 70
    assert ka["kernels_equal"]
    # individual Dirac kernels are strictly larger than the joint kernel
    assert ka["dirac+_kernel_dim"] == 97
    assert ka["dirac-_kernel_dim"] == 97
