import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from triality8 import linalg as la
from triality8.scalars import I, ONE, SQRT3, ZERO, CScalar, Scalar

P = la.PRIMES[0][0]


def rand_matrix(rng, n, m):
    return [
        [Scalar(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(m)]
        for _ in range(n)
    ]


def test_rank_and_nullspace():
    rng = random.Random(1)
    for _ in range(10):
        A = rand_matrix(rng, 4, 6)
        r = la.rank(A)
        ns = la.nullspace(A)
        assert r + len(ns) == 6
        for v in ns:
            assert all(not x for x in la.mat_vec(A, list(v)))


def test_solve_consistent_and_inconsistent():
    rng = random.Random(2)
    for _ in range(10):
        A = rand_matrix(rng, 5, 3)
        x = [Scalar(rng.randint(-2, 2)) for _ in range(3)]
        b = la.mat_vec(A, x)
        y = la.solve(A, b)
        assert y is not None
        assert la.mat_vec(A, list(y)) == b
    A = [[ONE, ONE], [ONE, ONE]]
    assert la.solve(A, [ONE, ONE + ONE]) is None


def test_det_multiplicative():
    rng = random.Random(3)
    for _ in range(8):
        A = rand_matrix(rng, 3, 3)
        B = rand_matrix(rng, 3, 3)
        assert la.det(la.mat_mul(A, B)) == la.det(A) * la.det(B)


def test_span_helpers():
    b1 = [(ONE, Scalar(0)), (Scalar(0), ONE)]
    b2 = [(ONE, ONE), (ONE, -ONE)]
    assert la.same_span(b1, b2)
    assert la.in_span(b2, (SQRT3, Scalar(5)))
    assert not la.same_span(b1, [(ONE, ONE)])
    basis = la.column_space_basis([(ONE, ONE), (Scalar(2), Scalar(2)), (ONE, Scalar(0))])
    assert len(basis) == 2


# -- the certified modular path against the exact rref ----------------------


def rref(A):
    """Reduced row echelon form by exact Gauss-Jordan elimination ("first
    nonzero" pivoting). Returns (R, pivot_columns); the oracle of the
    modular path."""
    R = [row[:] for row in A]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = R[r][c].inverse()
        R[r] = [x * inv for x in R[r]]
        for i in range(rows):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


def ref_rank(A):
    return len(rref(A)[1]) if A and A[0] else 0


def ref_nullspace(A):
    R, pivots = rref(A)
    basis = []
    for f in range(len(A[0])):
        if f in pivots:
            continue
        v = [ZERO] * len(A[0])
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -R[r][f]
        basis.append(v)
    return basis


def ref_solve(A, b):
    cols = len(A[0])
    R, pivots = rref([list(row) + [x] for row, x in zip(A, b)])
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for r, c in enumerate(pivots):
        x[c] = R[r][cols]
    return x


def ref_column_space_basis(vectors):
    return [vectors[c] for c in rref(la.transpose(vectors))[1]]


small = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 4])),
)
ELEMENTS = {
    "Q": st.builds(Scalar, small),
    "Q(r3)": st.builds(Scalar, small, small),
    "Q(r3)[i]": st.builds(
        CScalar, st.builds(Scalar, small, small), st.builds(Scalar, small, small)
    ),
}


@st.composite
def matrices(draw, field):
    """A matrix over the field; about half are products m x k times k x n,
    so rank deficiency is common."""
    elem = ELEMENTS[field]
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))

    def mat(r, c):
        return [[draw(elem) for _ in range(c)] for _ in range(r)]

    if draw(st.booleans()):
        k = draw(st.integers(1, min(m, n)))
        return la.mat_mul(mat(m, k), mat(k, n))
    return mat(m, n)


def record_moduli(monkeypatch):
    """The modulus of every elimination mod a prime from now on."""
    moduli = []
    real = la._rref_mod

    def recorded(R, p):
        moduli.append(p)
        return real(R, p)

    monkeypatch.setattr(la, "_rref_mod", recorded)
    return moduli


def assert_reduced_equals_rref(A):
    R, pivots = rref(A)
    got_pivots, columns = la._reduced(A)
    assert got_pivots == pivots
    assert sorted(columns) == [f for f in range(len(A[0])) if f not in pivots]
    for f, entries in columns.items():
        assert all(entries.get(c, ZERO) == R[r][f] for r, c in enumerate(pivots))


@pytest.mark.parametrize("field", sorted(ELEMENTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_answers_equal_exact_rref(field, data):
    A = data.draw(matrices(field))
    with pytest.MonkeyPatch.context() as mp:
        moduli = record_moduli(mp)
        assert_reduced_equals_rref(A)
    event(f"{len(set(moduli))} primes")
    assert la.rank(A) == ref_rank(A)
    assert la.nullspace(A) == ref_nullspace(A)
    vectors = la.transpose(A)
    assert la.column_space_basis(vectors) == ref_column_space_basis(vectors)
    x = [data.draw(ELEMENTS["Q(r3)"]) for _ in A[0]]
    for b in (la.mat_vec(A, x), [data.draw(ELEMENTS["Q(r3)"]) for _ in A]):
        assert la.solve(A, b) == ref_solve(A, b)


@pytest.mark.parametrize("field", sorted(ELEMENTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_solve_many_equals_solve_each(field, data):
    """One elimination of [A | b_1 ... b_k] answers as k separate solves do.
    A zero row is appended, so e_last is inconsistent; the later right-hand
    sides include one that combines the pivot of e_last with A x."""
    A = data.draw(matrices(field))
    A = A + [[ZERO] * len(A[0])]
    x = [data.draw(ELEMENTS[field]) for _ in A[0]]
    Ax = la.mat_vec(A, x)
    e_last = [ZERO] * (len(A) - 1) + [ONE]
    bs = [Ax, [data.draw(ELEMENTS[field]) for _ in A[:-1]] + [ZERO], e_last,
          [u + v for u, v in zip(Ax, e_last)], [data.draw(ELEMENTS[field]) for _ in A]]
    got = la.solve(A, *bs)
    assert got == [la.solve(A, b) for b in bs] == [ref_solve(A, b) for b in bs]
    assert got[0] is not None and got[2] is None and got[3] is None


# small primes = 1 (mod 12) with a primitive 12th root of unity: unlucky
# primes, pivot lists that disagree and an exhausted list are all common
SMALL_PRIMES = ((13, 2), (37, 8), (61, 21), (73, 3), (97, 6))


@pytest.mark.parametrize("field", sorted(ELEMENTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_small_primes_certify_or_raise(field, data):
    A = data.draw(matrices(field))
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(la, "PRIMES", SMALL_PRIMES)
            moduli = record_moduli(mp)
            assert_reduced_equals_rref(A)
    except ArithmeticError as ex:
        assert type(ex) is ArithmeticError
        assert str(ex) == f"5 primes did not certify the {len(A)}x{len(A[0])} matrix"
        event("every prime failed")
    else:
        event(f"certified with {len(set(moduli))} primes")


def assert_exact_answers(A):
    assert la.rank(A) == ref_rank(A)
    assert la.nullspace(A) == ref_nullspace(A)
    b = [Scalar(k + 1) for k in range(len(A))]
    assert la.solve(A, b) == ref_solve(A, b)
    assert la.column_space_basis(la.transpose(A)) == ref_column_space_basis(
        la.transpose(A)
    )


@pytest.mark.parametrize(
    "A",
    [
        # a denominator divisible by P
        [[Scalar(Fraction(1, P)), ONE, ONE], [ONE, ONE, Scalar(2)]],
        # an entry equal to P: the rank drops mod P
        [[Scalar(P), ONE], [ZERO, ONE], [ZERO, ONE]],
        [[Scalar(0, P), ONE, ONE], [ZERO, ONE, ONE]],
        # kernel coefficients beyond the reconstruction bound
        [[ONE, Scalar(2**40)], [Scalar(2), Scalar(2**41)]],
        [[Scalar(2**40 + 1), ONE], [Scalar(2**41 + 2), Scalar(2)]],
        [[ONE, CScalar(Scalar(0, 2**45), Scalar(3))]],
    ],
)
def test_forced_fallback_stays_exact(monkeypatch, A):
    moduli = record_moduli(monkeypatch)
    assert_exact_answers(A)
    assert_reduced_equals_rref(A)
    # the first prime could not certify (with a denominator divisible by P
    # it cannot even reduce the matrix): a later prime answered
    assert set(moduli) - {P}


def _entry(x):
    if x == 0:
        return ZERO
    a, b, c, d = (Fraction(t) for t in x)
    return CScalar(Scalar(a, b), Scalar(c, d))


# drawn by the property suite: a product of 6x6 matrices over Q(r3)[i]
# whose RREF has 125-bit numerators, past the bound sqrt(M/2) of four
# primes (123 bits)
WIDE = [[_entry(x) for x in row] for row in [
    [0, 0, 0, 0, 0, 0],
    [(0, -2, "-9/2", 0), (0, 0, 6, 0), (0, 0, 18, 0), 0, 0, 0],
    [(-18, 3, "27/4", 0), (0, 12, -21, 0), (0, 0, -28, 0), (0, 0, 18, 0),
     (36, 0, -9, 0), (9, 0, "110/3", 0)],
    [(0, 0, -27, "3/2"), (18, 3, 0, -12), 0, (2, 11, -9, "-7/2"),
     (46, "61/4", -45, 4), (-18, 0, 3, 0)],
    [(0, "-3/2", 6, 0), (0, 0, 0, "-19/4"), 0, (7, -6, -12, "3/2"),
     (-3, 15, -28, "-29/12"), (36, "-5/4", -3, 3)],
    [(-24, 1, "-9/4", 0), (-4, 16, 27, 4), (0, 0, 21, 1), (6, -1, 15, -3),
     (64, -2, -24, "1/4"), (12, -1, 46, "-14/3")],
]]


def test_wide_entries_take_a_fifth_prime(monkeypatch):
    moduli = record_moduli(monkeypatch)
    assert_reduced_equals_rref(WIDE)
    assert len(set(moduli)) == 5


def test_fast_path_on_small_matrices(monkeypatch):
    moduli = record_moduli(monkeypatch)
    A = [[ONE, SQRT3, Scalar(2)], [Scalar(2), SQRT3 * 2, Scalar(4)]]
    assert la.rank(A) == 1
    assert len(la.nullspace(A)) == 2
    assert la.solve(A, [ONE, Scalar(2)]) == [ONE, ZERO, ZERO]
    assert la.solve(A, [ONE, ONE]) is None
    # Q(r3)[i]: four embeddings
    A = [[ONE, I, SQRT3], [I, -ONE, SQRT3 * I]]
    assert la.rank(A) == 1
    assert la.nullspace(A) == [[-I, ONE, ZERO], [-SQRT3, ZERO, ONE]]
    assert moduli and set(moduli) == {P}


def test_torsion_kernels_never_call_rref(monkeypatch):
    from triality8 import torsion

    moduli = record_moduli(monkeypatch)
    ka = torsion.kernel_analysis.__wrapped__("SP1SP2")
    assert (ka["dhat_rank"], ka["harmonic_dim"], ka["kernels_equal"]) == (56, 64, True)
    assert torsion.l_spectrum.__wrapped__() == {2: 8, 12: 32, 20: 16}
    assert moduli and set(moduli) == {P}


def is_prime(n):
    """Deterministic Miller-Rabin: these bases decide every n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_modulus_constants():
    # the test itself tells primes from strong pseudoprimes
    assert [n for n in range(60) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(3215031751) and not is_prime(3825123056546413051)
    assert la.PRIMES[0][0] == P == 2**62 - 87
    assert len({p for p, _ in la.PRIMES}) == len(la.PRIMES)
    for p, w in la.PRIMES + SMALL_PRIMES:
        assert is_prime(p) and p % 12 == 1
        assert pow(w, 12, p) == 1 and pow(w, 4, p) != 1 and pow(w, 6, p) != 1
        # the embedding's images of r3 and i
        s3, j = (w + pow(w, 11, p)) % p, pow(w, 3, p)
        assert s3 * s3 % p == 3 and j * j % p == p - 1
    assert all(2**61 < p < 2**62 for p, _ in la.PRIMES)


def test_common_ratio_reports_each_failure():
    with pytest.raises(la.RatioError, match="^zero against nonzero$"):
        la.common_ratio([(ONE, ONE), (SQRT3, ZERO)])
    with pytest.raises(la.RatioError, match="^entries disagree$"):
        la.common_ratio([(ONE, ONE), (Scalar(2), ONE)])
    with pytest.raises(la.RatioError, match="^both sides vanish$"):
        la.common_ratio([(ZERO, ZERO), (CScalar(0), ZERO)])
    with pytest.raises(la.RatioError, match="^both sides vanish$"):
        la.common_ratio([])


def test_common_ratio_mixes_real_and_complex():
    z = CScalar(ONE, SQRT3) / 8
    pairs = [(ZERO, ZERO), (z * 3, Scalar(3)), (z * I, I), (z * CScalar(1, 2), CScalar(1, 2))]
    assert la.common_ratio(pairs) == z
    real = [(Scalar(2), CScalar(1)), (CScalar(4), Scalar(2)), (ZERO, CScalar(0))]
    assert la.common_ratio(real) == Scalar(2)
    with pytest.raises(la.RatioError, match="^entries disagree$"):
        la.common_ratio([(ONE, ONE), (I, ONE)])


@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-2, 2)), min_size=1, max_size=6),
       st.integers(-3, 3), st.integers(-3, 3))
def test_common_ratio_recovers_the_factor(dens, a, b):
    z = CScalar(Scalar(a), Scalar(b))
    pairs = [(z * CScalar(Scalar(p), Scalar(q)), CScalar(Scalar(p), Scalar(q))) for p, q in dens]
    if all(p == 0 and q == 0 for p, q in dens):
        with pytest.raises(la.RatioError):
            la.common_ratio(pairs)
    else:
        assert la.common_ratio(pairs) == z


def test_rotated_rho_derived_algebra_is_certified(monkeypatch, rho):
    """The 8 x 26-28 matrix of brackets [e_i, e_j] that lie_classify
    reduces for a rotated rho has RREF entries past the reconstruction
    bound of one prime on draws 1, 3, 4, 7, 8 and 11 of random.Random(5):
    a second prime certifies them."""
    from triality8.claims.orbit import _pythagorean_rotation
    from triality8.exterior import apply_linear
    from triality8.orbits import orbit_classify

    calls = []  # (matrix, moduli of its eliminations)
    reduced, rref_mod = la._reduced, la._rref_mod

    def recorded(A, rank_only=False):
        calls.append((A, []))
        return reduced(A, rank_only)

    def recorded_mod(R, p):
        calls[-1][1].append(p)
        return rref_mod(R, p)

    monkeypatch.setattr(la, "_reduced", recorded)
    monkeypatch.setattr(la, "_rref_mod", recorded_mod)
    rng = random.Random(5)
    primes = []
    for _ in range(12):
        calls.clear()
        oc = orbit_classify(apply_linear(_pythagorean_rotation(rng), rho))
        assert (oc.kind, oc.orientation) == ("L1_psu3", "reversing")
        [(A, moduli)] = [(A, m) for A, m in calls if len(A) == 8 and 26 <= len(A[0]) <= 28]
        primes.append(len(set(moduli)))
        assert_reduced_equals_rref(A)
    assert [n for n, k in enumerate(primes) if k > 1] == [1, 3, 4, 7, 8, 11]
