import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from triality8 import linalg as la
from triality8.scalars import I, ONE, SQRT3, ZERO, CScalar, Scalar


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


def ref_rank(A):
    return len(la.rref(A)[1]) if A and A[0] else 0


def ref_nullspace(A):
    R, pivots = la.rref(A)
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
    R, pivots = la.rref([list(row) + [x] for row, x in zip(A, b)])
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for r, c in enumerate(pivots):
        x[c] = R[r][cols]
    return x


def ref_column_space_basis(vectors):
    return [vectors[c] for c in la.rref(la.transpose(vectors))[1]]


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


@pytest.mark.parametrize("field", sorted(ELEMENTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_answers_equal_exact_rref(field, data):
    A = data.draw(matrices(field))
    R, pivots = la.rref(A)
    try:
        got_pivots, columns = la._modular_reduced(A)
    except la._Uncertified:  # e.g. RREF coefficients beyond the bound
        event("exact fallback")
    else:
        event("certified mod P")
        assert got_pivots == pivots
        assert sorted(columns) == [f for f in range(len(A[0])) if f not in pivots]
        for f, entries in columns.items():
            assert all(entries.get(c, ZERO) == R[r][f] for r, c in enumerate(pivots))
    assert la.rank(A) == ref_rank(A)
    assert la.nullspace(A) == ref_nullspace(A)
    vectors = la.transpose(A)
    assert la.column_space_basis(vectors) == ref_column_space_basis(vectors)
    x = [data.draw(ELEMENTS["Q(r3)"]) for _ in A[0]]
    for b in (la.mat_vec(A, x), [data.draw(ELEMENTS["Q(r3)"]) for _ in A]):
        assert la.solve(A, b) == ref_solve(A, b)


def count_rref(monkeypatch):
    calls = []
    real = la.rref

    def counted(A):
        calls.append((len(A), len(A[0]) if A else 0))
        return real(A)

    monkeypatch.setattr(la, "rref", counted)
    return calls


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
        [[Scalar(Fraction(1, la.P)), ONE, ONE], [ONE, ONE, Scalar(2)]],
        # an entry equal to P: the rank drops mod P
        [[Scalar(la.P), ONE], [ZERO, ONE], [ZERO, ONE]],
        [[Scalar(0, la.P), ONE, ONE], [ZERO, ONE, ONE]],
        # kernel coefficients beyond the reconstruction bound
        [[ONE, Scalar(2**40)], [Scalar(2), Scalar(2**41)]],
        [[Scalar(2**40 + 1), ONE], [Scalar(2**41 + 2), Scalar(2)]],
        [[ONE, CScalar(Scalar(0, 2**45), Scalar(3))]],
    ],
)
def test_forced_fallback_stays_exact(monkeypatch, A):
    calls = count_rref(monkeypatch)
    assert_exact_answers(A)
    assert calls  # the exact path answered


def test_fast_path_on_small_matrices(monkeypatch):
    calls = count_rref(monkeypatch)
    A = [[ONE, SQRT3, Scalar(2)], [Scalar(2), SQRT3 * 2, Scalar(4)]]
    assert la.rank(A) == 1
    assert len(la.nullspace(A)) == 2
    assert la.solve(A, [ONE, Scalar(2)]) == [ONE, ZERO, ZERO]
    assert la.solve(A, [ONE, ONE]) is None
    # Q(r3)[i]: four embeddings
    A = [[ONE, I, SQRT3], [I, -ONE, SQRT3 * I]]
    assert la.rank(A) == 1
    assert la.nullspace(A) == [[-I, ONE, ZERO], [-SQRT3, ZERO, ONE]]
    assert calls == []


def test_torsion_kernels_never_call_rref(monkeypatch):
    from triality8 import torsion

    calls = count_rref(monkeypatch)
    ka = torsion.kernel_analysis.__wrapped__("SP1SP2")
    assert (ka["dhat_rank"], ka["harmonic_dim"], ka["kernels_equal"]) == (56, 64, True)
    assert torsion.l_spectrum.__wrapped__() == {2: 8, 12: 32, 20: 16}
    assert calls == []


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
    P = la.P
    # the test itself tells primes from strong pseudoprimes
    assert [n for n in range(60) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(3215031751) and not is_prime(3825123056546413051)
    assert is_prime(P) and P % 12 == 1 and 2**61 < P < 2**62
    w = la.OMEGA
    assert pow(w, 12, P) == 1 and pow(w, 4, P) != 1 and pow(w, 6, P) != 1
    assert la.S3 == (w + pow(w, 11, P)) % P and la.S3 * la.S3 % P == 3
    assert la.J == pow(w, 3, P) and la.J * la.J % P == P - 1
