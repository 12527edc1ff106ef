from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from triality8.exterior import Multivector
from triality8.scalars import (
    CScalar,
    I,
    ONE,
    SQRT3,
    Scalar,
    ScalarError,
    ZERO,
    complexify,
    format_scalar,
    half,
    parse_scalar,
    quarter,
)

rationals = st.builds(
    Fraction, st.integers(-50, 50), st.integers(1, 12)
)


def scalars():
    return st.builds(Scalar, rationals, rationals)


def cscalars():
    return st.builds(CScalar, scalars(), scalars())


def test_basic_constants():
    assert SQRT3 * SQRT3 == Scalar(3)
    assert half() + half() == ONE
    assert quarter() * 4 == ONE
    assert I * I == CScalar(Scalar(-1))


@given(scalars(), scalars(), scalars())
def test_field_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x and x * ONE == x


@given(scalars())
def test_inverse(x):
    if x.is_zero():
        with pytest.raises(ScalarError):
            x.inverse()
    else:
        assert x * x.inverse() == ONE


@given(scalars())
def test_square_root_round_trip(x):
    sq = x * x
    r = sq.sqrt()
    assert r is not None
    assert r * r == sq
    assert r.sign() >= 0


@given(scalars(), scalars())
def test_galois_conjugation_multiplicative(x, y):
    assert (x * y).conj_sqrt3() == x.conj_sqrt3() * y.conj_sqrt3()
    assert (x + y).conj_sqrt3() == x.conj_sqrt3() + y.conj_sqrt3()


@given(scalars())
def test_sign_matches_float(x):
    f = x.to_float()
    if abs(f) > 1e-9:
        assert x.sign() == (1 if f > 0 else -1)


@given(cscalars(), cscalars())
def test_complex_field(z, w):
    assert z * w == w * z
    assert (z + w).conj() == z.conj() + w.conj()
    assert (z * w).conj() == z.conj() * w.conj()
    if not z.is_zero():
        assert z * z.inverse() == CScalar(ONE)
        assert z.norm2() == (z * z.conj()).re


@given(scalars())
def test_scalar_format_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


@given(cscalars())
def test_cscalar_format_round_trip(z):
    v = parse_scalar(format_scalar(z))
    assert complexify(v) == z


def test_specific_square_roots():
    assert Scalar(3).sqrt() == SQRT3
    assert Scalar(7, 4).sqrt() == Scalar(2, 1)
    assert Scalar(2).sqrt() is None
    assert Scalar(-1).sqrt() is None


def test_parse_examples():
    assert parse_scalar("-3/4 r3") == SQRT3 * Fraction(-3, 4)
    z = parse_scalar("1/8 + 1/8 r3 i")
    assert isinstance(z, CScalar)
    assert z.re == Scalar(1) / 8 and z.im == SQRT3 / 8


def test_exact_constructors_reject_float():
    for make in (lambda: Scalar(0.1), lambda: Scalar(1, 0.5), lambda: CScalar(0.5)):
        with pytest.raises(TypeError, match="float"):
            make()
    assert Scalar(Fraction(1, 3)).a == Fraction(1, 3)


def _representations(q, r):
    """Equal values of q + r*r3 in every type that can hold them."""
    out = [Scalar(q, r), CScalar(Scalar(q, r)), CScalar(Scalar(q, r), Scalar(0))]
    if r == 0:
        out += [q, Scalar(q)]
        if q.denominator == 1:
            out.append(int(q))
    return out


@given(rationals, st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 2), Fraction(-3)]))
def test_equal_values_hash_equal(q, r):
    reps = _representations(q, r)
    for x in reps:
        for y in reps:
            assert x == y and hash(x) == hash(y), (x, y)


@given(st.lists(st.tuples(st.integers(0, 255), rationals, rationals), max_size=4))
def test_multivector_hash_survives_complexify(terms):
    m = Multivector({mask: Scalar(q, r) for mask, q, r in terms})
    assert m == m.complexify() and hash(m) == hash(m.complexify())


values = st.one_of(
    st.integers(-3, 3),
    rationals,
    st.builds(Scalar, rationals, st.sampled_from([Fraction(0), Fraction(1)])),
    st.builds(CScalar, scalars(), st.builds(Scalar, st.sampled_from([0, 0, 1]))),
    st.builds(lambda k, x: Multivector({k: x}), st.sampled_from([0, 3]),
              st.one_of(scalars(), cscalars())),
)


@given(values, values)
def test_eq_implies_hash_eq(x, y):
    if x == y:
        assert hash(x) == hash(y)
