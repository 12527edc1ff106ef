from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from triality8 import linalg as la
from triality8.exterior import (
    GradeError,
    Multivector,
    ParseError,
    apply_linear,
    blades_of_grade,
    format_form,
    from_vector,
    parse_form,
    to_vector,
)
from triality8.scalars import ONE, SQRT3, Scalar

e = Multivector.blade


def forms(grade, size=3):
    coeff = st.builds(
        Scalar,
        st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)),
    )

    def build(pairs):
        out = Multivector.zero()
        for m, c in pairs:
            out = out + Multivector({m: c})
        return out

    return st.builds(
        build,
        st.lists(
            st.tuples(st.sampled_from(blades_of_grade(grade)), coeff),
            max_size=size,
        ),
    )


def test_blade_basics():
    with pytest.raises(ValueError):
        e(1, 1)
    with pytest.raises(ValueError):
        e(0)
    assert e(1, 2, 3).is_homogeneous(3)
    assert len(blades_of_grade(4)) == 70


def test_is_homogeneous_by_grade_masks():
    mixed = e(1, 2, 3) + e(1, 2)
    for k in (-1, 0, 2, 3, 8, 9):
        assert Multivector.zero().is_homogeneous(k)
        assert e(1, 2, 3).is_homogeneous(k) == (k == 3)
        assert not mixed.is_homogeneous(k)
    assert Multivector.scalar(ONE).is_homogeneous(0)
    assert e(*range(1, 9)).is_homogeneous(8)
    assert Multivector.zero().is_homogeneous() and e(1, 2).is_homogeneous()
    assert not mixed.is_homogeneous() and mixed.grades() == [2, 3]


@given(forms(2), forms(2), forms(3))
def test_wedge_bilinear_graded(a, b, c):
    assert (a + b) ^ c == (a ^ c) + (b ^ c)
    assert a ^ b == b ^ a  # even grades commute
    assert ((a ^ b) ^ c) == (a ^ (b ^ c))


@given(forms(1), forms(1))
def test_wedge_anticommutes_odd(x, y):
    assert (x ^ y) == -(y ^ x)
    assert (x ^ x).is_zero()


def test_star_involution_signs():
    for p in range(9):
        b = Multivector({blades_of_grade(p)[0]: ONE})
        ss = b.star().star()
        assert ss == (b if (p * (8 - p)) % 2 == 0 else -b)


@given(forms(1, 2), forms(3), forms(2))
def test_contraction_adjoint(x, a, b):
    assert x.contract(a).inner(b) == a.inner(x ^ b)


@given(forms(2, 2), forms(3, 2), forms(2, 2))
def test_act2_skew_derivation(t, a, b):
    # derivation action of a 2-form is skew on the inner product
    assert t.act2(a).inner(a) + a.inner(t.act2(a)) == Scalar(0)
    lhs = t.act2(a ^ b)
    rhs = (t.act2(a) ^ b) + (a ^ t.act2(b))
    assert lhs == rhs


def test_grade_errors():
    with pytest.raises(GradeError):
        e(1, 2, 3).contract(e(1, 2))
    with pytest.raises(GradeError):
        e(1, 2, 3).act2(e(1))


@given(forms(3, 4))
def test_format_round_trip(a):
    assert parse_form(format_form(a)) == a


# rejected form texts with the offset of their error
_BAD_FORMS = [
    ("", 0),
    ("e12 + qq", 6),
    ("e21", 0),  # blade indices must increase
    ("e19", 2),
    ("1/0 e12", 0),
    ("(1", 2),
    ("e12 e34", 4),
    ("* e12", 0),  # a '*' joins a coefficient to a blade
    ("(2) *", 5),
    ("e12 + -e34", 6),  # only a rational coefficient carries its own sign
]

# accepted form texts with their canonical print
_GOOD_FORMS = [
    ("- -3 e12", "3 e12"),
    ("(1 + 2 i) * e12", "(1 + 2 i) e12"),
    ("0", "0"),
    ("e12 - e12", "0"),
    ("1/2 r3 e123 - (1/4 + 1/4 i) e147", "1/2 r3 e123 + (-1/4 - 1/4 i) e147"),
    ("-e34 + 2*e12 - (1/2) + 3 r3 i", "(-1/2 + 3 r3 i) + 2 e12 - e34"),
]


def test_parse_errors_have_location():
    for text, offset in _BAD_FORMS:
        with pytest.raises(ParseError, match=f"at offset {offset}$") as err:
            parse_form(text)
        assert err.value.offset == offset, text


def test_parse_form_examples():
    for text, printed in _GOOD_FORMS:
        assert format_form(parse_form(text)) == printed, text


def test_vector_round_trip():
    masks = blades_of_grade(2)
    a = e(1, 2) * 3 - e(5, 6) * SQRT3
    assert from_vector(to_vector(a, masks), masks) == a


@given(forms(3, 2))
@settings(max_examples=25)
def test_apply_linear_identity_and_scaling(a):
    assert apply_linear(la.identity(8), a) == a
    M = la.mat_scale(la.identity(8), Scalar(2))
    assert apply_linear(M, a) == a * 8  # grade 3 scales by 2^3
