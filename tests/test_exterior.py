import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from triality8 import linalg as la
from triality8.exterior import (
    GradeError,
    Multivector,
    ParseError,
    _wedge_sign,
    antiderivation,
    apply_linear,
    blades_of_grade,
    format_form,
    from_vector,
    indices_of,
    mask_of,
    parse_form,
    to_vector,
)
from triality8.scalars import CScalar, ONE, SQRT3, Scalar, half

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


# -- the one-pass kernels against multivector-building references ---------


def _wedge_sign_reference(m1, m2):
    count = 0
    for bit in range(8):
        if m2 >> bit & 1:
            count += bin(m1 & ~((1 << (bit + 1)) - 1)).count("1")
    return -1 if count & 1 else 1


def _contract1_reference(i, mv):
    """e_i -| mv for a single index i."""
    bit = 1 << (i - 1)
    out = {}
    for m, c in mv.terms.items():
        if not m & bit:
            continue
        below = bin(m & (bit - 1)).count("1")
        out[m & ~bit] = c if below % 2 == 0 else -c
    return Multivector(out)


def _contract_reference(x, y):
    """x -| y, one index at a time: e_ik -| ( ... (e_i1 -| y))."""
    for m in x.terms:
        for m2 in y.terms:
            if bin(m).count("1") > bin(m2).count("1"):
                raise GradeError("contraction grade exceeds target grade")
    out = Multivector.zero()
    for m1, c1 in x.terms.items():
        if bin(m1).count("1") == 2:
            c1 = c1 * half()
        part = Multivector({m2: c1 * c2 for m2, c2 in y.terms.items()})
        for i in indices_of(m1):
            part = _contract1_reference(i, part)
            if part.is_zero():
                break
        out = out + part
    return out


def _act_ij_reference(i, j, coeff, target):
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    out = {}
    for m, c in target.terms.items():
        for src, dst in ((bi, bj), (bj, bi)):
            if not m & src or m & dst:
                continue
            pos_src = bin(m & (src - 1)).count("1")
            m2 = (m & ~src) | dst
            pos_dst = bin(m2 & (dst - 1)).count("1")
            sgn = 1 if (pos_src + pos_dst) % 2 == 0 else -1
            if src == bj:  # (e_i^e_j)*e_j = -e_i
                sgn = -sgn
            val = coeff * c
            if sgn < 0:
                val = -val
            s = out.get(m2)
            out[m2] = val if s is None else s + val
    return Multivector(out)


def _act2_reference(a, target):
    if not a.is_homogeneous(2):
        raise GradeError("act2 requires a homogeneous 2-form")
    out = Multivector.zero()
    for m, c in a.terms.items():
        i, j = indices_of(m)
        out = out + _act_ij_reference(i, j, c, target)
    return out


def _antiderivation_reference(alpha, images):
    out = Multivector.zero()
    for m, coef in alpha.terms.items():
        ix = indices_of(m)
        for t, i in enumerate(ix):
            c = coef if t % 2 == 0 else -coef
            lead = Multivector({mask_of(ix[:t]): c})
            tail = Multivector({mask_of(ix[t + 1:]): ONE})
            out = out + ((lead ^ images[i - 1]) ^ tail)
    return out


def _random_coeff(rng, complex_):
    def part():
        return Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                      Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    c = CScalar(part(), part()) if complex_ else part()
    return c if c else _random_coeff(rng, complex_)


def _random_form(rng, grades, size, complex_=False):
    """Up to size terms, each of a grade drawn from grades."""
    return Multivector({
        rng.choice(blades_of_grade(rng.choice(grades))): _random_coeff(rng, complex_)
        for _ in range(rng.randint(0, size))
    })


def _rounds():
    """(rng, complex coefficients?): six rounds of each field."""
    rng = random.Random(2606)
    for complex_ in (False, True):
        for _ in range(6):
            yield rng, complex_


def test_wedge_sign_matches_bit_loop():
    for m1 in range(256):
        for m2 in range(256):
            assert _wedge_sign(m1, m2) == _wedge_sign_reference(m1, m2), (m1, m2)


def test_act2_matches_reference():
    for rng, complex_ in _rounds():
        for q in range(9):
            a = _random_form(rng, (2,), 5, complex_)
            target = _random_form(rng, (q,), 6, rng.random() < 0.5)
            assert a.act2(target) == _act2_reference(a, target)
            mixed = _random_form(rng, range(9), 8, complex_)
            assert a.act2(mixed) == _act2_reference(a, mixed)
    for bad in (e(1, 2, 3), e(1, 2) + e(3), Multivector.scalar(ONE)):
        for act2 in (Multivector.act2, _act2_reference):
            with pytest.raises(GradeError):
                act2(bad, e(1))


def test_contract_matches_reference():
    for rng, complex_ in _rounds():
        for p in range(9):
            for q in range(p, 9):
                x = _random_form(rng, (p,), 3, complex_)
                y = _random_form(rng, (q,), 5, rng.random() < 0.5)
                assert x.contract(y) == _contract_reference(x, y), (p, q)
        x = _random_form(rng, range(3), 4, complex_)
        y = _random_form(rng, range(3, 9), 6, complex_)
        assert x.contract(y) == _contract_reference(x, y)
    # a grade-2 contractor on e_12 carries the 1/2
    assert e(1, 2).contract(e(1, 2, 3)) == e(3) * half()
    for x, y in ((e(1, 2, 3), e(1, 2)), (e(1) + e(1, 2, 3), e(4, 5) + e(1, 2, 3, 4)),
                 (e(1, 2), Multivector.scalar(ONE))):
        for contract in (Multivector.contract, _contract_reference):
            with pytest.raises(GradeError):
                contract(x, y)
    # nothing to contract raises nothing
    assert e(1, 2, 3).contract(Multivector.zero()).is_zero()
    assert Multivector.zero().contract(e(1)).is_zero()


def test_antiderivation_matches_reference():
    for rng, complex_ in _rounds():
        for image_grades in ((2,), (1, 3), range(9)):
            images = [_random_form(rng, image_grades, 4, rng.random() < 0.5)
                      for _ in range(8)]
            for k in range(9):
                alpha = _random_form(rng, (k,), 5, complex_)
                assert antiderivation(alpha, images) == \
                    _antiderivation_reference(alpha, images), (image_grades, k)
