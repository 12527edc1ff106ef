"""Exact arithmetic in the field tower Q < Q(r3) < Q(r3)[i], r3 = sqrt(3).

Every quantity in this package is an element of one of these fields.
Values are immutable and hashable; equality is structural, which is what
the exact kernel/rank computations elsewhere rely on.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

try:  # gmpy2.mpq speeds up the boundary rationals (.a, .b, parsing)
    from gmpy2 import mpq as _Rational  # pragma: no cover
except ImportError:
    _Rational = Fraction
_RATIONALS = (int, Fraction, _Rational)
_SQRT3 = 1.7320508075688772935274463415058723669


def _parts(x):
    """Integer numerator and denominator of an exact rational; a float is
    refused, not rounded."""
    if type(x) is int:
        return x, 1
    if isinstance(x, _RATIONALS):
        return int(x.numerator), int(x.denominator)
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


class Frozen:
    """Base of the package's immutable value types.

    Subclasses declare ``__slots__`` and fill them once in ``__init__``
    through ``object.__setattr__`` or the slot descriptors; afterwards
    assignment and deletion raise.  ``__setstate__`` refills the slots
    through ``object.__setattr__``, so instances pickle (protocol >= 2) and
    deep-copy.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):
        _, slots = state
        for name, value in slots.items():
            object.__setattr__(self, name, value)


class ScalarError(ArithmeticError):
    pass


class Scalar(Frozen):
    """a + b*sqrt(3) with rational a, b, stored as (p + q*sqrt(3))/d.

    p, q, d are ints with d > 0 and gcd(p, q, d) = 1, so every value has
    one representation (zero is (0, 0, 1)) and equality is structural.
    ``a`` and ``b`` give the rational parts in the backend's type.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, a=0, b=0):
        na, da = _parts(a)
        nb, db = _parts(b)
        # over d = lcm(da, db) of the reduced parts, gcd(p, q, d) is already 1
        d = da * db // gcd(da, db)
        _set_p(self, na * (d // da))
        _set_q(self, nb * (d // db))
        _set_d(self, d)

    @property
    def a(self):
        return _Rational(self.p, self.d)

    @property
    def b(self):
        return _Rational(self.q, self.d)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _make(self.p + other.p, self.q + other.q, d)
        return _make(self.p * e + other.p * d, self.q * e + other.q * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _new(-self.p, -self.q, self.d)

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _make(self.p - other.p, self.q - other.q, d)
        return _make(self.p * e - other.p * d, self.q * e - other.q * d, d * e)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        p, q, s, t = self.p, self.q, other.p, other.q
        return _make(p * s + 3 * q * t, p * t + q * s, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self):
        # d/(p + q r3) = d (p - q r3)/(p^2 - 3 q^2); the norm vanishes only at 0
        p, q, d = self.p, self.q, self.d
        n = p * p - 3 * q * q
        if n == 0:
            raise ScalarError("division by zero")
        if n < 0:
            d, n = -d, -n
        return _make(d * p, -d * q, n)

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- predicates / conversions -----------------------------------------

    def is_zero(self):
        return not (self.p or self.q)

    def __bool__(self):
        return bool(self.p or self.q)

    def __eq__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __hash__(self):
        # a rational value hashes as the rational, like the int it equals
        if self.q:
            return hash((self.p, self.q, self.d))
        return hash(self.p) if self.d == 1 else hash(Fraction(self.p, self.d))

    def sign(self):
        """Sign of the real value a + b*sqrt(3)."""
        p, q = self.p, self.q
        if p >= 0 and q >= 0:
            return 1 if p or q else 0
        if p <= 0 and q <= 0:
            return -1
        # p, q of opposite sign: compare p^2 with 3 q^2
        s = 1 if p > 0 else -1
        return s if p * p > 3 * q * q else -s

    def to_float(self):
        """Non-authoritative float embedding, used only for sampling."""
        return self.p / self.d + self.q / self.d * _SQRT3

    def sqrt(self):
        """Exact square root inside Q(r3), or None if there is none."""
        if self.sign() < 0:
            return None
        a, b = self.a, self.b
        if b == 0:
            r = _rational_sqrt(a)
            if r is not None:
                return Scalar(r, 0)
            r = _rational_sqrt(a / 3)
            if r is not None:
                return Scalar(0, r)
            return None
        # (p + q r3)^2 = p^2+3q^2 + 2pq r3: solve for rational p, q
        # p^2 is a root of x^2 - a x + 3 (b/2)^2 = 0
        disc = a * a - 3 * b * b
        d = _rational_sqrt(disc)
        if d is None:
            return None
        for p2 in ((a + d) / 2, (a - d) / 2):
            if p2 < 0:
                continue
            p = _rational_sqrt(p2)
            if p is not None and p != 0:
                q = b / (2 * p)
                cand = Scalar(p, q)
                if cand * cand == self and cand.sign() >= 0:
                    return cand
                cand = -cand
                if cand * cand == self and cand.sign() >= 0:
                    return cand
        return None

    def __repr__(self):
        return f"Scalar({self.a}, {self.b})"

    def __str__(self):
        return format_scalar(self)


_set_p = Scalar.p.__set__
_set_q = Scalar.q.__set__
_set_d = Scalar.d.__set__
_alloc = object.__new__


def _new(p, q, d):
    """The Scalar with slots (p, q, d), which must already be normal."""
    s = _alloc(Scalar)
    _set_p(s, p)
    _set_q(s, q)
    _set_d(s, d)
    return s


def _make(p, q, d):
    """The Scalar (p + q r3)/d for ints p, q and d > 0, in normal form."""
    if d != 1:
        g = gcd(p, q, d)
        if g != 1:
            p //= g
            q //= g
            d //= g
    return _new(p, q, d)


def _coerce(x):
    """x as a Scalar if it is one or an exact rational, else None."""
    if type(x) is Scalar:
        return x
    if type(x) is int:
        return _new(x, 0, 1)
    if isinstance(x, _RATIONALS):
        return _new(int(x.numerator), 0, int(x.denominator))
    return None


def _rational_sqrt(q):
    if q < 0:
        return None
    f = Fraction(q)
    n, d = f.numerator, f.denominator
    rn, rd = _isqrt(n), _isqrt(d)
    if rn is None or rd is None:
        return None
    return _Rational(rn, rd)


def _isqrt(n):
    import math

    r = math.isqrt(n)
    return r if r * r == n else None


class CScalar(Frozen):
    """re + im*i with re, im in Q(r3)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        _set_re(self, re if type(re) is Scalar else Scalar(re))
        _set_im(self, im if type(im) is Scalar else Scalar(im))

    def __add__(self, other):
        if type(other) is CScalar:
            return _cnew(self.re + other.re, self.im + other.im)
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _cnew(self.re + o, self.im)

    __radd__ = __add__

    def __neg__(self):
        return _cnew(-self.re, -self.im)

    def __sub__(self, other):
        if type(other) is CScalar:
            return _cnew(self.re - other.re, self.im - other.im)
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _cnew(self.re - o, self.im)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _cnew(o - self.re, -self.im)

    def __mul__(self, other):
        if type(other) is CScalar:
            a, b, c, d = self.re, self.im, other.re, other.im
            return _cnew(a * c - b * d, a * d + b * c)
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _cnew(self.re * o, self.im * o)

    __rmul__ = __mul__

    def conj(self):
        """Complex conjugate re - im*i."""
        return _cnew(self.re, -self.im)

    def norm2(self):
        """|z|^2 as a Scalar."""
        return self.re * self.re + self.im * self.im

    def inverse(self):
        n = self.norm2()
        if n.is_zero():
            raise ScalarError("division by zero")
        ninv = n.inverse()
        return _cnew(self.re * ninv, -self.im * ninv)

    def __truediv__(self, other):
        o = other if type(other) is CScalar else _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.inverse() * o

    def is_zero(self):
        return self.re.is_zero() and self.im.is_zero()

    def __bool__(self):
        re, im = self.re, self.im
        return bool(re.p or re.q or im.p or im.q)

    def __eq__(self, other):
        if type(other) is CScalar:
            return self.re == other.re and self.im == other.im
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o and not self.im

    def __hash__(self):
        # a real value hashes as the Scalar it equals
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __repr__(self):
        return f"CScalar({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


_set_re = CScalar.re.__set__
_set_im = CScalar.im.__set__


def _cnew(re, im):
    """The CScalar re + im*i of two Scalars."""
    z = _alloc(CScalar)
    _set_re(z, re)
    _set_im(z, im)
    return z


ZERO = Scalar(0)
ONE = Scalar(1)
SQRT3 = Scalar(0, 1)
I = CScalar(Scalar(0), Scalar(1))


def half(n=1):
    return Scalar(_Rational(n, 2))


def quarter(n=1):
    return Scalar(_Rational(n, 4))


def complexify(s):
    return s if isinstance(s, CScalar) else CScalar(s)


# -- parsing / printing ---------------------------------------------------
#
# scalar ::= term | term ws ('+'|'-') ws term
# term   ::= sign? rational ws? 'r3'? ws? 'i'?
# rational ::= integer ('/' positive-integer)?


class ParseError(ValueError):
    def __init__(self, message, offset):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


def parse_scalar(text):
    """Parse the scalar grammar; returns Scalar or CScalar."""
    import re

    pos = 0
    n = len(text)

    def skip_ws(p):
        while p < n and text[p].isspace():
            p += 1
        return p

    term_re = re.compile(r"([+-]?)\s*(\d+)(?:/(\d+))?\s*(r3)?\s*(i)?")

    terms = []
    pos = skip_ws(pos)
    first = True
    while pos < n:
        sign = 1
        if not first:
            if text[pos] == "+":
                pos += 1
            elif text[pos] == "-":
                sign = -1
                pos += 1
            else:
                raise ParseError("expected '+' or '-'", pos)
            pos = skip_ws(pos)
        m = term_re.match(text, pos)
        if not m or m.start() != pos or not m.group(2):
            raise ParseError("expected rational term", pos)
        s, num, den, r3, imag = m.groups()
        if s == "-":
            sign = -sign
        if den is not None and int(den) == 0:
            raise ParseError("zero denominator", pos)
        q = _Rational(int(num), int(den) if den else 1)
        val = Scalar(0, sign * q) if r3 else Scalar(sign * q, 0)
        terms.append((val, bool(imag)))
        pos = skip_ws(m.end())
        first = False
    if not terms:
        raise ParseError("empty scalar", 0)

    re_part, im_part = Scalar(0), Scalar(0)
    for val, imag in terms:
        if imag:
            im_part = im_part + val
        else:
            re_part = re_part + val
    if im_part.is_zero() and not any(imag for _, imag in terms):
        return re_part
    return CScalar(re_part, im_part)


def _format_real(s, force_sign=False):
    parts = []
    for coeff, suffix in ((s.a, ""), (s.b, " r3")):
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else "+"
        mag = -coeff if coeff < 0 else coeff
        parts.append((sign, f"{mag}{suffix}"))
    if not parts:
        return "+0" if force_sign else "0"
    out = []
    for k, (sign, body) in enumerate(parts):
        if k == 0 and sign == "+" and not force_sign:
            out.append(body)
        else:
            out.append(f"{sign} {body}" if k > 0 else f"{sign}{body}")
    return " ".join(out)


def format_scalar(s):
    """Canonical text form; parse(format(s)) == s."""
    if isinstance(s, CScalar):
        if s.im.is_zero():
            return _format_real(s.re)
        re_txt = "" if s.re.is_zero() else _format_real(s.re)
        im_terms = []
        for coeff, suffix in ((s.im.a, " i"), (s.im.b, " r3 i")):
            if coeff == 0:
                continue
            sign = "-" if coeff < 0 else "+"
            mag = -coeff if coeff < 0 else coeff
            im_terms.append((sign, f"{mag}{suffix}"))
        out = re_txt
        for sign, body in im_terms:
            if not out:
                out = body if sign == "+" else f"-{body}"
            else:
                out += f" {sign} {body}"
        return out
    return _format_real(s)
