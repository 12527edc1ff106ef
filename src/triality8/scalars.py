"""Exact arithmetic in the field tower Q < Q(r3) < Q(r3)[i], r3 = sqrt(3).

Every quantity in this package is an element of one of these fields.
Values are immutable and hashable; equality is structural, which is what
the exact kernel/rank computations elsewhere rely on.
"""

from __future__ import annotations

from fractions import Fraction

try:  # gmpy2.mpq is a large speedup for the big eliminations
    from gmpy2 import mpq as _Rational  # pragma: no cover
except ImportError:
    _Rational = Fraction
_RATIONALS = (int, Fraction, _Rational)
_SQRT3 = 1.7320508075688772935274463415058723669


def _rat(x):
    """x in the backend's rational type; a float is refused, not rounded."""
    if type(x) is _Rational:
        return x
    if isinstance(x, _RATIONALS):
        return _Rational(x)
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


class Frozen:
    """Base of the package's immutable value types.

    Subclasses declare ``__slots__`` and fill them once in ``__init__``
    through ``object.__setattr__``; afterwards assignment and deletion
    raise.  ``__setstate__`` refills the slots the same way, so instances
    pickle (protocol >= 2) and deep-copy.
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
    """a + b*sqrt(3) with rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", _rat(a))
        object.__setattr__(self, "b", _rat(b))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, _RATIONALS):
            return Scalar(other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.a * o.a + 3 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self):
        # 1/(a+b r3) = (a-b r3)/(a^2-3b^2); the norm vanishes only at 0
        n = self.a * self.a - 3 * self.b * self.b
        if n == 0:
            raise ScalarError("division by zero")
        return Scalar(self.a / n, -self.b / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def conj_sqrt3(self):
        """Galois conjugate a + b*r3 -> a - b*r3."""
        return Scalar(self.a, -self.b)

    # -- predicates / conversions -----------------------------------------

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        # a rational value hashes as the rational, like the int it equals
        return hash((self.a, self.b)) if self.b else hash(self.a)

    def sign(self):
        """Sign of the real value a + b*sqrt(3)."""
        if self.a == 0 and self.b == 0:
            return 0
        if self.a >= 0 and self.b >= 0:
            return 1
        if self.a <= 0 and self.b <= 0:
            return -1
        # a, b of opposite sign: compare a^2 with 3 b^2
        s = 1 if self.a > 0 else -1
        return s if self.a * self.a > 3 * self.b * self.b else -s

    def to_float(self):
        """Non-authoritative float embedding, used only for sampling."""
        return float(self.a) + float(self.b) * _SQRT3

    def sqrt(self):
        """Exact square root inside Q(r3), or None if there is none."""
        if self.sign() < 0:
            return None
        if self.b == 0:
            r = _rational_sqrt(self.a)
            if r is not None:
                return Scalar(r, 0)
            r = _rational_sqrt(self.a / 3)
            if r is not None:
                return Scalar(0, r)
            return None
        # (p + q r3)^2 = p^2+3q^2 + 2pq r3: solve for rational p, q
        # p^2 is a root of x^2 - a x + 3 (b/2)^2 = 0
        disc = self.a * self.a - 3 * self.b * self.b
        d = _rational_sqrt(disc)
        if d is None:
            return None
        for p2 in ((self.a + d) / 2, (self.a - d) / 2):
            if p2 < 0:
                continue
            p = _rational_sqrt(p2)
            if p is not None and p != 0:
                q = self.b / (2 * p)
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
        object.__setattr__(self, "re", re if isinstance(re, Scalar) else Scalar(re))
        object.__setattr__(self, "im", im if isinstance(im, Scalar) else Scalar(im))

    def _coerce(self, other):
        if isinstance(other, CScalar):
            return other
        if isinstance(other, Scalar):
            return CScalar(other, Scalar(0))
        if isinstance(other, _RATIONALS):
            return CScalar(Scalar(other), Scalar(0))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CScalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return CScalar(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CScalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CScalar(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def conj(self):
        """Complex conjugate re - im*i."""
        return CScalar(self.re, -self.im)

    def norm2(self):
        """|z|^2 as a Scalar."""
        return self.re * self.re + self.im * self.im

    def inverse(self):
        n = self.norm2()
        if n.is_zero():
            raise ScalarError("division by zero")
        ninv = n.inverse()
        return CScalar(self.re * ninv, -self.im * ninv)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def is_zero(self):
        return self.re.is_zero() and self.im.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # a real value hashes as the Scalar it equals
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __repr__(self):
        return f"CScalar({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


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
