"""Exact arithmetic in the field tower Q < Q(r3) < Q(r3)[i], r3 = sqrt(3).

Every quantity in this package is an element of one of these fields.
Values are immutable and hashable; equality is structural, which is what
the exact kernel/rank computations elsewhere rely on.
"""

from __future__ import annotations

import re
import sys
from math import gcd, isqrt

_SQRT3 = 1.7320508075688772935274463415058723669
_HASH_MODULUS = sys.hash_info.modulus

# The rational backend (gmpy2.mpq if installed, else fractions.Fraction) and
# the exact rational types besides int, resolved by _rationals() on first
# use: values are built from ints, so a process that reads no rational part
# and is handed no Fraction never imports fractions.
_Rational = None
_RATIONALS = ()


def _rationals():
    """The exact rational types, imported now if this is the first use."""
    global _Rational, _RATIONALS
    if not _RATIONALS:
        from fractions import Fraction

        try:  # gmpy2.mpq speeds up the boundary rationals (.a, .b)
            from gmpy2 import mpq as backend  # pragma: no cover
        except ImportError:
            backend = Fraction
        _Rational, _RATIONALS = backend, (int, Fraction, backend)
    return _RATIONALS


def _rational(n, d):
    """The rational n/d in the backend's type."""
    if _Rational is None:
        _rationals()
    return _Rational(n, d)


def _parts(x):
    """Integer numerator and denominator of an exact rational; a float is
    refused, not rounded."""
    if type(x) is int:
        return x, 1
    if isinstance(x, _RATIONALS or _rationals()):
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
        return _rational(self.p, self.d)

    @property
    def b(self):
        return _rational(self.q, self.d)

    def numerators(self):
        """(a, b, x, y, L): the value as (a + b r3 + (x + y r3) i)/L with
        ints a, b, x, y and L > 0; a Scalar has x = y = 0."""
        return self.p, self.q, 0, 0, self.d

    @staticmethod
    def from_ints(p, q, d):
        """The Scalar (p + q r3)/d for ints p, q and d > 0, in normal form:
        from_ints(a, b, L) inverts numerators() = (a, b, 0, 0, L)."""
        if not type(p) is type(q) is type(d) is int:
            raise TypeError("from_ints takes ints")
        if d <= 0:
            raise ValueError("from_ints takes a denominator d > 0")
        return _make(p, q, d)

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
        p, d = self.p, self.d
        if self.q:
            return hash((p, self.q, d))
        if d == 1:
            return hash(p)
        # CPython's documented rule for the rational p/d (fractions.Fraction)
        if d % _HASH_MODULUS:
            h = hash(abs(p)) * pow(d, -1, _HASH_MODULUS) % _HASH_MODULUS
        else:
            h = sys.hash_info.inf
        if p < 0:
            h = -h
        return -2 if h == -1 else h

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
    if isinstance(x, Frozen):  # a CScalar, say: refused without the backend
        return None
    if isinstance(x, _RATIONALS or _rationals()):
        return _new(int(x.numerator), 0, int(x.denominator))
    return None


def _rational_sqrt(q):
    if q < 0:
        return None
    rn, rd = _isqrt(int(q.numerator)), _isqrt(int(q.denominator))
    if rn is None or rd is None:
        return None
    return _rational(rn, rd)


def _isqrt(n):
    r = isqrt(n)
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

    def numerators(self):
        """(a, b, x, y, L): the value as (a + b r3 + (x + y r3) i)/L with
        ints a, b, x, y and L > 0 the lcm of the two parts' denominators."""
        re, im = self.re, self.im
        d, e = re.d, im.d
        if d == e:
            return re.p, re.q, im.p, im.q, d
        L = d * e // gcd(d, e)
        f, g = L // d, L // e
        return re.p * f, re.q * f, im.p * g, im.q * g, L

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
    """n/2 for an int n."""
    return _make(n, 0, 2)


def quarter(n=1):
    """n/4 for an int n."""
    return _make(n, 0, 4)


def complexify(s):
    return s if isinstance(s, CScalar) else CScalar(s)


# -- parsing / printing ---------------------------------------------------
#
# One grammar reads scalars here and the form files of exterior.parse_form,
# with whitespace allowed between any two tokens:
#
# token    ::= rational | 'r3' | 'i' | 'e' [1-8]+ | '+' | '-' | '*' | '(' | ')'
# rational ::= digit+ ('/' digit+)?
# term     ::= ('+'|'-')? rational 'r3'? 'i'?
# scalar   ::= term (('+'|'-') term)*

_TOKEN = re.compile(r"\s*((\d+)(?:/(\d+))?|e([1-8]+)|r3|i|[-+*()]|\S)")


class ParseError(ValueError):
    def __init__(self, message, offset):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class _Reader:
    """The tokens of one text, read left to right by the grammar rules.

    The current token is ``kind`` at offset ``at``: 'rational' (``value``
    its numerator and denominator texts), 'blade' (``value`` its digits),
    the token text itself for the other tokens and for a character outside
    the grammar, which no rule accepts, and '' at the end of the text.
    """

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.next()

    def next(self):
        m = _TOKEN.match(self.text, self.pos)
        if m is None:  # only whitespace is left
            self.kind, self.at = "", len(self.text)
            return
        token, num, den, blade = m.groups()
        self.kind = "rational" if num else "blade" if blade else token
        self.value = (num, den) if num else blade
        self.at = m.start(1)
        self.pos = m.end()

    def take(self, kind):
        """Step past the current token if it is of this kind."""
        if self.kind == kind:
            self.next()
            return True
        return False

    def sign(self):
        """-1 or 1 past a '-' or '+', else 0."""
        if self.take("-"):
            return -1
        return 1 if self.take("+") else 0

    def term(self):
        """The term rule, as a Scalar, or a CScalar if it has an i."""
        at = self.at
        negative = self.sign() < 0
        if self.kind != "rational":
            raise ParseError("expected rational term", at)
        n, d = int(self.value[0]), int(self.value[1] or 1)
        if not d:
            raise ParseError("zero denominator", at)
        self.next()
        n = -n if negative else n
        value = _make(0, n, d) if self.take("r3") else _make(n, 0, d)
        return CScalar(ZERO, value) if self.take("i") else value

    def scalar(self):
        """The scalar rule, as a CScalar if any term has an i."""
        value = self.term()
        sign = self.sign()
        while sign:
            value = value + self.term() if sign > 0 else value - self.term()
            sign = self.sign()
        return value


def parse_scalar(text):
    """Parse the scalar grammar; returns Scalar or CScalar."""
    reader = _Reader(text)
    if not reader.kind:
        raise ParseError("empty scalar", 0)
    value = reader.scalar()
    if reader.kind:
        raise ParseError("expected '+' or '-'", reader.at)
    return value


def _signed_terms(s):
    """The nonzero terms of a Scalar or CScalar in print order, as
    (negative, text of the magnitude) pairs."""
    if isinstance(s, CScalar):
        re, im = s.re, s.im
        parts = ((re.p, re.d, ""), (re.q, re.d, " r3"), (im.p, im.d, " i"),
                 (im.q, im.d, " r3 i"))
    else:
        parts = ((s.p, s.d, ""), (s.q, s.d, " r3"))
    return [(n < 0, _ratio_text(abs(n), d) + suffix) for n, d, suffix in parts if n]


def _ratio_text(n, d):
    """The rational n/d in lowest terms as 'n' or 'n/d', as Fraction prints
    it; n >= 0 and d > 0 are ints."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def _join(terms):
    """Signed terms as 'a - b + c', the first signed only if negative;
    no terms print as 0."""
    if not terms:
        return "0"
    (negative, first), rest = terms[0], terms[1:]
    return ("-" if negative else "") + first + "".join(
        f" {'-' if n else '+'} {text}" for n, text in rest)


def format_scalar(s):
    """Canonical text form; parse(format(s)) == s."""
    return _join(_signed_terms(s))
