"""The benchmark's own exact arithmetic, kept apart from triality8.

An element of Q(r3)[i] is a 4-tuple of Fractions (a, b, c, d) meaning
a + b r3 + i (c + d r3).  Values enter from the program only through its
canonical text form (``str`` of a Scalar/CScalar), so the checks do not
depend on how the program stores a scalar.  ``ModP`` maps the field into
the integers modulo a prime p = 1 (mod 12), where both r3 and i exist,
for plain-integer rank computations.
"""

from __future__ import annotations

import re
from fractions import Fraction

ZERO = (Fraction(0),) * 4
ONE = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))

_TERM = re.compile(r"\s*([+-]?)\s*(\d+)(?:/(\d+))?(\s*r3)?(\s*i)?\s*")


def parse(text):
    """The element named by the program's canonical scalar text."""
    out = [Fraction(0)] * 4
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot parse scalar {text!r}")
        sign, num, den, r3, imag = m.groups()
        q = Fraction(int(num), int(den) if den else 1)
        out[(2 if imag else 0) + (1 if r3 else 0)] += -q if sign == "-" else q
        pos = m.end()
    return tuple(out)


def of(x):
    """Convert a program scalar (anything whose str is canonical text)."""
    return ZERO if not x else parse(str(x))


def real(a, b=0):
    return (Fraction(a), Fraction(b), Fraction(0), Fraction(0))


def add(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3])


def sub(x, y):
    return (x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3])


def _rmul(a, b, c, d):
    # (a + b r3)(c + d r3)
    return a * c + 3 * b * d, a * d + b * c


def mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    if not (c or d or g or h):
        return _rmul(a, b, e, f) + (Fraction(0), Fraction(0))
    re1, re2 = _rmul(a, b, e, f)
    im1, im2 = _rmul(c, d, g, h)
    x1, x2 = _rmul(a, b, g, h)
    y1, y2 = _rmul(c, d, e, f)
    return (re1 - im1, re2 - im2, x1 + y1, x2 + y2)


def is_zero(x):
    return not (x[0] or x[1] or x[2] or x[3])


def text(x):
    """Text in the program's scalar grammar, for real elements of Q(r3)."""
    a, b, c, d = x
    if c or d:
        raise ValueError("only real elements are written as input text")
    parts = []
    if a:
        parts.append(f"{a.numerator}/{a.denominator}")
    if b:
        sign = "-" if b < 0 else "+"
        q = abs(b)
        parts.append(f"{sign} {q.numerator}/{q.denominator} r3")
    if not parts:
        return "0"
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else out


def dot(row, vec):
    """Sparse row (dict index -> element) times a dense vector."""
    s = ZERO
    for k, x in row.items():
        y = vec[k]
        if not is_zero(y):
            s = add(s, mul(x, y))
    return s


class ModP:
    """Q(r3)[i] -> Z/p with r3 and i sent to fixed square roots."""

    def __init__(self, p):
        if p % 12 != 1:
            raise ValueError("need p = 1 (mod 12) so that r3 and i exist")
        self.p = p
        self.r3 = _sqrt_mod(3, p)
        self.i = _sqrt_mod(p - 1, p)

    def _q(self, q):
        if q.denominator % self.p == 0:
            raise ZeroDivisionError("denominator divisible by p")
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

    def image(self, x):
        a, b, c, d = (self._q(t) for t in x)
        p = self.p
        return (a + b * self.r3 + self.i * (c + d * self.r3)) % p

    def rank(self, rows):
        """Rank of a matrix of residues (list of rows), by elimination."""
        p = self.p
        M = [list(r) for r in rows]
        rank = 0
        ncols = len(M[0]) if M else 0
        for c in range(ncols):
            pr = next((i for i in range(rank, len(M)) if M[i][c]), None)
            if pr is None:
                continue
            M[rank], M[pr] = M[pr], M[rank]
            inv = pow(M[rank][c], -1, p)
            piv = [v * inv % p for v in M[rank]]
            M[rank] = piv
            for i in range(len(M)):
                if i != rank and M[i][c]:
                    f = M[i][c]
                    M[i] = [(v - f * w) % p for v, w in zip(M[i], piv)]
            rank += 1
        return rank


def _sqrt_mod(a, p):
    """Tonelli-Shanks square root of a quadratic residue a mod an odd prime."""
    a %= p
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


# the largest prime below 2^61 that is 1 (mod 12): 2^61 - 31
PRIME = 2305843009213693921
