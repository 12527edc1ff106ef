"""The exterior algebra of R^8 with its Euclidean metric.

Blades are bitmasks (bit i-1 <-> index i, indices 1..8); multivectors are
sparse maps from blade to Scalar/CScalar coefficient. e_1^...^e_8 is the
positive volume form.
"""

from __future__ import annotations

from .scalars import CScalar, Frozen, ParseError, Scalar, parse_scalar

N = 8
VOLUME = (1 << N) - 1

ZERO = Scalar(0)
ONE = Scalar(1)


class GradeError(ValueError):
    pass


def mask_of(indices):
    m = 0
    for i in indices:
        if not 1 <= i <= N:
            raise ValueError(f"index {i} out of range 1..{N}")
        if m & (1 << (i - 1)):
            raise ValueError(f"repeated index {i}")
        m |= 1 << (i - 1)
    return m


def indices_of(mask):
    return tuple(i + 1 for i in range(N) if mask >> i & 1)


def grade(mask):
    return bin(mask).count("1")


def blades_of_grade(k):
    return [m for m in range(1 << N) if grade(m) == k]


def _wedge_sign(m1, m2):
    # (-1)^{#{(a,b): a in m1, b in m2, a > b}}
    count = 0
    for bit in range(N):
        if m2 >> bit & 1:
            count += bin(m1 & ~((1 << (bit + 1)) - 1)).count("1")
    return -1 if count & 1 else 1


class Multivector(Frozen):
    """Sparse graded element of Lambda* R^8."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for m, c in terms.items():
                if c:
                    cleaned[m] = c
        object.__setattr__(self, "terms", cleaned)

    # -- constructors ------------------------------------------------------

    @classmethod
    def blade(cls, *indices, coeff=ONE):
        return cls({mask_of(indices): coeff})

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def scalar(cls, c):
        return cls({0: c})

    # -- structure ---------------------------------------------------------

    def grades(self):
        return sorted({grade(m) for m in self.terms})

    def is_homogeneous(self, k=None):
        gs = self.grades()
        if k is None:
            return len(gs) <= 1
        return gs == [] or gs == [k]

    def coeff(self, *indices):
        return self.terms.get(mask_of(indices), ZERO)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_complex(self):
        return any(isinstance(c, CScalar) for c in self.terms.values())

    def complexify(self):
        return Multivector(
            {m: c if isinstance(c, CScalar) else CScalar(c) for m, c in self.terms.items()}
        )

    def real_imag(self):
        re, im = {}, {}
        for m, c in self.terms.items():
            if isinstance(c, CScalar):
                re[m], im[m] = c.re, c.im
            else:
                re[m] = c
        return Multivector(re), Multivector(im)

    def conj(self):
        return Multivector(
            {m: c.conj() if isinstance(c, CScalar) else c for m, c in self.terms.items()}
        )

    # -- linear ops --------------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            out[m] = c if s is None else s + c
        return Multivector(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Multivector({m: -c for m, c in self.terms.items()})

    def __mul__(self, s):
        if isinstance(s, (int, Scalar, CScalar)):
            return Multivector({m: c * s for m, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        keys = set(self.terms) | set(other.terms)
        return all(self.terms.get(m, ZERO) == other.terms.get(m, ZERO) for m in keys)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- products ----------------------------------------------------------

    def wedge(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if m1 & m2:
                    continue
                sgn = _wedge_sign(m1, m2)
                m = m1 | m2
                c = c1 * c2
                if sgn < 0:
                    c = -c
                s = out.get(m)
                out[m] = c if s is None else s + c
        return Multivector(out)

    def __xor__(self, other):
        return self.wedge(other)

    def contract(self, other):
        """Iterated interior product self -| other.

        For grade-1 x this is the metric adjoint of x ^ . ; a grade-k
        contraction applies the factors of each blade e_{i1<...<ik} as
        e_ik -| ( ... (e_i1 -| other)).  Grade-2 contraction carries an
        extra 1/2, normalized so the Kaehler 2-forms of the canonical
        quaternionic 4-form are 5-eigenvectors of . -| Omega.
        """
        from .scalars import half

        for m in self.terms:
            for m2 in other.terms:
                if grade(m) > grade(m2):
                    raise GradeError("contraction grade exceeds target grade")
        out = Multivector.zero()
        for m1, c1 in self.terms.items():
            if grade(m1) == 2:
                c1 = c1 * half()
            part = Multivector({m2: c1 * c2 for m2, c2 in other.terms.items()})
            for i in indices_of(m1):
                part = _contract1(i, part)
                if part.is_zero():
                    break
            out = out + part
        return out

    def inner(self, other):
        """Orthonormal-blade inner product (bilinear, not hermitian)."""
        s = None
        for m, c in self.terms.items():
            c2 = other.terms.get(m)
            if c2 is not None:
                v = c * c2
                s = v if s is None else s + v
        return s if s is not None else ZERO

    def norm2(self):
        return self.inner(self)

    def star(self):
        """Hodge star: a ^ star(b) = <a,b> vol for same-grade a, b."""
        out = {}
        for m, c in self.terms.items():
            comp = VOLUME & ~m
            sgn = _wedge_sign(m, comp)
            out[comp] = c if sgn > 0 else -c
        return Multivector(out)

    # -- so(8)-action ------------------------------------------------------

    def act2(self, target):
        """Derivation action of a 2-form on a multivector.

        On grade 1, (X^Y)*Z = g(X,Z)Y - g(Y,Z)X; extended to Lambda^p as a
        derivation and bilinearly in the 2-form.
        """
        if not self.is_homogeneous(2):
            raise GradeError("act2 requires a homogeneous 2-form")
        out = Multivector.zero()
        for m, c in self.terms.items():
            i, j = indices_of(m)
            out = out + _act_ij(i, j, c, target)
        return out

    # -- formatting --------------------------------------------------------

    def __repr__(self):
        return f"Multivector({format_form(self)!r})"

    def __str__(self):
        return format_form(self)


def _contract1(i, mv):
    """e_i -| mv for a single index i."""
    bit = 1 << (i - 1)
    out = {}
    for m, c in mv.terms.items():
        if not m & bit:
            continue
        below = bin(m & (bit - 1)).count("1")
        out[m & ~bit] = c if below % 2 == 0 else -c
    return Multivector(out)


def _act_ij(i, j, coeff, target):
    """(e_i ^ e_j) * target scaled by coeff, as a derivation."""
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    out = {}
    for m, c in target.terms.items():
        for src, dst in ((bi, bj), (bj, bi)):
            if not m & src:
                continue
            if m & dst:
                continue
            # replace e_src by +-e_dst in place, keeping blade order
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


def apply_linear(M, mv):
    """Extend the linear map e_i |-> sum_j M[j][i] e_j multiplicatively."""
    images = []
    for i in range(N):
        col = {}
        for j in range(N):
            if M[j][i]:
                col[1 << j] = M[j][i]
        images.append(Multivector(col))
    out = Multivector.zero()
    for m, c in mv.terms.items():
        part = Multivector({0: c})
        for i in indices_of(m):
            part = part.wedge(images[i - 1])
            if part.is_zero():
                break
        out = out + part
    return out


def antiderivation(alpha, images):
    """Extend e_i |-> images[i - 1] to alpha as a graded anti-derivation:
    e_{i1..ik} |-> sum_t (-1)^t e_{i1..i(t-1)} ^ images(e_it) ^ e_{i(t+1)..ik}."""
    out = Multivector.zero()
    for m, coef in alpha.terms.items():
        ix = indices_of(m)
        for t, i in enumerate(ix):
            c = coef if t % 2 == 0 else -coef
            lead = Multivector({mask_of(ix[:t]): c})
            tail = Multivector({mask_of(ix[t + 1 :]): ONE})
            out = out + ((lead ^ images[i - 1]) ^ tail)
    return out


# -- coordinates -----------------------------------------------------------


def to_vector(mv, basis_masks):
    lookup = mv.terms
    missing = set(mv.terms) - set(basis_masks)
    if missing:
        raise ValueError(f"multivector has support outside basis: {sorted(missing)}")
    return [lookup.get(m, ZERO) for m in basis_masks]


def from_vector(vec, basis_masks):
    return Multivector(dict(zip(basis_masks, vec)))


# -- form-file grammar -----------------------------------------------------
#
# form  ::= term (ws ('+'|'-') ws term)*
# term  ::= (scalar ws '*'? ws)? blade
# blade ::= 'e' digit+


def parse_form(text):
    import re

    blade_re = re.compile(r"e([1-8]+)")
    pos = 0
    n = len(text)

    def skip_ws(p):
        while p < n and text[p].isspace():
            p += 1
        return p

    result = Multivector.zero()
    pos = skip_ws(pos)
    if pos == n:
        raise ParseError("empty form", 0)
    if text.strip() == "0":
        return result

    def read_blade(m):
        digits = [int(d) for d in m.group(1)]
        if any(b <= a for a, b in zip(digits, digits[1:])):
            raise ParseError("blade indices must be strictly increasing", m.start())
        return mask_of(digits)

    first = True
    while pos < n:
        sign = 1
        if text[pos] == "+":
            pos = skip_ws(pos + 1)
        elif text[pos] == "-":
            sign = -1
            pos = skip_ws(pos + 1)
        elif not first:
            raise ParseError("expected '+' or '-'", pos)
        if pos < n and text[pos] == "(":
            close = text.find(")", pos)
            if close < 0:
                raise ParseError("unbalanced '('", pos)
            try:
                coeff = parse_scalar(text[pos + 1 : close])
            except ParseError as exc:
                raise ParseError(f"bad coefficient {text[pos + 1:close]!r}", pos) from exc
            pos = skip_ws(close + 1)
            if pos < n and text[pos] == "*":
                pos = skip_ws(pos + 1)
            m = blade_re.match(text, pos)
            if m is not None:
                mask = read_blade(m)
                pos = skip_ws(m.end())
            else:
                mask = 0
        else:
            # the term runs to the next top-level '+'/'-' separator
            sep, started = n, False
            p = pos
            while p < n:
                ch = text[p]
                if ch in "+-" and started:
                    sep = p
                    break
                if not ch.isspace():
                    started = True
                p += 1
            m = blade_re.search(text, pos, sep)
            if m is not None:
                coeff_txt = text[pos : m.start()].strip()
                if coeff_txt.endswith("*"):
                    coeff_txt = coeff_txt[:-1].strip()
                if coeff_txt:
                    try:
                        coeff = parse_scalar(coeff_txt)
                    except ParseError as exc:
                        raise ParseError(
                            f"bad coefficient {coeff_txt!r}", pos
                        ) from exc
                else:
                    coeff = ONE
                mask = read_blade(m)
                pos = skip_ws(m.end())
            else:
                coeff_txt = text[pos:sep].strip()
                if not coeff_txt:
                    raise ParseError("expected blade like e123", pos)
                try:
                    coeff = parse_scalar(coeff_txt)
                except ParseError as exc:
                    raise ParseError(f"bad term {coeff_txt!r}", pos) from exc
                mask = 0
                pos = skip_ws(sep)
        if sign < 0:
            coeff = -coeff
        result = result + Multivector({mask: coeff})
        first = False
    return result


def format_form(mv):
    from .scalars import format_scalar

    if mv.is_zero():
        return "0"
    parts = []
    for m in sorted(mv.terms, key=lambda m: (grade(m), indices_of(m))):
        c = mv.terms[m]
        blade = "e" + "".join(str(i) for i in indices_of(m)) if m else ""
        txt = format_scalar(c)
        if blade:
            if txt == "1":
                body = blade
            elif txt == "-1":
                body = f"-{blade}"
            else:
                body = f"({txt}) {blade}" if ("+" in txt[1:] or "- " in txt) else f"{txt} {blade}"
        else:
            body = f"({txt})" if ("+" in txt[1:] or "- " in txt) else txt
        parts.append(body)
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out
