"""The exterior algebra of R^8 with its Euclidean metric.

Blades are bitmasks (bit i-1 <-> index i, indices 1..8); multivectors are
sparse maps from blade to Scalar/CScalar coefficient. e_1^...^e_8 is the
positive volume form.
"""

from __future__ import annotations

from .scalars import CScalar, Frozen, ParseError, Scalar, _join, _Reader, _signed_terms, half

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
    return mask.bit_count()


def blades_of_grade(k):
    return [m for m in range(1 << N) if grade(m) == k]


def _grade_masks():
    """{k: the blade masks of grade k} for k = 0..N, in one pass."""
    by_grade = [[] for _ in range(N + 1)]
    for m in range(1 << N):
        by_grade[grade(m)].append(m)
    return {k: frozenset(masks) for k, masks in enumerate(by_grade)}


# for subset tests of a form's terms
GRADE_MASKS = _grade_masks()
_NO_MASKS = frozenset()


def _wedge_sign(m1, m2):
    # (-1)^{#{(a,b): a in m1, b in m2, a > b}}, one bit of m2 at a time
    count = 0
    while m2:
        low = m2 & -m2
        count += (m1 & -(low << 1)).bit_count()
        m2 ^= low
    return -1 if count & 1 else 1


def _contract_sign(m1, m2):
    """The sign s of e_ik -| (... (e_i1 -| e_m2)) = s e_{m2 - m1} for
    m1 = {i1 < ... < ik} inside m2: each step passes e_it over the indices
    of m2 below it that are still there, which is the sign of
    e_m1 ^ e_{m2 - m1} = s e_m2."""
    return _wedge_sign(m1, m2 ^ m1)


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
    def blade(cls, *indices):
        return cls({mask_of(indices): ONE})

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
        if k is None:
            return len(self.grades()) <= 1
        return self.terms.keys() <= GRADE_MASKS.get(k, _NO_MASKS)

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
        e_ik -| ( ... (e_i1 -| other)), which is nonzero on a blade e_m2
        only when m1 lies in m2 and then takes the sign of one step
        (``_contract_sign``).  Grade-2 contraction carries an extra 1/2,
        normalized so the Kaehler 2-forms of the canonical quaternionic
        4-form are 5-eigenvectors of . -| Omega.  The products add into
        one dict.
        """
        if self.terms and other.terms and (
            max(map(grade, self.terms)) > min(map(grade, other.terms))
        ):
            raise GradeError("contraction grade exceeds target grade")
        out = {}
        for m1, c1 in self.terms.items():
            if grade(m1) == 2:
                c1 = c1 * half()
            for m2, c2 in other.terms.items():
                if m1 & ~m2:
                    continue
                m = m2 ^ m1
                c = c1 * c2
                if _contract_sign(m1, m2) < 0:
                    c = -c
                s = out.get(m)
                out[m] = c if s is None else s + c
        return Multivector(out)

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
        derivation and bilinearly in the 2-form.  Every term of the 2-form
        adds its image into one dict (``_act_ij``).
        """
        if not self.is_homogeneous(2):
            raise GradeError("act2 requires a homogeneous 2-form")
        out = {}
        for m, c in self.terms.items():
            _act_ij(m, c, target.terms, out)
        return Multivector(out)

    # -- formatting --------------------------------------------------------

    def __repr__(self):
        return f"Multivector({format_form(self)!r})"

    def __str__(self):
        return format_form(self)


def _act_ij(m, coeff, terms, out):
    """Add coeff * (e_i ^ e_j) * (the multivector with these terms) into
    out, for the blade m = {i < j}: as a derivation, e_i -> e_j and
    e_j -> -e_i in place, each blade then reordered past the indices it
    holds strictly between i and j."""
    bi = m & -m
    bj = m ^ bi
    between = bj - (bi << 1)
    for t, c in terms.items():
        if t & bi:
            if t & bj:
                continue
            negative = (t & between).bit_count() & 1
        elif t & bj:
            negative = not ((t & between).bit_count() & 1)
        else:
            continue
        val = coeff * c
        if negative:
            val = -val
        dst = t ^ m
        s = out.get(dst)
        out[dst] = val if s is None else s + val


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
    e_{i1..ik} |-> sum_t (-1)^t e_{i1..i(t-1)} ^ images(e_it) ^ e_{i(t+1)..ik}.

    Each term of an image is wedged between the masks lead = {i1..i(t-1)}
    and tail = {i(t+1)..ik} directly, with the sign of lead ^ term times
    that of (lead | term) ^ tail, and adds into one dict."""
    out = {}
    for m, coef in alpha.terms.items():
        lead, tail, odd = 0, m, False
        while tail:
            bit = tail & -tail
            tail ^= bit
            c = -coef if odd else coef
            for mi, ci in images[bit.bit_length() - 1].terms.items():
                if mi & (lead | tail):
                    continue
                v = c * ci
                if _wedge_sign(lead, mi) * _wedge_sign(lead | mi, tail) < 0:
                    v = -v
                dst = lead | mi | tail
                s = out.get(dst)
                out[dst] = v if s is None else s + v
            lead |= bit
            odd = not odd
    return Multivector(out)


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
# The tokens, term and scalar rules are those of scalars.py:
#
# form  ::= ('+'|'-')? fterm (('+'|'-') fterm)*
# fterm ::= (coeff '*'?)? blade | coeff
# coeff ::= '(' scalar ')' | term


def parse_form(text):
    reader = _Reader(text)
    if not reader.kind:
        raise ParseError("empty form", 0)
    result = Multivector.zero()
    sign = reader.sign() or 1
    while sign:
        if reader.take("("):
            coeff = reader.scalar()
            if not reader.take(")"):
                raise ParseError("expected ')'", reader.at)
        elif reader.kind == "blade":
            coeff = ONE
        else:
            coeff = reader.term()
        if reader.take("*") and reader.kind != "blade":
            raise ParseError("expected blade like e123", reader.at)
        mask = 0
        if reader.kind == "blade":
            digits = [int(d) for d in reader.value]
            if any(b <= a for a, b in zip(digits, digits[1:])):
                raise ParseError("blade indices must be strictly increasing", reader.at)
            mask = mask_of(digits)
            reader.next()
        result = result + Multivector({mask: coeff if sign > 0 else -coeff})
        sign = reader.sign()
    if reader.kind:
        raise ParseError("expected '+' or '-'", reader.at)
    return result


def format_form(mv):
    terms = []
    for m in sorted(mv.terms, key=lambda m: (grade(m), indices_of(m))):
        coeff = _signed_terms(mv.terms[m])
        if len(coeff) > 1:
            coeff = [(False, f"({_join(coeff)})")]
        [(negative, text)] = coeff
        if m:
            blade = "e" + "".join(str(i) for i in indices_of(m))
            text = blade if text == "1" else f"{text} {blade}"
        terms.append((negative, text))
    return _join(terms)
