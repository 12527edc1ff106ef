"""Dense exact linear algebra over Q(r3) and Q(r3)[i].

Matrices are lists of rows of Scalar/CScalar.  ``rref`` is Gauss-Jordan
elimination with exact field arithmetic ("first nonzero" pivoting; exact
zero tests make breakdown impossible).

``rank``, ``nullspace``, ``column_space_basis`` and ``solve`` (and with
them ``in_span`` and ``same_span``) take a faster route to the same exact
answer.  Each entry a + b r3 + (c + d r3) i is mapped to the integers mod
the prime P = 1 (mod 12) under every embedding r3 -> +-S3, i -> +-J the
entries need, and Gauss-Jordan runs on plain ints once per embedding.
From the reduced matrices the exact entries R[row][f] of every free
column f are rebuilt by rational reconstruction and then certified:

- each free column must equal the same combination of the pivot columns
  exactly, A[:, f] == sum_row R[row][f] A[:, pivot(row)], checked on the
  nonzero entries of each row in integer arithmetic;
- the rank mod P is a lower bound on the rank, and the certified free
  columns are n - rank_P independent kernel vectors, an upper bound; so
  the rank is exact, each free column depends on earlier pivots only, the
  pivots are the exact pivots, and the rebuilt entries are the exact RREF
  entries.  A rank mod P equal to min(m, n) proves the rank on its own.

When any step fails (a denominator divisible by P, a reconstruction out of
bound, embeddings that disagree, or a nonzero residual) the exact ``rref``
answers instead, so no uncertified result is ever returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import mul

from .scalars import CScalar, Scalar

ZERO = Scalar(0)
ONE = Scalar(1)

# P = 2**62 - 87 is prime with P = 1 (mod 12), so F_P holds the 12th roots
# of unity.  OMEGA is a primitive one; S3 = OMEGA + OMEGA**11 squares to 3
# and J = OMEGA**3 squares to -1.
P = 4611686018427387817
OMEGA = 3957490443050210331
S3 = 3424158488519234639
J = 4490822397581186023
_BOUND = isqrt(P // 2)  # numerator and denominator bound of reconstruction

# product of the basis elements (1, r3, i, r3 i): (index, factor)
_TIMES = [
    [(0, 1), (1, 1), (2, 1), (3, 1)],
    [(1, 1), (0, 3), (3, 1), (2, 3)],
    [(2, 1), (3, 1), (0, -1), (1, -1)],
    [(3, 1), (2, 3), (1, -1), (0, -3)],
]


def zeros(rows, cols):
    return [[ZERO] * cols for _ in range(rows)]


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def _dot(row, nz):
    """Sum of row[r] * y over the nonzero entries (r, y) of a column, in
    order; only the row factor still needs a zero test."""
    s = ZERO
    for r, y in nz:
        x = row[r]
        if x:
            s = s + x * y
    return s


def mat_mul(A, B):
    m = len(B[0]) if B else 0
    cols = [[(r, Br[c]) for r, Br in enumerate(B) if Br[c]] for c in range(m)]
    return [[_dot(row, nz) for nz in cols] for row in A]


def mat_vec(A, v):
    nz = [(r, y) for r, y in enumerate(v) if y]
    return [_dot(row, nz) for row in A]


def mat_add(A, B):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, s):
    return [[s * x for x in row] for row in A]


def transpose(A):
    if not A:
        return []
    return [[A[r][c] for r in range(len(A))] for c in range(len(A[0]))]


def mat_eq(A, B):
    if len(A) != len(B) or (A and len(A[0]) != len(B[0])):
        return False
    return all(x == y for ra, rb in zip(A, B) for x, y in zip(ra, rb))


def is_zero_matrix(A):
    return all(not x for row in A for x in row)


def rref(A):
    """Reduced row echelon form. Returns (R, pivot_columns)."""
    R = [row[:] for row in A]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = R[r][c].inverse()
        R[r] = [x * inv for x in R[r]]
        for i in range(rows):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


# -- certified elimination mod P ---------------------------------------------


class _Uncertified(Exception):
    """The answer mod P could not be certified; the exact rref decides."""


def _residue(q):
    den = int(q.denominator)
    if den == 1:
        return int(q.numerator) % P
    if den % P == 0:
        raise _Uncertified("denominator divisible by P")
    return int(q.numerator) * pow(den, -1, P) % P


def _reconstruct(u):
    """The rational n/d with |n|, d <= _BOUND and n = u d (mod P)."""
    if u <= _BOUND:
        return u
    if P - u <= _BOUND:
        return u - P
    r0, r1, t0, t1 = P, u, 0, 1
    while r1 > _BOUND:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > _BOUND:
        raise _Uncertified("reconstruction out of bound")
    return Fraction(r1, t1)


def _rref_mod(M):
    """Gauss-Jordan mod P on rows of ints, in place; returns the pivots."""
    rows = len(M)
    pivots = []
    r = 0
    for c in range(len(M[0])):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = pow(M[r][c], -1, P)
        # the pivot row is zero left of c
        tail = [x * inv % P for x in M[r][c:]]
        M[r][c:] = tail
        for i in range(rows):
            f = M[i][c]
            if f and i != r:
                M[i][c:] = [(x - f * y) % P for x, y in zip(M[i][c:], tail)]
        pivots.append(c)
        r += 1
    return pivots


class _Field:
    """The entries of a matrix split into exact components over the basis
    (1, r3, i, r3 i), with their images under each embedding into F_P."""

    def __init__(self, A):
        self.parts = {}  # entry -> (a, b, c, d)
        self.is_complex = False
        images = {}
        for row in A:
            for x in row:
                if x and x not in self.parts:
                    if type(x) is Scalar:
                        self.parts[x] = (x.a, x.b, 0, 0)
                    elif type(x) is CScalar:
                        self.parts[x] = (x.re.a, x.re.b, x.im.a, x.im.b)
                        self.is_complex = True
                    else:
                        raise _Uncertified(f"entry of type {type(x).__name__}")
                    images[x] = [_residue(q) for q in self.parts[x]]
        r3 = any(p[1] or p[3] for p in self.parts.values())
        im = any(p[2] or p[3] for p in self.parts.values())
        self.comps = [k for k, on in enumerate((True, r3, im, r3 and im)) if on]
        # embeddings r3 -> es*S3, i -> ej*J, as sign pairs (es, ej)
        self.signs = [(es, ej) for ej in (1, -1)[: 1 + im] for es in (1, -1)[: 1 + r3]]
        self.images = {}
        for x, (a, b, c, d) in images.items():
            self.images[x] = [
                (a + es * S3 * b + ej * J * (c + es * S3 * d)) % P
                for es, ej in self.signs
            ]
        # component k is sum_e sign_k(e) image(e) / (number of embeddings *
        # root_k), with sign_k(e) = 1, es, ej, es*ej and root_k = 1, S3, J, S3*J
        n = len(self.signs)
        roots = (1, S3, J, S3 * J)
        self.unmix = {k: pow(n * roots[k] % P, -1, P) for k in self.comps}

    def reduced(self, A, k):
        """A under embedding k, as rows of ints mod P."""
        images = self.images
        return [[images[x][k] if x else 0 for x in row] for row in A]

    def components(self, values):
        """Exact components (a, b, c, d) of the element whose images under
        the embeddings are the given residues."""
        out = [0, 0, 0, 0]
        for k, inv in self.unmix.items():
            s = sum((1, es, ej, es * ej)[k] * u for (es, ej), u in zip(self.signs, values))
            out[k] = _reconstruct(s * inv % P)
        return out

    def element(self, parts):
        a, b, c, d = parts
        if self.is_complex:
            return CScalar(Scalar(a, b), Scalar(c, d))
        return Scalar(a, b)


def _certify(field, A, pivots, columns):
    """Check A[:, f] == sum_c x_c A[:, c] exactly for every free column f
    with its rebuilt entries {pivot column c: parts of x_c}.  Each row is
    scaled to integer components and only its nonzero entries are read."""
    piv_set = set(pivots)
    rows = []
    for row in A:
        parts = {c: field.parts[x] for c, x in enumerate(row) if x}
        scale = lcm(*(int(q.denominator) for p in parts.values() for q in p))
        ints = {c: [int(q * scale) for q in p] for c, p in parts.items()}
        terms = []  # per component: pivot columns and values
        for k in field.comps:
            pairs = [(c, v[k]) for c, v in ints.items() if v[k] and c in piv_set]
            if pairs:
                terms.append((k, [c for c, _ in pairs], [v for _, v in pairs]))
        rows.append((ints, terms))
    n = len(A[0])
    for f, entries in columns.items():
        scale = lcm(*(int(q.denominator) for p in entries.values() for q in p))
        w = {}
        for k in field.comps:
            if any(p[k] for p in entries.values()):
                w[k] = [0] * n
                for c, p in entries.items():
                    w[k][c] = int(p[k] * scale)
        for ints, terms in rows:
            target = ints.get(f)
            acc = [-scale * t for t in target] if target else [0, 0, 0, 0]
            for ka, cols, vals in terms:
                for kb, wk in w.items():
                    dot = sum(map(mul, vals, map(wk.__getitem__, cols)))
                    if dot:
                        kc, factor = _TIMES[ka][kb]
                        acc[kc] += factor * dot
            if any(acc):
                raise _Uncertified("residual is not zero")


def _modular_reduced(A, rank_only=False):
    """Certified (pivots, columns) of the RREF of A, where columns maps each
    free column f to {pivot column: R[row][f]}.  With rank_only, a rank
    mod P of min(m, n) returns (pivots, None) at once: it proves the rank
    but not the pivots."""
    m, n = len(A), len(A[0])
    field = _Field(A)
    reduced = [field.reduced(A, 0)]
    pivots = _rref_mod(reduced[0])
    if rank_only and len(pivots) == min(m, n):
        return pivots, None
    for k in range(1, len(field.signs)):
        reduced.append(field.reduced(A, k))
        if _rref_mod(reduced[k]) != pivots:
            raise _Uncertified("embeddings disagree on the pivots")
    piv_set = set(pivots)
    parts = {}
    for f in range(n):
        if f in piv_set:
            continue
        parts[f] = {}
        for r, c in enumerate(pivots):
            if c > f:
                break
            values = [R[r][f] for R in reduced]
            if any(values):
                parts[f][c] = field.components(values)
    _certify(field, A, pivots, parts)
    columns = {
        f: {c: field.element(p) for c, p in entries.items()}
        for f, entries in parts.items()
    }
    return pivots, columns


def _reduced(A):
    """Pivot columns of the RREF of A and, for each free column f, its
    nonzero entries R[row][f] keyed by the pivot column of the row."""
    if A and A[0]:
        try:
            return _modular_reduced(A)
        except _Uncertified:
            pass
    R, pivots = rref(A)
    piv_set = set(pivots)
    cols = len(A[0]) if A else 0
    columns = {
        f: {c: R[r][f] for r, c in enumerate(pivots) if R[r][f]}
        for f in range(cols)
        if f not in piv_set
    }
    return pivots, columns


def rank(A):
    if not A or not A[0]:
        return 0
    if len(A[0]) > len(A):
        A = transpose(A)  # fewer kernel vectors to certify
    try:
        return len(_modular_reduced(A, rank_only=True)[0])
    except _Uncertified:
        return len(rref(A)[1])


def nullspace(A, ncols=None):
    """Basis of the right kernel, as a list of column vectors."""
    if not A:
        return [[ONE if i == j else ZERO for i in range(ncols)] for j in range(ncols or 0)]
    _, columns = _reduced(A)
    cols = len(A[0])
    basis = []
    for f, entries in columns.items():
        v = [ZERO] * cols
        v[f] = ONE
        for c, x in entries.items():
            v[c] = -x
        basis.append(v)
    return basis


def solve(A, b):
    """One exact solution of A x = b, or None if inconsistent."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    aug = [A[r][:] + [b[r]] for r in range(rows)]
    pivots, columns = _reduced(aug)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for c, val in columns.get(cols, {}).items():  # absent when A has no rows
        x[c] = val
    return x


def det(A):
    n = len(A)
    M = [row[:] for row in A]
    sign = 1
    acc = ONE
    for c in range(n):
        pr = next((i for i in range(c, n) if M[i][c]), None)
        if pr is None:
            return ZERO
        if pr != c:
            M[c], M[pr] = M[pr], M[c]
            sign = -sign
        piv = M[c][c]
        acc = acc * piv
        inv = piv.inverse()
        for i in range(c + 1, n):
            if M[i][c]:
                f = M[i][c] * inv
                M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    return acc if sign == 1 else -acc


def column_space_basis(vectors):
    """Subset basis of the span of the given (column) vectors."""
    if not vectors:
        return []
    pivots, _ = _reduced(transpose(vectors))  # vectors as columns
    return [vectors[c] for c in pivots]


def in_span(basis, v):
    """Is v in the span of the basis vectors?"""
    if not basis:
        return all(not x for x in v)
    A = transpose(basis)
    return solve(A, v) is not None


def same_span(basis1, basis2):
    if len(column_space_basis(basis1)) != len(column_space_basis(basis2)):
        return False
    return all(in_span(basis2, v) for v in basis1) and all(
        in_span(basis1, v) for v in basis2
    )


class RatioError(ArithmeticError):
    """No single exact ratio relates the two sides."""


def common_ratio(pairs):
    """The single scalar z with num == z * den for every (num, den) pair.

    Real and complex entries may be mixed.  Raises RatioError naming the
    failure: a zero den against a nonzero num, two pairs whose ratios
    disagree, or every pair zero on both sides.
    """
    z = None
    for num, den in pairs:
        if not den:
            if num:
                raise RatioError("zero against nonzero")
            continue
        r = num / den
        if z is None:
            z = r
        elif z != r:
            raise RatioError("entries disagree")
    if z is None:
        raise RatioError("both sides vanish")
    return z
