"""Dense exact linear algebra over Q(r3) and Q(r3)[i].

Matrices are lists of rows of Scalar/CScalar.  ``det`` is exact Gaussian
elimination.  ``rank``, ``nullspace``, ``column_space_basis`` and
``solve`` (and with them ``in_span`` and ``same_span``) rest on one
certified elimination over the integers mod 62-bit primes p = 1 (mod 12).

Each entry a + b r3 + (c + d r3) i is mapped to the integers mod p under
every embedding r3 -> +-S3, i -> +-J the entries need, and Gauss-Jordan
runs on plain ints once per embedding.  From the reduced matrices the
exact entries R[row][f] of every free column f are rebuilt by rational
reconstruction and then certified:

- each free column must equal the same combination of the pivot columns
  exactly, A[:, f] == sum_row R[row][f] A[:, pivot(row)], checked on the
  nonzero entries of each row in integer arithmetic;
- the rank mod p is a lower bound on the rank, and the certified free
  columns are n - rank_p independent kernel vectors, an upper bound; so
  the rank is exact, each free column depends on earlier pivots only, the
  pivots are the exact pivots, and the rebuilt entries are the exact RREF
  entries.  A rank mod p equal to min(m, n) proves the rank on its own.

When a prime cannot certify (a denominator divisible by p, a rank that
drops mod p, an entry past the reconstruction bound sqrt(p/2), or a
nonzero residual) the next prime of PRIMES is eliminated too.  The primes
that reach the best pivot list seen (the most pivots, then the
lexicographically first list) are joined by the Chinese remainder theorem,
and the entries are reconstructed mod their product M, with bound
sqrt(M/2), and certified again.  When every prime fails, ArithmeticError
names the matrix: no uncertified result is ever returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm, prod
from operator import mul

from .scalars import CScalar, Scalar

ZERO = Scalar(0)
ONE = Scalar(1)

# 62-bit primes p = 1 (mod 12), so F_p holds the 12th roots of unity, each
# with a primitive one w: S3 = w + w**11 squares to 3 and J = w**3 to -1.
PRIMES = (
    (4611686018427387817, 3957490443050210331),  # 2**62 - 87
    (4611686018427387733, 4323614181204999790),
    (4611686018427387709, 3144011615910092798),
    (4611686018427387421, 4448369033762642070),
    (4611686018427387409, 1449410653791893137),
    (4611686018427387301, 2429538188217563659),
    (4611686018427387241, 2347780624564482379),
    (4611686018427387073, 1030385827295191708),
)

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


# -- certified elimination mod primes ----------------------------------------


class _Uncertified(Exception):
    """The primes tried so far could not certify the answer."""


def _residue(q, p):
    den = int(q.denominator)
    if den == 1:
        return int(q.numerator) % p
    if den % p == 0:
        raise _Uncertified("denominator divisible by p")
    return int(q.numerator) * pow(den, -1, p) % p


def _reconstruct(u, M, bound):
    """The rational n/d with |n|, d <= bound and n = u d (mod M)."""
    if u <= bound:
        return u
    if M - u <= bound:
        return u - M
    r0, r1, t0, t1 = M, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound:
        raise _Uncertified("reconstruction out of bound")
    return Fraction(r1, t1)


def _rref_mod(R, p):
    """Gauss-Jordan mod p on rows of ints, in place; returns the pivots."""
    rows = len(R)
    pivots = []
    r = 0
    for c in range(len(R[0])):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = pow(R[r][c], -1, p)
        # the pivot row is zero left of c
        tail = [x * inv % p for x in R[r][c:]]
        R[r][c:] = tail
        for i in range(rows):
            f = R[i][c]
            if f and i != r:
                R[i][c:] = [(x - f * y) % p for x, y in zip(R[i][c:], tail)]
        pivots.append(c)
        r += 1
    return pivots


class _Field:
    """The entries of a matrix split into exact components over the basis
    (1, r3, i, r3 i), and the embeddings into F_p that they need."""

    def __init__(self, A):
        self.parts = {}  # entry -> (a, b, c, d)
        self.is_complex = False
        for row in A:
            for x in row:
                if x and x not in self.parts:
                    if type(x) is Scalar:
                        self.parts[x] = (x.a, x.b, 0, 0)
                    elif type(x) is CScalar:
                        self.parts[x] = (x.re.a, x.re.b, x.im.a, x.im.b)
                        self.is_complex = True
                    else:
                        raise TypeError(f"entry of type {type(x).__name__}")
        r3 = any(p[1] or p[3] for p in self.parts.values())
        im = any(p[2] or p[3] for p in self.parts.values())
        self.comps = [k for k, on in enumerate((True, r3, im, r3 and im)) if on]
        # embeddings r3 -> es*S3, i -> ej*J, as sign pairs (es, ej)
        self.signs = [(es, ej) for ej in (1, -1)[: 1 + im] for es in (1, -1)[: 1 + r3]]

    def images(self, p, w):
        """Each entry's residues mod p under the embeddings, and for each
        component k its signs and factor: component k is sum_e sign_k(e)
        image(e) / (number of embeddings * root_k), with sign_k(e) = 1, es,
        ej, es*ej and root_k = 1, S3, J, S3*J."""
        s3, j = (w + pow(w, 11, p)) % p, pow(w, 3, p)
        images = {}
        for x, parts in self.parts.items():
            a, b, c, d = [_residue(q, p) for q in parts]
            images[x] = [(a + es * s3 * b + ej * j * (c + es * s3 * d)) % p
                         for es, ej in self.signs]
        n = len(self.signs)
        roots = (1, s3, j, s3 * j)
        return images, [([(1, es, ej, es * ej)[k] for es, ej in self.signs],
                         pow(n * roots[k] % p, -1, p)) for k in self.comps]

    def element(self, parts):
        a, b, c, d = parts
        if self.is_complex:
            return CScalar(Scalar(a, b), Scalar(c, d))
        return Scalar(a, b)


def _eliminate(field, A, p, w, full_rank):
    """Gauss-Jordan of A mod p under every embedding: the pivots, alike
    under each, and {free column f: {pivot column: residues mod p of the
    components field.comps of R[row][f]}}, or None once the rank is full_rank."""
    images, unmix = field.images(p, w)

    def image(k):
        return [[images[x][k] if x else 0 for x in row] for row in A]

    reduced = [image(0)]
    pivots = _rref_mod(reduced[0], p)
    if len(pivots) == full_rank:
        return pivots, None
    for k in range(1, len(field.signs)):
        reduced.append(image(k))
        if _rref_mod(reduced[k], p) != pivots:
            raise _Uncertified("embeddings disagree on the pivots")
    piv_set = set(pivots)
    residues = {}
    for f in range(len(A[0])):
        if f in piv_set:
            continue
        residues[f] = entries = {}
        for r, c in enumerate(pivots):
            if c > f:
                break
            values = [R[r][f] for R in reduced]
            if any(values):
                entries[c] = [sum(map(mul, sk, values)) * inv % p for sk, inv in unmix]
    return pivots, residues


def _rebuild(field, kept):
    """Exact components (a, b, c, d) of every free-column entry from its
    residues mod the kept primes, joined by the Chinese remainder theorem
    and reconstructed mod their product M with the bound sqrt(M/2)."""
    M = prod(p for p, _ in kept)
    bound = isqrt(M // 2)
    crt = [(M // p * pow(M // p, -1, p), res) for p, res in kept]
    parts = {}
    for f in kept[0][1]:
        parts[f] = entries = {}
        for c in {c for _, res in crt for c in res[f]}:
            out = [0, 0, 0, 0]
            for i, k in enumerate(field.comps):
                u = sum(e * res[f][c][i] for e, res in crt if c in res[f])
                out[k] = _reconstruct(u % M, M, bound)
            entries[c] = out
    return parts


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


def _reduced(A, rank_only=False):
    """Certified pivot columns of the RREF of A and, for each free column f,
    its nonzero entries R[row][f] keyed by the pivot column of the row.
    With rank_only, a rank mod p of min(m, n) returns (pivots, None) at
    once: it proves the rank but not the pivots."""
    if not A or not A[0]:
        return [], {}
    m, n = len(A), len(A[0])
    field = _Field(A)
    full_rank = min(m, n) if rank_only else None
    best, kept = None, []  # the best pivot list seen; (p, residues) reaching it
    for p, w in PRIMES:
        try:
            pivots, residues = _eliminate(field, A, p, w, full_rank)
        except _Uncertified:
            continue
        if residues is None:
            return pivots, None
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, kept = key, []
        elif key != best:
            continue
        kept.append((p, residues))
        try:
            parts = _rebuild(field, kept)
            _certify(field, A, pivots, parts)
        except _Uncertified:
            continue
        return pivots, {
            f: {c: field.element(x) for c, x in entries.items()}
            for f, entries in parts.items()
        }
    raise ArithmeticError(f"{len(PRIMES)} primes did not certify the {m}x{n} matrix")


def rank(A):
    if not A or not A[0]:
        return 0
    if len(A[0]) > len(A):
        A = transpose(A)  # fewer kernel vectors to certify
    return len(_reduced(A, rank_only=True)[0])


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


def solve(A, *bs):
    """One exact solution of A x = b for each b, or None if inconsistent,
    from one elimination of [A | b_1 ... b_k]; a list for several b.  A b
    whose column combines the pivot of an earlier b is inconsistent: that
    b is outside the column space of A."""
    cols = len(A[0]) if A else 0
    aug = [row[:] + [b[r] for b in bs] for r, row in enumerate(A)]
    pivots, columns = _reduced(aug)
    out = []
    for f in range(cols, cols + len(bs)):
        entries = columns.get(f, {})  # absent when A has no rows
        if f in pivots or any(c >= cols for c in entries):
            out.append(None)
            continue
        x = [ZERO] * cols
        for c, val in entries.items():
            x[c] = val
        out.append(x)
    return out[0] if len(bs) == 1 else out


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
