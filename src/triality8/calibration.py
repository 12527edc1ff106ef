"""Calibrations: the invariant forms scaled to be 1 on their model planes,
their exact value on an orthonormal plane, and the float sampler of their
maxima over random planes.  Only the calibration claims run this module.
"""

from __future__ import annotations

import random as _random
from itertools import combinations
from math import cos, log, pi, sin, sqrt
from operator import mul

from .exterior import indices_of
from .scalars import ONE, ZERO
from .structures import invariant_form


def calibration_form(kind):
    """(the invariant form scaled to be 1 on its model plane, its degree)."""
    gamma, k = invariant_form(kind)
    return gamma * (2 if k == 3 else ONE / 6), k


def calibration(kind, plane):
    """Evaluate the calibration form on an ordered orthonormal k-tuple of
    exact vectors (grade-1 multivectors)."""
    tau, k = calibration_form(kind)
    if len(plane) != k:
        raise ValueError(f"expected {k} vectors")
    for a in range(k):
        for b in range(a, k):
            v = plane[a].inner(plane[b])
            want = ONE if a == b else ZERO
            if v != want:
                raise ValueError("plane is not orthonormal")
    wedge = plane[0]
    for x in plane[1:]:
        wedge = wedge ^ x
    return tau.inner(wedge)


def calibration_sample(kind, count, seed=20260826):
    """Max of the calibration form over random float planes."""
    return calibration_maxima({kind: count}, seed)[kind]


# the 2- and 3-subsets of the 8 columns, in the order of the minor lists,
# and the positions of the 2x2 cofactors (jk, ik, ij) of each (i, j, k)
_PAIRS = tuple(combinations(range(8), 2))
_TRIPLES = tuple(combinations(range(8), 3))
_AT = {s: n for subsets in (_PAIRS, _TRIPLES) for n, s in enumerate(subsets)}


def _cofactors(ix):
    """Positions of the minors on ix minus one column, for each column."""
    return tuple(_AT[ix[:a] + ix[a + 1:]] for a in range(len(ix)))


_TRIPLE_COFACTORS = tuple((t, _cofactors(t)) for t in _TRIPLES)


# stream vectors drawn at a time: the lcm of the sample sizes 3 and 4, so
# that every block holds whole samples of both kinds
_BLOCK = 12
_TWOPI = 2.0 * pi


def _gauss_block(rng, count):
    """The next `count` 8-vectors of rng.gauss(0.0, 1.0) draws from a
    generator that has not called gauss yet.  Each pair of draws is one
    Box-Muller step of random.Random.gauss, inlined: two random() calls
    give z = cos(x) r and then sin(x) r, and 0.0 + z is bitwise
    gauss(0.0, 1.0) = 0.0 + z * 1.0."""
    random = rng.random
    flat = []
    for _ in range(4 * count):
        x2pi = random() * _TWOPI
        g2rad = sqrt(-2.0 * log(1.0 - random()))
        flat += (0.0 + cos(x2pi) * g2rad, 0.0 + sin(x2pi) * g2rad)
    return [flat[i:i + 8] for i in range(0, 8 * count, 8)]


def _orthonormal(vectors):
    """Gram-Schmidt in order, with the float operations of the oracle:
    v - (v . w) w for each earlier w, then v / |v|.  Written out over the
    8 entries, which takes about two thirds of the time of a list
    comprehension per step."""
    vecs = []
    for v in vectors:
        for w in vecs:
            d = sum(map(mul, v, w))
            a0, a1, a2, a3, a4, a5, a6, a7 = v
            b0, b1, b2, b3, b4, b5, b6, b7 = w
            v = (a0 - d * b0, a1 - d * b1, a2 - d * b2, a3 - d * b3,
                 a4 - d * b4, a5 - d * b5, a6 - d * b6, a7 - d * b7)
        n = sum(map(mul, v, v)) ** 0.5
        a0, a1, a2, a3, a4, a5, a6, a7 = v
        vecs.append((a0 / n, a1 / n, a2 / n, a3 / n, a4 / n, a5 / n, a6 / n, a7 / n))
    return vecs


def _block_max3(block, stop, terms, top):
    """max(top, |form|) over the 3-vector samples block[0:3], ... up to
    block[stop - 3:stop]."""
    for s in range(0, stop, 3):
        u, v, w = _orthonormal(block[s:s + 3])
        m = [v[a] * w[b] - v[b] * w[a] for a, b in _PAIRS]
        val = 0.0
        for c, (i, j, l), (a, b, d) in terms:
            val += c * (u[i] * m[a] - u[j] * m[b] + u[l] * m[d])
        val = abs(val)
        if val > top:
            top = val
    return top


def _block_max4(block, stop, terms, top):
    """The same for the 4-vector samples block[0:4], ..."""
    for s in range(0, stop, 4):
        u, v, w, x = _orthonormal(block[s:s + 4])
        m = [w[a] * x[b] - w[b] * x[a] for a, b in _PAIRS]
        m = [v[i] * m[a] - v[j] * m[b] + v[l] * m[d]
             for (i, j, l), (a, b, d) in _TRIPLE_COFACTORS]
        val = 0.0
        for c, (i, j, l, r), (a, b, d, f) in terms:
            val += c * (0.0 + u[i] * m[a] - u[j] * m[b] + u[l] * m[d] - u[r] * m[f])
        val = abs(val)
        if val > top:
            top = val
    return top


def calibration_maxima(counts, seed=20260826):
    """{kind: calibration_sample(kind, n, seed)} for each kind -> n of
    `counts`, from one Gaussian stream of 8-vectors.

    Sample s of a kind with k vectors reads stream vectors k*s ... k*s+k-1,
    orthonormalized in order, exactly as a lone call draws them, so each
    maximum is bitwise that of calibration_sample.  The stream is drawn
    _BLOCK vectors at a time, and only one block is held; each kind then
    values the samples of the block in its own loop.  A term c e_I of the
    form is valued by the cofactor expansion of the minor on the columns I
    along its first row, with the float operations, in the order, of the
    recursive expansion (the oracle in tests/test_structures.py).  The 28
    2x2 minors of the last two vectors, and for k = 4 the 56 3x3 minors of
    the last three, are built once per sample: each 3-subset is a cofactor
    of exactly one of the 14 terms of Omega/6.

    The maxima differ between Python <= 3.11 and >= 3.12 in the last bit
    (PSU3 at the default seed and 10,000 samples: 0.876067976293781 against
    0.8760679762937809), because float sum is compensated from 3.12 on.
    The oracle sums the same way, so the two agree on every version.
    """
    plan = []
    for kind, count in counts.items():
        tau, k = calibration_form(kind)
        terms = []
        for m, c in tau.terms.items():
            ix = tuple(i - 1 for i in indices_of(m))
            terms.append((c.to_float(), ix, _cofactors(ix)))
        plan.append((kind, _block_max3 if k == 3 else _block_max4, k * count, terms))
    rng = _random.Random(seed)
    best = {kind: float("-inf") for kind in counts}
    total = max((p[2] for p in plan), default=0)
    for start in range(0, total, _BLOCK):
        block = _gauss_block(rng, min(_BLOCK, total - start))
        for kind, block_max, end, terms in plan:
            if end > start:
                best[kind] = block_max(block, min(_BLOCK, end - start), terms, best[kind])
    return best
