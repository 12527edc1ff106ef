"""Seeded inputs of the benchmark, built without the program.

Every 3-form is a dict mask -> element of Q(r3) (field tuples) and is
handed to the program as text in its form grammar, so the program sees
only the generated inputs.  ``digest`` hashes that text: the same seed
gives the same digest.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import combinations

from field import ZERO, add, is_zero, mul, real, sub, text

F = Fraction

# the canonical 3-form rho = (1/2) e123 + (1/4)(e147 - e156 + e246 + e257
# + e345 - e367) + (r3/4)(e458 + e678)
RHO = {
    (1, 2, 3): real(F(1, 2)),
    (1, 4, 7): real(F(1, 4)),
    (1, 5, 6): real(F(-1, 4)),
    (2, 4, 6): real(F(1, 4)),
    (2, 5, 7): real(F(1, 4)),
    (3, 4, 5): real(F(1, 4)),
    (3, 6, 7): real(F(-1, 4)),
    (4, 5, 8): real(0, F(1, 4)),
    (6, 7, 8): real(0, F(1, 4)),
}
E123 = {(1, 2, 3): real(1)}
MIXED = {(1, 2, 3): real(0, F(1, 2)), (4, 5, 6): real(F(1, 2))}

MODELS = {"rho": RHO, "e123": E123, "mixed": MIXED}

# the Pythagorean angles of the conjugating rotations, as in the program's
# claims._pythagorean_rotation
_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29))

# the coefficient patterns of the program's claims._random_unit_3form:
# orthonormal blades with these coefficients have exact unit norm
PATTERNS = {
    "blade": (real(1),),
    "pair_3_4": (real(F(3, 5)), real(F(4, 5))),
    "pair_r3": (real(0, F(1, 2)), real(F(1, 2))),
    "quad": (real(F(1, 2)),) * 4,
    "triple": (real(F(2, 3)), real(F(2, 3)), real(F(1, 3))),
}

# one round of the orbit stream, as (cell, count).  Every round has this
# make-up.  The program draws one of the five unit patterns uniformly; here
# each pattern has the same fixed count.  The two-blade patterns are
# stratified by how many indices the blades share: of the 55 blades other
# than a given one, 10 share none, 15 share two and 30 share one, so 11
# pairs split 2 : 3 : 6 exactly as the program's uniform draw does on
# average.  The three model forms appear once each, as the program's
# conjugation sweep cycles through them.
UNIT_PER_PATTERN = 11
PAIR_SHARED = ((0, 2), (2, 3), (1, 6))  # (indices shared, pairs per pattern)
ROUND = (
    ("rho", 1),            # rotated models: dense, the slowest forms
    ("e123", 1),
    ("mixed", 1),
    *((cell, UNIT_PER_PATTERN) for cell in PATTERNS),  # sparse unit forms
    ("nonunit", 1),        # a sparse integer form, as _random_sparse_3form
)
_PAIR_STRATA = tuple(k for k, count in PAIR_SHARED for _ in range(count))
assert len(_PAIR_STRATA) == UNIT_PER_PATTERN

_BLADES = tuple(combinations(range(1, 9), 3))


def rotation(rng):
    """An exact rotation in SO(8), drawn as the program's
    claims._pythagorean_rotation draws it: the product of four rational
    Givens rotations, each with a random Pythagorean angle and sign in a
    random plane (i, j)."""
    M = [[real(int(i == j)) for j in range(8)] for i in range(8)]
    for _ in range(4):
        a, b, c = rng.choice(_TRIPLES)
        ct, st = real(F(a, c)), real(F(b, c))
        if rng.random() < 0.5:
            st = sub(ZERO, st)
        i, j = rng.sample(range(8), 2)
        for row in M:  # M <- M G with G[i][j] = -st, G[j][i] = st
            x, y = row[i], row[j]
            row[i] = add(mul(x, ct), mul(y, st))
            row[j] = sub(mul(y, ct), mul(x, st))
    return M


def _det3(A):
    a, b, c = A
    return add(
        sub(mul(a[0], sub(mul(b[1], c[2]), mul(b[2], c[1]))),
            mul(a[1], sub(mul(b[0], c[2]), mul(b[2], c[0])))),
        mul(a[2], sub(mul(b[0], c[1]), mul(b[1], c[0]))),
    )


def rotate(form, M):
    """The 3-form with e_a -> sum_i M[i][a] e_i applied to every factor."""
    out = {}
    for (a, b, c), x in form.items():
        for i, j, k in _BLADES:
            minor = _det3([[M[r - 1][a - 1], M[r - 1][b - 1], M[r - 1][c - 1]]
                           for r in (i, j, k)])
            if not is_zero(minor):
                out[(i, j, k)] = add(out.get((i, j, k), ZERO), mul(x, minor))
    return {k: v for k, v in out.items() if not is_zero(v)}


def unit_form(rng, coeffs, shared=None):
    """Distinct random blades with these coefficients and random signs, as
    claims._random_unit_3form draws them once it has chosen a pattern; a
    pair is drawn among the pairs whose blades share ``shared`` indices."""
    blades = rng.sample(_BLADES, len(coeffs))
    if shared is not None:
        blades[1] = rng.choice([b for b in _BLADES
                                if len(set(b) & set(blades[0])) == shared])
    return {b: (c if rng.random() < 0.5 else sub(ZERO, c))
            for b, c in zip(blades, coeffs)}


def sparse_form(rng):
    """Four random blades with integer coefficients in -3..3, summed, as
    claims._random_sparse_3form draws them, drawn again in the rare case
    that the sum has norm 1."""
    while True:
        out = {}
        for _ in range(4):
            b = rng.choice(_BLADES)
            out[b] = add(out.get(b, ZERO), real(rng.randint(-3, 3)))
        out = {k: v for k, v in out.items() if not is_zero(v)}
        if sum(v[0] * v[0] for v in out.values()) != 1:
            return out


def form_text(form):
    parts = [f"({text(v)}) e{''.join(map(str, k))}" for k, v in sorted(form.items())]
    return " + ".join(parts) if parts else "0"


def _item(rng, cell, n):
    """(cell, model, form, rotation) for the n-th form of a cell in a round:
    a model form is handed to the program with its rotation, which the
    program applies; ``form`` is the rotated form as the benchmark
    computes it."""
    if cell in MODELS:
        M = rotation(rng)
        return cell, cell, rotate(MODELS[cell], M), M
    if cell == "nonunit":
        return cell, None, sparse_form(rng), None
    shared = _PAIR_STRATA[n] if cell.startswith("pair") else None
    return cell, None, unit_form(rng, PATTERNS[cell], shared), None


def orbit_round(rng):
    """One round of the orbit stream: a shuffled list of items."""
    items = [_item(rng, cell, n) for cell, count in ROUND for n in range(count)]
    rng.shuffle(items)
    return items


def payload(item):
    """What the program receives for an item: the form's text, or the model
    form's text with the rotation's entries and the expected rotated form."""
    _, model, form, M = item
    if model is None:
        return form_text(form)
    return {"model": form_text(MODELS[model]),
            "rotation": [[text(x) for x in row] for row in M],
            "expect": form_text(form)}


def orbit_stream(seed, rounds):
    rng = random.Random(f"orbit-stream/{seed}")
    return [orbit_round(rng) for _ in range(rounds)]


def digest(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
