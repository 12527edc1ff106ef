"""Claims on the orbit classification of 3-forms: the three model forms,
invariance under exact rotations and the supersymmetry equivalences on
random exact unit forms."""

import random

from ..scalars import ONE, SQRT3, Scalar
from . import DEFAULT_SEED, _verdict, e, ex, la, orb, st


def _pythagorean_rotation(rng):
    """A random exact rotation: product of rational Givens rotations."""
    pairs = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29)]
    M = la.identity(8)
    for _ in range(4):
        a, b, c = rng.choice(pairs)
        cth, sth = Scalar(a) / c, Scalar(b) / c
        if rng.random() < 0.5:
            sth = -sth
        i, j = rng.sample(range(8), 2)
        G = la.identity(8)
        G[i][i], G[j][j] = cth, cth
        G[i][j], G[j][i] = -sth, sth
        M = la.mat_mul(M, G)
    return M


def _random_unit_3form(rng):
    """A sparse 3-form of exact unit norm (orthonormal-blade patterns)."""
    patterns = [
        (ONE,),
        (Scalar(3) / 5, Scalar(4) / 5),
        (SQRT3 / 2, ONE / 2),
        (ONE / 2, ONE / 2, ONE / 2, ONE / 2),
        (Scalar(2) / 3, Scalar(2) / 3, ONE / 3),
    ]
    coeffs = rng.choice(patterns)
    masks = rng.sample(ex.blades_of_grade(3), len(coeffs))
    terms = {}
    for m, c in zip(masks, coeffs):
        terms[m] = c if rng.random() < 0.5 else -c
    return ex.Multivector(terms)


def orbit_classify_rho():
    oc = orb.orbit_classify(st.canonical_rho())
    return f"{oc.kind}, {oc.orientation}"


def orbit_classify_e123():
    oc = orb.orbit_classify(e(1, 2, 3))
    return f"{oc.kind}, {oc.orientation}"


def orbit_classify_mixed():
    oc = orb.orbit_classify(e(1, 2, 3) * (SQRT3 / 2) + e(4, 5, 6) * (ONE / 2))
    return f"{oc.kind}, {oc.orientation}, ({oc.params[0]}, {oc.params[1]})"


def orbit_conjugation_invariance(seed=DEFAULT_SEED):
    rng = random.Random(seed)
    models = [
        st.canonical_rho(),
        e(1, 2, 3),
        e(1, 2, 3) * (SQRT3 / 2) + e(4, 5, 6) * (ONE / 2),
    ]
    refs = [orb.orbit_classify(f) for f in models]
    for n in range(100):
        M = _pythagorean_rotation(rng)
        f = models[n % 3]
        oc = orb.orbit_classify(ex.apply_linear(M, f))
        if oc != refs[n % 3]:
            return _verdict(False, f"trial {n}")
    return "ok"


def orbit_susy_equivalence(seed=DEFAULT_SEED):
    rng = random.Random(seed)
    Id8 = la.identity(8)
    seen = {True: 0, False: 0}
    for n in range(200):
        r = _random_unit_3form(rng)
        j0 = orb.jac(r, r).is_zero()
        g_id = la.mat_eq(orb.gamma(r, r, "+").matrix, Id8) and la.mat_eq(
            orb.gamma(r, r, "-").matrix, Id8
        )
        if g_id != j0:
            return _verdict(False, f"gamma/jac split at trial {n}")
        if j0 != orb.bracket_from_form(r).jacobi_holds():
            return _verdict(False, f"jac/jacobi split at trial {n}")
        seen[j0] += 1
    if not (seen[True] and seen[False]):
        return _verdict(False, f"degenerate sample {seen}")
    return "ok"
