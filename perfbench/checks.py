"""Independent output checks.

Nothing here calls the program's elimination or classifier.  Matrices and
vectors arrive as field tuples (see ``field``); every check returns a list
of failure messages, empty when the output is right.
"""

from __future__ import annotations

from itertools import combinations

import field as fd
from field import ZERO, add, is_zero, mul, sub

MODP = fd.ModP(fd.PRIME)

# the paper's values of the quaternionic kernel theorem and of the spectrum
SP_EXPECTED = {"domain_dim": 120, "dhat_rank": 56, "dirac_kernel_dim": 64}
SPECTRUM = {2: 8, 12: 32, 20: 16}
TRACE_L, TRACE_L2 = 720, 11040
# each model 3-form's class: kind, orientation, and the squared norms of the
# restrictions to the two su(2) ideals (None when there are none)
MODEL_CLASS = {
    "rho": ("L1_psu3", "reversing", None),
    "e123": ("L3_sp1sp2", "preserving", None),
    "mixed": ("L2_su2su2_u1", "preserving", ("3/4", "1/4")),
}


def _sparse_rows(cols, nrows):
    """Rows (dict col -> element) of the matrix with the given columns."""
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, x in enumerate(col):
            if not is_zero(x):
                rows[i][j] = x
    return rows


def annihilates(cols, nrows, vectors, label):
    """M v = 0 exactly for each vector, M given by its columns."""
    rows = _sparse_rows(cols, nrows)
    for n, v in enumerate(vectors):
        for r, row in enumerate(rows):
            if not is_zero(fd.dot(row, v)):
                return [f"{label}: vector {n} is not in the kernel (row {r})"]
    return []


def rank_mod_p(cols):
    """Rank mod p of the matrix with these columns: a lower bound on the
    exact rank, since reduction mod p is a ring map."""
    return MODP.rank([[MODP.image(x) for x in col] for col in cols])


def check_kernel(name, cols, nrows, kernel, dim_expected):
    """The kernel basis is exact and complete: M v = 0 for every basis
    vector, the vectors are independent, and rank_p(M) = n - dim, which
    together prove both the rank and the kernel dimension."""
    n = len(cols)
    errs = []
    if len(kernel) != dim_expected:
        errs.append(f"{name}: kernel dimension {len(kernel)} != {dim_expected}")
    errs += annihilates(cols, nrows, kernel, name)
    if kernel and rank_mod_p(kernel) != len(kernel):
        errs.append(f"{name}: kernel basis vectors are dependent mod p")
    r = rank_mod_p(cols)
    if r != n - len(kernel):
        errs.append(f"{name}: rank mod p {r} != {n} - {len(kernel)}")
    return errs


def check_sp1sp2(out):
    """``out`` holds the reported numbers and kernels with the operator
    matrices built from the public dhat, dstar_hat and Dhat."""
    errs = []
    n = len(out["cols_d"])
    if n != SP_EXPECTED["domain_dim"] or out["domain_dim"] != n:
        errs.append(f"domain dimension {out['domain_dim']} / {n} != 120")
    dim = SP_EXPECTED["dirac_kernel_dim"]
    for key, want in (("dhat_rank", SP_EXPECTED["dhat_rank"]),
                      ("harmonic_dim", dim), ("dirac_dim", dim),
                      ("dirac+_kernel_dim", dim)):
        if out[key] != want:
            errs.append(f"{key} reported {out[key]}, expected {want}")
    if out["kernels_equal"] is not True:
        errs.append("kernels reported unequal")
    H, D = out["harmonic_kernel"], out["dirac_kernel"]
    errs += check_kernel("ker dhat", out["cols_d"], out["rows_d"], H, dim)
    errs += check_kernel("ker Dhat+", out["cols_D"], out["rows_D"], D, dim)
    # each kernel lies in the other operator's kernel; with both dimensions
    # proved above this proves ker dhat = ker Dhat+
    errs += annihilates(out["cols_d"], out["rows_d"], D, "Dhat+ kernel under dhat")
    errs += annihilates(out["cols_D"], out["rows_D"], H, "dhat kernel under Dhat+")
    r = rank_mod_p(out["cols_ds"])
    if r != out["dstar_rank"]:
        errs.append(f"dstar rank reported {out['dstar_rank']}, mod p {r}")
    return errs


def _mat_mul(A, B):
    n = len(B[0])
    out = []
    for row in A:
        acc = [ZERO] * n
        for k, x in enumerate(row):
            if is_zero(x):
                continue
            for j, y in enumerate(B[k]):
                if not is_zero(y):
                    acc[j] = add(acc[j], mul(x, y))
        out.append(acc)
    return out


def _shift(A, lam):
    c = fd.real(lam)
    return [[sub(x, c) if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(A)]


def check_spectrum(spectrum, L):
    """tr L, tr L^2 and (L-2)(L-12)(L-20) = 0 on the matrix of L_op on the
    56 basis 3-forms; together they force the multiplicities 8, 32, 16."""
    errs = []
    if spectrum != SPECTRUM:
        errs.append(f"spectrum {spectrum} != {SPECTRUM}")
    n = len(L)
    tr = ZERO
    for i in range(n):
        tr = add(tr, L[i][i])
    L2 = _mat_mul(L, L)
    tr2 = ZERO
    for i in range(n):
        tr2 = add(tr2, L2[i][i])
    if tr != fd.real(TRACE_L):
        errs.append(f"tr L = {fd.text(tr)}, expected {TRACE_L}")
    if tr2 != fd.real(TRACE_L2):
        errs.append(f"tr L^2 = {fd.text(tr2)}, expected {TRACE_L2}")
    P = _mat_mul(_mat_mul(_shift(L, 2), _shift(L, 12)), _shift(L, 20))
    if any(not is_zero(x) for row in P for x in row):
        errs.append("(L-2)(L-12)(L-20) != 0")
    return errs


# -- 3-forms ------------------------------------------------------------------


def _brackets(form):
    """[e_a, e_b] = sum_t c_abt e_t as {(a, b): {t: c_abt}} for a != b,
    c totally antisymmetric, from a dict keyed by sorted index triples."""
    out = {}
    for (i, j, k), v in form.items():
        neg = sub(ZERO, v)
        for a, b, t, x in ((i, j, k, v), (j, k, i, v), (k, i, j, v),
                           (j, i, k, neg), (k, j, i, neg), (i, k, j, neg)):
            out.setdefault((a, b), {})[t] = x
    return out


def jacobi_holds(form):
    """Jacobi identity of [e_i, e_j] = sum_t c_ijt e_t in index form:
    sum_t c_ijt c_tkl + c_jkt c_til + c_kit c_tjl = 0 for all i, j, k, l."""
    br = _brackets(form)
    for i, j, k in combinations(range(1, 9), 3):
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for t, x in br.get((a, b), {}).items():
                for l, y in br.get((t, c), {}).items():
                    acc[l] = add(acc.get(l, ZERO), mul(x, y))
        if any(not is_zero(s) for s in acc.values()):
            return False
    return True


def norm2(form):
    s = ZERO
    for v in form.values():
        s = add(s, mul(v, v))
    return s


def check_orbit(item, got):
    """``item`` is (cell, model, form, rotation); ``got`` is (kind,
    orientation, params as text or None) from the program's classification."""
    _, model, form, _ = item
    kind = got[0]
    if model is not None:
        want = MODEL_CLASS[model]
        if tuple(got) != want:
            return [f"rotated {model} classified {got}, expected {want}"]
        return []
    if norm2(form) != fd.ONE:
        if kind != "NotSupersymmetric":
            return [f"non-unit form classified {kind}"]
        return []
    susy = kind != "NotSupersymmetric"
    if susy != jacobi_holds(form):
        return [f"unit form: supersymmetric={susy} but Jacobi={not susy}"]
    return []
