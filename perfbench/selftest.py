"""Checker self-test: every output check accepts the program's real output
and rejects a deliberately corrupted copy of it.

    python3 perfbench/run.py --selftest

Exit code 0 when every genuine output passes and every corruption is
rejected, 1 otherwise.
"""

from __future__ import annotations

import child
import checks
import field as fd
import inputs
import run
import speed


def _bump(vec):
    """A copy of the vector with its first nonzero entry changed by one."""
    j = next(i for i, x in enumerate(vec) if not fd.is_zero(x))
    return vec[:j] + [fd.add(vec[j], fd.ONE)] + vec[j + 1:]


def _torsion_cases():
    to = child.setup("cold-verify")
    data = child.sp1sp2_check_data(to, to.kernel_analysis(child.KIND))
    spec = to.l_spectrum()
    L = child.l_matrix(to)
    H = data["harmonic_kernel"]
    yield "kernel_analysis: genuine", checks.check_sp1sp2(data), True
    yield ("kernel vector entry changed",
           checks.check_sp1sp2(dict(data, harmonic_kernel=[_bump(H[0])] + H[1:])), False)
    yield ("kernel vector dropped, dimension reported 63",
           checks.check_sp1sp2(dict(data, harmonic_kernel=H[1:], harmonic_dim=63)), False)
    yield ("kernel vector replaced by a copy of another",
           checks.check_sp1sp2(dict(data, harmonic_kernel=[H[1]] + H[1:])), False)
    yield "wrong rank reported", checks.check_sp1sp2(dict(data, dhat_rank=57)), False
    yield "wrong dstar rank reported", checks.check_sp1sp2(dict(data, dstar_rank=55)), False
    yield "l_spectrum: genuine", checks.check_spectrum(spec, L), True
    yield ("wrong multiplicities",
           checks.check_spectrum({2: 9, 12: 31, 20: 16}, L), False)
    yield ("operator entry changed",
           checks.check_spectrum(spec, [_bump(L[0])] + L[1:]), False)


_SWAP = {"L1_psu3": "L3_sp1sp2", "L3_sp1sp2": "L2_su2su2_u1",
         "L2_su2su2_u1": "L1_psu3"}


def _orbit_cases():
    tr = child.setup("orbit-stream")
    items = inputs.orbit_stream(1, 1)[0]
    seen = set()
    for item in items:
        cell = item[0]
        if cell in seen:
            continue
        seen.add(cell)
        oc = tr.orbits.orbit_classify(tr.parse_form(inputs.form_text(item[2])))
        got = (oc.kind, oc.orientation,
               tuple(str(p) for p in oc.params) if oc.params else None)
        yield f"orbit {cell}: genuine", checks.check_orbit(item, got), True
        if item[1] is not None:
            label = "swapped orbit kind"
        elif cell == "nonunit":
            label = "non-unit form reported supersymmetric"
        else:
            label = "flipped supersymmetric verdict"
        if item[1] is not None:
            bad = (_SWAP[oc.kind],) + got[1:]
        else:
            bad = ("L3_sp1sp2" if oc.kind == "NotSupersymmetric"
                   else "NotSupersymmetric", None, None)
        yield f"orbit {cell}: {label}", checks.check_orbit(item, bad), False
        if item[1] is not None:
            flip = "preserving" if oc.orientation == "reversing" else "reversing"
            yield (f"orbit {cell}: flipped orientation",
                   checks.check_orbit(item, (oc.kind, flip, got[2])), False)
    # the conjugation check: the program's apply_linear against the
    # benchmark's own rotation of the model form
    item = next(it for it in items if it[1] == "e123")
    f, M, expect = child._parse_item(inputs.payload(item), tr.parse_form,
                                     tr.scalars.parse_scalar)
    for label, want, genuine in (
        ("genuine", expect, True),
        ("rotated form changed", tr.parse_form(inputs.form_text(
            {k: fd.add(v, fd.ONE) for k, v in item[2].items()})), False),
    ):
        errors = []
        child._classify_round(tr, [(f, M, want)], [], [], errors, speed.RawClock())
        yield f"orbit conjugation: {label}", errors, genuine


def _claim_cases():
    def report(status):
        return ('{"claims": [{"id": "stab.rho", "status": "%s"}], "summary": {}}'
                % status)

    yield "claim: genuine", run.check_claim("stab.rho", 0, report("pass"))[1], True
    yield "claim status fail", run.check_claim("stab.rho", 1, report("fail"))[1], False
    yield "claim exit code 1", run.check_claim("stab.rho", 1, report("pass"))[1], False
    yield "claim id mismatch", run.check_claim("stab.omega", 0, report("pass"))[1], False


def main():
    ok = True
    for cases in (_claim_cases(), _orbit_cases(), _torsion_cases()):
        for label, errors, genuine in cases:
            good = (not errors) if genuine else bool(errors)
            ok &= good
            verdict = "accepted" if not errors else "rejected"
            print(f"{'ok  ' if good else 'FAIL'} {label}: {verdict}"
                  + (f" ({errors[0]})" if errors else ""), flush=True)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1
