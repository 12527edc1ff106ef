"""The commands of the front end other than ``verify`` and ``list-claims``:
``classify`` (a 3-form from a file), ``example`` (checks on a catalog
frame) and ``obstruct`` (characteristic-class checks).  ``cli.main``
imports this module when one of them runs.  Each handler takes the parsed
arguments and the output stream and returns the exit code: 0 on success,
1 when a classification fails, 2 on bad input.
"""

from __future__ import annotations

import json
import sys

from . import lazy

# every submodule runs on first use, so a command pays only for its own
ex = lazy("exterior")
fr = lazy("frames")
ob = lazy("obstructions")
orb = lazy("orbits")
sc = lazy("scalars")
st = lazy("structures")
to = lazy("torsion")


def cmd_classify(args, out):
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        print(f"cannot read {args.file}: {err}", file=sys.stderr)
        return 2
    try:
        form = ex.parse_form(text)
    except ex.ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    if not form.is_homogeneous(3):
        print("input is not a 3-form", file=sys.stderr)
        return 2
    try:
        oc = orb.orbit_classify(form)
    except orb.OrbitError as err:
        print(f"classification error: {err}", file=sys.stderr)
        return 1
    rep = {
        "kind": oc.kind,
        "orientation": oc.orientation,
        "params": [str(p) for p in oc.params] if oc.params else None,
        "norm2": str(form.norm2()),
        "jacobi_obstruction": str(orb.jac(form, form)),
        "witness": _witness_json(orb.supersymmetry_witness(form)),
    }
    json.dump(rep, out, indent=2)
    out.write("\n")
    return 0


def _witness_json(witness):
    """Why a form is not supersymmetric, with exact values as text; None
    for a supersymmetric form."""
    if witness is None:
        return None
    out = {key: None if v is None else str(v) for key, v in witness.items()}
    if "class" in witness:
        out["class"] = list(witness["class"])
    return out


_EXAMPLE_CHECKS = ("harmonic", "torsion", "ricci", "classify")


def _example_one(F, kind, expected, check):
    """One check of `example` on the frame F.  classify never reads F: it
    reports the orbit of the model 3-form canonical_rho(), which every PSU3
    catalog frame carries in its adapted coframe, so it prints the same line
    for each PSU3 id."""
    if check == "harmonic":
        got = fr.harmonic_check(F, kind)
        return {
            "status": "ok",
            "actual": str(got),
            "expected": str(expected.get("harmonic", "n/a")),
        }
    if check == "ricci":
        if not F.constant_structure:
            return {"status": "skipped", "reason": "requires constant structure"}
        ric = fr.ricci(F)
        diag = "(" + ", ".join(str(ric[i][i]) for i in range(8)) + ")"
        want = expected.get("ricci_diag")
        return {
            "status": "ok",
            "actual": diag,
            "expected": "(" + ", ".join(str(x) for x in want) + ")" if want else "n/a",
        }
    if check == "torsion":
        T = fr.intrinsic_torsion(F, kind)
        gamma, _ = st.invariant_form(kind)
        rep = {
            "status": "ok",
            "nonzero": not T.is_zero(),
            "d_identity": to.dhat(T) == fr.coframe_d(gamma, F),
            "dstar_identity": to.dstar_hat(T) == -fr.codifferential(gamma, F),
            "expected_parallel": expected.get("parallel", "n/a"),
        }
        return rep
    if check == "classify":
        if kind != "PSU3":
            return {"status": "skipped", "reason": "structure form is not a 3-form"}
        oc = orb.orbit_classify(st.canonical_rho())
        return {"status": "ok", "actual": f"{oc.kind}, {oc.orientation}"}
    return {"status": "skipped", "reason": f"unknown check {check!r}"}


def cmd_example(args, out):
    checks = [c.strip() for c in args.check.split(",") if c.strip()]
    bad = [c for c in checks if c not in _EXAMPLE_CHECKS]
    if bad or not checks:
        print(f"invalid checks {bad or '(none)'}; pick from {_EXAMPLE_CHECKS}",
              file=sys.stderr)
        return 2
    try:
        if args.id == "gibbons_hawking":
            F, kind, expected = fr.catalog(args.id, sc.Scalar(1))
        else:
            F, kind, expected = fr.catalog(args.id)
    except fr.FrameError as err:
        print(f"unknown example: {err}", file=sys.stderr)
        return 2
    rep = {"example": args.id, "kind": kind, "checks": {}}
    for c in checks:
        rep["checks"][c] = _example_one(F, kind, expected, c)
    json.dump(rep, out, indent=2, default=str)
    out.write("\n")
    return 0


def _chardata_from_args(items):
    if len(items) == 1 and "=" not in items[0]:
        with open(items[0], "r", encoding="utf-8") as fh:
            pairs = {}
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"bad line in data file: {line!r}")
                k, v = line.split("=", 1)
                pairs[k.strip()] = v.strip()
            return ob.CharData.from_mapping(pairs)
    pairs = {}
    for item in items:
        if "=" not in item:
            raise ValueError(f"expected key=value, got {item!r}")
        k, v = item.split("=", 1)
        pairs[k] = v
    return ob.CharData.from_mapping(pairs)


def cmd_obstruct(args, out):
    try:
        d = _chardata_from_args(args.data)
    except (OSError, ValueError, KeyError) as err:
        # a KeyError's str() is the repr of its message
        msg = err.args[0] if isinstance(err, KeyError) else err
        print(f"bad characteristic data: {msg}", file=sys.stderr)
        return 2
    rep = {
        "data": d.as_dict(),
        "ahat": str(ob.ahat_eval(d)),
        "signature_identity": ob.sgn_identity_check(d),
        "necessary": ob.necessary_psu3(d),
        "su3_lift": ob.su3_lift_check(d),
    }
    json.dump(rep, out, indent=2, default=str)
    out.write("\n")
    return 0
