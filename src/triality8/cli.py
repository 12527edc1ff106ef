"""Command-line interface: claim verification, 3-form classification,
frame-example reports and characteristic-class checks.

Subcommands:
  verify [pattern] --format json|md [--seed N]
  list-claims
  classify <file>
  example <id> --check harmonic,torsion,ricci,classify
  obstruct <datafile | key=value ...>

Exit codes: 0 success / all pass, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import lazy

# every submodule runs on first use, so a command pays only for its own
cl = lazy("claims")
ex = lazy("exterior")
fr = lazy("frames")
ob = lazy("obstructions")
orb = lazy("orbits")
sc = lazy("scalars")
st = lazy("structures")
to = lazy("torsion")


def _reports_json(reports):
    return {
        "claims": [r.as_dict() for r in reports],
        "summary": cl.summarize(reports),
    }


def _reports_md(reports):
    lines = ["| id | status | expected | actual | ms |", "|---|---|---|---|---|"]
    for r in reports:
        lines.append(
            f"| {r.id} | {r.status} | {r.expected} | {r.actual} | {r.runtime_ms} |"
        )
    s = cl.summarize(reports)
    lines.append("")
    lines.append(
        f"pass {s['pass']}, fail {s['fail']}, error {s['error']}, "
        f"skipped {s['skipped']}"
    )
    return "\n".join(lines)


def cmd_verify(args, out):
    selected = cl.select_claims(args.pattern)
    if not selected:
        print(f"no claims match pattern {args.pattern!r}", file=sys.stderr)
        return 2
    seed = cl.DEFAULT_SEED if args.seed is None else args.seed
    reports, code = cl.run_claims(selected, seed=seed)
    if args.format == "json":
        json.dump(_reports_json(reports), out, indent=2, default=str)
        out.write("\n")
    else:
        out.write(_reports_md(reports) + "\n")
    return code


def cmd_list_claims(args, out):
    for cid in cl.claim_ids():
        c = cl.REGISTRY[cid]
        out.write(f"{cid}: {c.anchor}\n")
    return 0


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


def build_parser():
    p = argparse.ArgumentParser(
        prog="triality8",
        description="exact verification tools for 8-dimensional triality geometry",
    )
    sub = p.add_subparsers(dest="command")

    pv = sub.add_parser("verify", help="run verification claims")
    pv.add_argument("pattern", nargs="?", default="all",
                    help="claim id glob (default: all)")
    pv.add_argument("--format", choices=("json", "md"), default="md")
    # None stands for claims.DEFAULT_SEED, read only when verify runs
    pv.add_argument("--seed", type=int, default=None)
    pv.set_defaults(func=cmd_verify)

    pl = sub.add_parser("list-claims", help="list claim ids")
    pl.set_defaults(func=cmd_list_claims)

    pc = sub.add_parser("classify", help="classify a 3-form from a file")
    pc.add_argument("file")
    pc.set_defaults(func=cmd_classify)

    pe = sub.add_parser("example", help="run checks on a catalog frame")
    pe.add_argument("id")
    pe.add_argument("--check", default="harmonic,torsion,ricci,classify")
    pe.set_defaults(func=cmd_example)

    po = sub.add_parser("obstruct", help="characteristic-class checks")
    po.add_argument("data", nargs="+",
                    help="key=value pairs or a single data file")
    po.set_defaults(func=cmd_obstruct)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help(sys.stderr)
        return 2
    return args.func(args, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
