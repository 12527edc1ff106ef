"""Command-line interface: claim verification, 3-form classification,
frame-example reports and characteristic-class checks.

This module holds the parser, ``verify`` and ``list-claims``; the other
commands are in ``triality8.commands``, which ``main`` imports only when
one of them runs, so a ``verify`` process compiles none of them.

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

# the claim index runs on first use, so list-claims and verify pay only
# for the modules their claims use
cl = lazy("claims")


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

    pe = sub.add_parser("example", help="run checks on a catalog frame")
    pe.add_argument("id")
    pe.add_argument("--check", default="harmonic,torsion,ricci,classify")

    po = sub.add_parser("obstruct", help="characteristic-class checks")
    po.add_argument("data", nargs="+",
                    help="key=value pairs or a single data file")
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help(sys.stderr)
        return 2
    func = getattr(args, "func", None)
    if func is None:
        # classify, example or obstruct: cmd_<command> of the commands module
        from . import commands

        func = getattr(commands, f"cmd_{args.command}")
    return func(args, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
