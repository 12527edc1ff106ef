"""One benchmark process: sets up, runs timed work on the program, and
prints one JSON object as its last line of output.

    python3 perfbench/child.py setup <workload>
    python3 perfbench/child.py torsion [--trace] [--raw]
    python3 perfbench/child.py orbit   (stream and round commands on stdin)
    python3 perfbench/child.py claim <id> [--trace] [--raw] --spawned-at T
    python3 perfbench/child.py micro

Set-up (import and the canonical objects the first operation needs) runs
before any clock starts.  Checks run after the timed work.  Times are
corrected for the machine's speed (see ``speed``) unless --raw is given.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import field as fd  # noqa: E402
import speed  # noqa: E402

KIND = "SP1SP2"


def setup(workload):
    """Import and the canonical objects the workload's first operation
    needs; returns the names the workload uses."""
    if workload == "cold-verify":
        from triality8 import cli, torsion  # noqa: F401 - cli: what verify loads

        torsion.gkind(KIND)
        return torsion
    if workload == "orbit-stream":
        import triality8 as tr
        from triality8 import exterior, orbits, scalars  # noqa: F401 - for tr.*
        from triality8.clifford import kappa_form

        # the Clifford images of all 56 basis 3-forms
        kappa_form(exterior.Multivector(
            {m: scalars.Scalar(1) for m in exterior.blades_of_grade(3)}))
        return tr
    raise SystemExit(f"unknown workload {workload!r}")


def _rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _tracer(on):
    if not on:
        return None
    from spans import Tracer

    t = Tracer()
    t.install()
    return t


def _timed(ops, name, fn, clock):
    """Run fn as one operation; its times are filled in by _settle once the
    clock has stopped."""
    start = clock.mark()
    try:
        value = fn()
    except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
        ops.append({"name": name, "marks": (start, clock.mark()), "failed": True,
                    "error": traceback.format_exc(limit=3)})
        return None
    ops.append({"name": name, "marks": (start, clock.mark()), "failed": False})
    return value


def _settle(ops, clock):
    """Each operation's raw and speed-corrected seconds."""
    for op in ops:
        op["raw_s"], op["s"] = clock.span(*op.pop("marks"))


# -- cold-verify: the torsion process -----------------------------------------


def _vec(values):
    return [fd.of(x) for x in values]


def sp1sp2_check_data(to, ka):
    """Operator matrices from the public dhat, dstar_hat and Dhat applied to
    the basis tensors e_i (x) b (b running over the g-perp basis), with the
    reported numbers and kernels, all as field tuples."""
    from triality8.exterior import Multivector, blades_of_grade, to_vector

    gk = to.gkind(KIND)
    basis = [to.TorsionTensor.simple(KIND, Multivector.blade(i), b)
             for i in range(1, 9) for b in gk.gperp_forms]
    up, down = blades_of_grade(gk.degree + 1), blades_of_grade(gk.degree - 1)
    out = {k: ka[k] for k in ("domain_dim", "dhat_rank", "dstar_rank",
                              "dirac+_kernel_dim", "harmonic_dim", "dirac_dim",
                              "kernels_equal")}
    out["cols_d"] = [_vec(to_vector(to.dhat(t), up)) for t in basis]
    out["cols_ds"] = [_vec(to_vector(to.dstar_hat(t), down)) for t in basis]
    out["cols_D"] = []
    for t in basis:
        M = to.Dhat(t, "+").matrix
        out["cols_D"].append(_vec(M[r][s] for r in range(8) for s in range(8)))
    out["rows_d"], out["rows_D"] = len(up), 64
    out["harmonic_kernel"] = [_vec(v) for v in ka["harmonic_kernel"].basis]
    out["dirac_kernel"] = [_vec(v) for v in ka["dirac_kernel"].basis]
    return out


def l_matrix(to):
    """The matrix of the public L_op on the 56 basis 3-forms."""
    from triality8.exterior import Multivector, blades_of_grade, to_vector
    from triality8.scalars import Scalar

    masks = blades_of_grade(3)
    cols = [_vec(to_vector(to.L_op(Multivector({m: Scalar(1)})), masks)) for m in masks]
    return [[cols[j][i] for j in range(len(masks))] for i in range(len(masks))]


def run_torsion(args):
    import checks

    to = setup("cold-verify")
    tracer = _tracer(args.trace)
    clock = speed.clock(not args.raw)
    ops = []
    clock.start()
    ka = _timed(ops, f"kernel_analysis({KIND})", lambda: to.kernel_analysis(KIND), clock)
    spec = _timed(ops, "l_spectrum()", to.l_spectrum, clock)
    clock.stop()
    _settle(ops, clock)
    rss = _rss_kb()
    report = tracer.report() if tracer else None
    if tracer:
        tracer.uninstall()
    errors = []
    try:
        if ka is not None:
            errors += checks.check_sp1sp2(sp1sp2_check_data(to, ka))
        if spec is not None:
            errors += checks.check_spectrum(spec, l_matrix(to))
    except Exception:  # noqa: BLE001 - an output the checks cannot read is wrong
        errors.append("check raised: " + traceback.format_exc(limit=3))
    return {"ops": ops, "rss_kb": rss, "errors": errors, "trace": report}


# -- orbit-stream ---------------------------------------------------------------


def _parse_item(item, parse_form, parse_scalar):
    """(form, rotation or None, expected rotated form or None)."""
    if isinstance(item, str):
        return parse_form(item), None, None
    M = [[parse_scalar(x) for x in row] for row in item["rotation"]]
    return parse_form(item["model"]), M, parse_form(item["expect"])


def _classify_round(tr, items, ops, outputs, errors, clock, tag=""):
    """Classify every item; a model form is first conjugated by its
    rotation through the program's apply_linear.  Returns the timed work,
    raw and corrected."""
    rotated = []
    clock.start()
    start = clock.mark()
    for n, (f, M, expect) in enumerate(items):
        if M is None:
            oc = _timed(ops, f"{tag}{n}", lambda f=f: tr.orbits.orbit_classify(f), clock)
        else:
            g = _timed(ops, f"{tag}{n}",
                       lambda f=f, M=M: _conjugate_classify(tr, M, f), clock)
            oc = None if g is None else g[1]
            if g is not None:
                rotated.append((n, g[0], expect))
        outputs.append(None if oc is None else [
            oc.kind, oc.orientation,
            [str(p) for p in oc.params] if oc.params else None])
    end = clock.mark()
    clock.stop()
    _settle(ops, clock)
    errors += [f"form {tag}{n}: apply_linear gave {g}, expected {e}"
               for n, g, e in rotated if g != e]
    return clock.span(start, end)


def _conjugate_classify(tr, M, f):
    g = tr.exterior.apply_linear(M, f)
    return g, tr.orbits.orbit_classify(g)


def _send(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def run_orbit():
    """Serve rounds of the stream: the first line of standard input is the
    stream, then each line {"round": k, "trace": bool, "correct": bool}
    runs round k, with or without speed correction, and
    answers with one line; {"done": true} ends the process.  Between
    rounds the process waits, so the parent can time set-up probes."""
    tr = setup("orbit-stream")
    stream = json.loads(sys.stdin.readline())
    rounds = [[_parse_item(item, tr.parse_form, tr.scalars.parse_scalar) for item in rnd]
              for rnd in stream]
    tracer = None
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd.get("done"):
            break
        k = cmd["round"]
        if cmd["trace"]:
            if tracer is None:
                from spans import Tracer

                tracer = Tracer()
            tracer.install()
        ops, outputs, errors = [], [], []
        raw, wall = _classify_round(tr, rounds[k], ops, outputs, errors,
                                    speed.clock(cmd["correct"]), f"r{k}.")
        if cmd["trace"]:
            tracer.uninstall()
        _send({"ops": ops, "outputs": outputs, "wall": wall, "raw_wall": raw,
               "errors": errors})
    return {"rss_kb": _rss_kb(), "trace": tracer.report() if tracer else None}


# -- cold-verify: a traced claim process --------------------------------------


def run_claim(args):
    """One `triality8 verify <id> --format json` in this fresh process: the
    command line front end's main, with its output captured.  Unless raw,
    the speed sampler runs from the front end's import to the end.
    Traced, the start ends where the front end is entered, before the
    tracer is installed."""
    sampler = None if args.raw else speed.Sampler()
    if sampler:
        sampler.start()
    from triality8 import cli

    start_s = time.perf_counter() - args.spawned_at
    tracer = _tracer(args.trace)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", args.id, "--format", "json"])
    report = None
    if tracer:
        report = tracer.report()
        tracer.uninstall()
        report["start_s"] = start_s
    if sampler:
        sampler.stop()
    return {"code": code, "stdout": buf.getvalue(), "trace": report,
            "samples": [c for _, c in sampler.samples] if sampler else [],
            "paused": sampler.paused if sampler else 0.0}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "torsion", "orbit", "claim", "micro"))
    p.add_argument("id", nargs="?")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--raw", action="store_true", help="no speed correction")
    p.add_argument("--spawned-at", type=float, default=0.0)
    args = p.parse_args(argv)
    if args.mode == "setup":
        setup(args.id)
        result = {}
    elif args.mode == "torsion":
        result = run_torsion(args)
    elif args.mode == "orbit":
        result = run_orbit()
    elif args.mode == "micro":
        from spans import microbench

        result = microbench()
    else:
        result = run_claim(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
