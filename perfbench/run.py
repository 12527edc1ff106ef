"""The triality8 benchmark.

    python3 perfbench/run.py --workload cold-verify|orbit-stream
                             --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout (the program is imported from ./src).
Each workload is a closed loop with one client: the next operation starts
when the previous one has finished.  Whole rounds of operations run until
their timed work reaches --seconds.  With --trace 0 the run prints the
end-to-end metrics, every time corrected for the machine's speed (see
speed.py); with --trace 1 it runs untraced and traced rounds of the same
operations, uncorrected, and prints the per-module metrics.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("cold-verify", "orbit-stream")
SETUP_PROBES = 12  # fresh set-up processes per run, spread over the run
ORBIT_ROUNDS = 12  # rounds of the stream generated per run; reused in turn
PROBE_EVERY = 4    # cold-verify: one set-up probe after every 4th claim
# every claim except the eight whose work the other workloads carry (the
# callers of kernel_analysis, torsion.L_spectrum and the two seeded orbit
# sweeps)
CLAIMS = (
    "calib.bound", "calib.equality", "ccomplex.betti", "ccomplex.c2_action",
    "ccomplex.c_squared", "ccomplex.p3_anchors", "clifford.kappa_table",
    "clifford.relations", "clifford.volume", "frame.gh", "frame.nil_harmonic",
    "frame.salamon_nabla", "frame.su3", "nil.ricci", "obstruct.failing_data",
    "obstruct.identities", "obstruct.su3_datum", "orbit.classify_e123",
    "orbit.classify_mixed", "orbit.classify_rho", "orbit.det_rho1",
    "orbit.rho_matrix", "proj.idempotent", "proj.l210_identity",
    "proj.omega_eigen", "salamon.ricci", "sigma.annihilated", "sigma.dets",
    "sigma.isometry", "sigma.mu_iota", "sigma.mu_zero", "stab.omega",
    "stab.rho", "torsion.L_anchor", "torsion.dhat_anchor", "torsion.surjd",
    "torsion.tau12_dirac", "torsion.z11", "torsion.z22",
)
END_TO_END = (  # name, unit
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"), ("op_ms_p50", "ms"), ("op_ms_p90", "ms"),
)


class Result:
    """What one run observed: operation times, failures, output errors and
    set-up probes."""

    def __init__(self, workload, trace):
        self.workload = workload
        self.correct = not trace  # traced runs report raw times
        self.op_s = []          # seconds per operation that did not fail
        self.latency_s = []     # the operations the percentiles describe
        self.attempted = 0
        self.failed = 0
        self.errors = []        # output check failures
        self.round_walls = []   # timed work per round (corrected when not traced)
        self.raw_walls = []     # the same, as the clock read it
        self.rss_kb = 0
        self.digest = ""
        self.probes = []        # corrected wall times of the set-up probes
        self.raw_probes = []
        self.reports = []       # span reports of traced processes
        self.overhead_s = []    # traced minus untraced timed work, per pair
        self.start_s = []       # spawn -> cli.main, per traced claim process

    def add_op(self, name, seconds, failed=False, error="", latency=True):
        self.attempted += 1
        if failed:
            self.failed += 1
            print(f"# failed: {name}: {error}", file=sys.stderr)
            return
        self.op_s.append(seconds)
        if latency:
            self.latency_s.append(seconds)

    def probe(self, n=1):
        """Time n fresh processes that start, import and build the
        canonical objects the workload's first operation needs."""
        for _ in range(n):
            before = speed.calibrate()
            c = child("setup", self.workload)
            after = speed.calibrate()
            self.probes.append(c.wall * speed.factor([before, after]))
            self.raw_probes.append(c.wall)


class Child:
    def __init__(self, wall, code, stdout, maxrss_kb):
        self.wall, self.code, self.stdout, self.maxrss_kb = wall, code, stdout, maxrss_kb

    def result(self):
        """The JSON object a child prints as its last line."""
        if self.code != 0:
            raise RuntimeError(f"benchmark process exited with {self.code}")
        return json.loads(self.stdout.strip().splitlines()[-1])


def _env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(argv, data=None):
    """Run one process to its end: wall time from start to exit, exit code,
    standard output and the process's own peak RSS from wait4."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                         stdin=subprocess.DEVNULL if data is None else subprocess.PIPE)
    try:
        if data is not None:
            p.stdin.write(data.encode())
            p.stdin.close()
        out = p.stdout.read()
    except BaseException:
        p.kill()
        raise
    finally:
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
    return Child(time.perf_counter() - t0, p.returncode, out.decode(), usage.ru_maxrss)


def child(*args, data=None):
    return spawn([sys.executable, str(HERE / "child.py"), *map(str, args)], data)


def another_round(walls, seconds):
    """Another round runs while one more of the mean length still fits in
    ``seconds`` of timed work."""
    return sum(walls) * (len(walls) + 1) / len(walls) <= seconds


# -- cold-verify ------------------------------------------------------------------


TORSION_OPS = ("kernel_analysis(SP1SP2)", "l_spectrum()")


def torsion_process(res, trace):
    """The torsion operations in one fresh process; returns their timed work."""
    c = child("torsion", *(["--trace"] if trace else []),
              *([] if res.correct else ["--raw"]))
    if c.code != 0:  # the process died: none of its operations finished
        for name in TORSION_OPS:
            res.add_op(name, 0.0, failed=True, error=f"process exited with {c.code}")
        return c.wall, c.wall
    out = c.result()
    for op in out["ops"]:
        res.add_op(op["name"], op["s"], op["failed"], op.get("error", ""), latency=False)
        print(f"# {op['name']}: {op['s'] * 1000:.0f} ms (raw {op['raw_s'] * 1000:.0f} ms)"
              f"{' (traced)' if trace else ''}")
    res.errors += out["errors"]
    res.rss_kb = max(res.rss_kb, out["rss_kb"])
    if out["trace"]:
        res.reports.append(out["trace"])
    return (sum(op["s"] for op in out["ops"]), sum(op["raw_s"] for op in out["ops"]))


def check_claim(cid, code, stdout):
    """(failed, errors): a crash or an 'error' status is a failed operation;
    a claim that runs but does not pass is a wrong output."""
    try:
        rep = json.loads(stdout)["claims"]
    except (ValueError, KeyError):
        return True, []
    if code not in (0, 1) or len(rep) != 1 or rep[0]["status"] == "error":
        return True, []
    if code != 0 or rep[0]["id"] != cid or rep[0]["status"] != "pass":
        return False, [f"claim {cid}: status {rep[0]['status']}, exit code {code}"]
    return False, []


def claim_process(res, cid, trace):
    """`triality8 verify <id> --format json` in a fresh process; returns
    the process, its exit code and output, and its wall time from start
    to exit, corrected for the machine's speed unless the run is traced.
    The correction takes the samples the process took while it ran and
    one sample of the parent's just before and just after it."""
    before = speed.calibrate() if res.correct else None
    c = child("claim", cid, "--spawned-at", repr(time.perf_counter()),
              *(["--trace"] if trace else []), *([] if res.correct else ["--raw"]))
    if c.code != 0:
        return c, c.code, "", c.wall
    out = c.result()
    if trace:
        res.reports.append(out["trace"])
        res.start_s.append(out["trace"]["start_s"])
    if not res.correct:
        return c, out["code"], out["stdout"], c.wall
    samples = [before, *out["samples"], speed.calibrate()]
    return c, out["code"], out["stdout"], (c.wall - out["paused"]) * speed.factor(samples)


def claims_sweep(res, trace):
    """Each claim in its own fresh process; returns the processes' wall
    time, corrected and raw.  Outside traced runs, a set-up probe runs
    after every few claims."""
    total = raw = 0.0
    for n, cid in enumerate(CLAIMS, 1):
        c, code, stdout, wall = claim_process(res, cid, trace)
        failed, errors = check_claim(cid, code, stdout)
        res.add_op(cid, wall, failed, f"exit {code}")
        res.errors += errors
        res.rss_kb = max(res.rss_kb, c.maxrss_kb)
        total += wall
        raw += c.wall
        print(f"# {cid}: {wall * 1000:.0f} ms (raw {c.wall * 1000:.0f} ms)"
              f"{' (traced)' if trace else ''}")
        if res.correct and n % PROBE_EVERY == 0:
            res.probe()
    print(f"# claims sweep{' (traced)' if trace else ''}: {total * 1000:.0f} ms "
          f"(raw {raw * 1000:.0f} ms)")
    return total, raw


def run_cold(res, seconds, trace):
    """Cold rounds (the torsion process, then each claim in its own
    process) while another fits in ``seconds``; traced, one untraced
    round and then one traced round."""
    res.digest = inputs.digest(list(TORSION_OPS) + [
        f"triality8 verify {cid} --format json" for cid in CLAIMS])

    def cold_round(traced):
        (t, t_raw), (c, c_raw) = torsion_process(res, traced), claims_sweep(res, traced)
        res.round_walls.append(t + c)
        res.raw_walls.append(t_raw + c_raw)

    if trace:
        for traced in (False, True):
            cold_round(traced)
        res.overhead_s.append(res.round_walls[1] - res.round_walls[0])
        return
    while not res.round_walls or another_round(res.round_walls, seconds):
        cold_round(False)


# -- orbit-stream -----------------------------------------------------------------


class OrbitProcess:
    """The long-lived classifying process, driven one round at a time."""

    def __init__(self, stream):
        argv = [sys.executable, str(HERE / "child.py"), "orbit"]
        self.p = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, text=True)
        self._send(stream)

    def _send(self, obj):
        self.p.stdin.write(json.dumps(obj) + "\n")
        self.p.stdin.flush()

    def _receive(self):
        line = self.p.stdout.readline()
        if not line:
            raise RuntimeError("orbit process ended early")
        return json.loads(line)

    def round(self, k, trace, correct):
        self._send({"round": k, "trace": trace, "correct": correct})
        return self._receive()

    def close(self):
        """End the process and return its last answer (peak RSS, trace)."""
        try:
            self._send({"done": True})
            last = self._receive()
        finally:
            self.p.stdin.close()
            code = self.p.wait()
            self.p.stdout.close()
        if code != 0:
            raise RuntimeError(f"orbit process exited with {code}")
        return last

    def kill(self):
        if self.p.poll() is None:
            self.p.kill()
        self.p.wait()


def run_orbit(res, seed, seconds, trace):
    stream = inputs.orbit_stream(seed, ORBIT_ROUNDS)
    data = [[inputs.payload(item) for item in rnd] for rnd in stream]
    res.digest = inputs.digest([json.dumps(data)])
    proc = OrbitProcess(data)
    try:
        def one(k, traced):
            out = proc.round(k, traced, not trace)
            for op in out["ops"]:
                res.add_op(op["name"], op["s"], op["failed"], op.get("error", ""))
            res.errors += out["errors"]
            for item, got in zip(stream[k], out["outputs"]):
                if got is not None:
                    res.errors += checks.check_orbit(item, tuple(
                        tuple(x) if isinstance(x, list) else x for x in got))
            res.raw_walls.append(out["raw_wall"])
            return out["wall"]

        if trace:
            # a warm-up round, then an untraced and a traced run of rounds
            # 0 and 1, in alternating order
            one(0, False)
            for k in range(2):
                order = (False, True) if k % 2 == 0 else (True, False)
                walls = dict((traced, one(k, traced)) for traced in order)
                res.round_walls += [walls[False], walls[True]]
                res.overhead_s.append(walls[True] - walls[False])
        else:
            while not res.round_walls or another_round(res.round_walls, seconds):
                res.round_walls.append(one(len(res.round_walls) % ORBIT_ROUNDS, False))
                res.probe(2)
        last = proc.close()
    except BaseException:
        proc.kill()
        raise
    res.rss_kb = last["rss_kb"]
    if last["trace"]:
        res.reports.append(last["trace"])


# -- metrics ----------------------------------------------------------------------


def quantile(values, p):
    """Trimmed Harrell-Davis estimate of the p-quantile (Akinshin 2022):
    a mean of the sorted values weighted by the Beta(p(n+1), (1-p)(n+1))
    distribution, cut to its densest interval of width 1/sqrt(n).  Unlike
    one order statistic it uses the neighbouring values, so it moves less
    between runs; the cut keeps it from reaching across the 10x gaps
    between the kinds of form on orbit-stream."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    lo, hi = _densest(a, b, 1 / math.sqrt(n))
    cdf = [_betainc(min(max(i / n, lo), hi), a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)) / (cdf[-1] - cdf[0])


def _densest(a, b, width):
    """The interval of this width where the Beta(a, b) density is highest;
    for a, b > 1 its two ends have equal density."""
    if width >= 1.0:
        return 0.0, 1.0
    if a <= 1 or b <= 1:  # the density is highest at an end
        return (0.0, width) if a <= b else (1.0 - width, 1.0)

    def logpdf(x):
        return (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)

    mode = (a - 1) / (a + b - 2)
    lo, hi = max(0.0, mode - width), min(mode, 1.0 - width)
    for _ in range(100):
        mid = (lo + hi) / 2
        if mid > 0.0 and logpdf(mid) < logpdf(mid + width):
            lo = mid
        else:
            hi = mid
    return lo, lo + width


def _betainc(x, a, b):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return min(max(x, 0.0), 1.0)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(x, a, b) / a
    return 1.0 - front * _betacf(1.0 - x, b, a) / b


def _betacf(x, a, b):
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def end_to_end(res):
    lat = res.latency_s
    return {
        "setup_s": statistics.median(res.probes),
        "wall_s": sum(res.round_walls) / len(res.round_walls),
        "peak_rss_mb": res.rss_kb / 1024,
        "ops_per_s": len(res.op_s) / sum(res.op_s) if res.op_s else 0.0,
        "op_ms_p50": quantile(lat, 0.5) * 1000 if lat else 0.0,
        "op_ms_p90": quantile(lat, 0.9) * 1000 if lat else 0.0,
    }


def merge(reports):
    spans, counts, gc_s, gc_n = {}, {}, 0.0, 0
    for rep in reports:
        for name, (n, tot, own, mx) in rep["spans"].items():
            s = spans.setdefault(name, [0, 0.0, 0.0, 0.0])
            s[0] += n
            s[1] += tot
            s[2] += own
            s[3] = max(s[3], mx)
        for name, v in rep["counts"].items():
            counts[name] = counts.get(name, 0) + v
        gc_s += rep["gc_s"]
        gc_n += rep["gc_collections"]
    return spans, counts, gc_s, gc_n


def per_layer(res, micro):
    spans, counts, gc_s, gc_n = merge(res.reports)

    def calls(name):
        return spans.get(name, [0])[0]

    def own(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    m = {f"scalars.{k}_calls": counts.get(f"scalars.{k}_calls", 0)
         for k in ("mul", "add", "inv", "cmul", "new")}
    m.update(micro)
    wide, narrow = "linalg.rref_wide", "linalg.rref_narrow"
    m.update({
        "linalg.rref_calls": calls(wide) + calls(narrow),
        "linalg.rref_cells": counts.get("linalg.rref_cells", 0),
        "linalg.rref_max_s": max(spans.get(wide, [0] * 4)[3], spans.get(narrow, [0] * 4)[3]),
        "linalg.rref_wide_self_s": own(wide),
        "linalg.rref_narrow_self_s": own(narrow),
    })
    for name in ("linalg.det", "linalg.solve", "linalg.mat_mul"):
        m[f"{name}_self_s"] = own(name)
    lookups = counts.get("clifford.blade_lookups", 0)
    misses = counts.get("clifford.blade_misses", 0)
    m.update({
        "clifford.kappa_form_calls": calls("clifford.kappa_form"),
        "clifford.kappa_form_self_s": own("clifford.kappa_form"),
        "clifford.blade_misses": misses,
        "clifford.blade_hit_ratio": (1 - misses / lookups) if lookups else 0.0,
        "clifford.kappa_self_s": own("clifford.kappa"),
        "clifford.act2_svf_self_s": own("clifford.act2_svf"),
    })
    for op in ("wedge", "act2", "contract", "star", "apply_linear"):
        m[f"exterior.{op}_calls"] = calls(f"exterior.{op}")
        m[f"exterior.{op}_self_s"] = own(f"exterior.{op}")
    m["orbits.orbit_classify_calls"] = calls("orbits.orbit_classify")
    for fn in ("orbit_classify", "jacobi_holds", "lie_classify", "killing_form",
               "bracket_from_form"):
        m[f"orbits.{fn}_self_s"] = own(f"orbits.{fn}")
    m["structures.project2_calls"] = calls("structures.project2")
    for fn in ("project2", "c_operator", "stabilizer"):
        m[f"structures.{fn}_self_s"] = own(f"structures.{fn}")
    m["torsion.kernel_analysis_self_s"] = own("torsion.kernel_analysis")
    m["torsion.Dhat_calls"] = calls("torsion.Dhat")
    for fn in ("Dhat", "dhat", "dstar_hat", "L_op", "z_constants"):
        m[f"torsion.{fn}_self_s"] = own(f"torsion.{fn}")
    for fn in ("levi_civita", "ricci", "intrinsic_torsion", "coframe_d"):
        m[f"frames.{fn}_self_s"] = own(f"frames.{fn}")
    m["obstructions.self_s"] = sum(s[2] for k, s in spans.items()
                                   if k.startswith("obstructions."))
    m["claims.run_claim_self_s"] = own("claims.run_claim")
    m["cli.start_s"] = statistics.median(res.start_s) if res.start_s else 0.0
    m["runtime.gc_s"] = gc_s
    m["runtime.gc_collections"] = gc_n
    m["trace.overhead_s"] = statistics.median(res.overhead_s) if res.overhead_s else 0.0
    return m


UNITS = {"_calls": "count", "_cells": "count", "_misses": "count",
         "_collections": "count", "_ns": "ns", "_ratio": "ratio"}


def unit_of(name):
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "s")


# -- main ---------------------------------------------------------------------------


def run(workload, seed, seconds, trace):
    res = Result(workload, trace)
    if not trace:
        res.probe()
    if workload == "cold-verify":
        run_cold(res, seconds, trace)
    else:
        run_orbit(res, seed, seconds, trace)
    if not trace:
        res.probe(SETUP_PROBES - len(res.probes))
    return res


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="show that every output check rejects corrupted outputs")
    args = p.parse_args(argv)
    if not (SRC / "triality8" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.selftest:
        import selftest

        return selftest.main()
    if args.workload is None:
        p.error("--workload is required")

    backend = "gmpy2.mpq" if find_spec("gmpy2") else "fractions.Fraction"
    print(f"# triality8 benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    # every process of the run on one core, so that the speed samples the
    # parent takes between processes read the core the processes ran on
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    print(f"# backend={backend} python={platform.python_version()} "
          f"nproc={os.cpu_count()} cpu={cpu} reference_s={speed.REFERENCE_S}")
    res = run(args.workload, args.seed, args.seconds, args.trace)
    print(f"# inputs digest={res.digest} rounds={len(res.round_walls)} "
          f"attempted={res.attempted} failed={res.failed}")
    print("# round walls s: " + " ".join(f"{w:.3f}" for w in res.round_walls))
    print("# raw round walls s: " + " ".join(f"{w:.3f}" for w in res.raw_walls))
    if res.probes:
        print("# set-up probes s: " + " ".join(f"{w:.3f}" for w in res.probes))
        print("# raw set-up probes s: " + " ".join(f"{w:.3f}" for w in res.raw_probes))
    for e in res.errors:
        print(f"# check failed: {e}")
    if args.trace:
        micro = child("micro").result()
        metrics = {k: (v, unit_of(k)) for k, v in per_layer(res, micro).items()}
    else:
        values = end_to_end(res)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not res.errors,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
