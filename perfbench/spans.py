"""Per-module tracing from outside the program.

``Tracer.install`` wraps public functions of each triality8 module and
rebinds every module attribute that named the original, so a call made
through ``from .clifford import kappa_form`` is seen as well.  Each call
is a span; spans are aggregated in memory (calls, total, self time, max)
and handed out by ``report`` when the run ends.  Self time is a span's
time minus the time of the spans it caused.  Scalar operations are
counted by patching the field classes, and garbage collection is timed
through ``gc.callbacks``.  A tracer can be installed again after
``uninstall``; its spans and counts then add up.
"""

from __future__ import annotations

import gc
import inspect
import sys
import time
from fractions import Fraction

# module -> public functions to span (every public function the module
# defines, except bitmask helpers that run millions of times per second)
_SKIP = {
    "exterior": {"mask_of", "indices_of", "grade", "blades_of_grade"},
}
# class methods to span, as module -> {class: methods}
_METHODS = {
    "exterior": {"Multivector": ("wedge", "act2", "contract", "star")},
    "orbits": {"BracketTable": ("jacobi_holds", "killing_form")},
}
MODULES = ("linalg", "clifford", "exterior", "orbits", "structures", "torsion",
           "frames", "obstructions", "claims", "cli")
WIDE = 64  # rref of a matrix with at least this many columns is "wide"


class Tracer:
    def __init__(self):
        self.stats = {}     # span name -> [calls, total_s, self_s, max_s]
        self.counts = {}    # counter name -> int
        self._stack = []    # time covered by child spans, per open span
        self._gc = [0.0, 0, None]  # seconds, collections, start time
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if dt > stats[3]:
                    stats[3] = dt
                if stack:
                    stack[-1] += dt

        span.__wrapped__ = fn
        return span

    def count(self, name, fn, step=None):
        """Wrap fn so that each call adds 1 (or step(*args)) to a counter."""
        counts = self.counts
        counts.setdefault(name, 0)
        if step is None:
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        else:
            def counted(*args, **kwargs):
                counts[name] += step(*args, **kwargs)
                return fn(*args, **kwargs)
        return counted

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import triality8  # noqa: F401 - loads every module below
        from triality8 import claims, cli  # noqa: F401
        from triality8 import scalars

        mods = {m: sys.modules[f"triality8.{m}"] for m in MODULES}
        replace = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or attr in _SKIP.get(short, ()):
                    continue
                if not callable(fn) or inspect.isclass(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                replace[id(fn)] = self._wrap_function(short, attr, fn)
        # the blade cache: kappa_form looks up one blade per term and builds
        # a missing one with _kappa_blade (both are internals; when they are
        # gone the counters read 0)
        clifford = mods["clifford"]
        if hasattr(clifford, "_kappa_blade") and id(clifford.kappa_form) in replace:
            replace[id(clifford._kappa_blade)] = self.count(
                "clifford.blade_misses", clifford._kappa_blade)
            replace[id(clifford.kappa_form)] = self.count(
                "clifford.blade_lookups", replace[id(clifford.kappa_form)],
                lambda alpha: len(getattr(alpha, "terms", ())))
        # rebind in every module that holds a reference to an original
        for mod in [sys.modules[n] for n in list(sys.modules)
                    if n == "triality8" or n.startswith("triality8.")]:
            for attr, val in list(vars(mod).items()):
                w = replace.get(id(val))
                if w is not None:
                    self._set(mod, attr, w)
        for short, classes in _METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(mods[short], cls_name)
                for meth in methods:
                    self._set(cls, meth, self.wrap(f"{short}.{meth}", getattr(cls, meth)))
        self._count_scalars(scalars)
        gc.callbacks.append(self._on_gc)

    def _wrap_function(self, short, attr, fn):
        if (short, attr) != ("linalg", "rref"):
            return self.wrap(f"{short}.{attr}", fn)
        wide = self.wrap("linalg.rref_wide", fn)
        narrow = self.wrap("linalg.rref_narrow", fn)
        counts = self.counts
        counts.setdefault("linalg.rref_cells", 0)

        def rref(A):
            cols = len(A[0]) if A else 0
            counts["linalg.rref_cells"] += len(A) * cols
            return (wide if cols >= WIDE else narrow)(A)

        return rref

    def _count_scalars(self, scalars):
        S, C = scalars.Scalar, scalars.CScalar
        for cls, attrs, name in (
            (S, ("__mul__", "__rmul__"), "scalars.mul_calls"),
            (S, ("__add__", "__radd__", "__sub__"), "scalars.add_calls"),
            (S, ("inverse",), "scalars.inv_calls"),
            (S, ("__init__",), "scalars.new_calls"),
            (C, ("__mul__", "__rmul__"), "scalars.cmul_calls"),
        ):
            wrapped = {}
            for a in attrs:
                fn = cls.__dict__[a]
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.count(name, fn)
                self._set(cls, a, wrapped[id(fn)])

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc[2] = time.perf_counter()
        elif self._gc[2] is not None:
            self._gc[0] += time.perf_counter() - self._gc[2]
            self._gc[1] += 1
            self._gc[2] = None

    def uninstall(self):
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    # -- output --------------------------------------------------------------

    def report(self):
        return {
            "spans": {k: v for k, v in self.stats.items() if v[0]},
            "counts": dict(self.counts),
            "gc_s": self._gc[0],
            "gc_collections": self._gc[1],
        }


def microbench():
    """Nanoseconds per multiply of fixed operands: Scalar, CScalar and the
    plain Fraction that Scalar is built on (the base of the ratio)."""
    from triality8.scalars import CScalar, Scalar

    x, y = Scalar(Fraction(3, 7), Fraction(2, 5)), Scalar(Fraction(5, 11), Fraction(-1, 3))
    cx, cy = CScalar(x, y), CScalar(y, x)
    fx, fy = Fraction(3, 7), Fraction(5, 11)
    out = {}
    for name, a, b in (("scalars.mul_ns", x, y), ("scalars.cmul_ns", cx, cy),
                       ("scalars.fraction_mul_ns", fx, fy)):
        best = None
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(2000):
                a * b
            dt = (time.perf_counter() - t0) / 2000 * 1e9
            best = dt if best is None or dt < best else best
        out[name] = best
    return out
