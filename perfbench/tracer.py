"""Outside-in tracer for the farfield layers.

`Tracer.install()` wraps every public function of each layer module and
patches the wrapper into every farfield module namespace that bound the
original by name (so `from .rationals import ipow_floor_log` in setmodels
and `from .setmodels import contains` in equivalence are counted), plus
`eval` on the seqlab scaling classes. Nothing under src/ changes; the
wrappers are removed again by `uninstall()`.

Each wrapped call records a span (name, start, end, parent span, job id)
in flat in-memory arrays. Self time is computed from the span nesting
after the run: a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("cli", "porosity", "equivalence", "line", "spectra", "seqlab",
          "pseudometric", "setmodels", "rationals")

SCALING_CLASSES = ("GeometricScaling", "PolynomialScaling",
                   "InterleaveScaling", "SubsequenceScaling",
                   "SpecDerivedScaling")


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = {}
        self.name_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.stack = []
        self.job_id = -1
        self.counters = Counter()
        self._patches = []

    # -------------------------------------------------------------------------
    # Recording

    def _wrap(self, name, fn, on_result=None):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.job_id)
            self.start.append(clock())
            self.end.append(0.0)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                stack.pop()
                self.end[span] = clock()
            if on_result is not None:
                on_result(self.counters, result)
            return result

        return wrapper

    def install(self):
        ff = {layer: sys.modules[f"farfield.{layer}"] for layer in LAYERS}
        originals = {}
        for layer, module in ff.items():
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                originals[id(value)] = (value, self._wrap(
                    name, value, RESULT_HOOKS.get(name)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "farfield" and not mod_name.startswith("farfield."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))
        seqlab = ff["seqlab"]
        for cls_name in SCALING_CLASSES:
            cls = getattr(seqlab, cls_name, None)
            if cls is None or "eval" not in vars(cls):
                continue
            original = vars(cls)["eval"]
            cls.eval = self._wrap("seqlab.scaling.eval", original)
            self._patches.append((cls, "eval", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -------------------------------------------------------------------------
    # Summaries

    def totals(self):
        """(calls, self seconds) by name, from the recorded span nesting."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        return calls, self_s

    def write_spans(self, path):
        """Spans as CSV: span, name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start,end,parent,job\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_of[i]]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f},"
                         f"{self.parent[i]},{self.job[i]}\n")


# -----------------------------------------------------------------------------
# Result hooks: counts that need the returned value


def _window_intervals(counters, result):
    counters["setmodels.window_structure.intervals"] += len(result.intervals)


def _porosity_result(counters, result):
    counters["porosity.horizons_probed"] += len(result.trace)
    counters["porosity.exact_results"] += result.kind == "exact"


_RUNGS = {"equivalent_exact": "exact", "not_equivalent": "witness",
          "equivalent_numerical": "numerical", "inconclusive": "inconclusive"}


def _rung(counters, result):
    counters[f"equivalence.rung.{_RUNGS.get(result.status, result.status)}"] \
        += 1


def _limit(counters, result):
    counters["seqlab.limits"] += 1
    counters["seqlab.exact_limits"] += result.status == "exact"


RESULT_HOOKS = {
    "setmodels.window_structure": _window_intervals,
    "porosity.porosity_at_infinity": _porosity_result,
    "equivalence.decide_strong_equivalence": _rung,
    "seqlab.tilde_d": _limit,
    "seqlab.d_r": _limit,
}
