"""Run-time spans around the package's public functions, and the per-layer metrics.

The tracer replaces each traced function on every `cellfree_ee.*` module that
holds the same function object, so calls made through a module's own imports
are caught too. A name the package does not define is skipped: its span is
absent, the run goes on. Spans stay in memory with the index of their parent;
a span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from cellfree_ee.reports import STATUS_CONVERGED, STATUS_INFEASIBLE

# Module (layer) -> public functions wrapped in that layer.
TRACED = {
    "propagation": ("generate_topology", "large_scale_fading", "mmse_stats"),
    "zfstats": ("estimate_zf_statistics", "validate_sinr"),
    "power": ("make_power_params", "equal_power_allocation", "per_user_rate", "energy_efficiency"),
    "inner": ("feasible_point", "solve_inner"),
    "dinkelbach": ("solve_pce",),
    "sca": ("solve_ipce",),
    "harness": ("run_point", "write_outputs"),
}
OP_SPAN = "op"


def _nonconverged(status: str) -> int:
    return int(status not in (STATUS_CONVERGED, STATUS_INFEASIBLE))


def _outer_counts(result) -> dict:
    report = result[1]
    return {
        "outer": report.outer_iterations,
        "nonconverged": _nonconverged(report.status),
        "minorant": report.minorant_violations,
        "ascent": report.ascent_violations,
    }


# Counters read from return values, so they repeat exactly for given inputs.
COUNTERS = {
    "estimate_zf_statistics": lambda zf: {
        "draws": zf.n_realizations + zf.n_rejected,
        "rejected": zf.n_rejected,
    },
    "solve_inner": lambda result: {
        "newton": result[1].iterations,
        "nonconverged": int(result[1].status != STATUS_CONVERGED),
    },
    "solve_pce": _outer_counts,
    "solve_ipce": _outer_counts,
}


@dataclass
class Span:
    name: str
    layer: str
    op: int
    parent: int  # index of the enclosing span, -1 at the root
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while installed; `uninstall` restores the package."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._op = -1
        self._patches: list = []

    def install(self) -> None:
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == "cellfree_ee" or name.startswith("cellfree_ee."))]
        for layer, names in TRACED.items():
            try:
                home = importlib.import_module(f"cellfree_ee.{layer}")
            except ImportError:
                continue
            for name in names:
                original = getattr(home, name, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(name, layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, self._op, parent, time.perf_counter()))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, layer: str, function):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = self._open(name, layer)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.spans[index].counts = counter(result)
            return result

        traced.__wrapped__ = function
        return traced

    @contextmanager
    def op(self, index: int):
        """Root span of one op; every span opened inside belongs to it."""
        self._op = index
        span = self._open(OP_SPAN, "harness")
        try:
            yield
        finally:
            self._close(span)

    def self_times(self) -> np.ndarray:
        own = np.array([s.duration for s in self.spans])
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-layer metrics as name -> (value, unit).

    `*_ms` of a named function is its mean inclusive time per call; a bare
    layer `.ms` and `harness.self_ms`/`harness.csv_ms` are self times per op;
    `self_ms` of a solver is its mean self time per call; failure counters and
    `*_calls` are per op. A layer the workload never calls reads 0.
    """
    spans = tracer.spans
    own = tracer.self_times()
    per_op = 1.0 / max(n_ops, 1)

    def pick(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def mean_ms(idx, values=None):
        values = [spans[i].duration for i in idx] if values is None else values
        return 1e3 * float(np.mean(values)) if idx else 0.0

    def total(idx, key):
        return sum(spans[i].counts.get(key, 0) for i in idx)

    def ratio(num, den):
        return num / den if den else 0.0

    est, val = pick("estimate_zf_statistics"), pick("validate_sinr")
    feas, inner = pick("feasible_point"), pick("solve_inner")
    pce, ipce = pick("solve_pce"), pick("solve_ipce")
    points, csv_writes = pick("run_point"), pick("write_outputs")
    est_s = sum(spans[i].duration for i in est)
    inner_s = sum(spans[i].duration for i in inner)
    draws, newton = total(est, "draws"), total(inner, "newton")
    point_ms = [1e3 * spans[i].duration for i in points]

    def layer_self_ms(layer, names=None):
        return 1e3 * per_op * sum(
            own[i] for i, s in enumerate(spans) if s.layer == layer and (names is None or s.name in names)
        )

    return {
        "zfstats.estimate_ms": (mean_ms(est), "ms"),
        "zfstats.draws_per_s": (ratio(draws, est_s), "1/s"),
        "zfstats.reject_ratio": (ratio(total(est, "rejected"), draws), "ratio"),
        "zfstats.estimate_calls": (per_op * len(est), "count/op"),
        "zfstats.validate_ms": (mean_ms(val), "ms"),
        "inner.feasible_point_ms": (mean_ms(feas), "ms"),
        "inner.solve_inner_ms": (mean_ms(inner), "ms"),
        "inner.solve_inner_calls": (per_op * len(inner), "count/op"),
        "inner.newton_per_solve": (ratio(newton, len(inner)), "count/call"),
        "inner.ms_per_newton": (1e3 * ratio(inner_s, newton), "ms"),
        "inner.nonconverged": (per_op * total(inner, "nonconverged"), "count/op"),
        "dinkelbach.self_ms": (mean_ms(pce, [own[i] for i in pce]), "ms"),
        "dinkelbach.outer_iters": (ratio(total(pce, "outer"), len(pce)), "count/call"),
        "dinkelbach.nonconverged": (per_op * total(pce, "nonconverged"), "count/op"),
        "sca.self_ms": (mean_ms(ipce, [own[i] for i in ipce]), "ms"),
        "sca.outer_iters": (ratio(total(ipce, "outer"), len(ipce)), "count/call"),
        "sca.nonconverged": (per_op * total(ipce, "nonconverged"), "count/op"),
        "sca.minorant_violations": (per_op * total(ipce, "minorant"), "count/op"),
        "sca.ascent_violations": (per_op * total(ipce, "ascent"), "count/op"),
        "propagation.ms": (layer_self_ms("propagation"), "ms"),
        "power.ms": (layer_self_ms("power"), "ms"),
        "harness.run_point_ms_p50": (float(np.percentile(point_ms, 50)) if points else 0.0, "ms"),
        "harness.run_point_ms_p90": (float(np.percentile(point_ms, 90)) if points else 0.0, "ms"),
        "harness.self_ms": (layer_self_ms("harness", (OP_SPAN, "run_point")), "ms"),
        "harness.csv_ms": (1e3 * per_op * sum(spans[i].duration for i in csv_writes), "ms"),
    }
