"""Spans around the calls one ratingsde module makes into another.

`Tracer.install` replaces each traced function with a timing wrapper in
every ratingsde module namespace that binds it, since `from .x import y`
binds `y` in the importer and the caller looks it up there; it also
covers names a function imports in its own body, which read the defining
module's attribute at call time.  `uninstall` puts the originals back.

Each thread keeps its own stack of open spans.  A span opened on a worker
thread with an empty stack takes as parent the innermost span open on the
thread that created the tracer, which is waiting for that worker.
Spans are kept in memory; `layer_totals` reduces them after each op.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    layer: str
    start: float
    parent: int | None
    end: float = math.nan
    counts: dict[str, int] = field(default_factory=dict)


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _leading(shape) -> int:
    return math.prod(shape[:-2])


def _ssa_counts(fn, args, kwargs, result):
    states, default_time, _ = result
    return {"paths": states.shape[0],
            "defaults": int((default_time == default_time).sum())}  # not NaN


def _svg_bytes(fn, args, kwargs, result):
    return {"bytes": len(result)}


# (module, function) -> (layer, counts(fn, args, kwargs, result) or None)
TARGETS = {
    ("lie", "expm_batch"): (
        "lie.expm_batch", lambda f, a, k, r: {"matrices": _leading(r.shape)}),
    ("lie", "coeffs_to_matrices"): ("lie.coeffs_to_matrices", None),
    ("sde", "draw_noise"): (
        "sde.draw_noise", lambda f, a, k, r: {"streams": r.shape[0] * r.shape[2]}),
    ("sde", "simulate_paths"): (
        "sde.step", lambda f, a, k, r: {"traj_steps": r.m * r.grid.steps}),
    ("sde", "simulate_terminal"): (
        "sde.step",
        lambda f, a, k, r: {"traj_steps": r.shape[0] * _arg(f, a, k, "grid").steps}),
    ("sde", "simulate_paths_threaded"): ("sde.executor", None),
    ("ctmc", "_ssa_batch"): ("ctmc.ssa", _ssa_counts),
    ("ctmc", "piecewise_generators"): ("ctmc.piecewise_generators", None),
    ("ctmc", "sample_from_bundle"): ("ctmc.sample_from_bundle", None),
    ("ctmc", "empirical_transition"): ("ctmc.diagnostics", None),
    ("ctmc", "simulation_error"): ("ctmc.diagnostics", None),
    ("xva", "simulate_xva_paths"): ("xva.glue", None),
    ("xva", "simulate_portfolio"): ("xva.simulate_portfolio", None),
    ("xva", "compute_xva"): ("xva.compute_xva", lambda f, a, k, r: {"calls": 1}),
    ("xva", "xva_by_regime"): ("xva.glue", None),
    ("xva", "predefault_distribution"): ("xva.glue", None),
    ("calibrate", "rn_residual"): ("calibrate.residual", lambda f, a, k, r: {"calls": 1}),
    ("calibrate", "calibrate_risk_neutral"): ("calibrate.solver", None),
    ("calibrate", "property_report"): ("calibrate.property_report", None),
    ("svgplot", "trajectory_fans"): ("svgplot", _svg_bytes),
    ("svgplot", "entry_histograms"): ("svgplot", _svg_bytes),
    ("svgplot", "occupancy_plot"): ("svgplot", _svg_bytes),
    ("svgplot", "predefault_bars"): ("svgplot", _svg_bytes),
    ("matio", "read_rating_csv"): ("matio", None),
    ("matio", "write_rating_csv"): ("matio", None),
    ("matio", "read_params_csv"): ("matio", None),
    ("matio", "write_params_csv"): ("matio", None),
    ("matio", "read_pd_csv"): ("matio", None),
}


class Tracer:
    def __init__(self):
        self.spans: dict[int, Span] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[int]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def open(self, layer: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            home = self._stacks.get(self._home)
            parent = home[-1] if home and stack is not home else None
        with self._lock:
            sid = next(self._ids)
            self.spans[sid] = Span(layer, time.perf_counter(), parent)
        stack.append(sid)
        return sid

    def close(self, sid: int, counts: dict[str, int] | None = None) -> None:
        span = self.spans[sid]
        span.end = time.perf_counter()
        if counts:
            span.counts = counts
        if self._stack().pop() != sid:
            raise RuntimeError("spans closed out of order")

    def _wrap(self, fn, layer, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(sid, None if count is None or result is None
                           else count(fn, args, kwargs, result))
        return traced

    # -- installing wrappers ---------------------------------------------

    def install(self) -> None:
        import ratingsde  # noqa: F401  (loads every module below)

        modules = [m for name, m in sys.modules.items()
                   if name == "ratingsde" or name.startswith("ratingsde.")]
        for (mod, name), (layer, count) in TARGETS.items():
            fn = getattr(sys.modules[f"ratingsde.{mod}"], name)
            traced = self._wrap(fn, layer, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, attr, fn))
                        setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reduction --------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: summed self time ("self_s") and summed counts.

        A span's self time is its duration minus the part of its interval
        covered by its child spans (children on different threads overlap,
        so the union is taken).
        """
        children: dict[int, list[Span]] = {}
        for span in self.spans.values():
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: dict[str, dict[str, float]] = {}
        for sid, span in self.spans.items():
            covered, reach = 0.0, span.start
            for c in sorted(children.get(sid, []), key=lambda s: s.start):
                lo, hi = max(c.start, reach), min(c.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            entry = totals.setdefault(span.layer, {"self_s": 0.0, "spans": 0})
            entry["self_s"] += (span.end - span.start) - covered
            entry["spans"] += 1
            for key, value in span.counts.items():
                entry[key] = entry.get(key, 0) + value
        return totals

    def child_count(self, parent_layer: str, child_layer: str) -> int:
        """Spans of child_layer whose parent is a span of parent_layer."""
        return sum(1 for s in self.spans.values()
                   if s.layer == child_layer and s.parent is not None
                   and self.spans[s.parent].layer == parent_layer)

    def clear(self) -> None:
        self.spans.clear()
