"""Call spans around echodex's public functions, recorded from outside.

A Tracer replaces each listed function with a wrapper, in its defining
module and in every echodex module that imported it by name, so calls
made through any of those names are seen.  Each call records one span
(layer name, start, end, parent span, counts derived from the call's
arguments and result).  Private per-step helpers are not wrapped, so
the cost of tracing is per call, not per step.  Spans stay in memory;
`uninstall` restores the original functions.
"""

from dataclasses import dataclass, field
import functools
import importlib
import inspect
import math
import sys
import time


def _grid_points(region, grid):
    # Region.grid: a degenerate axis (lo == hi) contributes one coordinate
    return math.prod(1 if hi == lo else max(2, int(grid))
                     for lo, hi in zip(region.lo, region.hi))


# (layer, defining module, function names, counts from (bound args, result))
LAYERS = (
    ("core.orbit", "echodex.core", ("orbit",),
     lambda a, r: {"steps": int(a["n"])}),
    ("index.run_ensemble", "echodex.index", ("run_ensemble",),
     lambda a, r: {"ic_steps": r.count * (r.transient + r.horizon)}),
    ("index.cluster_asymptotics", "echodex.index", ("cluster_asymptotics",),
     lambda a, r: {"pair_steps": a["run"].count * (a["run"].count - 1) // 2
                   * int(r.diagnostics["window"])}),
    ("index.estimate_echo_index", "echodex.index", ("estimate_echo_index",), None),
    ("index.pullback_fibre", "echodex.index", ("pullback_fibre",),
     lambda a, r: {"point_steps": r.points.shape[0] * int(a["depth"])}),
    ("index.separatrix_bisect", "echodex.index", ("separatrix_bisect",), None),
    ("index.ensemble_to_csv", "echodex.index", ("ensemble_to_csv",),
     lambda a, r: {"rows": a["run"].count * (a["run"].horizon + 1)}),
    ("training.init_reservoir", "echodex.training", ("init_reservoir",), None),
    ("training.teacher_forced_states", "echodex.training",
     ("teacher_forced_states",), lambda a, r: {"steps": r.shape[0] - 1}),
    ("training.ridge_readout", "echodex.training", ("ridge_readout",), None),
    ("training.closed_loop_eval", "echodex.training", ("closed_loop_eval",),
     lambda a, r: {"steps": r[1].n_steps}),
    ("contraction.region_check", "echodex.contraction",
     ("region_invariance_check", "region_contraction_check"),
     lambda a, r: {"points": _grid_points(a["region"], a["grid"])
                   * len(a["u_samples"])}),
    ("sequences.generate", "echodex.sequences",
     ("gen_two_symbol", "gen_uniform_scaled", "gen_context_task"), None),
    ("experiments.run_preset", "echodex.experiments", ("run_preset",), None),
)


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self._open = []
        self._patched = []

    def _wrap(self, layer, fn, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, 0.0, 0.0, self._open[-1] if self._open else -1)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result
        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "echodex" or name.startswith("echodex.")]
        for layer, module, names, counter in LAYERS:
            for name in names:
                orig = getattr(importlib.import_module(module), name, None)
                if orig is None:
                    self.missing.append(f"{module}.{name}")
                    continue
                traced = self._wrap(layer, orig, counter)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, traced)
                            self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_table(spans):
    """Per layer: calls, inclusive seconds, self seconds and summed counts.

    Self time is a span's duration minus that of its direct children.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.seconds
    table = {layer: {"calls": 0, "s": 0.0, "self_s": 0.0} for layer, *_ in LAYERS}
    for i, span in enumerate(spans):
        row = table[span.layer]
        row["calls"] += 1
        row["s"] += span.seconds
        row["self_s"] += span.seconds - child[i]
        for key, value in span.counts.items():
            row[key] = row.get(key, 0) + value
    return table


def layer_metrics(spans):
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    t = layer_table(spans)

    def count(layer, key):
        return t[layer].get(key, 0)

    def per(layer, key, scale):
        n = count(layer, key)
        return t[layer]["s"] / n * scale if n else 0.0

    rungs = sum(1 for s in spans if s.layer == "index.run_ensemble"
                and s.parent >= 0
                and spans[s.parent].layer == "index.estimate_echo_index")
    return {
        "core.orbit.steps": (count("core.orbit", "steps"), "count"),
        "core.orbit.step_us": (per("core.orbit", "steps", 1e6), "us"),
        "index.run_ensemble.calls": (t["index.run_ensemble"]["calls"], "count"),
        "index.run_ensemble.ic_steps": (count("index.run_ensemble", "ic_steps"), "count"),
        "index.run_ensemble.ic_step_us": (per("index.run_ensemble", "ic_steps", 1e6), "us"),
        "index.cluster_asymptotics.pair_steps":
            (count("index.cluster_asymptotics", "pair_steps"), "count"),
        "index.cluster_asymptotics.pair_step_ns":
            (per("index.cluster_asymptotics", "pair_steps", 1e9), "ns"),
        "index.estimate_echo_index.rungs": (rungs, "count"),
        "index.estimate_echo_index.s": (t["index.estimate_echo_index"]["s"], "s"),
        "index.pullback_fibre.point_steps":
            (count("index.pullback_fibre", "point_steps"), "count"),
        "index.pullback_fibre.point_step_us":
            (per("index.pullback_fibre", "point_steps", 1e6), "us"),
        "index.separatrix_bisect.s": (t["index.separatrix_bisect"]["s"], "s"),
        "index.ensemble_to_csv.rows": (count("index.ensemble_to_csv", "rows"), "count"),
        "index.ensemble_to_csv.row_us": (per("index.ensemble_to_csv", "rows", 1e6), "us"),
        "training.init_reservoir.s": (t["training.init_reservoir"]["s"], "s"),
        "training.teacher_forced_states.step_us":
            (per("training.teacher_forced_states", "steps", 1e6), "us"),
        "training.ridge_readout.s": (t["training.ridge_readout"]["s"], "s"),
        "training.closed_loop_eval.step_us":
            (per("training.closed_loop_eval", "steps", 1e6), "us"),
        "contraction.region_check.points":
            (count("contraction.region_check", "points"), "count"),
        "contraction.region_check.point_us":
            (per("contraction.region_check", "points", 1e6), "us"),
        "sequences.generate.s": (t["sequences.generate"]["s"], "s"),
        "experiments.run_preset.self_s": (t["experiments.run_preset"]["self_s"], "s"),
    }
