"""Preset experiments: data-producing runs with built-in assertions.

Each preset resolves a config (defaults + overrides, each in its
default's type, unknown keys rejected), runs, and returns an
ExperimentResult holding a summary, a list of named pass/fail
assertions, and the files written.  Every run with an output
directory also writes a manifest capturing the fully resolved config;
re-running from the manifest at the same BLAS thread count reproduces
every output byte for byte (no timestamps, one CSV writer with lossless
floats, committed seeds).  context_task's ridge readout rounds
differently under another thread count.
"""

from collections import Counter
from copy import deepcopy
from dataclasses import dataclass, replace
from functools import partial
import json
import math
from operator import itemgetter
from pathlib import Path

import numpy as np

from .contraction import (Region, _region_certificate, large_input_radius,
                          strip_bounds_closed_form)
# orbit is not called here; the benchmark's tracer (bench/spans.py)
# patches it under this module's name
from .core import ConfigurationError, _orbits, orbit
from .index import (IndexProtocol, _divergence_step, _run_ensembles,
                    ensemble_to_csv, estimate_echo_index, estimate_echo_indices,
                    pullback_fibre, run_ensemble, separatrix_bisect)
from .presets import (KloedenSystem, context_reservoir, scalar_params,
                      switching_inputs, switching_params)
from .sequences import (_kind, d_prod, gen_context_task, gen_two_symbol,
                        gen_uniform_scaled, json_text, splice_large_input,
                        write_csv, write_member_csv)
from .training import (ReservoirConfig, TrainedModel, closed_loop_eval, nrmse,
                       pca_project, ridge_readout, save_model,
                       teacher_forced_states)


@dataclass(frozen=True)
class Assertion:
    """One named pass/fail claim checked inside a preset run."""

    name: str
    ok: bool
    detail: str

    def to_dict(self):
        return {"name": self.name, "ok": bool(self.ok), "detail": self.detail}


@dataclass(frozen=True)
class ExperimentResult:
    preset: str
    config: dict
    assertions: list
    summary: dict
    outputs: dict

    @property
    def ok(self):
        return all(a.ok for a in self.assertions)

    def failures(self):
        return [a.to_dict() for a in self.assertions if not a.ok]


# Per-preset defaults; the benchmark constants live in presets.py, these
# are the run-shape knobs.  Override keys must come from this table.
# input_first fixes where a realization's stream starts; a run draws it
# only as far as it reads (the ladder's IndexProtocol.reach, or further
# for a longer orbit), so no knob sets the window's end.
DEFAULTS = {
    "kloeden": {
        "a": 1.5, "ics": 11, "k_start": -10, "k_end": 25,
        "fibre_depth": 35, "fibre_depth_deep": 60,
    },
    "switching2d": {
        "p": 0.5, "ic_count": 30, "transients": [200, 400],
        "horizon": 120, "window": 100, "cluster_tol": 1e-3,
        "mu": 0.999, "grid": 33, "fibre_depth": 80, "fibre_depth_deep": 200,
        "sep_horizon": 600, "input_first": -300,
    },
    "scalar_sweep": {
        "w_list": [0.0006, 0.01, 0.05], "n_seeds": 5, "ic_count": 30,
        "transients": [20000, 40000], "horizon": 120, "window": 100,
        "cluster_tol": 1e-3, "input_first": -100,
        "sample_ics": 10, "sample_steps": 2000,
    },
    "fold_bisect": {
        "tolerance": 1e-6, "w_lo": 0.0, "w_hi": 0.002,
        "max_steps": 30000, "escape_threshold": 0.05,
    },
    "splice_demo": {
        "m_list": [5, 10, 20], "w": 0.0006, "half_width": 40,
        "epsilon": 1.0, "mu": 0.5, "ic_count": 30,
        "transients": [20000, 40000], "horizon": 120, "window": 100,
        "cluster_tol": 1e-3, "input_first": -100,
    },
    "context_task": {
        "n_r": 200, "train_len": 6000, "test_len": 3000, "washout": 200,
        "pulse_prob": 0.01, "noise_std": 0.05, "ridge_lambda": 0.7,
        "spectral_radius": 0.9, "sparsity": 0.95, "weight_range": 1.0,
        "exclusion": 20, "ic_count": 100, "transients": [400, 800],
        "horizon": 120, "window": 100, "cluster_tol": 1e-3,
    },
}

# Committed seeds: fixed input/weight realizations for which the preset
# assertions were verified; --seed explores other realizations.
DEFAULT_SEEDS = {
    "kloeden": 0,
    "switching2d": 0,
    "scalar_sweep": 1,
    "fold_bisect": 0,
    "splice_demo": 1,
    "context_task": 0,
}


def resolve_config(preset, seed=None, overrides=None):
    """Merge defaults with overrides, each cast to its default's type (a
    list element by element), so runners read every value as is.
    Unknown keys or presets are errors, and so is an override of another
    _kind than its default's, a non-integral number for an int (or
    list-of-int) key, or a number its default's type cannot hold (an int
    key's, or a list-of-int element's, beyond int64)."""
    if preset not in DEFAULTS:
        raise KeyError(f"unknown preset {preset!r}; choose from "
                       f"{sorted(DEFAULTS)}")
    cfg = deepcopy(DEFAULTS[preset])
    for key, value in (overrides or {}).items():
        if key not in cfg:
            raise KeyError(f"unknown config key {key!r} for preset {preset!r}; "
                           f"valid keys: {sorted(cfg)}")
        default = cfg[key]
        if _kind(value) != _kind(default):
            raise ValueError(f"config key {key!r} of preset {preset!r} takes "
                             f"a {_kind(default)}, got {value!r}")
        cast = type(default[0] if isinstance(default, list) else default)
        try:
            if cast is int and not np.all(np.mod(value, 1) == 0):
                raise ValueError(f"config key {key!r} of preset {preset!r} "
                                 f"takes integers, got {value!r}")
            cfg[key] = (list(map(cast, value)) if isinstance(default, list)
                        else cast(value))
            if cast is int:  # every int the runners read fits an int64
                np.array(cfg[key], dtype=np.int64)  # else OverflowError
        except OverflowError:
            kind = "an int" if cast is int else "a float"
            raise ValueError(f"config key {key!r} of preset {preset!r} takes "
                             f"{kind}, got {value!r}, out of its "
                             "range") from None
    cfg["seed"] = int(DEFAULT_SEEDS[preset] if seed is None else seed)
    return cfg


def _bisect(on_hi_side, lo, hi, tol=0.0):
    """Halve [lo, hi] (on_hi_side false at lo, true at hi) until it is at
    most tol wide or its ends are adjacent floats; returns (lo, hi)."""
    while hi - lo > tol and lo < (lo + hi) / 2.0 < hi:
        mid = (lo + hi) / 2.0
        lo, hi = (lo, mid) if on_hi_side(mid) else (mid, hi)
    return lo, hi


def _root(fn, lo, hi):
    """A float within one ulp of a sign change of fn in [lo, hi]."""
    up = fn(hi) > 0
    if (fn(lo) > 0) == up:
        raise ValueError(f"no sign change on [{lo!r}, {hi!r}]")
    return _bisect(lambda x: (fn(x) > 0) == up, lo, hi)[1]


def _scan_roots(fn):
    """All simple roots of fn on [-0.9999, 0.9999] via sign changes at
    4001 points + bisection."""
    xs = np.linspace(-0.9999, 0.9999, 4001)
    vals = np.array([fn(x) for x in xs.tolist()])
    return [_root(fn, float(xs[i]), float(xs[i + 1]))
            for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)]


# ----------------------------------------------------------------------
# kloeden
# ----------------------------------------------------------------------

def _run_kloeden(cfg, out):
    if cfg["ics"] < 1:
        raise ConfigurationError(f"ics must be >= 1, got {cfg['ics']}: the "
                                 "run would check no trajectory")
    if cfg["ics"] % 2 == 0:
        raise ConfigurationError(f"ics must be odd, got {cfg['ics']}: only an "
                                 "odd count of ICs on [-1, 1] holds x = 0, so "
                                 "zero-ic-fixed would check nothing")
    a, k0, k1 = cfg["a"], cfg["k_start"], cfg["k_end"]
    system = KloedenSystem(a)
    ics = np.linspace(-1.0, 1.0, cfg["ics"])

    runs = run_ensemble(system, system.arrival_sequence(k0, k1), ics, 0, k1 - k0,
                        anchor=k0).trajectories[:, :, 0]
    root = _root(lambda x: x - math.tanh(a * x / (1.0 + abs(x))), 0.1, 0.9999)

    # zero is a fixed point of every component map, so it must hold exactly
    zero_rows = np.flatnonzero(ics == 0.0)
    zero_ok = all(np.all(runs[i] == 0.0) for i in zero_rows)

    finals = runs[:, -1]
    nonzero = ics != 0.0
    end_err = np.abs(np.abs(finals[nonzero]) - root)
    ends_ok = bool(np.all(end_err < 1e-3))

    # arrivals at k < 0 use the past drive 1/a < 1 and contract to 0
    past = runs[:, : -k0]
    past_ok = bool(np.all(np.diff(np.abs(past), axis=1) <= 0.0))

    depth, deep = cfg["fibre_depth"], cfg["fibre_depth_deep"]
    seq = system.arrival_sequence(-max(depth, deep), 0)
    fibre = pullback_fibre(system, seq, n=0, depth=depth)
    fibre_deep = pullback_fibre(system, seq, n=0, depth=deep)

    assertions = [
        Assertion("zero-ic-fixed", zero_ok, "x=0 stays exactly 0"),
        Assertion("ends-at-roots", ends_ok,
                  f"max |final - root| = {float(end_err.max()):.3g} < 1e-3"),
        Assertion("past-contraction", past_ok,
                  "|x| non-increasing while the drive is 1/a (k < 0)"),
        Assertion("fibre-collapse", fibre.final_diameter < 1e-6,
                  f"depth {depth} fibre diameter {fibre.final_diameter:.3g} < 1e-6"),
        Assertion("fibre-collapse-deep", fibre_deep.final_diameter < 1e-8,
                  f"depth {deep} fibre diameter {fibre_deep.final_diameter:.3g} < 1e-8"),
    ]
    summary = {
        "a": a, "root": root,
        "final_states": finals.tolist(),
        "fibre_diameter": fibre.final_diameter,
        "fibre_diameter_deep": fibre_deep.final_diameter,
    }
    outputs = {}
    if out is not None:
        path = out / "trajectories.csv"
        write_member_csv(path, "ic_id,k,x", range(k0, k1 + 1), runs)
        outputs["trajectories"] = str(path)
    return summary, assertions, outputs


# ----------------------------------------------------------------------
# switching2d
# ----------------------------------------------------------------------

def _coordinate_map(alpha, w, c):
    return lambda x: (1.0 - alpha) * x + alpha * math.tanh(w * x + c) - x


def _switching_fixed_points(params, u):
    """Per-coordinate fixed points of one component map, with stability.

    The map is diagonal, so fixed points are products of 1-D roots; the
    middle x2 root has a > 1 slope in x2, making it the saddle row.
    """
    alpha = params.alpha
    w1, w2 = (float(w) for w in np.diag(params.w_r))
    pts = []
    roots1 = _scan_roots(_coordinate_map(alpha, w1, u[0]))
    roots2 = _scan_roots(_coordinate_map(alpha, w2, u[1]))
    for r2 in sorted(roots2):
        slope2 = 1.0 - alpha + alpha * w2 * (1.0 - math.tanh(w2 * r2 + u[1]) ** 2)
        for r1 in roots1:
            pts.append({"x": [r1, r2],
                        "kind": "saddle" if slope2 > 1.0 else "node"})
    return pts


def _protocol(cfg, ic_seed=0):
    """IndexProtocol from a preset's ladder keys: one rung of ic_count
    ICs per transient."""
    return IndexProtocol(
        ic_counts=(cfg["ic_count"],) * len(cfg["transients"]),
        transients=tuple(cfg["transients"]), horizon=cfg["horizon"],
        window=cfg["window"], cluster_tol=cfg["cluster_tol"], ic_seed=ic_seed)


def _run_switching2d(cfg, out):
    params = switching_params()
    u1, u2 = switching_inputs()
    seed, tol, sep_horizon = cfg["seed"], cfg["cluster_tol"], cfg["sep_horizon"]

    protocol = _protocol(cfg, ic_seed=seed)
    seq = gen_two_symbol(u1, u2, cfg["p"], cfg["input_first"],
                         max(protocol.reach, sep_horizon), seed)
    # with --out, ensemble.csv holds the tails of the ladder's first rung
    report = estimate_echo_index(params, seq, protocol,
                                 keep_rung=None if out is None else 0)

    strip_plus = strip_bounds_closed_form(1)
    strip_minus = strip_bounds_closed_form(-1)

    r_plus = Region(lo=[-1.0, 0.55], hi=[1.0, 1.0])
    r_minus = Region(lo=[-1.0, -1.0], hi=[1.0, -0.55])
    mu, grid = cfg["mu"], cfg["grid"]
    depth, deep = cfg["fibre_depth"], cfg["fibre_depth_deep"]
    certs, fibres = {}, {}
    for name, region in (("R+", r_plus), ("R-", r_minus)):
        certs[name] = _region_certificate(params, region, [u1, u2], mu, grid)
        fb = pullback_fibre(params, seq, n=0, depth=depth, region=region)
        fb_deep = pullback_fibre(params, seq, n=0, depth=deep, region=region)
        fibres[name] = {"diameter": fb.final_diameter,
                        "diameter_deep": fb_deep.final_diameter,
                        "point": fb_deep.points.mean(axis=0).tolist()}

    # the deep fibre must land on the matching forward cluster: push its
    # endpoint to the ensemble tail time and compare representatives
    trace_ok, trace_detail = True, []
    if report.is_definite and report.index == 2:
        last_transient = report.diagnostics["rungs"][-1][1]
        t_end = last_transient + protocol.horizon
        names = ("R+", "R-")
        ends = _orbits(params, seq, [fibres[name]["point"] for name in names],
                       t_end)[:, -1]
        for name, state in zip(names, ends):
            side = 1.0 if name == "R+" else -1.0
            reps = [c.final_state for c in report.clusters
                    if np.sign(c.final_state[1]) == side]
            if not reps:
                trace_ok = False
                trace_detail.append(f"{name}: no cluster on this side")
                continue
            gap = min(float(np.linalg.norm(state - r)) for r in reps)
            trace_detail.append(f"{name}: {gap:.3g}")
            trace_ok = trace_ok and gap < tol
    else:
        trace_ok = False
        trace_detail = ["no definite index-2 report to compare against"]

    fixed_points = {"f1": _switching_fixed_points(params, u1),
                    "f2": _switching_fixed_points(params, u2)}
    x1_star = fixed_points["f1"][0]["x"][0]
    saddles = [p for p in fixed_points["f1"] if p["kind"] == "saddle"]

    # the map is diagonal, so the basin boundary's x2 does not depend on
    # x1: bisect at the saddle's x1 from R-'s outer face to R+'s
    sep = separatrix_bisect(params, seq, [x1_star, -1.0], [x1_star, 1.0],
                            horizon=sep_horizon, cluster_tol=tol)
    # commit times are only guaranteed monotone once the bracket sits in
    # the linear neighbourhood of the boundary; coarse early brackets see
    # nonlinear transients, so filter to widths below 1e-2
    escapes = sep.trace[:, 1] if sep.trace.size else np.zeros(0)
    near = sep.trace[sep.trace[:, 0] <= 1e-2, 1] if sep.trace.size else np.zeros(0)
    monotone = bool(near.size > 5 and np.all(np.diff(near) >= 0))

    # a pair exactly 1e-11 apart across the boundary, then the step at
    # which the two orbits tear apart toward different clusters
    direction = np.array([0.0, 1.0])
    pa = sep.boundary - 5e-12 * direction
    pb = sep.boundary + 5e-12 * direction
    sa, sb = _orbits(params, seq, [pa, pb], sep_horizon)
    div_step = _divergence_step(sa, sb, threshold=0.1)
    split_ok = (div_step is not None
                and float(np.linalg.norm(sa[-1] - sb[-1])) > 0.5)

    assertions = [
        Assertion("index-two", report.index == 2,
                  f"estimate_echo_index verdict {report.verdict()}"),
        Assertion("strip-bounds", abs(strip_plus[0] + 0.5390) <= 1e-3
                  and abs(strip_plus[1] - 0.3390) <= 1e-3,
                  f"strip {strip_plus} vs (-0.5390, 0.3390) within 1e-3"),
        Assertion("regions-invariant",
                  all(c["invariant"] for c in certs.values()),
                  "step images stay inside R+ and R- for both symbols"),
        Assertion("regions-contracting",
                  all(c["certified"] for c in certs.values()),
                  f"worst norms {[round(c['worst_norm'], 6) for c in certs.values()]}"
                  f" <= mu={mu}"),
        Assertion("fibre-pointlike",
                  all(f["diameter"] < 1e-4 for f in fibres.values()),
                  "depth-%d diameters %s < 1e-4" % (depth, ", ".join(
                      "%.3g" % f["diameter"] for f in fibres.values()))),
        Assertion("fibre-pointlike-deep",
                  all(f["diameter_deep"] < 1e-10 for f in fibres.values()),
                  "depth-%d diameters %s < 1e-10" % (deep, ", ".join(
                      "%.3g" % f["diameter_deep"] for f in fibres.values()))),
        Assertion("fibre-traces-cluster", trace_ok, "; ".join(trace_detail)),
        Assertion("separatrix-bracket", sep.width <= 1e-12,
                  f"bracket width {sep.width:.3g}"),
        Assertion("escape-monotone", monotone,
                  "escape times non-decreasing once bracket width <= 1e-2"),
        Assertion("straddle-tracks", div_step is not None and div_step >= 150,
                  f"pair at 1e-11 separation diverged at step {div_step}"),
        Assertion("straddle-splits", split_ok,
                  "straddling pair ends in different clusters"),
        Assertion("saddle-line", len(saddles) == 1
                  and abs(x1_star - 0.45) < 0.02,
                  f"f1 saddle at x1 = {x1_star:.6f}"),
    ]
    summary = {
        "index": report.verdict(),
        "min_separation": report.min_separation,
        "max_diameter": report.max_diameter,
        "strip_f1": list(strip_plus), "strip_f2": list(strip_minus),
        "certificates": certs, "fibres": fibres,
        "fixed_points": fixed_points,
        "separatrix": {"boundary": sep.boundary.tolist(),
                       "width": sep.width,
                       "iterations": int(sep.trace.shape[0]),
                       "final_escape_steps": (int(escapes[-1])
                                              if escapes.size else None),
                       "divergence_step": div_step},
    }
    outputs = {}
    if out is not None:
        path = out / "ensemble.csv"
        ensemble_to_csv(report.ensemble, path)
        outputs["ensemble"] = str(path)
    return summary, assertions, outputs


# ----------------------------------------------------------------------
# scalar sweep
# ----------------------------------------------------------------------

def _majority(indices):
    """Most common definite index if it wins an absolute majority."""
    definite = [i for i in indices if i is not None]
    if not definite:
        return None
    value, hits = Counter(definite).most_common(1)[0]
    return value if hits > len(indices) // 2 else None


# the sweep's known indices: w_list values outside it are reported, not
# checked
_SWEEP_EXPECTED = {0.0006: 2, 0.01: 1, 0.05: 1}


def _run_scalar_sweep(cfg, out):
    # refused before any work: each would run and check nothing
    if cfg["n_seeds"] < 1:
        raise ConfigurationError(f"n_seeds must be >= 1, got {cfg['n_seeds']}")
    if not set(cfg["w_list"]) & set(_SWEEP_EXPECTED):
        raise ConfigurationError(
            f"w_list {cfg['w_list']} holds none of the scales with a known "
            f"index {sorted(_SWEEP_EXPECTED)}: the sweep would check nothing")
    params = scalar_params()
    seed, w_list, n_seeds = cfg["seed"], cfg["w_list"], cfg["n_seeds"]
    first = cfg["input_first"]
    protocol_base = _protocol(cfg)

    gen_seeds = [seed + r for r in range(n_seeds)]
    seqs = [gen_uniform_scaled(w, first, protocol_base.reach, s)
            for w in w_list for s in gen_seeds]
    reports = estimate_echo_indices(params, seqs, protocol_base,
                                    ic_seeds=gen_seeds * len(w_list))
    del seqs  # release the inputs before the CSV stage allocates its rows

    table, majorities, switching_votes = [], [], []
    for wi, w in enumerate(w_list):
        verdicts, switch = [], 0
        for r in range(n_seeds):
            rep = reports[wi * n_seeds + r]
            verdicts.append(rep.index)
            flagged = bool(rep.diagnostics.get("switching_tails"))
            switch += flagged
            table.append({"w": w, "gen_seed": seed + r,
                          "index": rep.verdict(),
                          "min_separation": rep.min_separation,
                          "max_diameter": rep.max_diameter,
                          "max_tail_std": max(rep.diagnostics["tail_std"]),
                          "switching_tails": flagged})
        majorities.append(_majority(verdicts))
        switching_votes.append(switch)

    assertions = []
    for wi, w in enumerate(w_list):
        want = _SWEEP_EXPECTED.get(w)
        if want is None:
            continue
        assertions.append(Assertion(
            f"index-w={w:g}", majorities[wi] == want,
            f"majority over {n_seeds} seeds = {majorities[wi]} (want {want})"))
    if 0.01 in w_list:
        wi = w_list.index(0.01)
        assertions.append(Assertion(
            "switching-flag-w=0.01", switching_votes[wi] > n_seeds // 2,
            f"{switching_votes[wi]}/{n_seeds} seeds flag a wandering tail"))

    summary = {"majorities": {f"{w:g}": majorities[i]
                              for i, w in enumerate(w_list)},
               "per_seed": table}
    outputs = {}
    if out is not None:
        path = out / "sweep_results.csv"
        cols = ("w", "gen_seed", "index", "min_separation", "max_diameter",
                "max_tail_std", "switching_tails")
        write_csv(path, ",".join(cols), "%g,%d,%s,%.17g,%.17g,%.17g,%d",
                  map(itemgetter(*cols), table))
        outputs["sweep_results"] = str(path)
        steps = cfg["sample_steps"]
        samples = _run_ensembles(
            params, [gen_uniform_scaled(w, first, steps, seed) for w in w_list],
            cfg["sample_ics"], transient=0, horizon=steps, ic_seed=seed)
        for w, run in zip(w_list, samples):
            sample = out / f"sample_w{w:g}.csv"
            ensemble_to_csv(run, sample)
            outputs[f"sample_w{w:g}"] = str(sample)
    return summary, assertions, outputs


# ----------------------------------------------------------------------
# fold bisect
# ----------------------------------------------------------------------

def _fold_analytic(slope):
    """Fold of x -> tanh(slope x + c): slope-1 point, then |c| there."""
    x_star = math.sqrt(1.0 - 1.0 / slope)
    return x_star, slope * x_star - math.atanh(x_star)


def _escapes_basin(slope, w, max_steps, threshold):
    """Constant input +w from x0 = -1: does the orbit of
    x -> tanh(slope x + w) cross to x > 0?

    Below the fold value the negative attractor persists and the orbit
    stays negative; above it the orbit crawls through the ghost and
    escapes, taking ~ delta^(-1/2) steps near the fold.
    """
    x = -1.0
    for _ in range(max_steps):
        x = math.tanh(slope * x + w)
        if x > threshold:
            return True
    return False


def _run_fold_bisect(cfg, out):
    slope = float(scalar_params().w_r[0, 0])
    x_star, c_star = _fold_analytic(slope)
    tol, lo, hi = cfg["tolerance"], cfg["w_lo"], cfg["w_hi"]
    cap, thresh = cfg["max_steps"], cfg["escape_threshold"]
    escapes = partial(_escapes_basin, slope, max_steps=cap, threshold=thresh)
    if escapes(lo) or not escapes(hi):
        raise ValueError("bisection bracket does not straddle the fold")
    lo, hi = _bisect(escapes, lo, hi, tol)
    estimate = (lo + hi) / 2.0

    assertions = [
        Assertion("analytic-band", 0.00060 <= c_star <= 0.00075,
                  f"|c*| = {c_star:.8f} in [0.00060, 0.00075]"),
        Assertion("bisection-agrees", abs(estimate - c_star) <= 1e-5,
                  f"bisection {estimate:.8f} vs analytic {c_star:.8f}"),
    ]
    summary = {"x_star": x_star, "c_star_abs": c_star,
               "bisection": estimate, "bracket": [lo, hi]}
    return summary, assertions, {}


# ----------------------------------------------------------------------
# splice demo
# ----------------------------------------------------------------------

def _run_splice_demo(cfg, out):
    if not cfg["m_list"]:
        raise ConfigurationError("m_list is empty: the run would check no "
                                 "spliced input")
    if len(cfg["m_list"]) < 2 or 0 in np.diff(cfg["m_list"]):
        raise ConfigurationError(
            f"m_list {cfg['m_list']} needs two or more values, no two neighbours "
            "equal: dprod-halves checks the decay between neighbours")
    params = scalar_params()
    seed, m_list = cfg["seed"], cfg["m_list"]
    protocol = _protocol(cfg, ic_seed=seed)
    base = gen_uniform_scaled(cfg["w"], cfg["input_first"], protocol.reach,
                              seed)

    admissible = large_input_radius(params, cfg["epsilon"], cfg["mu"])
    far = admissible.far_value()

    spliced = [splice_large_input(base, m, far, admissible=admissible)
               for m in m_list]
    base_report, *reports = estimate_echo_indices(params, [base] + spliced,
                                                  protocol)
    table = [{"m": m, "index": rep.verdict(),
              "d_prod": d_prod(base, seq, cfg["half_width"])}
             for m, seq, rep in zip(m_list, spliced, reports)]

    beyond = max(abs(base.first), abs(base.last)) + 1
    identity = splice_large_input(base, beyond, far, admissible=admissible)

    ratios = []
    for prev, cur in zip(table, table[1:]):
        per_unit = (prev["d_prod"] / cur["d_prod"]) ** (1.0 / (cur["m"] - prev["m"]))
        ratios.append(per_unit)

    assertions = [
        Assertion("base-index-two", base_report.index == 2,
                  f"unspliced verdict {base_report.verdict()}"),
        Assertion("spliced-index-one",
                  all(row["index"] == "1" for row in table),
                  f"verdicts {[row['index'] for row in table]}"),
        Assertion("dprod-halves",
                  all(1.8 <= r <= 2.2 for r in ratios),
                  f"per-unit decay factors {[round(r, 3) for r in ratios]}"),
        Assertion("identity-beyond-window",
                  bool(np.array_equal(identity.values, base.values)),
                  "splice beyond the stored window leaves every value unchanged"),
    ]
    summary = {"far_value": far.tolist(), "radius": float(admissible.radii[0]),
               "base_index": base_report.verdict(), "table": table,
               "per_unit_ratios": ratios}
    outputs = {}
    if out is not None:
        path = out / "splice_table.csv"
        cols = ("m", "index", "d_prod")
        write_csv(path, ",".join(cols), "%d,%s,%.17g",
                  map(itemgetter(*cols), table))
        outputs["splice_table"] = str(path)
    return summary, assertions, outputs


# ----------------------------------------------------------------------
# context task
# ----------------------------------------------------------------------

def _run_context_task(cfg, out):
    # refused before any work: each would run, but not the run asked for
    for key in ("noise_std", "washout", "exclusion"):
        if not 0 <= cfg[key] < math.inf:
            raise ConfigurationError(f"{key} must be finite and >= 0, got {cfg[key]}")
    seed, train_len, test_len = cfg["seed"], cfg["train_len"], cfg["test_len"]
    protocol = _protocol(cfg, ic_seed=seed)
    total = train_len + test_len
    # the ladder runs on the task's own window [0, total]
    if total < protocol.reach:
        raise ConfigurationError(
            f"train_len + test_len = {total} is below the ladder's reach "
            f"{protocol.reach} (shift check + longest transient + horizon): "
            "raise train_len or test_len, or lower transients or horizon")
    washout, exclusion = cfg["washout"], cfg["exclusion"]
    task = gen_context_task(0, total, cfg["pulse_prob"], seed)
    # steps inside the reaction window after any pulse are not scored;
    # with none left, accuracy would be nan, so refuse before training
    excluded = np.zeros(total + 1, dtype=bool)
    for t in np.flatnonzero(task.pulses.any(axis=1)):
        excluded[t: t + exclusion] = True
    scored = ~excluded[train_len + 1:]
    if not scored.any():
        raise ConfigurationError(
            f"exclusion {exclusion} leaves none of the {scored.size} test steps "
            "scored")
    inputs = task.full_input()

    params0 = context_reservoir(ReservoirConfig(
        n_r=cfg["n_r"], sparsity=cfg["sparsity"],
        spectral_radius_target=cfg["spectral_radius"],
        weight_range=cfg["weight_range"], seed=seed))

    targets_train = task.targets[: train_len + 1]
    states = teacher_forced_states(params0, inputs.slice(0, train_len),
                                   targets_train[:, 0], cfg["noise_std"], seed)
    w_out = ridge_readout(states[washout:], targets_train[washout:],
                          cfg["ridge_lambda"])
    params = replace(params0, w_out=w_out)
    train_err = nrmse(states[washout:] @ w_out.T, targets_train[washout:])

    targets_test = task.targets[train_len:]
    model = TrainedModel(params=params, train_error=train_err,
                         metadata={"seed": seed, "train_len": train_len,
                                   "test_len": test_len, "washout": washout})
    outputs_ts, traj = closed_loop_eval(model, inputs.slice(train_len, total),
                                        x0=states[-1])
    test_err = nrmse(outputs_ts[1:], targets_test[1:])
    model = replace(model, test_error=test_err)

    pred_sign = np.sign(outputs_ts[1:, 0])
    true_sign = targets_test[1:, 0]
    accuracy = float(np.mean(pred_sign[scored] == true_sign[scored]))

    projections, cumvar = pca_project(traj.states, 2)
    # not read again: kept alive, their ~17 MiB would sit under the
    # ladder's own allocations and raise the run's peak by as much
    del states, traj, inputs

    # with --out, ensemble_z1.csv holds the tails of the ladder's final rung
    ens_report = estimate_echo_index(params, task.pulses_off_input(), protocol,
                                     keep_rung=None if out is None else -1)
    if out is not None:
        # read z1 now and drop the kept rung, a view of the ladder's
        # window buffer, before the outputs are written
        run = ens_report.ensemble
        z1_ks = range(run.tail_anchor, run.tail_anchor + run.horizon + 1)
        z1 = np.stack([tail @ params.w_out[0] for tail in run.trajectories])
        ens_report, run = replace(ens_report, ensemble=None), None

    assertions = [
        Assertion("context-accuracy", accuracy >= 0.95,
                  f"z1 sign accuracy {accuracy:.4f} on {int(scored.sum())} "
                  f"scored steps (>= 0.95)"),
        Assertion("pca-cumvar", cumvar >= 0.9,
                  f"two-component cumulative variance {cumvar:.4f}"),
        Assertion("pulse-off-index-two", ens_report.index == 2,
                  f"{cfg['ic_count']}-IC pulse-off verdict {ens_report.verdict()}"),
    ]
    summary = {
        "accuracy": accuracy, "scored_steps": int(scored.sum()),
        "excluded_steps": int(np.size(scored) - scored.sum()),
        "train_nrmse": train_err.tolist(), "test_nrmse": test_err.tolist(),
        "pca_cumulative_variance": cumvar,
        "pulse_off_index": ens_report.verdict(),
        "pulse_off_min_separation": ens_report.min_separation,
        "pulse_off_max_diameter": ens_report.max_diameter,
        "pulse_counts": [int(task.pulses[:, j].sum()) for j in range(2)],
    }
    outputs = {}
    if out is not None:
        model_path = out / "model.json"
        save_model(model, model_path)
        outputs["model"] = str(model_path)

        eval_path = out / "test_eval.csv"
        write_csv(eval_path, "k,z1_target,z1_out,z2_target,z2_out,scored",
                  "%d,%.17g,%.17g,%.17g,%.17g,%d",
                  zip(range(train_len + 1, total + 1),
                      targets_test[1:, 0].tolist(), outputs_ts[1:, 0].tolist(),
                      targets_test[1:, 1].tolist(), outputs_ts[1:, 1].tolist(),
                      scored.tolist()))
        outputs["test_eval"] = str(eval_path)

        pca_path = out / "pca.csv"
        write_csv(pca_path, "k,pc1,pc2,z1_target", "%d,%.17g,%.17g,%.17g",
                  zip(range(train_len, train_len + projections.shape[0]),
                      *projections.T.tolist(), targets_test[:, 0].tolist()))
        outputs["pca"] = str(pca_path)

        z1_path = out / "ensemble_z1.csv"
        write_member_csv(z1_path, "ic_id,k,z1", z1_ks, z1)
        outputs["ensemble_z1"] = str(z1_path)
    return summary, assertions, outputs


# ----------------------------------------------------------------------
# dispatch and manifests
# ----------------------------------------------------------------------

_RUNNERS = {
    "kloeden": _run_kloeden,
    "switching2d": _run_switching2d,
    "scalar_sweep": _run_scalar_sweep,
    "fold_bisect": _run_fold_bisect,
    "splice_demo": _run_splice_demo,
    "context_task": _run_context_task,
}


def run_preset(preset, seed=None, out_dir=None, overrides=None):
    """Run one preset; writes data, report and manifest when out_dir given."""
    cfg = resolve_config(preset, seed=seed, overrides=overrides)
    out = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    summary, assertions, outputs = _RUNNERS[preset](cfg, out)
    if out is not None:
        report_path = out / "report.json"
        report_path.write_text(json_text(
            {"preset": preset, "ok": all(a.ok for a in assertions),
             "assertions": [a.to_dict() for a in assertions],
             "summary": summary}, sort_keys=True))
        outputs["report"] = str(report_path)
        manifest_path = out / "manifest.json"
        manifest_path.write_text(json_text(
            {"preset": preset, "seed": cfg["seed"],
             "overrides": {key: cfg[key] for key in overrides or {}},
             "resolved": cfg,
             "outputs": sorted(Path(p).name for p in outputs.values())},
            sort_keys=True))
        outputs["manifest"] = str(manifest_path)
    return ExperimentResult(preset=preset, config=cfg, assertions=assertions,
                            summary=summary, outputs=outputs)


def run_from_manifest(path, out_dir=None):
    """Re-run the exact configuration recorded in a manifest.

    With the same seed, overrides and BLAS thread count all outputs are
    reproduced byte for byte; pass a different out_dir to write
    alongside the original.
    """
    doc = json.loads(Path(path).read_text())
    target = out_dir if out_dir is not None else Path(path).parent
    return run_preset(doc["preset"], seed=doc["seed"], out_dir=target,
                      overrides=doc.get("overrides") or {})


def _preset_runner(preset):
    """run_<preset>(seed=None, out_dir=None, **overrides): run_preset with
    the overrides as keywords."""
    def run(seed=None, out_dir=None, **overrides):
        return run_preset(preset, seed, out_dir, overrides)
    run.__name__ = run.__qualname__ = f"run_{preset}"
    return run


run_kloeden = _preset_runner("kloeden")
run_switching2d = _preset_runner("switching2d")
run_scalar_sweep = _preset_runner("scalar_sweep")
run_fold_bisect = _preset_runner("fold_bisect")
run_splice_demo = _preset_runner("splice_demo")
run_context_task = _preset_runner("context_task")
