"""Command-line entry point.

Preset subcommands (kloeden, switching2d, scalar_sweep, fold_bisect,
splice_demo, context_task) write plot-ready CSVs, a report and a
manifest into --out, print the report as JSON, and exit 0 only if every
preset-internal assertion passed (nonzero exit carries the failure list
in the JSON).  `index` and `certify` wrap the library operations for
stored models and inputs; `rerun` replays a manifest.
"""

import argparse
import ast
from itertools import product
import sys

import numpy as np

from .contraction import (Region, global_esp_check, region_contraction_check,
                          region_invariance_check)
from .core import ConfigurationError
from .experiments import DEFAULTS, run_from_manifest, run_preset
from .index import IndexProtocol, estimate_echo_index
from .sequences import WindowExhausted, json_text, load_input
from .training import load_model


def _parse_overrides(pairs):
    """--set key=value pairs; values are Python literals when they parse."""
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, text = pair.split("=", 1)
        try:
            out[key] = ast.literal_eval(text)
        except (ValueError, SyntaxError):
            out[key] = text
    return out


def _parse_region(text):
    """Region syntax lo1,lo2,...:hi1,hi2,..."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"region must look like lo1,lo2:hi1,hi2, got {text!r}")
    lo = [float(v) for v in parts[0].split(",")]
    hi = [float(v) for v in parts[1].split(",")]
    return Region(lo=lo, hi=hi)


def _emit(doc, code):
    sys.stdout.write(json_text(doc, sort_keys=True))
    return code


def _cmd_preset(args):
    overrides = _parse_overrides(args.set)
    result = run_preset(args.preset, seed=args.seed, out_dir=args.out,
                        overrides=overrides)
    doc = {
        "preset": result.preset,
        "ok": result.ok,
        "assertions": [a.to_dict() for a in result.assertions],
        "failures": result.failures(),
        "summary": result.summary,
        "outputs": {k: str(v) for k, v in result.outputs.items()},
    }
    return _emit(doc, 0 if result.ok else 1)


def _cmd_rerun(args):
    result = run_from_manifest(args.manifest, out_dir=args.out)
    doc = {"preset": result.preset, "ok": result.ok,
           "failures": result.failures(),
           "outputs": {k: str(v) for k, v in result.outputs.items()}}
    return _emit(doc, 0 if result.ok else 1)


def _cmd_index(args):
    model = load_model(args.model)
    seq = load_input(args.input)
    protocol = IndexProtocol(
        ic_counts=tuple(int(v) for v in args.ics.split(",")),
        transients=tuple(int(v) for v in args.transients.split(",")),
        horizon=args.horizon, window=args.window,
        cluster_tol=args.tol, ic_seed=args.seed)
    report = estimate_echo_index(model.params, seq, protocol,
                                 anchor=args.anchor)
    return _emit({"model": args.model, "input": args.input,
                  "report": report.summary_dict()}, 0)


def _box_corners(lo, hi):
    return [np.array(c, dtype=float) for c in product(*zip(lo, hi))]


def _cmd_certify(args):
    model = load_model(args.model)
    params = model.params
    if args.input is not None:
        seq = load_input(args.input)
        u_samples = _box_corners(seq.lo, seq.hi)
    else:
        u_samples = [np.zeros(params.n_i)]
    doc = {"model": args.model, "mu": args.mu}
    if args.region is None:
        report = global_esp_check(params, args.mu)
        doc.update(check="global", certified=report.certified,
                   worst_norm=report.worst_norm,
                   effective_rate=report.effective_rate)
        ok = report.certified
    else:
        region = _parse_region(args.region)
        inv_ok, witness = region_invariance_check(params, region, u_samples,
                                                  grid=args.grid)
        con = region_contraction_check(params, region, u_samples, args.mu,
                                       grid=args.grid)
        doc.update(check="region", invariant=inv_ok,
                   witness=None if witness is None
                   else [witness[0].tolist(), witness[1].tolist()],
                   certified=con.certified, worst_norm=con.worst_norm,
                   margin=con.margin, input_samples=len(u_samples))
        ok = inv_ok and con.certified
    return _emit(doc, 0 if ok else 1)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="echodex",
        description="Echo-index experiments and certifiers for input-driven "
                    "recurrent networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    for preset in sorted(DEFAULTS):
        p = sub.add_parser(preset, help=f"run the {preset} preset")
        p.add_argument("--seed", type=int, default=None,
                       help="realization seed (default: committed seed)")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="directory for CSVs, report.json and manifest.json")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.set_defaults(func=_cmd_preset, preset=preset)

    p = sub.add_parser("rerun", help="re-run a recorded manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None,
                   help="target directory (default: the manifest's directory)")
    p.set_defaults(func=_cmd_rerun)

    p = sub.add_parser("index", help="estimate the echo index of a stored "
                                     "model under a stored input")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True,
                   help="sequence CSV or generator-spec JSON")
    ladder = IndexProtocol()
    p.add_argument("--ics", default=",".join(map(str, ladder.ic_counts)))
    p.add_argument("--transients", default=",".join(map(str, ladder.transients)))
    p.add_argument("--horizon", type=int, default=ladder.horizon)
    p.add_argument("--window", type=int, default=ladder.window)
    p.add_argument("--tol", type=float, default=ladder.cluster_tol)
    p.add_argument("--anchor", type=int, default=0)
    p.add_argument("--seed", type=int, default=ladder.ic_seed,
                   help="IC sampling seed")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("certify", help="contraction certificates for a "
                                       "stored model")
    p.add_argument("--model", required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--region", default=None, metavar="LO1,LO2:HI1,HI2",
                   help="state box; omit for the input-independent check")
    p.add_argument("--input", default=None,
                   help="sequence file supplying the input box corners")
    p.add_argument("--grid", type=int, default=33)
    p.set_defaults(func=_cmd_certify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, WindowExhausted, KeyError, ValueError,
            FileNotFoundError) as exc:
        return _emit({"ok": False, "error": f"{type(exc).__name__}: {exc}"}, 2)


if __name__ == "__main__":
    sys.exit(main())
