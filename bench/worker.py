"""Run one workload's passes in this process and print the outcome as JSON.

Started by run.py with the BLAS thread counts already pinned in the
environment, so numpy picks them up on import.  A pass is
`echodex <preset> --seed SEED --out DIR` through `echodex.cli.main`,
checked afterwards by checks.py (outside the timed region).  After one
warm-up pass, timed passes repeat while another one would end less
than half a cycle past `--seconds`, so the loop lasts `--seconds` on
average; with `--trace 1` each untraced pass is followed by a traced
one.

With `--trace 0` the run reports wall_s (median timed pass), setup_s
(median time from launching a fresh interpreter until the echodex CLI
is imported, one launch after each timed pass so the samples span the
run like the passes do) and peak_rss_mb (peak resident set after the
warm-up pass, before any check).  wall_s and setup_s are scaled to a
reference host speed by a speed.Probe sampling the host during each
timed pass and each launch; the raw times go to the details.  With
`--trace 1` it reports the per-layer metrics of spans.py.  The last
line of standard output is {"result": ..., "details": ...}.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from echodex import cli

import speed
from checks import CHECKS
from spans import Tracer, layer_metrics, layer_table

READY_CODE = """import sys
sys.path.insert(0, {bench!r})
import speed
with speed.Probe() as probe:
    import echodex.cli
sys.stdout.write("ready\\n")
sys.stdout.flush()
import json
sys.stdout.write(json.dumps(probe.summary()))
"""


def launch_to_ready():
    """Seconds from starting a fresh interpreter until echodex.cli is
    imported, and the interpreter's speed.Probe summary of that time."""
    code = READY_CODE.format(bench=str(Path(__file__).resolve().parent))
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError(f"importing echodex failed (exit {proc.returncode})")
    return ready - start, json.loads(rest)


def run_pass(preset, seed, out):
    """One CLI invocation into an emptied `out`; returns (wall seconds, exit
    code, its stdout)."""
    shutil.rmtree(out, ignore_errors=True)  # no stale file can pass a check
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main([preset, "--seed", str(seed), "--out", str(out)])
    except Exception:  # a crash fails this pass; later passes still run
        code = -1
        buf.write(traceback.format_exc())
    return time.perf_counter() - start, code, buf.getvalue()


def pass_error(preset, seed, out, code, text):
    """None when the pass exited 0 and its outputs pass the checks."""
    if code != 0:
        return f"exit code {code}: {text[-2000:]}"
    try:
        CHECKS[preset](out, seed, json.loads(text))
    except Exception as exc:  # any check failure or unreadable output
        return f"{type(exc).__name__}: {exc}"
    return None


def machine_facts():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {name: os.environ.get(name) for name in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                         "ECHODEX_THREADS")}}


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def accounting(spans, wall):
    """Where a traced pass's wall time went: every span's self time sums to
    the run_preset span; the rest is the CLI around it."""
    table = layer_table(spans)
    root = table["experiments.run_preset"]["s"]
    self_sum = sum(row["self_s"] for row in table.values())
    if abs(self_sum - root) > 1e-6 or root > wall:
        raise RuntimeError(f"span self times {self_sum} do not add up to "
                           f"run_preset {root} within pass wall {wall}")
    return {"traced_wall_s": wall, "run_preset_s": root,
            "outside_run_preset_s": wall - root, "layers": table}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", required=True, choices=sorted(CHECKS))
    parser.add_argument("--preset-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    passes = []
    last_spans = None

    def attempt(kind, around=contextlib.nullcontext()):
        with around:
            wall, code, text = run_pass(args.preset, args.preset_seed, args.out)
        rss = peak_rss_mib()  # read before the checks allocate anything
        error = pass_error(args.preset, args.preset_seed, args.out, code, text)
        if error:
            print(f"{kind} pass failed: {error}", file=sys.stderr)
        passes.append({"kind": kind, "wall_s": wall, "error": error})
        return wall, rss

    _, peak_rss = attempt("warm-up")
    if not args.trace:
        launch_to_ready()  # the first launch may write bytecode caches
    start = time.perf_counter()
    traced = []
    setup = []
    while True:
        cycle = time.perf_counter()
        probe = speed.Probe()
        wall, _ = attempt("timed", probe)
        summary = probe.summary()
        passes[-1].update(summary, scaled_s=speed.scaled(wall, summary, False))
        if args.trace:
            tracer = Tracer()
            wall, _ = attempt("traced", tracer)
            traced.append((wall, layer_metrics(tracer.spans)))
            last_spans = tracer.spans
        else:
            launch, summary = launch_to_ready()
            setup.append(dict(summary, wall_s=launch,
                              scaled_s=speed.scaled(launch, summary, True)))
        now = time.perf_counter()
        if (now - start) + (now - cycle) / 2 > args.seconds:
            # another cycle like this one would end nearer to --seconds
            # plus a cycle than to --seconds, so the loop lasts --seconds
            # on average instead of stopping a whole cycle short of it
            break

    timed = [p for p in passes if p["kind"] == "timed"]
    timed = [p for p in timed if not p["error"]] or timed
    failed = sum(1 for p in passes if p["error"])
    details = {"preset": args.preset, "preset_seed": args.preset_seed,
               "machine": machine_facts(), "passes": passes, "setup_s": setup}
    if args.trace:
        counts = [{k: v for k, (v, unit) in m.items() if unit == "count"}
                  for _, m in traced]
        if any(c != counts[0] for c in counts):
            raise RuntimeError(f"counts differ between traced passes: {counts}")
        # counts repeat exactly; times are the median over traced passes
        metrics = {name: {"value": value if unit == "count" else
                          statistics.median(m[name][0] for _, m in traced),
                          "unit": unit}
                   for name, (value, unit) in traced[0][1].items()}
        metrics["trace.overhead_s"] = {
            "value": (statistics.median(w for w, _ in traced)
                      - statistics.median(p["wall_s"] - p["tick_s"] for p in timed)),
            "unit": "s"}
        details["accounting"] = accounting(last_spans, traced[-1][0])
        details["spans"] = [[s.layer, s.start - last_spans[0].start, s.seconds,
                             s.parent, s.counts] for s in last_spans]
    else:
        metrics = {"wall_s": {"value": statistics.median(p["scaled_s"] for p in timed),
                              "unit": "s"},
                   "setup_s": {"value": statistics.median(s["scaled_s"] for s in setup),
                               "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss, "unit": "MiB"}}
    result = {"correct": failed == 0, "attempted": len(passes), "failed": failed,
              "metrics": metrics}
    print(json.dumps({"result": result, "details": details}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
