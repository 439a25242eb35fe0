"""Tests of the benchmark's own parts: each output check rejects a
deliberately corrupted output, the tracer accounts for a pass, and the
host-speed probe cleans up after itself and scales as documented.

    PYTHONPATH=src python3 -m pytest -q bench

Each preset runs once at its committed seed (about 20 s in all).
"""

import json
import math
import shutil
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from echodex import cli, experiments, index  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
from checks import CHECKS, CheckError  # noqa: E402
from spans import LAYERS, Span, Tracer, layer_metrics, layer_table  # noqa: E402
from worker import run_pass  # noqa: E402

SEEDS = {"scalar_sweep": 1, "context_task": 0, "switching2d": 0}


def run_cli(preset, seed, out):
    _, code, text = run_pass(preset, seed, out)
    assert code == 0, text
    return json.loads(text)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("pristine")
    return {p: (root / p, run_cli(p, s, root / p)) for p, s in SEEDS.items()}


@pytest.fixture
def copy(pristine, tmp_path):
    """A fresh copy (dir, doc) of one preset's outputs, free to corrupt."""
    def make(preset):
        src, doc = pristine[preset]
        dst = tmp_path / preset
        shutil.copytree(src, dst)
        return dst, json.loads(json.dumps(doc))
    return make


def edit_csv(path, row, col, fn):
    """Replace field `col` of data row `row` (0-based, header excluded)."""
    lines = path.read_text().splitlines()
    fields = lines[row + 1].split(",")
    fields[col] = fn(fields[col])
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def nudge(text):
    return repr(float(text) + 1e-6)


def rows_of(path, ic):
    lines = path.read_text().splitlines()
    return [i - 1 for i, line in enumerate(lines[1:], start=1)
            if line.split(",")[0] == str(ic)]


def move_member(path, ic, donor):
    """Give member `ic` the values of member `donor` (same k rows)."""
    lines = path.read_text().splitlines()
    mine, theirs = rows_of(path, ic), rows_of(path, donor)
    for a, b in zip(mine, theirs):
        fa, fb = lines[a + 1].split(","), lines[b + 1].split(",")
        lines[a + 1] = ",".join(fa[:2] + fb[2:])
    path.write_text("\n".join(lines) + "\n")


def other_basin(path, ic):
    """A member whose last value lies on the other side of zero."""
    lines = [line.split(",") for line in path.read_text().splitlines()[1:]]
    last = {}
    for f in lines:
        last[int(f[0])] = float(f[-1])
    return next(j for j, v in last.items() if np.sign(v) != np.sign(last[ic]))


@pytest.mark.parametrize("preset", sorted(SEEDS))
def test_checks_accept_real_outputs(preset, pristine):
    out, doc = pristine[preset]
    CHECKS[preset](out, SEEDS[preset], doc)


@pytest.mark.parametrize("preset", sorted(SEEDS))
def test_checks_reject_a_failed_report(preset, copy):
    out, doc = copy(preset)
    doc["ok"] = False
    with pytest.raises(CheckError):
        CHECKS[preset](out, SEEDS[preset], doc)


@pytest.mark.parametrize("preset, name", [("scalar_sweep", "sample_w0.01.csv"),
                                          ("context_task", "ensemble_z1.csv"),
                                          ("switching2d", "ensemble.csv")])
def test_checks_reject_a_value_nudged_by_1e_6(preset, name, copy):
    out, doc = copy(preset)
    edit_csv(out / name, 57, 2, nudge)
    with pytest.raises(CheckError):
        CHECKS[preset](out, SEEDS[preset], doc)


@pytest.mark.parametrize("preset, name", [("scalar_sweep", "sample_w0.0006.csv"),
                                          ("context_task", "ensemble_z1.csv"),
                                          ("switching2d", "ensemble.csv")])
def test_checks_reject_a_member_moved_to_the_other_basin(preset, name, copy):
    out, doc = copy(preset)
    move_member(out / name, 3, other_basin(out / name, 3))
    with pytest.raises(CheckError):
        CHECKS[preset](out, SEEDS[preset], doc)


def test_scalar_check_rejects_a_wrong_initial_condition(copy):
    out, doc = copy("scalar_sweep")
    edit_csv(out / "sample_w0.05.csv", 0, 2, nudge)
    with pytest.raises(CheckError, match="ICs"):
        checks.check_scalar_sweep(out, 1, doc)


def test_context_check_rejects_a_flipped_prediction(copy):
    out, doc = copy("context_task")
    rows = out.joinpath("test_eval.csv").read_text().splitlines()[1:]
    scored = next(i for i, row in enumerate(rows) if row.endswith(",1"))
    edit_csv(out / "test_eval.csv", scored, 2, lambda v: repr(-float(v)))
    with pytest.raises(CheckError, match="accuracy"):
        checks.check_context_task(out, 0, doc)


def test_context_check_rejects_a_changed_scored_flag(copy):
    out, doc = copy("context_task")
    edit_csv(out / "test_eval.csv", 0, 5, lambda v: "0" if v == "1" else "1")
    with pytest.raises(CheckError, match="scored"):
        checks.check_context_task(out, 0, doc)


def test_context_check_rejects_an_accuracy_off_by_one_ulp(copy):
    out, doc = copy("context_task")
    doc["summary"]["accuracy"] = math.nextafter(doc["summary"]["accuracy"], 0.0)
    with pytest.raises(CheckError, match="accuracy"):
        checks.check_context_task(out, 0, doc)


@pytest.mark.parametrize("path, delta", [(("strip_f1", 0), 1e-9),
                                         (("strip_f2", 1), 1e-9),
                                         (("certificates", "R+", "worst_norm"), 1e-9),
                                         (("certificates", "R-", "worst_norm"), -1e-9)])
def test_switching_check_rejects_a_summary_value_off_by_1e_9(path, delta, copy):
    out, doc = copy("switching2d")
    node = doc["summary"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += delta
    with pytest.raises(CheckError):
        checks.check_switching2d(out, 0, doc)


def test_two_groups_rejects_three_groups_and_loose_members():
    rng = np.random.default_rng(0)
    tails = np.concatenate([0.5 + 1e-5 * rng.standard_normal((5, 20, 1)),
                            -0.5 + 1e-5 * rng.standard_normal((5, 20, 1))])
    assert set(checks._two_groups(tails, 1e-3, "ok")) == {0, 1}
    three = tails.copy()
    three[0] = 0.0
    with pytest.raises(CheckError, match="3 groups"):
        checks._two_groups(three, 1e-3, "three")
    loose = tails.copy()
    loose[0, -1] += 0.9e-3  # still linked at the tolerance, but too close to it
    loose[1, -1] -= 0.9e-3
    with pytest.raises(CheckError, match="spread"):
        checks._two_groups(loose, 1e-3, "loose")


def test_bisection_finds_the_stable_fixed_point():
    x = checks._bisect(lambda v: math.tanh(1.01 * v) - v, 1e-3, 1.0)
    assert 0.1 < x < 0.2
    assert abs(math.tanh(1.01 * x) - x) < 1e-15


def test_tracer_restores_every_patched_name():
    before = (index.orbit, experiments.orbit, experiments.run_ensemble,
              cli.run_preset, cli.estimate_echo_index)
    tracer = Tracer()
    tracer.install()
    try:
        assert experiments.orbit is index.orbit is not before[0]
        assert cli.run_preset is not before[3]
    finally:
        tracer.uninstall()
    assert (index.orbit, experiments.orbit, experiments.run_ensemble,
            cli.run_preset, cli.estimate_echo_index) == before
    assert tracer.missing == []


def test_self_time_subtracts_direct_children_only():
    spans = [Span("experiments.run_preset", 0.0, 10.0, -1),
             Span("index.estimate_echo_index", 1.0, 6.0, 0),
             Span("index.run_ensemble", 1.5, 4.0, 1, {"ic_steps": 10}),
             Span("core.orbit", 2.0, 3.0, 2, {"steps": 5}),
             Span("index.run_ensemble", 7.0, 8.0, 0, {"ic_steps": 4})]
    table = layer_table(spans)
    assert table["index.run_ensemble"]["self_s"] == pytest.approx(1.5 + 1.0)
    assert table["index.estimate_echo_index"]["self_s"] == pytest.approx(2.5)
    assert table["experiments.run_preset"]["self_s"] == pytest.approx(4.0)
    assert sum(r["self_s"] for r in table.values()) == pytest.approx(10.0)
    metrics = layer_metrics(spans)
    assert metrics["index.estimate_echo_index.rungs"][0] == 1
    assert metrics["index.run_ensemble.ic_steps"][0] == 14
    assert metrics["training.ridge_readout.s"][0] == 0.0


def test_traced_switching_pass_counts_repeat_and_add_up(tmp_path):
    runs = []
    for i in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            run_cli("switching2d", 0, tmp_path / str(i))
        finally:
            tracer.uninstall()
        runs.append(tracer.spans)
    counts = [{k: v for k, (v, unit) in layer_metrics(s).items() if unit == "count"}
              for s in runs]
    assert counts[0] == counts[1]
    assert counts[0]["index.estimate_echo_index.rungs"] >= 3  # two rungs + shift
    assert counts[0]["contraction.region_check.points"] == 4 * 2 * 33 * 33
    assert counts[0]["core.orbit.steps"] > 0
    table = layer_table(runs[0])
    assert table["training.teacher_forced_states"]["calls"] == 0
    root = table["experiments.run_preset"]
    assert root["calls"] == 1
    assert sum(r["self_s"] for r in table.values()) == pytest.approx(root["s"])
    assert {layer for layer, *_ in LAYERS} == set(table)


def test_probe_samples_inside_its_window_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Probe(period=0.005) as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.edges) == 2 * speed.EDGE_SLICES
    assert len(probe.ticks) >= 10
    summary = probe.summary()
    assert summary["slices"] == len(probe.edges) + len(probe.ticks)
    assert summary["tick_s"] == pytest.approx(sum(probe.ticks))
    assert min(probe.ticks + probe.edges) <= summary["median_slice_s"]


def test_scaled_subtracts_the_slices_and_rescales_to_the_reference():
    summary = {"tick_s": 0.5, "edge_s": 0.25, "median_slice_s": 2 * speed.REF_SLICE_S}
    assert speed.scaled(10.5, summary, False) == pytest.approx(5.0)
    assert speed.scaled(10.75, summary, True) == pytest.approx(5.0)
