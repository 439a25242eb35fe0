import concurrent.futures
import json
import math
import os
from pathlib import Path
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from echodex import (Assertion, ConfigurationError, ExperimentResult,
                     IndexProtocol, RnnParams, TrainedModel, ensemble_to_csv,
                     gen_two_symbol, gen_uniform_scaled, resolve_config,
                     run_ensemble, run_fold_bisect, run_from_manifest,
                     run_kloeden, run_switching2d, save_model, save_sequence,
                     switching_inputs, switching_params)
from echodex import core, experiments, index
from echodex.cli import build_parser, main
from echodex.experiments import DEFAULT_SEEDS, DEFAULTS

KLOEDEN_ROOT = 0.41124501294634347
FOLD_X_STAR = 0.09950371902099896
FOLD_C_STAR = 0.0006646773120013438


def read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(Path(root).iterdir())}


def run_cli(capsys, argv):
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    return code, doc


def test_resolve_config():
    cfg = resolve_config("kloeden")
    assert cfg["seed"] == DEFAULT_SEEDS["kloeden"]
    assert cfg["a"] == DEFAULTS["kloeden"]["a"]
    cfg = resolve_config("kloeden", seed=9, overrides={"ics": 5})
    assert cfg["seed"] == 9 and cfg["ics"] == 5
    with pytest.raises(KeyError):
        resolve_config("nope")
    with pytest.raises(KeyError):
        resolve_config("kloeden", overrides={"not_a_key": 1})


def test_result_helpers():
    good = Assertion("holds", True, "fine")
    bad = Assertion("breaks", False, "off by one")
    assert good.to_dict() == {"name": "holds", "ok": True, "detail": "fine"}
    result = ExperimentResult(preset="x", config={}, assertions=[good, bad],
                              summary={}, outputs={})
    assert not result.ok
    assert result.failures() == [bad.to_dict()]
    assert ExperimentResult("x", {}, [good], {}, {}).ok


def test_kloeden_preset(tmp_path):
    result = run_kloeden(out_dir=tmp_path)
    assert result.ok, result.failures()
    assert abs(result.summary["root"] - KLOEDEN_ROOT) <= 1e-12
    finals = np.array(result.summary["final_states"])
    assert finals[5] == 0.0
    assert np.all(np.abs(np.abs(finals[finals != 0.0]) - KLOEDEN_ROOT) < 1e-3)
    text = (tmp_path / "trajectories.csv").read_text().splitlines()
    assert text[0] == "ic_id,k,x"
    assert len(text) == 1 + 11 * 36
    ics = np.linspace(-1.0, 1.0, 11)
    assert [text[1 + 36 * i] for i in range(11)] == [
        f"{i},-10,{ics[i]:.17g}" for i in range(11)]
    assert (tmp_path / "report.json").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["preset"] == "kloeden"
    assert manifest["resolved"]["seed"] == DEFAULT_SEEDS["kloeden"]
    # the manifest names everything written before it, not itself
    assert sorted(manifest["outputs"]) == ["report.json", "trajectories.csv"]


def test_manifest_rerun_is_byte_identical(tmp_path):
    first = tmp_path / "first"
    again = tmp_path / "again"
    run_kloeden(out_dir=first, ics=7)
    result = run_from_manifest(first / "manifest.json", out_dir=again)
    assert result.ok
    assert result.config["ics"] == 7
    a, b = read_tree(first), read_tree(again)
    assert sorted(a) == sorted(b)
    for name in a:
        assert a[name] == b[name], f"{name} differs between runs"


def test_manifest_records_each_override_in_its_defaults_type(tmp_path):
    # a float for an int key and an int for a float key are applied, and
    # recorded, as the default's type; the rerun repeats every byte
    first, again = tmp_path / "first", tmp_path / "again"
    run_kloeden(out_dir=first, a=2, ics=7.0)
    manifest = json.loads((first / "manifest.json").read_text())
    for doc in (manifest["overrides"], manifest["resolved"]):
        assert (doc["a"], doc["ics"]) == (2.0, 7)
        assert type(doc["a"]) is float and type(doc["ics"]) is int
    run_from_manifest(first / "manifest.json", out_dir=again)
    assert read_tree(first) == read_tree(again)


def test_report_json_holds_json_booleans(tmp_path):
    run_kloeden(out_dir=tmp_path)
    text = (tmp_path / "report.json").read_text()
    assert '"ok": true' in text and '"ok": 1' not in text
    doc = json.loads(text)
    assert doc["ok"] is True
    assert all(a["ok"] is True for a in doc["assertions"])


def test_rerun_defaults_to_manifest_directory(tmp_path):
    run_fold_bisect(out_dir=tmp_path)
    before = read_tree(tmp_path)
    result = run_from_manifest(tmp_path / "manifest.json")
    assert result.ok
    assert read_tree(tmp_path) == before


def test_fold_bisect_values():
    result = run_fold_bisect()
    assert result.ok, result.failures()
    assert abs(result.summary["x_star"] - FOLD_X_STAR) <= 1e-12
    assert abs(result.summary["c_star_abs"] - FOLD_C_STAR) <= 1e-12
    assert abs(result.summary["bisection"] - FOLD_C_STAR) <= 1e-5
    lo, hi = result.summary["bracket"]
    assert hi - lo <= 1e-6


def test_fold_bisect_rejects_bad_bracket():
    with pytest.raises(ValueError):
        # both ends below the fold: nothing to straddle
        run_fold_bisect(w_hi=0.0001)


def test_switching2d_ensemble_csv_is_the_first_rung(tmp_path, monkeypatch):
    def no_second_run(*args, **kwargs):
        raise AssertionError("the preset evolved an ensemble outside its ladder")
    monkeypatch.setattr(experiments, "run_ensemble", no_second_run)
    result = run_switching2d(out_dir=tmp_path / "out")
    assert result.ok, result.failures()
    seq = gen_two_symbol(*switching_inputs(), 0.5, -300, 700, seed=0)
    ensemble_to_csv(run_ensemble(switching_params(), seq, 30, transient=200,
                                 horizon=120, ic_seed=0), tmp_path / "fresh.csv")
    assert ((tmp_path / "out" / "ensemble.csv").read_bytes()
            == (tmp_path / "fresh.csv").read_bytes())


@pytest.mark.parametrize("seed", [1, 4, 7, 8])
def test_switching2d_brackets_the_separatrix_on_every_seed(seed):
    # a fixed x2 bracket of [-0.2, 0] missed the boundary on these seeds
    result = run_switching2d(seed=seed)
    assert result.ok, result.failures()
    x1, x2 = result.summary["separatrix"]["boundary"]
    assert x1 == result.summary["fixed_points"]["f1"][0]["x"][0]
    assert -0.2 < x2 < 0.2


def test_switching2d_input_window_follows_the_ladder():
    # a longer final rung reads further into the input; no window knob
    # has to grow with it
    result = run_switching2d(transients=[200, 600])
    assert result.ok, result.failures()
    assert result.summary["index"] == "2"


def test_ladder_presets_take_one_rung_per_transient(capsys):
    cfg = resolve_config("switching2d",
                         overrides={"transients": [200, 400, 800]})
    protocol = experiments._protocol(cfg)
    assert protocol.ic_counts == (30, 30, 30)
    assert protocol.transients == (200, 400, 800)
    result = run_switching2d(transients=[200, 400, 800])
    assert result.ok, result.failures()
    assert result.summary["index"] == "2"
    # a ladder needs two rungs to agree, and the refusal names the key a
    # preset sets
    code, doc = run_cli(capsys, ["switching2d", "--set", "transients=[400]"])
    assert code == 2 and "two or more transients" in doc["error"]
    assert "ic_counts" not in doc["error"]


def test_removed_window_and_bracket_keys_are_rejected(capsys):
    for preset, key in (("switching2d", "sep_lo"), ("switching2d", "sep_hi"),
                        ("switching2d", "input_last"),
                        ("scalar_sweep", "input_last"),
                        ("splice_demo", "input_last"),
                        ("context_task", "ens_ics"),
                        ("context_task", "ens_transients"),
                        ("context_task", "ens_horizon"),
                        ("context_task", "ens_window"),
                        ("context_task", "accuracy_min"),
                        ("context_task", "pca_min")):
        with pytest.raises(KeyError):
            resolve_config(preset, overrides={key: 0})
        code, doc = run_cli(capsys, [preset, "--set", f"{key}=0"])
        assert code == 2 and key in doc["error"]


def test_cli_index_defaults_are_the_protocol_defaults():
    args = build_parser().parse_args(["index", "--model", "m.json",
                                      "--input", "u.csv"])
    ladder = IndexProtocol()
    assert tuple(int(v) for v in args.ics.split(",")) == ladder.ic_counts
    assert tuple(int(v) for v in args.transients.split(",")) == ladder.transients
    assert (args.horizon, args.window, args.tol, args.seed) == (
        ladder.horizon, ladder.window, ladder.cluster_tol, ladder.ic_seed)


def test_cli_preset_pass_and_fail(tmp_path, capsys):
    code, doc = run_cli(capsys, ["kloeden", "--out", str(tmp_path / "ok")])
    assert code == 0
    assert doc["ok"] is True and doc["failures"] == []
    assert set(doc["outputs"]) == {"trajectories", "report", "manifest"}
    # a depth-5 fibre has not collapsed yet, so that assertion fails
    code, doc = run_cli(capsys, ["kloeden", "--set", "fibre_depth=5"])
    assert code == 1
    assert doc["ok"] is False
    assert any(f["name"] == "fibre-collapse" for f in doc["failures"])


def test_cli_bad_arguments_exit_two(capsys):
    code, doc = run_cli(capsys, ["kloeden", "--set", "not_a_key=1"])
    assert code == 2 and doc["ok"] is False
    assert "not_a_key" in doc["error"]
    code, doc = run_cli(capsys, ["index", "--model", "/no/such/model.json",
                                 "--input", "/no/such/input.csv"])
    assert code == 2
    code, doc = run_cli(capsys, ["rerun", "--manifest", "/no/such/file.json"])
    assert code == 2


@pytest.mark.parametrize("preset, pair, key", [
    ("switching2d", "transients=200", "transients"),
    ("kloeden", "ics=None", "ics"),
    ("scalar_sweep", "w_list=0.01", "w_list"),
    ("kloeden", "ics=7.5", "ics"),
    ("switching2d", "transients=[200.5,400]", "transients"),
    ("scalar_sweep", "n_seeds=2.9", "n_seeds"),
])
def test_cli_override_of_the_wrong_kind_exits_two(capsys, preset, pair, key):
    code, doc = run_cli(capsys, [preset, "--set", pair])
    assert code == 2 and doc["ok"] is False
    assert doc["error"].startswith("ValueError") and repr(key) in doc["error"]


@pytest.mark.parametrize("preset, pair, key, kind", [
    ("kloeden", "a=1" + "0" * 400, "a", "a float"),
    ("kloeden", "ics=1" + "0" * 29 + "1", "ics", "an int"),
    ("switching2d", "transients=[1" + "0" * 40 + ",400]", "transients",
     "an int")],
    ids=["beyond-a-float", "beyond-a-64-bit-integer",
         "list-element-beyond-a-64-bit-integer"])
def test_cli_override_out_of_its_types_range_exits_two(capsys, preset, pair,
                                                       key, kind):
    code, doc = run_cli(capsys, [preset, "--set", pair])
    assert code == 2 and doc["ok"] is False
    assert doc["error"].startswith("ValueError") and repr(key) in doc["error"]
    assert f"takes {kind}, got " in doc["error"]
    assert "out of its range" in doc["error"]


def test_context_task_refuses_a_window_beyond_its_horizon_before_training(
        capsys):
    # the ladder is built before the reservoir, so this costs no training
    code, doc = run_cli(capsys, ["context_task", "--set", "window=500"])
    assert code == 2 and "window must lie in [10, horizon + 1 = 121]" in doc["error"]
    for pair in ("ic_count=0", "transients=[-5,10]"):
        code, doc = run_cli(capsys, ["context_task", "--set", pair])
        assert code == 2 and "ic_counts >= 1 and transients >= 0" in doc["error"]


@pytest.mark.parametrize("pair", ["noise_std=-0.05", "noise_std=1e999",
                                  "washout=-1", "exclusion=-20"])
def test_context_task_refuses_training_keys_that_would_change_the_run(
        capsys, monkeypatch, pair):
    # each used to run: noise-free, training on the last rows only, or
    # with no steps (or nearly all) excluded from scoring; refused before
    # training, whose own noise_std check comes after the task is drawn
    def untrained(*args, **kwargs):
        raise AssertionError("trained")
    monkeypatch.setattr(experiments, "teacher_forced_states", untrained)
    code, doc = run_cli(capsys, ["context_task", "--set", pair])
    key = pair.split("=")[0]
    assert code == 2
    assert doc["error"].startswith(f"ConfigurationError: {key} must be finite "
                                   "and >= 0")


def test_context_task_refuses_an_exclusion_that_scores_no_step(capsys,
                                                              monkeypatch):
    # every test step lies within 100000 steps of a pulse: accuracy would
    # be nan, so the run is refused once the task is drawn, untrained
    def untrained(*args, **kwargs):
        raise AssertionError("trained before the exclusion was checked")
    monkeypatch.setattr(experiments, "teacher_forced_states", untrained)
    code, doc = run_cli(capsys, ["context_task", "--set", "exclusion=100000",
                                 "--set", "ic_count=4"])
    assert code == 2
    assert doc["error"] == ("ConfigurationError: exclusion 100000 leaves none "
                            "of the 3000 test steps scored")


def test_context_task_refuses_an_input_short_of_the_ladder_reach(capsys,
                                                                 monkeypatch):
    # the ladder runs on the task's window [0, train_len + test_len]; one
    # that ends before the protocol's reach (13 + 800 + 120 = 933) used to
    # train first and then exit with WindowExhausted
    def untrained(*args, **kwargs):
        raise AssertionError("trained")
    monkeypatch.setattr(experiments, "teacher_forced_states", untrained)
    code, doc = run_cli(capsys, ["context_task", "--set", "train_len=500",
                                 "--set", "test_len=300"])
    assert code == 2
    assert doc["error"].startswith(
        "ConfigurationError: train_len + test_len = 800 is below the ladder's "
        "reach 933") and "train_len or test_len" in doc["error"]
    # a window that ends at the reach passes the check, and trains
    with pytest.raises(AssertionError, match="^trained$"):
        experiments.run_preset("context_task",
                               overrides={"train_len": 633, "test_len": 300})


@pytest.mark.parametrize("preset, pair, message", [
    ("scalar_sweep", "w_list=[]", "w_list [] holds none of the scales"),
    ("scalar_sweep", "w_list=[0.02,0.2]", "w_list [0.02, 0.2] holds none"),
    ("scalar_sweep", "n_seeds=0", "n_seeds must be >= 1, got 0"),
    ("splice_demo", "m_list=[]", "m_list is empty"),
    ("splice_demo", "m_list=[5]", "m_list [5] needs two or more values"),
    ("splice_demo", "m_list=[5,10,10]", "m_list [5, 10, 10] needs two or more"),
    ("kloeden", "ics=0", "ics must be >= 1, got 0"),
    ("kloeden", "ics=10", "ics must be odd, got 10"),
])
def test_runs_that_would_check_nothing_are_refused_before_any_work(
        preset, pair, message, capsys, monkeypatch):
    # each used to run and exit 0 on vacuous assertions, exit 1 on a
    # majority over no seeds, fail inside numpy on an empty ensemble, or
    # divide by zero once the whole ladder had run (repeated m values)
    def no_work(*args, **kwargs):
        raise AssertionError("an ensemble was evolved")
    for name in ("run_ensemble", "estimate_echo_indices", "estimate_echo_index"):
        monkeypatch.setattr(experiments, name, no_work)
    code, doc = run_cli(capsys, [preset, "--set", pair])
    assert code == 2
    assert doc["error"].startswith(f"ConfigurationError: {message}")


def test_context_task_refuses_a_nan_noise_std():
    # --set cannot spell NaN, but a manifest or an overrides dict can
    with pytest.raises(ConfigurationError, match="noise_std must be finite"):
        experiments.run_preset("context_task", overrides={"noise_std": math.nan})


def test_small_presets_never_build_a_thread_pool(monkeypatch):
    # with any number of CPUs, kloeden's scalar ensemble never splits, and
    # switching2d's and scalar_sweep's ensembles and their 30-member
    # clusterings are too small for a second group to pay
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a thread pool was built")
    groups, run_groups = [], index._run_groups

    def recording(run, count):
        groups.append(count)
        return run_groups(run, count)
    monkeypatch.setattr(core, "_cpu_count", lambda: 64)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", NoPool)
    monkeypatch.setattr(index, "_run_groups", recording)
    for preset in ("kloeden", "switching2d", "scalar_sweep"):
        assert experiments.run_preset(preset).ok, preset
    assert groups and set(groups) == {1}


def test_override_kinds_are_list_and_number():
    assert resolve_config("kloeden", overrides={"a": 2})["a"] == 2
    assert resolve_config("kloeden", overrides={"ics": 7.0})["ics"] == 7.0
    assert resolve_config("switching2d", overrides={
        "transients": (200, 300)})["transients"] == [200, 300]
    for key, value in (("a", "1.5"), ("a", True), ("a", [1.5]),
                       ("fibre_depth", None)):
        with pytest.raises(ValueError, match=repr(key)):
            resolve_config("kloeden", overrides={key: value})
    for value in (400, [200, None], [[200], [400]], "200,400"):
        with pytest.raises(ValueError, match="'transients'"):
            resolve_config("switching2d", overrides={"transients": value})


def test_overrides_take_their_defaults_types():
    cfg = resolve_config("kloeden", overrides={"a": 2, "ics": 7.0,
                                               "k_end": np.int64(30)})
    assert [type(cfg[k]) for k in ("a", "ics", "k_end")] == [float, int, int]
    cfg = resolve_config("scalar_sweep", overrides={
        "w_list": (0, np.float32(0.5)), "transients": [200.0, 400]})
    assert cfg["w_list"] == [0.0, 0.5] and cfg["transients"] == [200, 400]
    assert [type(w) for w in cfg["w_list"]] == [float, float]
    assert [type(t) for t in cfg["transients"]] == [int, int]
    # each call gets its own lists: appending to one leaves DEFAULTS as is
    for preset in DEFAULTS:
        cfg = resolve_config(preset)
        for value in cfg.values():
            if isinstance(value, list):
                value.append(1)
    assert DEFAULTS["switching2d"]["transients"] == [200, 400]
    assert DEFAULTS["splice_demo"]["m_list"] == [5, 10, 20]


def test_presets_run_without_scipy(tmp_path):
    # an import of any scipy module fails in the child process
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from echodex.cli import main\n"
            "sys.exit(main(sys.argv[1:]))")
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for preset in ("kloeden", "switching2d"):
        proc = subprocess.run([sys.executable, "-c", code, preset, "--out",
                               str(tmp_path / preset)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout)["ok"] is True
        assert (tmp_path / preset / "report.json").exists()


def within_one_ulp_of_a_sign_change(fn, x):
    signs = [np.sign(fn(v)) for v in (np.nextafter(x, -np.inf), x,
                                      np.nextafter(x, np.inf))]
    return signs[1] == 0 or signs[0] != signs[1] or signs[1] != signs[2]


def test_bisection_roots_sit_on_a_sign_change():
    params = switching_params()
    maps = []
    for u in switching_inputs():
        maps.append(experiments._coordinate_map(params.alpha, 0.5, u[0]))
        maps.append(experiments._coordinate_map(params.alpha, 1.5, u[1]))
    counts = []
    for fn in maps:
        roots = experiments._scan_roots(fn)
        counts.append(len(roots))
        for root in roots:
            assert within_one_ulp_of_a_sign_change(fn, root), root
            ref = brentq(fn, root - 1e-3, root + 1e-3, xtol=1e-15)
            assert abs(root - ref) <= 1e-14
    # x1 has one fixed point under each symbol, x2 three (node, saddle, node)
    assert counts == [1, 3, 1, 3]
    a = 1.5
    kloeden = lambda x: x - math.tanh(a * x / (1.0 + abs(x)))
    root = experiments._root(kloeden, 0.1, 0.9999)
    assert within_one_ulp_of_a_sign_change(kloeden, root)
    assert abs(root - KLOEDEN_ROOT) <= 1e-14
    with pytest.raises(ValueError):
        experiments._root(kloeden, 0.5, 0.9999)


def test_bisect_stops_at_tolerance_or_float_resolution():
    assert experiments._bisect(lambda x: x > 0.3, 0.0, 1.0, 0.25) == (0.25, 0.5)
    lo, hi = experiments._bisect(lambda x: x > 0.3, 0.0, 1.0)
    assert lo <= 0.3 < hi and hi == np.nextafter(lo, 1.0)
    # a zero tolerance ends at adjacent floats instead of looping forever
    lo, hi = experiments._bisect(lambda x: x >= 1e-300, -1.0, 1.0, tol=0.0)
    assert hi == np.nextafter(lo, 1.0)


def contracting_model(tmp_path):
    params = RnnParams(alpha=1.0, w_r=[[0.5]], w_in=[[1.0]])
    path = tmp_path / "model.json"
    save_model(TrainedModel(params=params, train_error=np.zeros(1)), path)
    return path


def test_cli_index_on_stored_model(tmp_path, capsys):
    model = contracting_model(tmp_path)
    # arrivals are consumed forward of the anchor: transient + horizon
    # + the shift re-check all fit inside [-10, 400]
    seq = gen_two_symbol(np.array([0.3]), np.array([-0.3]), 0.5,
                         -10, 400, seed=0)
    seq_path = tmp_path / "input.csv"
    save_sequence(seq, seq_path)
    code, doc = run_cli(capsys, [
        "index", "--model", str(model), "--input", str(seq_path),
        "--ics", "8,12", "--transients", "50,100",
        "--horizon", "60", "--window", "50"])
    assert code == 0
    assert doc["report"]["index"] == "1"
    assert doc["report"]["diagnostics"]["stabilized"] is True


def test_cli_index_from_generator_spec(tmp_path, capsys):
    model = contracting_model(tmp_path)
    spec_path = tmp_path / "input.json"
    spec_path.write_text(json.dumps({
        "kind": "two_symbol",
        "params": {"u1": [0.3], "u2": [-0.3], "p": 0.5,
                   "first": -10, "last": 400},
        "seed": 0}))
    code, doc = run_cli(capsys, [
        "index", "--model", str(model), "--input", str(spec_path),
        "--ics", "8,12", "--transients", "50,100",
        "--horizon", "60", "--window", "50"])
    assert code == 0
    assert doc["report"]["index"] == "1"


def test_cli_certify_global(tmp_path, capsys):
    model = contracting_model(tmp_path)
    code, doc = run_cli(capsys, ["certify", "--model", str(model),
                                 "--mu", "0.9"])
    assert code == 0
    assert doc["certified"] is True
    assert abs(doc["worst_norm"] - 0.5) <= 1e-12
    expanding = tmp_path / "expanding.json"
    save_model(TrainedModel(params=RnnParams(alpha=1.0, w_r=[[2.0]],
                                             w_in=[[1.0]]),
                            train_error=np.zeros(1)), expanding)
    code, doc = run_cli(capsys, ["certify", "--model", str(expanding),
                                 "--mu", "0.9"])
    assert code == 1
    assert doc["certified"] is False


def test_cli_certify_region(tmp_path, capsys):
    from echodex import switching_params
    path = tmp_path / "switching.json"
    save_model(TrainedModel(params=switching_params(),
                            train_error=np.zeros(1)), path)
    seq = gen_two_symbol(np.array([0.25, 0.15]), np.array([-0.25, -0.15]),
                         0.5, -10, 10, seed=0)
    seq_path = tmp_path / "drive.csv"
    save_sequence(seq, seq_path)
    # = form keeps argparse from reading the leading minus as a flag
    code, doc = run_cli(capsys, [
        "certify", "--model", str(path), "--mu", "0.999",
        "--region=-1,0.55:1,1", "--input", str(seq_path)])
    assert code == 0
    assert doc["invariant"] is True and doc["certified"] is True
    assert doc["witness"] is None
    assert doc["input_samples"] == 4
    # a box through the saddle strip is not forward invariant
    code, doc = run_cli(capsys, [
        "certify", "--model", str(path), "--mu", "0.999",
        "--region=-1,0:1,1", "--input", str(seq_path)])
    assert code == 1
    assert doc["invariant"] is False and doc["witness"] is not None


def test_cli_certify_refuses_an_input_with_the_wrong_channel_count(tmp_path, capsys):
    path = tmp_path / "switching.json"
    save_model(TrainedModel(params=switching_params(),
                            train_error=np.zeros(1)), path)
    seq_path = tmp_path / "drive.csv"
    save_sequence(gen_uniform_scaled(0.1, 0, 20, seed=0), seq_path)
    code, doc = run_cli(capsys, [
        "certify", "--model", str(path), "--mu", "0.999",
        "--region=-1,0.55:1,1", "--input", str(seq_path)])
    assert code == 2
    assert doc["error"].startswith("ConfigurationError") and "n_i = 2" in doc["error"]


def test_cli_certify_refuses_mu_outside_the_unit_interval(tmp_path, capsys):
    bistable = tmp_path / "bistable.json"
    save_model(TrainedModel(params=RnnParams(alpha=1.0, w_r=[[2.0]],
                                             w_in=[[0.0]]),
                            train_error=np.zeros(1)), bistable)
    code, doc = run_cli(capsys, ["certify", "--model", str(bistable),
                                 "--mu", "2.5", "--region=-1:1"])
    assert code == 2 and "mu must lie in (0, 1)" in doc["error"]
    code, doc = run_cli(capsys, ["switching2d", "--set", "mu=1.5"])
    assert code == 2 and "mu must lie in (0, 1)" in doc["error"]


def test_cli_refuses_a_cluster_tol_that_is_not_positive(tmp_path, capsys):
    model = contracting_model(tmp_path)
    spec_path = tmp_path / "input.json"
    spec_path.write_text(json.dumps({
        "kind": "uniform_scaled",
        "params": {"w": 0.1, "first": 0, "last": 1000}, "seed": 0}))
    code, doc = run_cli(capsys, ["index", "--model", str(model),
                                 "--input", str(spec_path), "--tol", "0"])
    assert code == 2 and "cluster_tol" in doc["error"]
    for preset in ("switching2d", "context_task"):
        code, doc = run_cli(capsys, [preset, "--set", "cluster_tol=-1"])
        assert code == 2 and "cluster_tol" in doc["error"]


@pytest.mark.parametrize("params,key", [
    ({"w": 0.01, "first": 0.5, "last": 800}, "first"),
    ({"w": 0.01, "first": 0, "last": 800.0}, "last"),
    ({"w": "0.01", "first": 0, "last": 800}, "w"),
    (["x"], "params"),
])
def test_cli_index_refuses_generator_params_of_the_wrong_type(
        tmp_path, capsys, params, key):
    model = contracting_model(tmp_path)
    spec_path = tmp_path / "input.json"
    spec_path.write_text(json.dumps({"kind": "uniform_scaled",
                                     "params": params, "seed": 1}))
    code, doc = run_cli(capsys, ["index", "--model", str(model),
                                 "--input", str(spec_path)])
    assert code == 2
    assert doc["error"].startswith("ValueError") and key in doc["error"]


@pytest.mark.parametrize("region, lo, hi", [
    ("nan,0:1,1", "[nan, 0.0]", "[1.0, 1.0]"),
    ("0,0:1,inf", "[0.0, 0.0]", "[1.0, inf]"),
])
def test_cli_certify_refuses_a_region_bound_that_is_not_finite(
        tmp_path, capsys, region, lo, hi):
    # these used to fail in an SVD that did not converge, or to warn twice
    # before certifying
    path = tmp_path / "switching.json"
    save_model(TrainedModel(params=switching_params(),
                            train_error=np.zeros(1)), path)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, doc = run_cli(capsys, ["certify", "--model", str(path),
                                     "--mu", "0.999", f"--region={region}"])
    assert seen == []
    assert code == 2
    assert doc["error"] == ("ConfigurationError: region bounds must be finite, "
                            f"got lo {lo} and hi {hi}")


def test_cli_certify_bad_region_string(tmp_path, capsys):
    model = contracting_model(tmp_path)
    # lo and hi are split by ':' only
    for region in ("0,0", "0,0..1,1"):
        code, doc = run_cli(capsys, ["certify", "--model", str(model),
                                     "--mu", "0.9", "--region", region])
        assert code == 2, region
        assert "region must look like lo1,lo2:hi1,hi2" in doc["error"]


def test_cli_rerun(tmp_path, capsys):
    first = tmp_path / "first"
    code, doc = run_cli(capsys, ["fold_bisect", "--out", str(first)])
    assert code == 0
    again = tmp_path / "again"
    code, doc = run_cli(capsys, ["rerun", "--manifest",
                                 str(first / "manifest.json"),
                                 "--out", str(again)])
    assert code == 0
    assert read_tree(first) == read_tree(again)
