import json
import math
import os
from pathlib import Path
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from echodex import (ConfigurationError, KloedenSystem, RnnParams,
                     WindowExhausted, jacobian, jacobian_batch, load_params,
                     orbit, run_ensemble, save_params, shift, spectral_norm,
                     step, step_batch)
from echodex import core
from echodex.sequences import InputSequence

from conftest import lockstep_reservoir, random_params


def make_seq(rng, n_i, first, last):
    vals = rng.uniform(-1, 1, (last - first + 1, n_i))
    return InputSequence(anchor=first, values=vals,
                         lo=-np.ones(n_i), hi=np.ones(n_i))


def reference_step(params, u, x):
    """Plain-loop reimplementation of the update map, summation per row."""
    n_r = params.n_r
    pre = np.zeros(n_r)
    for i in range(n_r):
        acc = 0.0
        for j in range(n_r):
            acc += params.w_r[i, j] * x[j]
        for j in range(params.n_i):
            acc += params.w_in[i, j] * u[j]
        pre[i] = acc
    if params.w_out is not None:
        z = np.zeros(params.n_o)
        for i in range(params.n_o):
            z[i] = sum(params.w_out[i, j] * x[j] for j in range(n_r))
        for i in range(n_r):
            pre[i] += sum(params.w_fb[i, j] * z[j] for j in range(params.n_o))
    return (1.0 - params.alpha) * x + params.alpha * np.tanh(pre)


def test_step_matches_plain_loop_reference():
    rng = np.random.default_rng(7)
    for case in range(30):
        params = random_params(rng, with_feedback=bool(case % 2))
        u = rng.uniform(-1, 1, params.n_i)
        x = rng.uniform(-1, 1, params.n_r)
        got = step(params, u, x)
        want = reference_step(params, u, x)
        assert np.allclose(got, want, rtol=0, atol=1e-13)
        # same inputs give bit-identical output
        assert np.array_equal(got, step(params, u, x))


def test_leak_one_is_pure_activation_update():
    rng = np.random.default_rng(3)
    params = random_params(rng, n_r=4, n_i=2, alpha=1.0)
    u = rng.uniform(-1, 1, 2)
    x = rng.uniform(-1, 1, 4)
    # the 4-row form: each vector padded with three zero rows, one
    # matmul by the transposed matrix, row 0
    def row0(w, v):
        return np.matmul(np.vstack([v, np.zeros((3, v.size))]), w.T)[0]
    want = np.tanh(row0(params.w_r, x) + row0(params.w_in, u))
    assert step(params, u, x).tobytes() == want.tobytes()


def test_leak_free_orbit_and_step_agree_on_the_sign_of_zero():
    # tanh(-0.0) is -0.0, which the leaky form 0 * x + 1 * tanh(pre)
    # would turn into +0.0: orbit, step and step_batch all keep it
    params = RnnParams(alpha=1.0, w_r=[[-1.0]], w_in=[[-1.0]])
    seq = InputSequence(anchor=0, values=np.zeros((6, 1)), lo=-np.ones(1),
                        hi=np.ones(1))
    states = orbit(params, seq, np.zeros(1), 5).states
    x = np.zeros(1)
    ref = [x]
    for k in range(1, 6):
        x = step(params, seq.at(k), x)
        ref.append(x)
    assert states.tobytes() == np.array(ref).tobytes()
    assert np.signbit(states[1, 0])
    batch = step_batch(params, np.zeros(1), np.zeros((1, 1)))
    assert batch.tobytes() == states[1].tobytes()


def test_feedback_enters_through_readout():
    # the step reads M = W_r + W_fb W_out in the fixed order M x, then
    # + W_in u; it agrees with the fed-back form W_r x + W_in u +
    # W_fb (W_out x) up to rounding
    rng = np.random.default_rng(11)
    params = random_params(rng, n_r=3, n_i=1, with_feedback=True)
    u = rng.uniform(-1, 1, 1)
    x = rng.uniform(-1, 1, 3)
    got = step(params, u, x)
    pre = params.effective_matrix @ x + params.w_in @ u
    want = (1 - params.alpha) * x + params.alpha * np.tanh(pre)
    assert got.tobytes() == want.tobytes()
    pre = params.w_r @ x + params.w_in @ u + params.w_fb @ (params.w_out @ x)
    fed_back = (1 - params.alpha) * x + params.alpha * np.tanh(pre)
    assert np.allclose(got, fed_back, rtol=0, atol=1e-15)


@pytest.mark.parametrize("alpha", [0.7, 1.0])
@pytest.mark.parametrize("wiring", ["feedback", "context"])
def test_networks_step_through_their_effective_matrix(wiring, alpha):
    # a readout's feedback is folded into M once, so a network steps
    # byte for byte as the network without readout whose W_r is M
    rng = np.random.default_rng(71)
    params = lockstep_reservoir(rng, 30, wiring, alpha)
    plain = RnnParams(alpha=alpha, w_r=params.effective_matrix, w_in=params.w_in)
    seq = make_seq(rng, params.n_i, 0, 300)
    x0 = rng.uniform(-1, 1, 30)
    ics = rng.uniform(-1, 1, (5, 30))
    for f in (lambda p: orbit(p, seq, x0, 300).states,
              lambda p: run_ensemble(p, seq, ics, 200, 100).trajectories,
              lambda p: step(p, seq.at(1), x0),
              lambda p: step_batch(p, seq.at(1), ics)):
        assert f(params).tobytes() == f(plain).tobytes()


def test_step_batch_rows_match_solo_step():
    rng = np.random.default_rng(19)
    for case in range(10):
        params = random_params(rng, with_feedback=bool(case % 2))
        u = rng.uniform(-1, 1, params.n_i)
        xs = rng.uniform(-1, 1, (6, params.n_r))
        batch = step_batch(params, u, xs)
        for i in range(6):
            # BLAS may differ from the solo path in the last ulp
            assert np.allclose(batch[i], step(params, u, xs[i]),
                               rtol=1e-13, atol=1e-15)


def test_step_batch_duplicate_rows_identical():
    rng = np.random.default_rng(23)
    params = random_params(rng, n_r=5, n_i=2, with_feedback=True)
    u = rng.uniform(-1, 1, 2)
    row = rng.uniform(-1, 1, 5)
    xs = np.vstack([row, rng.uniform(-1, 1, 5), row])
    out = step_batch(params, u, xs)
    assert np.array_equal(out[0], out[2])


def test_cocycle_identity_bit_exact():
    """Evolving m+n steps equals evolving m, shifting the input, then n."""
    rng = np.random.default_rng(101)
    for _ in range(100):
        params = random_params(rng, with_feedback=bool(rng.integers(2)))
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        seq = make_seq(rng, params.n_i, -2, m + n + 2)
        x0 = rng.uniform(-1, 1, params.n_r)
        whole = orbit(params, seq, x0, m + n).final
        mid = orbit(params, seq, x0, m).final
        tail = orbit(params, shift(seq, m), mid, n).final
        assert np.array_equal(whole, tail)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(41)
    h = 1e-6
    for case in range(20):
        params = random_params(rng, with_feedback=bool(case % 2))
        u = rng.uniform(-1, 1, params.n_i)
        x = rng.uniform(-1, 1, params.n_r)
        jac = jacobian(params, u, x)
        fd = np.empty_like(jac)
        for j in range(params.n_r):
            e = np.zeros(params.n_r)
            e[j] = h
            fd[:, j] = (step(params, u, x + e) - step(params, u, x - e)) / (2 * h)
        denom = max(1.0, np.linalg.norm(jac))
        assert np.linalg.norm(fd - jac) / denom <= 1e-6


def test_jacobian_batch_stacks_pointwise_jacobians():
    rng = np.random.default_rng(43)
    params = random_params(rng, n_r=4, n_i=2, with_feedback=True)
    u = rng.uniform(-1, 1, 2)
    xs = rng.uniform(-1, 1, (5, 4))
    jb = jacobian_batch(params, u, xs)
    for i in range(5):
        assert np.allclose(jb[i], jacobian(params, u, xs[i]), atol=1e-14)


@pytest.mark.parametrize("batch_map", [step_batch, jacobian_batch])
def test_batch_maps_refuse_a_mis_shaped_input_or_state_batch(batch_map):
    params = random_params(np.random.default_rng(97), n_r=4, n_i=2)
    u, xs = np.ones(2), np.zeros((3, 4))
    # one input per row is not one input value
    for bad_u in (np.ones((3, 2)), np.ones(1), np.ones(3), 1.0):
        with pytest.raises(ConfigurationError, match=r"input must have shape \(2,\)"):
            batch_map(params, bad_u, xs)
    for bad_xs in (np.zeros(4), np.zeros((3, 2)), np.zeros((1, 3, 4))):
        with pytest.raises(ConfigurationError, match=r"states must have shape \(m, 4\)"):
            batch_map(params, u, bad_xs)
    assert batch_map(params, u, xs).shape[0] == 3


@pytest.mark.parametrize("failing", ["none", "caller", "helpers"])
def test_member_groups_leave_no_thread_behind(failing, monkeypatch):
    # three groups: group 0 in the calling thread, two helper threads
    monkeypatch.setattr(core, "_MIN_GROUP_WORK", 1)
    monkeypatch.setattr(core, "_cpu_count", lambda: 3)
    rng = np.random.default_rng(101)
    params = lockstep_reservoir(rng, 30, "feedback")
    seqs = [make_seq(rng, params.n_i, 0, 40) for _ in range(2)]
    xs = rng.uniform(-1, 1, (2, 6, 30))
    tails = np.empty((2, 6, 11, 30))
    callers, advance = [], core._advance

    def failing_advance(*args):
        caller = threading.current_thread() is threading.main_thread()
        callers.append(caller)
        if not caller:
            time.sleep(0.05)  # still running when group 0 is done
        if failing == ("caller" if caller else "helpers"):
            raise RuntimeError(f"{failing} failed")
        return advance(*args)
    monkeypatch.setattr(core, "_advance", failing_advance)

    before = threading.active_count()
    if failing == "none":
        final = core._advance_groups(params, seqs, xs, 30, 40, tails)
        want = np.empty_like(tails)
        assert final.tobytes() == advance(
            params, core._drive(params, seqs, 30, 40), xs, want).tobytes()
        assert tails.tobytes() == want.tobytes()
    else:
        with pytest.raises(RuntimeError, match=f"^{failing} failed$"):
            core._advance_groups(params, seqs, xs, 30, 40, tails)
    assert sorted(callers) == [False, False, True]
    assert threading.active_count() == before


def test_cli_start_up_leaves_the_thread_pool_unloaded():
    # member groups import concurrent.futures only when they split
    code = "import sys, echodex.cli; sys.exit('concurrent.futures' in sys.modules)"
    src = str(Path(core.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_effective_matrix_includes_feedback_loop():
    rng = np.random.default_rng(47)
    params = random_params(rng, n_r=3, with_feedback=True)
    want = params.w_r + params.w_fb @ params.w_out
    assert np.allclose(params.effective_matrix, want, atol=0)
    bare = random_params(rng, n_r=3)
    assert np.array_equal(bare.effective_matrix, bare.w_r)


def test_params_validation_rejects_bad_shapes():
    eye = np.eye(2)
    with pytest.raises(ConfigurationError):
        RnnParams(alpha=0.5, w_r=np.ones((2, 3)), w_in=eye)
    with pytest.raises(ConfigurationError):
        RnnParams(alpha=0.5, w_r=eye, w_in=np.ones((3, 1)))
    with pytest.raises(ConfigurationError):
        RnnParams(alpha=0.0, w_r=eye, w_in=eye)
    with pytest.raises(ConfigurationError):
        RnnParams(alpha=1.5, w_r=eye, w_in=eye)
    with pytest.raises(ConfigurationError):
        RnnParams(alpha=0.5, w_r=eye * np.nan, w_in=eye)
    # feedback requires a readout to close the loop through
    with pytest.raises(ConfigurationError):
        RnnParams(alpha=0.5, w_r=eye, w_in=eye, w_fb=np.ones((2, 1)))


def test_params_dict_and_file_roundtrip(tmp_path):
    rng = np.random.default_rng(53)
    params = random_params(rng, with_feedback=True)
    back = RnnParams.from_dict(params.to_dict())
    assert back.alpha == params.alpha
    assert np.array_equal(back.w_r, params.w_r)
    assert np.array_equal(back.w_fb, params.w_fb)
    path = tmp_path / "model.json"
    save_params(params, path)
    loaded = load_params(path)
    assert np.array_equal(loaded.w_r, params.w_r)
    assert np.array_equal(loaded.w_in, params.w_in)
    assert np.array_equal(loaded.w_out, params.w_out)
    assert loaded.alpha == params.alpha
    # the file is a structured text document
    doc = json.loads(path.read_text())
    assert "w_r" in doc and "alpha" in doc


def test_orbit_requires_the_consumed_window():
    rng = np.random.default_rng(59)
    params = random_params(rng, n_r=2, n_i=1)
    seq = make_seq(rng, 1, 1, 10)
    x0 = np.zeros(2)
    with pytest.raises(WindowExhausted):
        orbit(params, seq, x0, 11)
    with pytest.raises(WindowExhausted):
        # the transition arriving at time 0 would consume u[0]
        orbit(params, seq, x0, 3, anchor=-1)
    traj = orbit(params, seq, x0, 10)
    assert traj.n_steps == 10
    assert np.array_equal(traj.at(0), x0)
    assert np.array_equal(traj.at(10), traj.final)
    with pytest.raises(IndexError):
        traj.at(11)


def test_orbit_consumes_inputs_at_arrival_times():
    rng = np.random.default_rng(61)
    params = random_params(rng, n_r=2, n_i=1)
    seq = make_seq(rng, 1, -5, 5)
    x0 = rng.uniform(-1, 1, 2)
    traj = orbit(params, seq, x0, 3, anchor=-2)
    x = x0
    for k in (-1, 0, 1):
        x = step(params, seq.at(k), x)
    assert np.array_equal(traj.final, x)
    # orbit runs the lockstep kernel; step is the per-step reference
    # beside it.  2100 steps cross the kernel's drive-chunk seams wherever
    # a chunk of _DRIVE_BYTES holds fewer steps (n_r >= 30).
    n = 2100
    for n_r in (1, 2, 30, 200):
        for wiring in ("none", "feedback", "context"):
            params = lockstep_reservoir(rng, n_r, wiring)
            seq = make_seq(rng, params.n_i, -2, n - 3)
            x = rng.uniform(-1, 1, n_r)
            ref = [x]
            for k in range(-2, n - 2):
                x = step(params, seq.at(k), x)
                ref.append(x)
            states = orbit(params, seq, ref[0], n, anchor=-3).states
            assert states.tobytes() == np.array(ref).tobytes(), (n_r, wiring)
    system = KloedenSystem(a=1.5)
    seq = system.arrival_sequence(-40, n - 40)
    x = np.array([0.3])
    ref = [x]
    for k in range(-39, n - 39):
        x = system.step_one(seq.at(k), x)
        ref.append(x)
    run = system.run(0.3, -40, n - 40)
    assert run.tobytes() == np.array(ref)[:, 0].tobytes()


@pytest.mark.parametrize("drive_bytes", [core._DRIVE_BYTES, 200])
@pytest.mark.parametrize("n_r,wiring,alpha", [
    pytest.param(n_r, wiring, alpha,
                 id=f"{n_r}-{wiring}" + ("-leak-free" if alpha == 1.0 else ""))
    for n_r, wiring in [(1, "none"), (30, "feedback"), (30, "context")]
    for alpha in (0.7, 1.0)])
def test_advance_steps_a_copy_and_leaves_its_states_unchanged(
        n_r, wiring, alpha, drive_bytes, monkeypatch):
    # the n_r = 1 multiply path and the gemv path, leaky and leak-free,
    # step their own copy of xs in place; a 200-byte drive bound puts a
    # chunk seam every few steps
    monkeypatch.setattr(core, "_DRIVE_BYTES", drive_bytes)
    rng = np.random.default_rng(67)
    params = lockstep_reservoir(rng, n_r, wiring, alpha)
    n = 300
    seqs = [make_seq(rng, params.n_i, -1, n) for _ in range(3)]
    xs = rng.uniform(-1, 1, (3, 4, n_r))
    before = xs.copy()
    tails = np.full((3, 4, n + 1, n_r), np.nan)
    final = core._advance(params, core._drive(params, seqs, 0, n), xs, tails)
    assert xs.tobytes() == before.tobytes()
    assert not np.shares_memory(final, xs)
    for i, seq in enumerate(seqs):
        for k in range(4):
            x = xs[i, k]
            assert tails[i, k, 0].tobytes() == x.tobytes()
            for t in range(1, n + 1):
                x = step(params, seq.at(t), x)
                assert tails[i, k, t].tobytes() == x.tobytes()
            assert final[i, k].tobytes() == x.tobytes()


def record_merges(monkeypatch):
    """The widths _advance steps its drive blocks at, one for each block
    it tries to merge."""
    widths, distinct = [], core._distinct_rows

    def recording(x):
        merged = distinct(x)
        widths.append(x.shape[1] if merged is None else merged[0].shape[1])
        return merged
    monkeypatch.setattr(core, "_distinct_rows", recording)
    return widths


def duplicate_members(system, rng):
    """A lane of five members: +0.0 and -0.0 (equal values, unequal bits),
    two with the same bits, and for a state of several coordinates one
    that sums to the same int64 key with other bits."""
    d = system.state_dim
    v = rng.uniform(-1, 1, d)
    last = v[::-1] if d > 1 else -v
    return np.stack([np.zeros(d), -np.zeros(d), v, v, last])[None]


@pytest.mark.parametrize("system", [
    KloedenSystem(a=1.5),
    lockstep_reservoir(np.random.default_rng(89), 1, "none", 1.0),
    lockstep_reservoir(np.random.default_rng(89), 30, "context")],
    ids=["kloeden", "1-leak-free", "30-context"])
def test_a_lanes_bit_identical_members_keep_their_own_bits(system, monkeypatch):
    rng = np.random.default_rng(97)
    if isinstance(system, KloedenSystem):
        seq = system.arrival_sequence(0, 50)
    else:
        seq = make_seq(rng, system.n_i, 0, 50)
    xs = duplicate_members(system, rng)
    widths = record_merges(monkeypatch)
    final = core._advance_groups(system, [seq], xs, 0, 50)
    assert widths[0] == 4  # the two equal members step as one row
    # a run that writes tails steps every member
    del widths[:]
    states = core._orbits(system, seq, list(xs[0]), 50)
    assert widths == []
    for k, x0 in enumerate(xs[0]):
        solo = orbit(system, seq, x0, 50)
        assert final[0, k].tobytes() == solo.final.tobytes()
        assert states[k].tobytes() == solo.states.tobytes()
    if isinstance(system, KloedenSystem):  # both zeros are fixed points
        assert final[0, 0].tobytes() == np.float64(0.0).tobytes()
        assert final[0, 1].tobytes() == np.float64(-0.0).tobytes()


def test_lanes_with_the_same_members_never_merge_across_lanes(monkeypatch):
    # both lanes start from the same members under their own drives; a
    # 64-byte drive bound puts a block seam, so a merge, every 4 steps.
    # Each lane's pairs in one basin of the contracting Kloeden map share
    # their bits from step 72 on, when the two lanes' states long differ.
    # The run ends 8 steps later: a lane stepped on from the other's rows
    # would by then not yet have forgotten them.
    monkeypatch.setattr(core, "_DRIVE_BYTES", 64)
    rng = np.random.default_rng(5)
    system = KloedenSystem(a=1.5)
    seqs = [InputSequence(anchor=0, values=rng.uniform(1.2, 2.0, (201, 1)),
                          lo=np.array([1.2]), hi=np.array([2.0]))
            for _ in range(2)]
    ics = np.array([[0.5], [0.7], [-0.4], [-0.6]])
    widths = record_merges(monkeypatch)
    final = core._advance_groups(system, seqs, np.stack([ics, ics]), 0, 80)
    assert widths == [4] * 18 + [2] * 2
    for i, seq in enumerate(seqs):
        for k, x0 in enumerate(ics):
            assert final[i, k].tobytes() == orbit(system, seq, x0, 80).final.tobytes()
    assert final[0].tobytes() != final[1].tobytes()


def test_scalar_sweep_ladder_steps_two_rows_a_lane_past_its_first_transient(
        monkeypatch):
    # the gain of stepping bit-identical members once: every lane of the
    # committed seed holds one or two distinct states from step ~5,000 on
    from echodex import experiments, index
    transient = experiments.DEFAULTS["scalar_sweep"]["transients"][0]
    runs, advance_groups, distinct = [], index._advance_groups, core._distinct_rows

    def recording_advance_groups(system, seqs, xs, t0, t1, tails=None):
        runs.append((t0, tails is None, []))
        return advance_groups(system, seqs, xs, t0, t1, tails)

    def recording_distinct(x):
        merged = distinct(x)
        runs[-1][2].append(x.shape[1] if merged is None else merged[0].shape[1])
        return merged
    monkeypatch.setattr(index, "_advance_groups", recording_advance_groups)
    monkeypatch.setattr(core, "_distinct_rows", recording_distinct)
    assert experiments.run_scalar_sweep().ok
    late = [widths for t0, tail_free, widths in runs
            if tail_free and t0 >= transient]
    assert late and all(widths and max(widths) <= 2 for widths in late)


def record_widening(monkeypatch):
    """(block steps, width stepped at, sub-block steps) for each drive
    block _advance steps, the sub-block steps [] when it steps the
    block's own rows."""
    log, widened = [], core._widened

    def recording(block, shape, buf):
        subs = []
        for sub in widened(block, shape, buf):
            if sub is not block:
                subs.append(len(sub))
            yield sub
        log.append((len(block), shape[1], subs))
    monkeypatch.setattr(core, "_widened", recording)
    return log


@pytest.mark.parametrize("n_r,alpha,drive_bytes,widened", [
    (1, 1.0, 160, True), (2, 0.7, 480, True), (30, 0.7, 1024, False)],
    ids=["1-leak-free", "2-leaky", "30-over-budget"])
def test_widened_drive_rows_step_like_solo_orbits(n_r, alpha, drive_bytes,
                                                 widened, monkeypatch):
    # a drive bound of a few steps widens each block in sub-blocks of
    # fewer steps, with a remainder at some width; members 1 and 3 merge
    # before the first block, the others as the contracting network
    # brings them onto the same bits, so the width shrinks between
    # blocks.  A state over the bound steps on the block's own rows.
    # At n_r = 2 the 480-byte bound makes 15-step blocks, and the width
    # goes 4 -> 2 -> 1 with sub-blocks [7, 7, 1] at width 2: a merge
    # check falls between the steps where the members meet.
    monkeypatch.setattr(core, "_DRIVE_BYTES", drive_bytes)
    rng = np.random.default_rng(101)
    params = lockstep_reservoir(rng, n_r, "none", alpha)
    n = 300
    seqs = [make_seq(rng, params.n_i, 0, n) for _ in range(2)]
    xs = rng.uniform(-1, 1, (2, 5, n_r))
    xs[:, 3] = xs[:, 1]
    log = record_widening(monkeypatch)
    final = core._advance(params, core._drive(params, seqs, 0, n), xs)
    widths = [w for _, w, _ in log]
    if widened:
        assert widths[0] == 4 and widths[-1] == 1
        assert any(len(subs) > 1 and subs[-1] < subs[0] for _, _, subs in log)
        assert all(sum(subs) == steps for steps, w, subs in log if w > 1)
    else:
        assert all(subs == [] for _, _, subs in log)
    del log[:]
    tails = np.empty((2, 5, n + 1, n_r))
    core._advance(params, core._drive(params, seqs, 0, n), xs, tails)
    assert all(w == 5 and bool(subs) == widened for _, w, subs in log)
    for i, seq in enumerate(seqs):
        for k in range(5):
            x = xs[i, k]
            for t in range(1, n + 1):
                x = step(params, seq.at(t), x)
                assert tails[i, k, t].tobytes() == x.tobytes()
            assert final[i, k].tobytes() == orbit(params, seq, xs[i, k], n).final.tobytes()
            assert final[i, k].tobytes() == x.tobytes()


@pytest.mark.parametrize("n_r", [1, 30])
def test_network_drive_maps_each_lanes_own_inputs(n_r, monkeypatch):
    # three lanes of four input channels, or of one (at n_r = 1 a 1 x 1
    # W_in, which maps in place); a 200-byte bound puts a block seam every
    # 8 steps or fewer.  Each row is that lane's W_in u, with the bits
    # core._matvec gives it.
    monkeypatch.setattr(core, "_DRIVE_BYTES", 200)
    rng = np.random.default_rng(103)
    for wiring in ("feedback", "none"):
        params = lockstep_reservoir(rng, n_r, wiring)
        seqs = [make_seq(rng, params.n_i, -3, 60) for _ in range(3)]
        t = 0
        for block in core._drive(params, seqs, 0, 60):
            assert block.shape[1:] == (3, 1, n_r)
            for row in block:
                t += 1
                for i, seq in enumerate(seqs):
                    want = core._matvec(params.w_in, seq.at(t))
                    assert row[i, 0].tobytes() == want.tobytes()
        assert t == 60


def test_drive_stacks_each_lanes_own_inputs_for_any_system(monkeypatch):
    # three lanes of a system that is not a network take the same
    # step-major stacking; a 170-byte bound makes 7-step blocks of one
    # channel, the last one of 4 steps.  Each row is (lanes, n_i), each
    # lane's own u.
    monkeypatch.setattr(core, "_DRIVE_BYTES", 170)
    rng = np.random.default_rng(107)
    system = KloedenSystem(a=1.5)
    seqs = [make_seq(rng, 1, -3, 60) for _ in range(3)]
    t, steps = 0, []
    for block in core._drive(system, seqs, 0, 60):
        steps.append(len(block))
        for row in block:
            t += 1
            assert row.shape == (3, 1)
            for i, seq in enumerate(seqs):
                assert row[i].tobytes() == seq.at(t).tobytes()
    assert steps == [7] * 8 + [4] and t == 60


def offset_copy(a, offset):
    """Copy of a whose data starts `offset` bytes past a 64-byte boundary."""
    buf = np.empty(a.size + 16)
    start = (offset - buf.ctypes.data) % 64 // 8
    out = buf[start:start + a.size].reshape(a.shape)
    out[...] = a
    assert out.ctypes.data % 64 == offset
    return out


@pytest.mark.parametrize("n_r,wiring,alpha", [(1, "none", 1.0), (30, "context", 0.7),
                                              (200, "context", 1.0)])
def test_advance_rows_do_not_depend_on_where_the_states_sit(n_r, wiring, alpha):
    rng = np.random.default_rng(73)
    params = lockstep_reservoir(rng, n_r, wiring, alpha)
    n = 40
    seqs = [make_seq(rng, params.n_i, 0, n) for _ in range(2)]
    xs = rng.uniform(-1, 1, (2, 3, n_r))
    runs = []
    for offset in range(0, 64, 8):
        tails = np.empty((2, 3, n + 1, n_r))
        final = core._advance(params, core._drive(params, seqs, 0, n),
                              offset_copy(xs, offset), tails)
        runs.append(tails.tobytes() + final.tobytes())
    assert len(set(runs)) == 1


def test_params_store_matrices_c_contiguous_on_64_byte_boundaries():
    rng = np.random.default_rng(79)
    w_r = np.asfortranarray(rng.uniform(-0.1, 0.1, (7, 7)))
    w_in = offset_copy(rng.uniform(-1, 1, (7, 3)), 16)
    w_fb = np.asfortranarray(rng.uniform(-1, 1, (7, 2)))
    w_out = rng.uniform(-1, 1, (7, 2)).T
    for params in (RnnParams(alpha=0.5, w_r=w_r, w_in=w_in, w_fb=w_fb,
                             w_out=w_out),
                   RnnParams(alpha=1.0, w_r=w_r, w_in=w_in)):
        for name in ("w_r", "w_in", "w_fb", "w_out"):
            a = getattr(params, name)
            if a is None:
                continue
            assert a.flags.c_contiguous and not a.flags.writeable, name
            # an empty w_fb (no readout) has no data to place
            assert a.size == 0 or a.ctypes.data % 64 == 0, name
        m = params.effective_matrix
        assert m.flags.c_contiguous and m.ctypes.data % 64 == 0
    assert np.array_equal(params.w_r, w_r) and np.array_equal(params.w_in, w_in)


def test_orbits_do_not_depend_on_the_memory_order_of_the_parameters():
    # a ridge readout is a transposed solve, so a trained model's w_out
    # arrives Fortran-ordered; its orbit must equal that of the same
    # values read back from the model document
    rng = np.random.default_rng(83)
    values = lockstep_reservoir(rng, 200, "context", 1.0)
    params = RnnParams(alpha=1.0, w_r=np.asfortranarray(values.w_r),
                       w_in=values.w_in, w_fb=np.asfortranarray(values.w_fb),
                       w_out=np.ascontiguousarray(values.w_out.T).T)
    back = RnnParams.from_dict(params.to_dict())
    seq = make_seq(rng, params.n_i, 0, 300)
    x0 = rng.uniform(-1, 1, 200)
    assert (orbit(params, seq, x0, 300).states.tobytes()
            == orbit(back, seq, x0, 300).states.tobytes())


@pytest.mark.parametrize("n", [2, 200])
def test_a_rows_bits_in_a_4_row_gemm_depend_on_no_other_row(n):
    # the row contract ensembles rest on: in a GEMM of 4 rows, a row's
    # bits depend neither on the other rows' values nor on its place in
    # the block, and a state padded with three zero rows gets the same
    # bits; the package's row map gives a state those bits alone and
    # among other states
    rng = np.random.default_rng(107)
    w = core._frozen_matrix(rng.uniform(-1, 1, (n, n)))
    x = rng.uniform(-1, 1, n)
    padded = np.zeros((4, n))
    padded[0] = x
    want = np.matmul(padded, w.T)[0].tobytes()
    for place in range(4):
        for _ in range(3):
            blocks = rng.uniform(-1, 1, (3, 4, n))
            blocks[1, place] = x
            assert np.matmul(blocks, w.T)[1, place].tobytes() == want
    assert core._matvec(w, x).tobytes() == want
    xs = rng.uniform(-1, 1, (7, n))
    xs[5] = x
    assert core._matvec(w, xs)[5].tobytes() == want


def test_advance_tails_do_not_depend_on_the_blas_thread_count():
    # n_r = 200 steps as rows of 4-row GEMMs, whose bits are the same at
    # one BLAS thread and at two: 2 x 5 members, so a block holds two
    # padding rows, in a run with tails and a tail-free run that merges
    code = """if True:
        import hashlib
        import numpy as np
        from echodex import RnnParams, core
        from echodex.sequences import InputSequence
        rng = np.random.default_rng(109)
        # no eigen- or singular value solve: LAPACK's bits may change
        # with the BLAS thread count
        params = RnnParams(alpha=0.7, w_r=rng.uniform(-1, 1, (200, 200)) / 200,
                           w_in=rng.uniform(-1, 1, (200, 2)))
        seqs = [InputSequence(anchor=0, values=rng.uniform(-1, 1, (61, 2)),
                              lo=-np.ones(2), hi=np.ones(2)) for _ in range(2)]
        xs = rng.uniform(-1, 1, (2, 5, 200))
        xs[:, 4] = xs[:, 0]
        tails = np.empty((2, 5, 61, 200))
        core._advance(params, core._drive(params, seqs, 0, 60), xs, tails)
        final = core._advance(params, core._drive(params, seqs, 0, 60), xs)
        print(hashlib.sha256(tails.tobytes() + final.tobytes()).hexdigest())
    """
    src = str(Path(core.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr[-2000:]
        digests.add(proc.stdout)
    assert len(digests) == 1


@pytest.mark.parametrize("inputs,members,n_r,steps",
                         [(30, 30, 1, 20000), (2, 100, 200, 300)])
def test_advance_scratch_is_bounded(inputs, members, n_r, steps):
    # the scalar sweep's rung with shift lanes, and the context task's
    rng = np.random.default_rng(71)
    params = lockstep_reservoir(rng, n_r, "none")
    seqs = [make_seq(rng, params.n_i, 0, steps) for _ in range(inputs)]
    xs = rng.uniform(-1, 1, (inputs, members, n_r))
    # the tails are the run's output, not its scratch: allocated untraced
    tails = np.empty((inputs, members, steps + 1, n_r))
    tracemalloc.start()
    try:
        core._advance(params, core._drive(params, seqs, 0, steps), xs, tails)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beyond the tails and two state-sized arrays (the stepped copy and
    # its pre-activation), the drive block and the widened rows hold up to
    # _DRIVE_BYTES each, whatever the inputs and steps; 32 KiB is left for
    # per-chunk views and numpy's own loop buffers
    assert peak - 2 * xs.nbytes < 2 * core._DRIVE_BYTES + 32 * 1024


def power_iteration_norm(a, iters=2000):
    """Independent spectral norm oracle: power iteration on A^T A."""
    ata = a.T @ a
    v = np.ones(a.shape[1]) / math.sqrt(a.shape[1])
    for _ in range(iters):
        w = ata @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return math.sqrt(float(v @ (ata @ v)))


def test_spectral_norm_against_power_iteration():
    rng = np.random.default_rng(67)
    for _ in range(15):
        a = rng.uniform(-2, 2, (int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        assert abs(spectral_norm(a) - power_iteration_norm(a)) <= 1e-10
    assert spectral_norm(np.zeros((3, 3))) == 0.0
    with pytest.raises(ConfigurationError):
        spectral_norm(np.array([1.0, 2.0]))


def test_activation_registry():
    # tanh is the only activation: every document names it, and a
    # document naming another one is refused on reading
    params = RnnParams(alpha=0.5, w_r=np.eye(2), w_in=np.ones((2, 1)))
    assert params.state_bound == 1.0
    doc = params.to_dict()
    assert list(doc)[:2] == ["alpha", "activation"]
    assert doc["activation"] == "tanh"
    RnnParams.from_dict(doc)
    with pytest.raises(ConfigurationError, match="relu"):
        RnnParams.from_dict({**doc, "activation": "relu"})
