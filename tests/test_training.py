from dataclasses import replace

import numpy as np
import pytest

from echodex import (ConfigurationError, ReservoirConfig, RnnParams,
                     TrainedModel, closed_loop_eval, context_reservoir,
                     init_reservoir, load_model, nrmse, orbit, pca_project,
                     ridge_readout, save_model, save_params,
                     teacher_forced_states)
from echodex.core import _matvec
from echodex.rng import DOMAIN_NOISE, substream
from echodex.sequences import InputSequence


def small_cfg(**kw):
    base = dict(n_r=60, sparsity=0.9, spectral_radius_target=0.9,
                weight_range=1.0, seed=0)
    base.update(kw)
    return ReservoirConfig(**base)


def small_drive(rng, n=80, n_ch=2):
    vals = rng.uniform(0.05, 1.0, (n, n_ch))
    return InputSequence(anchor=0, values=vals, lo=np.zeros(n_ch),
                         hi=np.ones(n_ch))


def test_init_reservoir_hits_radius_and_sparsity():
    cfg = small_cfg(n_r=200)
    params = init_reservoir(cfg, 4, 2)
    radius = float(np.max(np.abs(np.linalg.eigvals(params.w_r))))
    assert abs(radius - 0.9) <= 1e-9
    filled = np.count_nonzero(params.w_r) / params.w_r.size
    keep = 1.0 - cfg.sparsity
    # binomial 4 sigma band on 200^2 independent keep/zero draws
    assert abs(filled - keep) <= 4 * np.sqrt(keep * (1 - keep) / params.w_r.size)
    assert params.alpha == 1.0
    assert params.w_in.shape == (200, 4)
    assert params.w_fb.shape == (200, 2)
    assert np.all(params.w_out == 0.0)
    again = init_reservoir(cfg, 4, 2)
    assert np.array_equal(params.w_r, again.w_r)
    assert np.array_equal(params.w_in, again.w_in)
    other = init_reservoir(small_cfg(n_r=200, seed=1), 4, 2)
    assert not np.array_equal(params.w_r, other.w_r)


def test_reservoir_config_validation():
    with pytest.raises(ConfigurationError):
        small_cfg(sparsity=1.0)
    with pytest.raises(ConfigurationError):
        small_cfg(n_r=0)
    with pytest.raises(ConfigurationError):
        small_cfg(spectral_radius_target=0.0)


def test_context_reservoir_silences_second_feedback_column():
    params = context_reservoir(small_cfg())
    assert params.n_i == 4 and params.n_o == 2
    assert np.all(params.w_fb[:, 1] == 0.0)
    assert np.any(params.w_fb[:, 0] != 0.0)


def test_teacher_forcing_with_silent_feedback_matches_orbit():
    """With zero targets and zero noise the harvest is a plain orbit."""
    rng = np.random.default_rng(2)
    for seed in range(5):
        params = init_reservoir(small_cfg(n_r=30, seed=seed), 3, 1)
        drive = small_drive(rng, n=50, n_ch=3)
        states = teacher_forced_states(params, drive, np.zeros(50),
                                       noise_std=0.0, seed=0)
        ref = orbit(params, drive, np.zeros(30), 49).states
        assert states.tobytes() == ref.tobytes()


def hand_teacher_forcing(params, drive, z1, noise_std, seed):
    """tanh(W_r x + ((W_in u + fb z1) + noise)) step by step, leaky for
    alpha < 1, with one noise draw per step."""
    noise = substream(seed, DOMAIN_NOISE, 0)
    alpha = params.alpha
    x = np.zeros(params.n_r)
    states = [x]
    for j in range(1, drive.length):
        forced = _matvec(params.w_in, drive.values[j]) + params.w_fb[:, 0] * z1[j - 1]
        forced = forced + noise.normal(0.0, noise_std, size=params.n_r)
        pre = _matvec(params.w_r, x) + forced
        x = np.tanh(pre) if alpha == 1.0 else (1.0 - alpha) * x + alpha * np.tanh(pre)
        states.append(x)
    return np.array(states)


@pytest.mark.parametrize("alpha", [1.0, 0.7])
def test_teacher_forcing_is_one_kernel_run_under_the_forced_drive(alpha):
    rng = np.random.default_rng(5)
    params = replace(init_reservoir(small_cfg(n_r=30), 3, 1), alpha=alpha)
    drive = small_drive(rng, n=60, n_ch=3)
    z1 = rng.uniform(-1, 1, 60)
    states = teacher_forced_states(params, drive, z1, noise_std=0.05, seed=3)
    ref = hand_teacher_forcing(params, drive, z1, 0.05, 3)
    assert states.tobytes() == ref.tobytes()


def test_teacher_forcing_feeds_previous_target():
    # 1 neuron, transparent weights: the update is tanh(u_k + z1[k-1])
    params = RnnParams(alpha=1.0, w_r=[[0.0]], w_in=[[1.0]],
                       w_fb=[[1.0]], w_out=[[0.0]])
    drive = InputSequence(anchor=0, values=np.array([[0.1], [0.2], [0.3]]))
    z1 = np.array([1.0, -1.0, 1.0])
    states = teacher_forced_states(params, drive, z1, noise_std=0.0, seed=0)
    assert states[0, 0] == 0.0
    assert np.isclose(states[1, 0], np.tanh(0.2 + z1[0]))
    assert np.isclose(states[2, 0], np.tanh(0.3 + z1[1]))


def test_teacher_forcing_noise_is_seeded():
    rng = np.random.default_rng(3)
    params = init_reservoir(small_cfg(n_r=20), 2, 1)
    drive = small_drive(rng, n=40, n_ch=2)
    z1 = np.ones(40)
    a = teacher_forced_states(params, drive, z1, noise_std=0.05, seed=7)
    b = teacher_forced_states(params, drive, z1, noise_std=0.05, seed=7)
    c = teacher_forced_states(params, drive, z1, noise_std=0.05, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_teacher_forcing_refuses_a_negative_or_non_finite_noise_std():
    # a negative or NaN std used to run noise-free, as if it were 0
    rng = np.random.default_rng(4)
    params = init_reservoir(small_cfg(n_r=20), 2, 1)
    drive = small_drive(rng, n=30, n_ch=2)
    for bad in (-0.05, np.nan, np.inf):
        with pytest.raises(ConfigurationError, match="noise_std must be finite "
                           "and >= 0"):
            teacher_forced_states(params, drive, np.zeros(30), noise_std=bad,
                                  seed=0)


def test_teacher_forcing_validation():
    rng = np.random.default_rng(4)
    params = init_reservoir(small_cfg(n_r=20), 2, 2)
    drive = small_drive(rng, n=30, n_ch=2)
    with pytest.raises(ConfigurationError):
        # second feedback column carries weight: rejected
        teacher_forced_states(params, drive, np.zeros(30),
                              noise_std=0.0, seed=0)
    silenced = params.to_dict()
    fb = np.asarray(silenced["w_fb"])
    fb[:, 1] = 0.0
    silenced["w_fb"] = fb.tolist()
    params = RnnParams.from_dict(silenced)
    with pytest.raises(ConfigurationError):
        teacher_forced_states(params, drive, np.zeros(29),
                              noise_std=0.0, seed=0)
    narrow = small_drive(rng, n=30, n_ch=1)
    with pytest.raises(ConfigurationError, match="input sequence has 1 "
                       "channels, the network takes n_i = 2"):
        teacher_forced_states(params, narrow, np.zeros(30),
                              noise_std=0.0, seed=0)


def test_ridge_satisfies_normal_equations():
    rng = np.random.default_rng(5)
    s = rng.normal(size=(300, 40))
    y = rng.normal(size=(300, 2))
    for lam in (0.0, 0.7, 10.0):
        w = ridge_readout(s, y, lam)
        residual = (s.T @ s + lam * np.eye(40)) @ w.T - s.T @ y
        assert np.linalg.norm(residual) <= 1e-8
    # exact recovery of a noiseless linear readout at lam = 0
    c = rng.normal(size=(40, 2))
    w = ridge_readout(s, s @ c, 0.0)
    assert np.allclose(w, c.T, atol=1e-8)


def test_ridge_validation():
    s = np.zeros((10, 3))
    with pytest.raises(ConfigurationError):
        ridge_readout(s, np.zeros((9, 1)), 0.1)
    with pytest.raises(ConfigurationError):
        ridge_readout(s, np.zeros((10, 1)), -0.1)
    with pytest.raises(ConfigurationError):
        ridge_readout(np.full((10, 3), np.nan), np.zeros((10, 1)), 0.1)


def test_ridge_refuses_a_singular_gram_matrix():
    # lam = 0 with a state column that is zero throughout: S^T S has a
    # zero row, which numpy's solve would report as a bare LinAlgError
    s = np.random.default_rng(5).standard_normal((20, 3))
    s[:, 1] = 0.0
    y = np.ones((20, 1))
    with pytest.raises(ConfigurationError, match="Gram matrix .* is singular"):
        ridge_readout(s, y, 0.0)
    assert ridge_readout(s, y, 1e-3).shape == (1, 3)


def test_nrmse():
    y = np.column_stack([np.linspace(0, 1, 50), np.ones(50)])
    assert np.all(nrmse(y, y) == 0.0)
    noisy = y + 0.1
    vals = nrmse(noisy, y)
    assert np.isclose(vals[0], 0.1 / np.std(y[:, 0]))
    # constant target column falls back to unnormalized rmse
    assert np.isclose(vals[1], 0.1)


def test_model_roundtrip(tmp_path):
    params = init_reservoir(small_cfg(n_r=15), 2, 1)
    model = TrainedModel(params=params, train_error=np.array([0.01]),
                         test_error=np.array([0.02]),
                         metadata={"note": "fixture"})
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.params.w_r, params.w_r)
    assert np.array_equal(back.train_error, model.train_error)
    assert np.array_equal(back.test_error, model.test_error)
    assert back.metadata == {"note": "fixture"}
    # a bare parameter document also loads
    bare = tmp_path / "bare.json"
    save_params(params, bare)
    loaded = load_model(bare)
    assert np.array_equal(loaded.params.w_in, params.w_in)


def test_closed_loop_outputs_are_readout_of_states():
    rng = np.random.default_rng(6)
    params = init_reservoir(small_cfg(n_r=25), 3, 1)
    w_out = rng.normal(size=(1, 25)) * 0.1
    from dataclasses import replace
    params = replace(params, w_out=w_out)
    model = TrainedModel(params=params, train_error=np.zeros(1))
    drive = small_drive(rng, n=40, n_ch=3)
    outputs, traj = closed_loop_eval(model, drive)
    assert outputs.shape == (40, 1)
    assert np.array_equal(outputs, traj.states @ w_out.T)
    x0 = rng.uniform(-1, 1, 25)
    outputs2, traj2 = closed_loop_eval(model, drive, x0=x0)
    assert np.array_equal(traj2.states[0], x0)
    assert not np.array_equal(outputs, outputs2)


def test_closed_loop_eval_without_readout_is_a_configuration_error(tmp_path):
    # a bare parameter document with no readout loads as a model
    path = tmp_path / "bare.json"
    save_params(RnnParams(alpha=1.0, w_r=0.5 * np.eye(3), w_in=np.ones((3, 1))),
                path)
    model = load_model(path)
    drive = small_drive(np.random.default_rng(9), n=10, n_ch=1)
    with pytest.raises(ConfigurationError, match="readout"):
        closed_loop_eval(model, drive)


def test_pca_matches_svd_oracle():
    rng = np.random.default_rng(7)
    states = rng.normal(size=(120, 6)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.2, 0.1])
    proj, cum = pca_project(states, 2)
    centred = states - states.mean(axis=0)
    u, sv, vt = np.linalg.svd(centred, full_matrices=False)
    var = sv ** 2 / (states.shape[0] - 1)
    assert abs(cum - var[:2].sum() / var.sum()) <= 1e-12
    want = centred @ vt[:2].T
    for j in range(2):
        # eigh and svd agree up to the canonical sign choice
        s = np.sign(want[np.argmax(np.abs(proj[:, j])), j] * proj[np.argmax(np.abs(proj[:, j])), j])
        assert np.allclose(proj[:, j], s * want[:, j], atol=1e-9)
    assert 0.0 < cum <= 1.0


def test_pca_sign_canonicalization_and_rank():
    rng = np.random.default_rng(8)
    states = rng.normal(size=(50, 3))
    p1, _ = pca_project(states, 3)
    p2, _ = pca_project(states.copy(), 3)
    assert np.array_equal(p1, p2)
    rank1 = np.outer(np.linspace(0, 1, 30), np.array([1.0, 2.0, 3.0]))
    proj, cum = pca_project(rank1, 1)
    assert abs(cum - 1.0) <= 1e-12
    with pytest.raises(ConfigurationError):
        pca_project(rank1, 2)
    with pytest.raises(ConfigurationError):
        pca_project(states, 0)
    with pytest.raises(ConfigurationError):
        pca_project(states, 4)
