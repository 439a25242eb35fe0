"""Reservoir training with output feedback: init, harvest, ridge, eval.

The recipe: draw a sparse random reservoir, rescale it to a target
spectral radius, harvest states by teacher forcing (the feedback input
is the target output, with Gaussian noise injected inside the
activation), solve the readout by ridge regression, then close the
loop for evaluation.  Only the first output channel may feed back.
Both take one stacked InputSequence and run core's kernel: teacher
forcing is one core._advance run, closed-loop evaluation an orbit.
"""

from dataclasses import dataclass, field
import json
from pathlib import Path

import numpy as np

from .core import (ConfigurationError, RnnParams, _advance, _require_input,
                   _matvec, orbit)
from .rng import DOMAIN_NOISE, DOMAIN_WEIGHTS, substream
from .sequences import json_text


@dataclass(frozen=True)
class ReservoirConfig:
    n_r: int = 500
    sparsity: float = 0.95
    spectral_radius_target: float = 0.9
    weight_range: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.sparsity < 1.0:
            raise ConfigurationError("sparsity must lie in [0, 1)")
        if self.n_r < 1 or self.spectral_radius_target <= 0:
            raise ConfigurationError("need n_r >= 1 and a positive radius target")


def _spectral_radius(w):
    return float(np.max(np.abs(np.linalg.eigvals(w))))


def init_reservoir(cfg, n_i, n_o):
    """Sparse uniform reservoir rescaled to the target spectral radius.

    Entries are uniform in [-range, range], independently zeroed with
    probability `sparsity`, then W_r is rescaled so its largest
    eigenvalue modulus equals the target within 1e-9 (verified; an
    all-zero draw retries on a fresh substream, at most 10 times).
    W_in and W_fb are dense uniform draws; the leak is fixed at 1.  The
    readout starts as all zeros so the feedback wiring is in place but
    silent until training fills it in.
    """
    rng_ranges = cfg.weight_range
    w = None
    for attempt in range(10):
        entries = substream(cfg.seed, DOMAIN_WEIGHTS, 4 * attempt + 0).uniform(
            -rng_ranges, rng_ranges, size=(cfg.n_r, cfg.n_r))
        keep = substream(cfg.seed, DOMAIN_WEIGHTS, 4 * attempt + 1).random(
            (cfg.n_r, cfg.n_r)) >= cfg.sparsity
        cand = entries * keep
        radius = _spectral_radius(cand)
        if radius > 0.0:
            w = cand * (cfg.spectral_radius_target / radius)
            break
    if w is None:
        raise ConfigurationError("reservoir draw produced a nilpotent matrix 10 times")
    achieved = _spectral_radius(w)
    if abs(achieved - cfg.spectral_radius_target) > 1e-9:
        raise ConfigurationError(
            f"eigensolve did not converge: radius {achieved} vs target "
            f"{cfg.spectral_radius_target}")
    w_in = substream(cfg.seed, DOMAIN_WEIGHTS, 2).uniform(
        -rng_ranges, rng_ranges, size=(cfg.n_r, n_i))
    w_fb = substream(cfg.seed, DOMAIN_WEIGHTS, 3).uniform(
        -rng_ranges, rng_ranges, size=(cfg.n_r, n_o))
    return RnnParams(alpha=1.0, w_r=w, w_in=w_in, w_fb=w_fb,
                     w_out=np.zeros((n_o, cfg.n_r)))


def teacher_forced_states(params, input_seq, target_z1, noise_std, seed):
    """Harvest states with the target fed back instead of the readout.

    One core._advance run of the open-loop network (W_r, W_in, no
    readout) from the origin at the input's anchor.  Its drive into time
    k is W_in u[k], plus the target z1 at k - 1 through the first
    feedback column (all other feedback columns must be zero), plus
    Gaussian noise of the given standard deviation (finite, >= 0) from
    one committed substream, drawn at once (the values of one draw per
    step).  So each pre-activation is W_r x + ((W_in u + fb z1) + noise);
    with a zero target and no noise the run is exactly an orbit.
    Returns (T, n_r) states aligned with the input window.
    """
    if not 0.0 <= noise_std < np.inf:
        raise ConfigurationError(f"noise_std must be finite and >= 0, got {noise_std}")
    target_z1 = np.asarray(target_z1, dtype=float)
    if target_z1.shape != (input_seq.length,):
        raise ConfigurationError("target_z1 length must match the input window")
    _require_input(params, input_seq, input_seq.first, input_seq.last)
    if params.n_o >= 2 and np.any(params.w_fb[:, 1:] != 0.0):
        raise ConfigurationError(
            "only the first output channel may feed back during teacher forcing")
    open_loop = RnnParams(alpha=params.alpha, w_r=params.w_r, w_in=params.w_in)
    fb_col = params.w_fb[:, 0] if params.n_o else np.zeros(params.n_r)
    drive = _matvec(open_loop.w_in, input_seq.values[1:, None, None])
    drive += fb_col * target_z1[:-1, None, None, None]
    if noise_std > 0.0:
        drive += substream(seed, DOMAIN_NOISE, 0).normal(0.0, noise_std,
                                                         size=drive.shape)
    states = np.empty((input_seq.length, params.n_r))
    _advance(open_loop, [drive], np.zeros((1, 1, params.n_r)),
             states[None, None])
    return states


def ridge_readout(states, targets, lam):
    """Solve (S^T S + lam I) W = S^T Y; returns W^T of shape (n_o, n_r)."""
    s = np.asarray(states, dtype=float)
    y = np.asarray(targets, dtype=float)
    if s.ndim != 2 or s.shape[0] == 0:
        raise ConfigurationError("states must be a nonempty (T, n_r) matrix")
    if y.shape[0] != s.shape[0]:
        raise ConfigurationError("states and targets must have equal row counts")
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(y))):
        raise ConfigurationError("ridge inputs must be finite")
    if lam < 0:
        raise ConfigurationError("ridge parameter must be nonnegative")
    gram = s.T @ s + lam * np.eye(s.shape[1])
    rhs = s.T @ y
    try:
        w = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConfigurationError(
            f"the Gram matrix S^T S + lam I is singular (lam = {lam}): the "
            "states are rank-deficient; use lam > 0") from exc
    return w.T


def nrmse(predicted, target):
    """Per-column NRMSE, normalized by the target standard deviation."""
    predicted = np.asarray(predicted, dtype=float)
    target = np.asarray(target, dtype=float)
    err = np.sqrt(np.mean((predicted - target) ** 2, axis=0))
    scale = np.std(target, axis=0)
    return err / np.where(scale > 0, scale, 1.0)


@dataclass(frozen=True)
class TrainedModel:
    """Readout-equipped parameters plus training metadata."""

    params: RnnParams
    train_error: np.ndarray
    test_error: np.ndarray = None
    metadata: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "params": self.params.to_dict(),
            "train_error": np.asarray(self.train_error).tolist(),
            "test_error": (None if self.test_error is None
                           else np.asarray(self.test_error).tolist()),
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, doc):
        return cls(params=RnnParams.from_dict(doc["params"]),
                   train_error=np.asarray(doc["train_error"], dtype=float),
                   test_error=(None if doc.get("test_error") is None
                               else np.asarray(doc["test_error"], dtype=float)),
                   metadata=dict(doc.get("metadata", {})))


def save_model(model, path):
    Path(path).write_text(json_text(model.to_dict()))


def load_model(path):
    doc = json.loads(Path(path).read_text())
    if "params" in doc:
        return TrainedModel.from_dict(doc)
    # bare parameter documents are accepted too
    return TrainedModel(params=RnnParams.from_dict(doc), train_error=np.zeros(0))


def closed_loop_eval(model, input_seq, x0=None):
    """Run the trained network with its own readout fed back.

    No teacher, no noise: this is a plain orbit of the parameters over
    the input window, since the feedback wiring is part of the state
    map.  Returns the (T, n_o) outputs and the state Trajectory.
    """
    params = model.params
    if params.w_out is None:
        raise ConfigurationError("the model has no readout to close the loop")
    if x0 is None:
        x0 = np.zeros(params.n_r)
    traj = orbit(params, input_seq, x0, input_seq.length - 1,
                 anchor=input_seq.anchor)
    outputs = traj.states @ params.w_out.T
    return outputs, traj


def pca_project(states, k):
    """Top-k principal components of mean-centered states.

    Returns (projections, cumulative_variance).  Component signs are
    canonicalized (largest-magnitude loading positive) so exports are
    reproducible.  k above the numerical rank is an error.
    """
    s = np.asarray(states, dtype=float)
    if s.ndim != 2:
        raise ConfigurationError("states must be a (T, n) matrix")
    if not 1 <= k <= s.shape[1]:
        raise ConfigurationError(f"k must lie in [1, {s.shape[1]}]")
    centred = s - s.mean(axis=0)
    cov = centred.T @ centred / max(1, s.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    evecs = evecs[:, order]
    rank = int(np.sum(evals > evals[0] * 1e-12)) if evals[0] > 0 else 0
    if k > rank:
        raise ConfigurationError(f"k={k} exceeds the numerical rank {rank}")
    top = evecs[:, :k]
    flip = np.sign(top[np.argmax(np.abs(top), axis=0), np.arange(k)])
    top = top * np.where(flip == 0, 1.0, flip)[None, :]
    projections = centred @ top
    total = float(np.sum(evals))
    cumulative = float(np.sum(evals[:k]) / total) if total > 0 else 0.0
    return projections, cumulative


__all__ = [
    "ReservoirConfig", "TrainedModel", "init_reservoir", "teacher_forced_states",
    "ridge_readout", "nrmse", "closed_loop_eval", "pca_project",
    "save_model", "load_model",
]
