"""Contraction certificates for echo index 1.

Three sufficient conditions are implemented as numeric certifiers:

* region certification: the Jacobian's spectral norm stays <= mu on a
  convex box that is also positively invariant, which pins a unique
  uniformly attracting solution inside the box;
* a global condition phi'(0) * ||W_r + W_fb W_o|| <= mu < 1, which
  certifies a unique response for every input sequence;
* a large-input condition: per input channel j, a radius R_j and an
  aligned cone such that inputs in every P_j(eps, R_j) force all
  pre-activations into the saturated tails, again giving index 1.

Region and invariance checks are grid-sampled evidence, not proofs; the
reports record the resolution and the margin so users can judge.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .core import (ConfigurationError, jacobian, jacobian_batch, spectral_norm,
                   step_batch)


@dataclass(frozen=True)
class Region:
    """Axis-aligned box [lo_1, hi_1] x ... x [lo_d, hi_d] (convex by shape)."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ConfigurationError("lo and hi must be vectors of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ConfigurationError("region bounds must be finite, got lo "
                                     f"{lo.tolist()} and hi {hi.tolist()}")
        if np.any(lo > hi):
            raise ConfigurationError("region requires lo <= hi componentwise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        return self.lo.shape[0]

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))

    def grid(self, count):
        """Regular grid including the faces, `count` points per axis.

        Degenerate axes (lo == hi) contribute a single coordinate.  The
        returned array is in C order of the axes, so 'lowest linear
        index' tie-breaking is well defined.
        """
        counts = [1 if self.hi[i] == self.lo[i] else max(2, int(count))
                  for i in range(self.dim)]
        axes = [np.linspace(self.lo[i], self.hi[i], counts[i]) for i in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
        return pts, tuple(counts)


@dataclass(frozen=True)
class ContractionReport:
    """Outcome of a sampled contraction check.

    margin = mu - worst_norm; a certified report has margin >= 0.
    effective_rate is the per-step rate 1 - alpha (1 - mu) reported by
    the global certifier for leaky maps (alpha < 1), else None.
    """

    mu: float
    certified: bool
    grid_resolution: tuple
    worst_norm: float
    worst_point: np.ndarray
    input_samples: str
    effective_rate: float = None

    def __post_init__(self):
        if self.certified and not self.worst_norm <= self.mu:
            raise ConfigurationError("certified report requires worst_norm <= mu")

    @property
    def margin(self):
        return self.mu - self.worst_norm


def local_contraction_norm(params, u, x):
    """Spectral norm of the state Jacobian at (u, x)."""
    return spectral_norm(jacobian(params, u, x))


def _region_inputs(params, region, u_samples):
    """u_samples as float arrays, checked with the region against the
    network's state and input dimensions."""
    us = [np.asarray(u, dtype=float) for u in u_samples]
    if not us:
        raise ConfigurationError("u_samples must not be empty")
    if region.dim != params.n_r:
        raise ConfigurationError("region dimension does not match the state")
    for u in us:
        if u.shape != (params.n_i,):
            raise ConfigurationError(f"input sample has shape {u.shape}, the "
                                     f"network takes n_i = {params.n_i}")
    return us


def _norms_over_grid(params, points, u_samples):
    """Worst Jacobian norm over points x u_samples.

    Ties resolve to the lowest (input order, linear grid index); the
    scan is sequential so the argmax is deterministic.
    """
    best = -1.0
    best_point = None
    for u in u_samples:
        jac = jacobian_batch(params, u, points)
        norms = np.linalg.svd(jac, compute_uv=False)[:, 0]
        i = int(np.argmax(norms))
        if norms[i] > best:
            best = float(norms[i])
            best_point = points[i].copy()
    return best, best_point


def region_contraction_check(params, region, u_samples, mu, grid=33):
    """Sample the Jacobian norm over a box; certified iff max <= mu.

    This is sampling-based evidence for membership of the box in the
    mu-contraction set, not a proof: the sup over a continuum is
    under-approximated, and the report's margin quantifies the slack.
    """
    if not 0.0 < mu < 1.0:
        raise ConfigurationError(f"mu must lie in (0, 1), got {mu}")
    u_samples = _region_inputs(params, region, u_samples)
    points, counts = region.grid(grid)
    worst, worst_point = _norms_over_grid(params, points, u_samples)
    return ContractionReport(
        mu=float(mu), certified=bool(worst <= mu), grid_resolution=counts,
        worst_norm=worst, worst_point=worst_point,
        input_samples=f"{len(u_samples)} explicit input values")


def region_invariance_check(params, region, u_samples, grid=33):
    """Check step(u, x) stays in the box for sampled x and every u.

    Returns (ok, witness) where witness is a failing (x, u) pair or None.
    """
    u_samples = _region_inputs(params, region, u_samples)
    points, _ = region.grid(grid)
    for u in u_samples:
        images = step_batch(params, u, points)
        inside = np.all((images >= region.lo[None, :]) &
                        (images <= region.hi[None, :]), axis=1)
        if not np.all(inside):
            i = int(np.argmin(inside))
            return False, (points[i].copy(), u.copy())
    return True, None


def strip_bounds_closed_form(input_sign=1):
    """Expansion-strip bounds of the two-map switching benchmark.

    For the benchmark (leak 1/4, reservoir diag(1/2, 3/2), inputs
    +-(1/4, 3/20)) the Jacobian is diagonal and its second entry is
    1 + (1/8)(1 - 3 tanh^2(1.5 x2 + 0.15 s)) with s the input sign.
    Setting it to 1 gives tanh^2 = 1/3, so the strip where the map
    expands is x2 in ((-atanh(1/sqrt(3)) - 0.15 s)/1.5,
    (atanh(1/sqrt(3)) - 0.15 s)/1.5).  The s = -1 map's strip is the
    mirror image of the s = +1 one.
    """
    a = math.atanh(1.0 / math.sqrt(3.0))
    s = 1.0 if input_sign >= 0 else -1.0
    return ((-a - 0.15 * s) / 1.5, (a - 0.15 * s) / 1.5)


def global_esp_check(params, mu):
    """Global certificate phi'(0) * ||W_r + W_fb W_o|| <= mu < 1.

    A pass certifies a single uniformly attracting response for every
    admissible input sequence.  With a linear (or absent) readout the
    effective matrix is constant, so a single evaluation suffices.  For
    a leaky map the report carries the effective rate 1 - alpha (1 - mu).
    """
    if not 0.0 < mu < 1.0:
        raise ConfigurationError(f"mu must lie in (0, 1), got {mu}")
    phi_prime_0 = 1.0  # tanh'(0)
    worst = phi_prime_0 * spectral_norm(params.effective_matrix)
    rate = None
    if params.alpha < 1.0:
        rate = 1.0 - params.alpha * (1.0 - mu)
    return ContractionReport(
        mu=float(mu), certified=bool(worst <= mu), grid_resolution=(1,),
        worst_norm=float(worst), worst_point=np.zeros(params.n_r),
        input_samples="independent of input", effective_rate=rate)


@dataclass(frozen=True)
class LargeInputSpec:
    """Per-channel large-input certificate.

    For each reservoir row j, inputs u with ||u|| >= radii[j] whose
    angle to (W_in)_j has |cos| >= epsilon push the j-th pre-activation
    beyond xi_bar, where the tanh slope is small enough for the
    contraction bound; sigma_bounds[j] is the sup of |f_j(x)| over the
    state box.  xi_bar is 0 when the map is already globally
    contracting at the requested mu.
    """

    epsilon: float
    xi_bar: float
    radii: np.ndarray
    sigma_bounds: np.ndarray
    w_in: np.ndarray = field(repr=False)

    def contains(self, u):
        """Membership of u in the intersection of all P_j(eps, R_j)."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        norm = float(np.linalg.norm(u))
        if norm == 0.0:
            return bool(np.all(self.radii <= 0.0))
        if np.any(norm < self.radii):
            return False
        row_norms = np.linalg.norm(self.w_in, axis=1)
        cosines = np.abs(self.w_in @ u) / (row_norms * norm)
        return bool(np.all(cosines >= self.epsilon))

    def far_value(self):
        """A convenient member: max(R) along the first row of W_in, which
        has |cos| = 1 against itself."""
        d = self.w_in[0] / np.linalg.norm(self.w_in[0])
        return float(np.max(self.radii)) * d


def large_input_radius(params, epsilon, mu):
    """Per-row radii beyond which aligned inputs certify index 1.

    sigma_j = sup_x |f_j(x)| with f_j(x) = M_j x, the state's share of
    the pre-activation M x + W_in u, is L * ||M_j||_1 exactly, the corner
    maximum over the state box, so no state grid is needed.  xi_bar
    solves phi'(xi_bar) * sigma_tilde = mu for tanh (clamped to 0 when
    mu >= sigma_tilde), and R_j = (xi_bar + sigma_j) / (eps ||(W_in)_j||).
    """
    if not 0.0 < epsilon <= 1.0:
        raise ConfigurationError(f"epsilon must lie in (0, 1], got {epsilon}")
    if not 0.0 < mu < 1.0:
        raise ConfigurationError(f"mu must lie in (0, 1), got {mu}")
    row_norms = np.linalg.norm(params.w_in, axis=1)
    if np.any(row_norms == 0.0):
        j = int(np.argmin(row_norms))
        raise ConfigurationError(f"row {j} of W_in is the null vector")
    m = params.effective_matrix
    bound = params.state_bound
    sigma = bound * np.sum(np.abs(m), axis=1)
    sigma_tilde = spectral_norm(m)
    if sigma_tilde <= mu:
        xi_bar = 0.0
    else:
        xi_bar = math.atanh(math.sqrt(1.0 - mu / sigma_tilde))
    radii = (xi_bar + sigma) / (epsilon * row_norms)
    return LargeInputSpec(epsilon=float(epsilon), xi_bar=float(xi_bar),
                          radii=radii, sigma_bounds=sigma, w_in=params.w_in.copy())


def absorbing_entry_bound(params, x0, u_lo, u_hi):
    """Steps until an outside state is absorbed into [-L, L]^{n_r}.

    Returns (eta, n_steps) where eta bounds the sup-norm of the
    activation image over the ball ||x||_inf <= ||x0||_inf and inputs in
    the box [u_lo, u_hi]:

        eta >= max ||phi(M x + W_in u)||_inf,   M = W_r + W_fb W_o,

    computed row-wise as tanh(||M_j||_1 R + max_u |(W_in u)_j|), which is
    exact for the row maxima and strictly below L (its float rounds to L
    once tanh saturates).  For alpha = 1 the map lands inside after one
    step; otherwise

        n_steps = ceil( [ln(L - eta) - ln(||x0||_inf - eta)] / ln(1 - alpha) ).

    With L = 1 and eta = tanh z, ln(L - eta) is taken as
    ln 2 - 2z - log1p(e^{-2z}), which stays finite where tanh z rounds
    to 1.
    """
    x0 = np.asarray(x0, dtype=float)
    u_lo = np.atleast_1d(np.asarray(u_lo, dtype=float))
    u_hi = np.atleast_1d(np.asarray(u_hi, dtype=float))
    bound = params.state_bound
    r = float(np.max(np.abs(x0)))
    if r <= bound:
        return 0.0, 0
    if params.alpha == 1.0:
        return 0.0, 1
    centre = (u_lo + u_hi) / 2.0
    half = (u_hi - u_lo) / 2.0
    in_max = np.abs(params.w_in @ centre) + np.abs(params.w_in) @ half
    m1 = np.sum(np.abs(params.effective_matrix), axis=1)
    z = float(np.max(m1 * r + in_max))
    eta = float(np.tanh(z))
    log_gap = math.log(2.0) - 2.0 * z - math.log1p(math.exp(-2.0 * z))
    n = (log_gap - math.log(r - eta)) / math.log(1.0 - params.alpha)
    return eta, int(math.ceil(n))
