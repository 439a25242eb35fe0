"""Benchmark systems used by the preset experiments."""

from dataclasses import dataclass, replace

import numpy as np

from .core import RnnParams, orbit
from .sequences import InputSequence
from .training import init_reservoir


def switching_params():
    """Two-map switching benchmark: leak 1/4, reservoir diag(1/2, 3/2).

    Driven by the symbols +-(1/4, 3/20) this decomposes the square into
    two basins separated by a wandering boundary line; the Jacobian is
    diagonal, which the closed-form strip bounds exploit.
    """
    return RnnParams(alpha=0.25,
                     w_r=np.diag([0.5, 1.5]),
                     w_in=np.eye(2))


def switching_inputs():
    """The two input symbols u1 = (1/4, 3/20) and u2 = -u1."""
    u1 = np.array([0.25, 0.15])
    return u1, -u1


def scalar_params():
    """One-neuron system x' = tanh(1.01 x + u).

    The slope 1.01 makes the autonomous map bistable; uniform inputs are
    scaled in the generator, so W_in = 1.
    """
    return RnnParams(alpha=1.0, w_r=np.array([[1.01]]), w_in=np.array([[1.0]]))


@dataclass(frozen=True)
class KloedenSystem:
    """Scalar map x[k+1] = tanh(u[k] x[k] / (1 + |x[k]|)).

    Not expressible as RnnParams (the gain multiplies the state through
    x/(1+|x|)), hence its own system type.  The canonical drive is
    u[k] = a for k >= 0 and 1/a for k < 0; with a > 1 the map is
    contracting in the past and bistable in the future, so the pullback
    fibre is {0} while forward orbits split to two attractors.
    """

    a: float = 1.5

    def __post_init__(self):
        if not self.a > 1.0:
            raise ValueError(f"need a > 1, got {self.a}")

    state_dim = 1
    state_bound = 1.0

    def step_one(self, u, x):
        """The reference map on one state; the package steps step_batch."""
        return np.tanh(u * x / (1.0 + np.abs(x)))

    step_batch = step_one  # elementwise: rowwise, bit-exact with step_one

    def arrival_sequence(self, first, last):
        """The canonical drive as an InputSequence on [first, last].

        The whole package indexes drives by arrival time: the transition
        arriving at time k consumes u[k].  Here u[k] = a for k >= 0 and
        1/a before, so the contracting past ends at the step into k = -1.
        """
        ks = np.arange(first, last + 1)
        vals = np.where(ks >= 0, self.a, 1.0 / self.a)[:, None]
        return InputSequence(anchor=first, values=vals,
                             lo=np.array([min(self.a, 1.0 / self.a)]),
                             hi=np.array([max(self.a, 1.0 / self.a)]))

    def run(self, x0, k_start, k_end):
        """States at times k_start..k_end from x0 under the canonical drive."""
        return orbit(self, self.arrival_sequence(k_start, k_end), [x0],
                     k_end - k_start, anchor=k_start).states[:, 0]


def context_reservoir(cfg):
    """Reservoir wired for the context task: 4 inputs, 2 outputs,
    with only the first output fed back (second feedback column zeroed)."""
    params = init_reservoir(cfg, n_i=4, n_o=2)
    w_fb = params.w_fb.copy()
    w_fb[:, 1] = 0.0
    return replace(params, w_fb=w_fb)
