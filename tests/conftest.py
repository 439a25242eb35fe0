import numpy as np
import pytest

from echodex import (RnnParams, gen_two_symbol, switching_params,
                     switching_inputs)


@pytest.fixture
def switching_system():
    return switching_params()


@pytest.fixture
def switching_input():
    u1, u2 = switching_inputs()
    return gen_two_symbol(u1, u2, 0.5, -300, 700, seed=0)


def random_params(rng, n_r=None, n_i=None, with_feedback=False, alpha=None):
    """Small random network, scaled so nothing saturates."""
    n_r = n_r or int(rng.integers(1, 6))
    n_i = n_i or int(rng.integers(1, 4))
    alpha = float(rng.uniform(0.2, 1.0)) if alpha is None else alpha
    w_r = rng.uniform(-1, 1, (n_r, n_r)) * 0.5
    w_in = rng.uniform(-1, 1, (n_r, n_i))
    if with_feedback:
        n_o = int(rng.integers(1, 3))
        w_out = rng.uniform(-1, 1, (n_o, n_r)) * 0.3
        w_fb = rng.uniform(-1, 1, (n_r, n_o)) * 0.3
        return RnnParams(alpha=alpha, w_r=w_r, w_in=w_in, w_fb=w_fb, w_out=w_out)
    return RnnParams(alpha=alpha, w_r=w_r, w_in=w_in)


def lockstep_reservoir(rng, n_r, wiring, alpha=0.7):
    """Random reservoir without readout, with one fed-back output, or
    with two outputs and the second feedback column zeroed (the context
    task's wiring)."""
    w_r = rng.uniform(-1, 1, (n_r, n_r))
    w_r = 0.9 * w_r / np.linalg.norm(w_r, 2)
    if wiring == "none":
        return RnnParams(alpha=alpha, w_r=w_r, w_in=rng.uniform(-1, 1, (n_r, 1)))
    n_o = 1 if wiring == "feedback" else 2
    w_fb = rng.uniform(-0.5, 0.5, (n_r, n_o))
    w_fb[:, 1:] = 0.0
    return RnnParams(alpha=alpha, w_r=w_r, w_in=rng.uniform(-1, 1, (n_r, 4)),
                     w_fb=w_fb, w_out=rng.uniform(-0.2, 0.2, (n_o, n_r)))
