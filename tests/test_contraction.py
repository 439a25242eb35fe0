from functools import partial
import math

import numpy as np
import pytest

from echodex import (ConfigurationError, Region, RnnParams,
                     absorbing_entry_bound, global_esp_check, jacobian,
                     large_input_radius, local_contraction_norm,
                     region_contraction_check, region_invariance_check,
                     spectral_norm, step, strip_bounds_closed_form,
                     switching_inputs, switching_params)

from conftest import random_params

# bisection oracles, frozen (see the scalar solves in the module docstrings)
ATANH_INV_SQRT3 = 0.6584789484624085
STRIP_LO = -0.5389859656416057
STRIP_HI = 0.33898596564160566
WORST_NORM_R_PLUS = 0.9952316427232305


def u_corners():
    u1, u2 = switching_inputs()
    return [u1, u2]


def r_plus():
    return Region(lo=np.array([-1.0, 0.55]), hi=np.array([1.0, 1.0]))


def test_region_validation_and_membership():
    reg = Region(lo=[-1.0, 0.0], hi=[1.0, 2.0])
    assert reg.dim == 2
    assert reg.contains([0.0, 1.0])
    assert reg.contains([-1.0, 0.0])  # boundary counts
    assert not reg.contains([0.0, 2.1])
    with pytest.raises(ConfigurationError):
        Region(lo=[0.0, 1.0], hi=[1.0, 0.0])
    with pytest.raises(ConfigurationError):
        Region(lo=[0.0], hi=[1.0, 2.0])


@pytest.mark.parametrize("lo, hi", [
    ([math.nan, 0.0], [1.0, 1.0]),
    ([0.0, 0.0], [1.0, math.inf]),
    ([-math.inf], [0.0]),
])
def test_region_refuses_bounds_that_are_not_finite(lo, hi):
    # lo > hi is false for nan, so a nan bound used to pass
    with pytest.raises(ConfigurationError, match="region bounds must be finite"):
        Region(lo=lo, hi=hi)


def test_region_grid_covers_faces():
    reg = Region(lo=[0.0, -1.0], hi=[2.0, 1.0])
    pts, counts = reg.grid(5)
    assert counts == (5, 5) and pts.shape == (25, 2)
    assert [0.0, -1.0] in pts.tolist() and [2.0, 1.0] in pts.tolist()
    # degenerate axis collapses to a single coordinate
    flat = Region(lo=[0.0, 0.5], hi=[2.0, 0.5])
    pts, counts = flat.grid(7)
    assert counts == (7, 1)
    assert np.all(pts[:, 1] == 0.5)


def test_strip_bounds_match_scalar_solve():
    lo, hi = strip_bounds_closed_form(input_sign=1)
    assert abs(lo - (-ATANH_INV_SQRT3 - 0.15) / 1.5) <= 1e-15
    assert abs(lo - STRIP_LO) <= 1e-12
    assert abs(hi - STRIP_HI) <= 1e-12
    # matches the documented approximate bounds to 1e-3
    assert abs(lo - (-0.5390)) <= 1e-3
    assert abs(hi - 0.3390) <= 1e-3
    mlo, mhi = strip_bounds_closed_form(input_sign=-1)
    assert abs(mlo + hi) <= 1e-15 and abs(mhi + lo) <= 1e-15


def diag_norm_oracle(x2, s):
    # the benchmark Jacobian is diagonal; closed-form largest |entry|
    d1 = 0.75 + 0.125 * (1.0 - math.tanh(0.5 * 0.0 + 0.25 * s) ** 2)
    d2 = 0.75 + 0.375 * (1.0 - math.tanh(1.5 * x2 + 0.15 * s) ** 2)
    return d1, d2


def test_closed_form_diagonal_norm_matches_svd(switching_system):
    u1, u2 = switching_inputs()
    for x2 in np.linspace(-1.0, 1.0, 21):
        for u, s in ((u1, 1.0), (u2, -1.0)):
            x = np.array([0.0, x2])
            jac = jacobian(switching_system, u, x)
            assert abs(jac[0, 1]) == 0.0 and abs(jac[1, 0]) == 0.0
            d1 = 0.75 + 0.125 * (1.0 - math.tanh(0.5 * x[0] + 0.25 * s) ** 2)
            d2 = 0.75 + 0.375 * (1.0 - math.tanh(1.5 * x2 + 0.15 * s) ** 2)
            closed = max(abs(d1), abs(d2))
            assert abs(local_contraction_norm(switching_system, u, x) - closed) <= 1e-12


def test_region_contraction_certifies_r_plus(switching_system):
    rep = region_contraction_check(switching_system, r_plus(), u_corners(),
                                   mu=0.999, grid=33)
    assert rep.certified
    assert rep.grid_resolution == (33, 33)
    assert abs(rep.worst_norm - WORST_NORM_R_PLUS) <= 1e-12
    assert rep.margin > 0.003
    # the worst point sits on the face closest to the expansion strip
    assert abs(rep.worst_point[1] - 0.55) <= 1e-12
    tighter = region_contraction_check(switching_system, r_plus(), u_corners(),
                                       mu=0.99, grid=33)
    assert not tighter.certified
    assert tighter.margin < 0.0


def test_region_contraction_refuses_mu_outside_the_unit_interval():
    # x -> tanh(2x) is bistable on [-1, 1]; its worst norm 2 sits below
    # 2.5, so a mu >= 1 would "certify" a box holding two fixed points
    params = RnnParams(alpha=1.0, w_r=[[2.0]], w_in=[[0.0]])
    region = Region(lo=[-1.0], hi=[1.0])
    for mu in (2.5, 1.0, 0.0, -0.5, math.nan):
        with pytest.raises(ConfigurationError, match="mu must lie in"):
            region_contraction_check(params, region, [np.zeros(1)], mu)
    assert not region_contraction_check(params, region, [np.zeros(1)],
                                        0.99).certified


def test_contraction_evidence_is_monotone_in_sampling():
    """More inputs or a finer nested grid can only raise the observed sup."""
    rng = np.random.default_rng(21)
    for _ in range(10):
        params = random_params(rng, n_r=2, n_i=2)
        region = Region(lo=[-0.8, -0.8], hi=[0.8, 0.8])
        us = [rng.uniform(-1, 1, 2) for _ in range(4)]
        few = region_contraction_check(params, region, us[:2], mu=0.9, grid=17)
        more = region_contraction_check(params, region, us, mu=0.9, grid=17)
        fine = region_contraction_check(params, region, us, mu=0.9, grid=33)
        assert more.worst_norm >= few.worst_norm
        # 17-point axes are a subset of 33-point axes on the same box
        assert fine.worst_norm >= more.worst_norm
        if not few.certified:
            assert not more.certified and not fine.certified


def test_region_invariance_holds_on_r_plus(switching_system):
    ok, witness = region_invariance_check(switching_system, r_plus(),
                                          u_corners(), grid=33)
    assert ok and witness is None
    minus = Region(lo=np.array([-1.0, -1.0]), hi=np.array([1.0, -0.55]))
    ok, witness = region_invariance_check(switching_system, minus,
                                          u_corners(), grid=33)
    assert ok and witness is None


def test_region_invariance_keeps_an_image_on_a_face():
    # x -> tanh(u) maps every state to tanh(u): onto the upper face of
    # [-t, t], t = tanh(0.5), for u = 0.5 and onto the lower face for
    # u = -0.5 (numpy's tanh is odd); one ulp inside, each face is crossed
    t = float(np.tanh(0.5))
    params = RnnParams(alpha=1.0, w_r=[[0.0]], w_in=[[1.0]])
    inward = np.nextafter(t, 0.0)
    for u, narrower in ((0.5, Region(lo=[-t], hi=[inward])),
                        (-0.5, Region(lo=[-inward], hi=[t]))):
        assert region_invariance_check(params, Region(lo=[-t], hi=[t]),
                                       [np.array([u])]) == (True, None)
        ok, (x, u_seen) = region_invariance_check(params, narrower, [np.array([u])])
        assert not ok and x.tolist() == narrower.lo.tolist()  # first grid point
        assert u_seen.tolist() == [u]


def test_region_invariance_failure_returns_witness(switching_system):
    # a box reaching into the expansion strip leaks through the maps
    leaky = Region(lo=np.array([-1.0, 0.0]), hi=np.array([1.0, 1.0]))
    ok, witness = region_invariance_check(switching_system, leaky,
                                          u_corners(), grid=17)
    assert not ok
    x, u = witness
    assert leaky.contains(x)
    assert not leaky.contains(step(switching_system, u, x))


def test_global_esp_check_scaled_reservoir():
    rng = np.random.default_rng(31)
    w = rng.uniform(-1, 1, (6, 6))
    w = 0.9 * w / spectral_norm(w)
    params = RnnParams(alpha=0.7, w_r=w, w_in=rng.uniform(-1, 1, (6, 2)))
    rep = global_esp_check(params, mu=0.95)
    assert rep.certified
    assert abs(rep.worst_norm - 0.9) <= 1e-12
    assert abs(rep.effective_rate - (1.0 - 0.7 * (1.0 - 0.95))) <= 1e-15
    leakless = RnnParams(alpha=1.0, w_r=w, w_in=params.w_in)
    assert global_esp_check(leakless, mu=0.95).effective_rate is None
    with pytest.raises(ConfigurationError):
        global_esp_check(params, mu=1.0)


def test_a_worst_norm_exactly_at_mu_is_certified():
    # x -> tanh(x / 2) has its steepest slope, 1/2, at x = 0, a grid point
    # of [-1, 1]; both certifiers then report worst_norm == mu exactly
    params = RnnParams(alpha=1.0, w_r=[[0.5]], w_in=[[1.0]])
    region = Region(lo=[-1.0], hi=[1.0])
    for check in (partial(region_contraction_check, params, region, [np.zeros(1)]),
                  partial(global_esp_check, params)):
        rep = check(mu=0.5)
        assert rep.worst_norm == 0.5 and rep.certified and rep.margin == 0.0
        assert not check(mu=np.nextafter(0.5, 0.0)).certified


def test_global_esp_check_rejects_expanding_scalar():
    params = RnnParams(alpha=1.0, w_r=[[1.01]], w_in=[[1.0]])
    rep = global_esp_check(params, mu=0.999)
    assert not rep.certified
    assert abs(rep.worst_norm - 1.01) <= 1e-12


def test_large_input_radius_scalar_first_principles():
    params = RnnParams(alpha=1.0, w_r=[[1.01]], w_in=[[1.0]])
    spec = large_input_radius(params, epsilon=1.0, mu=0.5)
    # independent recomputation: tanh'(xi) * sigma_tilde = mu and
    # R = (xi + sup|f|) / (eps ||w_in row||) with sup|f| = 1.01 * 1
    xi = math.atanh(math.sqrt(1.0 - 0.5 / 1.01))
    assert abs(spec.xi_bar - xi) <= 1e-15
    assert abs(spec.xi_bar - 0.8883921747495053) <= 1e-12
    assert abs(spec.radii[0] - (xi + 1.01)) <= 1e-15
    assert abs(spec.radii[0] - 1.8983921747495054) <= 1e-12
    assert abs(spec.sigma_bounds[0] - 1.01) <= 1e-15
    # at the boundary radius the slope bound is exactly mu
    slope = 1.01 * (1.0 - math.tanh(spec.radii[0] - 1.01) ** 2)
    assert abs(slope - 0.5) <= 1e-12


def test_large_input_membership_and_far_value():
    params = RnnParams(alpha=1.0, w_r=[[1.01]], w_in=[[1.0]])
    spec = large_input_radius(params, epsilon=1.0, mu=0.5)
    r = spec.radii[0]
    assert spec.contains(np.array([r]))
    assert spec.contains(np.array([-1.1 * r]))
    assert not spec.contains(np.array([0.9 * r]))
    far = spec.far_value()
    assert spec.contains(far)
    assert abs(np.linalg.norm(far) - r) <= 1e-12
    # misaligned inputs fail the cone test even when long enough
    two = RnnParams(alpha=1.0, w_r=0.1 * np.eye(2), w_in=np.eye(2))
    spec2 = large_input_radius(two, epsilon=0.9, mu=0.5)
    long_axis = np.array([10.0, 0.0])
    assert not spec2.contains(long_axis)


def test_large_input_contracting_map_needs_no_saturation():
    params = RnnParams(alpha=1.0, w_r=[[0.3]], w_in=[[2.0]])
    spec = large_input_radius(params, epsilon=1.0, mu=0.5)
    assert spec.xi_bar == 0.0
    assert abs(spec.radii[0] - 0.3 / 2.0) <= 1e-15


def test_large_input_radius_rejects_bad_arguments():
    params = RnnParams(alpha=1.0, w_r=[[1.01]], w_in=[[1.0]])
    with pytest.raises(ConfigurationError):
        large_input_radius(params, epsilon=0.0, mu=0.5)
    with pytest.raises(ConfigurationError):
        large_input_radius(params, epsilon=1.0, mu=1.0)
    null_row = RnnParams(alpha=1.0, w_r=0.1 * np.eye(2),
                         w_in=np.array([[1.0], [0.0]]))
    with pytest.raises(ConfigurationError):
        large_input_radius(null_row, epsilon=1.0, mu=0.5)


def test_absorbing_entry_bound_and_invariance():
    rng = np.random.default_rng(77)
    for _ in range(8):
        params = random_params(rng, alpha=float(rng.uniform(0.2, 0.9)))
        u_lo, u_hi = -np.ones(params.n_i), np.ones(params.n_i)
        x0 = rng.uniform(1.5, 4.0, params.n_r) * rng.choice([-1.0, 1.0], params.n_r)
        eta, n = absorbing_entry_bound(params, x0, u_lo, u_hi)
        assert 0.0 <= eta < 1.0 and n >= 1
        x = x0.copy()
        for k in range(n):
            x = step(params, rng.uniform(u_lo, u_hi), x)
        assert np.max(np.abs(x)) <= params.state_bound + 1e-12
    # alpha = 1 lands inside in a single step; inside stays trivial
    flat = random_params(rng, alpha=1.0)
    assert absorbing_entry_bound(flat, 5.0 * np.ones(flat.n_r),
                                 -np.ones(flat.n_i), np.ones(flat.n_i)) == (0.0, 1)
    inside = random_params(rng)
    assert absorbing_entry_bound(inside, np.zeros(inside.n_r),
                                 -np.ones(inside.n_i), np.ones(inside.n_i)) == (0.0, 0)


def test_absorbing_entry_bound_past_tanh_saturation():
    # tanh(50) rounds to 1.0, so ln(L - eta) must not be taken from eta
    params = RnnParams(alpha=0.5, w_r=[[1.0]], w_in=[[1.0]])
    x0 = np.array([50.0])
    eta, n = absorbing_entry_bound(params, x0, [-1.0], [1.0])
    assert eta == 1.0
    # ln(1 - tanh 51) = ln 2 - 102 - log1p(e^-102), so
    # n = ceil((ln 2 - 102 - ln 49) / ln 0.5)
    assert n == math.ceil((math.log(2.0) - 102.0 - math.log(49.0))
                          / math.log(0.5))
    rng = np.random.default_rng(5)
    for u_lo, u_hi in ((-1.0, 1.0), (1.0, 1.0), (-1.0, -1.0)):
        x = x0.copy()
        for _ in range(n):
            x = step(params, rng.uniform([u_lo], [u_hi]), x)
        assert np.max(np.abs(x)) <= params.state_bound + 1e-12


def test_box_invariance_over_random_steps():
    """The state box [-1, 1]^n is forward invariant for the leaky tanh map."""
    rng = np.random.default_rng(78)
    params = random_params(rng, n_r=4, n_i=2)
    x = rng.uniform(-1, 1, 4)
    for _ in range(1000):
        x = step(params, rng.uniform(-5, 5, 2), x)
        assert np.max(np.abs(x)) <= 1.0


def test_contraction_report_margin_consistency():
    with pytest.raises(ConfigurationError):
        # a certified report cannot carry a worst norm above mu
        from echodex.contraction import ContractionReport
        ContractionReport(mu=0.5, certified=True, grid_resolution=(3,),
                          worst_norm=0.7, worst_point=np.zeros(1),
                          input_samples="x")
    # a worst norm exactly at mu is certified, with margin 0
    at_mu = ContractionReport(mu=0.5, certified=True, grid_resolution=(3,),
                              worst_norm=0.5, worst_point=np.zeros(1),
                              input_samples="x")
    assert at_mu.margin == 0.0
