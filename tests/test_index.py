from dataclasses import replace
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import pdist

from echodex import (ConfigurationError, EnsembleRun, IndexProtocol,
                     KloedenSystem, Region, RnnParams, WindowExhausted,
                     cluster_asymptotics, ensemble_to_csv, estimate_echo_index,
                     estimate_echo_indices, gen_two_symbol, gen_uniform_scaled,
                     hausdorff_semidistance, orbit, pair_divergence_step,
                     pullback_fibre, run_ensemble, separatrix_bisect,
                     step_batch, switching_inputs)
from echodex import core, index
from echodex.sequences import InputSequence

from conftest import lockstep_reservoir


def const_seq(value, first, last, n_i=1):
    vals = np.tile(np.atleast_1d(np.asarray(value, dtype=float)),
                   (last - first + 1, 1))
    return InputSequence(anchor=first, values=vals)


def scalar_expander(w=0.0):
    return RnnParams(alpha=1.0, w_r=[[1.01]], w_in=[[w]])


class RotationSystem:
    """Isometry of the plane; ensembles never cluster under it."""

    state_dim = 2
    state_bound = 1.0

    def __init__(self, angle=0.73):
        c, s = np.cos(angle), np.sin(angle)
        self.rot = np.array([[c, -s], [s, c]])

    def step_batch(self, u, xs):  # rowwise: one gemv per row
        return np.matmul(self.rot, xs[..., None])[..., 0]


def test_run_ensemble_is_deterministic():
    params = scalar_expander(0.01)
    seq = gen_uniform_scaled(0.01, -5, 400, seed=3)
    first = run_ensemble(params, seq, 12, transient=100, horizon=40, ic_seed=2)
    second = run_ensemble(params, seq, 12, transient=100, horizon=40, ic_seed=2)
    assert np.array_equal(first.trajectories, second.trajectories)
    assert np.array_equal(first.initial_conditions, second.initial_conditions)
    again = run_ensemble(params, seq, 12, transient=100, horizon=40, ic_seed=2)
    assert np.array_equal(first.trajectories, again.trajectories)


def test_run_ensemble_duplicate_ics_identical():
    params = RnnParams(alpha=0.5, w_r=0.4 * np.eye(2),
                       w_in=np.array([[1.0], [0.5]]))
    seq = gen_uniform_scaled(0.3, -2, 120, seed=0)
    ics = np.array([[0.3, -0.4], [0.1, 0.2], [0.3, -0.4]])
    run = run_ensemble(params, seq, ics, transient=20, horizon=30)
    assert np.array_equal(run.trajectories[0], run.trajectories[2])
    assert run.count == 3
    assert run.tail_anchor == 20


def test_scalar_fast_path_matches_solo_orbits():
    params = scalar_expander(0.01)
    seq = gen_uniform_scaled(0.01, -5, 300, seed=9)
    run = run_ensemble(params, seq, 7, transient=50, horizon=60, ic_seed=4)
    for i in range(run.count):
        ref = orbit(params, seq, run.initial_conditions[i], 110).states
        assert np.array_equal(run.trajectories[i], ref[50:])


def rung_window(rung):
    """Window tails (lanes, m, horizon + 1, d) of every lane of a _Rung,
    evolved in one call."""
    return rung.window(slice(None), np.empty(
        rung.ics.shape[:2] + (rung.horizon + 1,) + rung.ics.shape[2:]))


def lockstep_tails(system, seqs, ics, transient, horizon, anchor):
    """Tails of members ics[i] under seqs[i]: evolved to the window's first
    step in one lockstep run, then through the window in another."""
    return rung_window(index._evolve(system, seqs, ics, transient, horizon,
                                     anchor))


@pytest.mark.parametrize("n_r", [2, 30, 200])
@pytest.mark.parametrize("wiring", ["none", "feedback", "context"])
def test_lockstep_rows_equal_solo_orbits(n_r, wiring):
    # BLAS threading is left at the suite's default: the guarded property
    # is that numpy's stacked matmul issues one gemv per row, the same
    # call the solo W @ x makes
    rng = np.random.default_rng(n_r)
    params = lockstep_reservoir(rng, n_r, wiring)
    seqs = [InputSequence(anchor=0, values=scale * rng.uniform(-1, 1, (60, params.n_i)))
            for scale in (0.1, 1.0, 3.0)]
    for m in (1, 7, 100):
        ics = np.stack([rng.uniform(-1, 1, (m, n_r)) for _ in seqs])
        tails = lockstep_tails(params, seqs, ics, transient=25, horizon=30, anchor=0)
        for i, seq in enumerate(seqs):
            for k in range(m):
                ref = orbit(params, seq, ics[i, k], 55).states[25:]
                assert np.array_equal(tails[i, k], ref)
        run = run_ensemble(params, seqs[1], ics[1], transient=25, horizon=30)
        assert np.array_equal(run.trajectories, tails[1])
    proto = IndexProtocol(ic_counts=(4, 6), transients=(10, 20), horizon=12,
                          window=10, shift_check=3)
    for rep, seq in zip(estimate_echo_indices(params, seqs, proto), seqs):
        count, transient, _ = rep.diagnostics["rungs"][-1]
        x0s = index._draw_ics(params, proto.ic_seed, count)
        for c in rep.clusters:
            ref = orbit(params, seq, x0s[c.representative_ic],
                        transient + proto.horizon).states
            assert np.array_equal(c.tail, ref[-proto.window:])


def test_lockstep_rows_equal_step_one_on_a_kloeden_system():
    system = KloedenSystem(a=1.5)
    rng = np.random.default_rng(3)
    seqs = [system.arrival_sequence(-40, 60),
            InputSequence(anchor=-40, values=rng.uniform(0.7, 1.5, (101, 1))),
            InputSequence(anchor=-40, values=rng.uniform(1.2, 3.0, (101, 1)))]
    ics = rng.uniform(-1, 1, (3, 7, 1))
    tails = lockstep_tails(system, seqs, ics, transient=60, horizon=40, anchor=-40)
    for i, seq in enumerate(seqs):
        for k in range(7):
            x = ics[i, k]
            for t in range(-39, 61):
                x = system.step_one(seq.at(t), x)
                if t >= 20:  # the tails start at anchor + transient
                    assert np.array_equal(tails[i, k, t - 20], x)


def test_ensemble_csv_format(tmp_path):
    # every byte is ("%d,%d" + ",%.17g" * d) % row, row by row, for one
    # member and several, d = 1 and 2, tails anchored before and after 0,
    # a member longer than a block of lines, and the values %.17g spells
    # apart: nan, +-inf, -0.0 and the least subnormal
    params = scalar_expander(0.0)
    runs = [run_ensemble(params, const_seq(0.0, -1, 40), 3, transient=10,
                         horizon=5, ic_seed=0)]
    rng = np.random.default_rng(8)
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324]
    for m, d, n, anchor in [(1, 1, 6, 4), (3, 2, 40, -25), (2, 1, 2500, -1300)]:
        tails = rng.uniform(-1, 1, (m, n, d))
        tails.reshape(-1)[1:1 + len(special)] = special
        runs.append(EnsembleRun(system=None, input_seq=None,
                                initial_conditions=np.zeros((m, d)), transient=7,
                                horizon=n - 1, anchor=anchor, ic_seed=0,
                                trajectories=tails))
    path = tmp_path / "ens.csv"
    for run in runs:
        m, n, d = run.trajectories.shape
        ensemble_to_csv(run, path)
        fmt = "%d,%d" + ",%.17g" * d
        lines = ["ic_id,k," + ",".join(f"x_{j + 1}" for j in range(d))]
        lines += [fmt % (i, run.tail_anchor + j, *run.trajectories[i, j].tolist())
                  for i in range(m) for j in range(n)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    text = path.read_text()
    assert all(f",{v}\n" in text for v in ("nan", "inf", "-inf", "-0",
                                           "4.9406564584124654e-324"))


def synthetic_run(tails):
    tails = np.asarray(tails, dtype=float)
    m, t, d = tails.shape
    return EnsembleRun(system=None, input_seq=None,
                       initial_conditions=np.zeros((m, d)), transient=0,
                       horizon=t - 1, anchor=0, ic_seed=0, trajectories=tails)


def test_clustering_separates_two_constant_tails():
    t = 30
    a = np.zeros((t, 1))
    b = np.ones((t, 1))
    run = synthetic_run([a, a + 1e-5, b, b - 1e-5, b + 1e-5])
    rep = cluster_asymptotics(run, cluster_tol=1e-3)
    assert rep.index == 2
    assert rep.is_definite and rep.verdict() == "2"
    sizes = sorted(c.member_count for c in rep.clusters)
    assert sizes == [2, 3]
    assert abs(rep.min_separation - (1.0 - 2e-5)) <= 1e-9
    assert rep.max_diameter <= 2e-5 + 1e-15
    assert rep.diagnostics["coverage"] == 1.0
    assert not rep.diagnostics["switching_tails"]
    doc = rep.summary_dict()
    assert doc["index"] == "2" and sorted(doc["cluster_sizes"]) == [2, 3]


def test_clustering_three_clusters():
    t = 24
    tails = [np.full((t, 2), v) for v in (-1.0, 0.0, 1.0)]
    rep = cluster_asymptotics(synthetic_run(tails), cluster_tol=1e-3)
    assert rep.index == 3


def test_ambiguity_band_degrades_to_indefinite():
    t = 30
    a = np.zeros((t, 1))
    # separation of 2 tol falls inside the [tol/4, 4 tol] band
    rep = cluster_asymptotics(synthetic_run([a, a + 2e-3]), cluster_tol=1e-3)
    assert rep.index is None
    assert rep.verdict() == "indefinite"
    assert rep.diagnostics["ambiguous_pairs"] == 1


def test_mid_window_merge_degrades_to_indefinite():
    t = 30
    a = np.zeros((t, 1))
    b = np.zeros((t, 1))
    b[:t // 2] = 1.0  # two clusters in the first half, one in the second
    rep = cluster_asymptotics(synthetic_run([a, b]), cluster_tol=1e-3)
    assert rep.index is None
    counts = rep.diagnostics["subwindow_counts"]
    assert len(set(counts)) > 1


def test_cross_pair_within_tol_at_one_step_degrades_to_indefinite():
    t = 30
    a = np.zeros((t, 1))
    b = np.ones((t, 1))
    b[12] = 5e-4  # the clusters touch at one step of the middle third
    rep = cluster_asymptotics(synthetic_run([a, b]), cluster_tol=1e-3)
    # far apart over the window, so neither the band nor any subwindow
    # count sees it: only the separation gate does
    assert rep.index is None
    assert rep.diagnostics["ambiguous_pairs"] == 0
    assert rep.diagnostics["subwindow_counts"] == (2, 2, 2)
    assert len(rep.clusters) == 2 and rep.min_separation == 5e-4


@pytest.mark.parametrize("gap, index", [(0.2, 1), (0.3, None), (3.0, None),
                                        (5.0, 2)])
def test_band_edges_in_units_of_tol(gap, index):
    t = 30
    a = np.zeros((t, 1))
    rep = cluster_asymptotics(synthetic_run([a, a + gap * 1e-3]),
                              cluster_tol=1e-3)
    assert rep.index == index
    assert rep.diagnostics["ambiguous_pairs"] == (index is None)


def row_groups(monkeypatch):
    """Force clustering to split into row groups, one per CPU that
    core._cpu_count reports; return the group counts it runs, in order."""
    seen, run_groups = [], index._run_groups

    def recording(run, groups):
        seen.append(groups)
        return run_groups(run, groups)
    monkeypatch.setattr(index, "_MIN_PAIR_WORK", 1)
    monkeypatch.setattr(index, "_run_groups", recording)
    return seen


def test_representative_is_the_cluster_medoid(monkeypatch):
    t = 30
    values = (2e-5, 0.0, 1e-5, 1.0)  # member 2 is central, not member 0
    tails = [np.full((t, 1), v) for v in values]
    seen = row_groups(monkeypatch)
    # three rows: one group, two uneven ones, three of one row each
    for cpus in (1, 2, 3):
        monkeypatch.setattr(core, "_cpu_count", lambda c=cpus: c)
        rep = cluster_asymptotics(synthetic_run(tails), cluster_tol=1e-3)
        assert rep.index == 2
        big = max(rep.clusters, key=lambda c: c.member_count)
        assert big.member_count == 3 and big.representative_ic == 2
        assert big.final_state.tobytes() == tails[2][-1].tobytes()
    assert seen == [1, 2, 3]


def test_linkage_joins_a_pair_exactly_tol_apart():
    # 2**-10 apart in one dimension is a distance of exactly tol, and one
    # ulp more is past it; both pairs lie in the band, so only the
    # cluster sizes tell whether linkage includes tol itself
    t, tol = 30, 2.0 ** -10
    a = np.zeros((t, 1))
    for gap, sizes in ((tol, [2]), (np.nextafter(tol, 1.0), [1, 1])):
        rep = cluster_asymptotics(synthetic_run([a, a + gap]), cluster_tol=tol)
        assert rep.summary_dict()["cluster_sizes"] == sizes
        assert rep.verdict() == "indefinite"


def test_band_and_separation_imply_the_subwindow_and_diameter_gates():
    # random ensembles on the tolerance's scale: members follow one of
    # three drifting paths, spread by up to a few tol around it
    rng = np.random.default_rng(11)
    tol, t = 1e-3, 30
    definite = 0
    for _ in range(2000):
        m, d = rng.integers(2, 7), rng.integers(1, 3)
        steps = tol * 10 ** rng.uniform(-2, 0.5) * rng.standard_normal((3, t, d))
        paths = tol * rng.uniform(-20, 20, (3, 1, d)) + np.cumsum(steps, axis=1)
        spread = tol * 10 ** rng.uniform(-3, 0.5)
        tails = (paths[rng.integers(0, 3, m)]
                 + spread * rng.standard_normal((m, t, d)))
        rep = cluster_asymptotics(synthetic_run(tails), cluster_tol=tol)
        if rep.index is None:
            continue
        definite += 1
        assert rep.diagnostics["subwindow_counts"] == (rep.index,) * 3
        assert rep.max_diameter < tol / 4
        assert rep.diagnostics["coverage"] == 1.0
    assert definite >= 500


def test_wandering_tail_sets_switching_flag():
    t = 40
    a = np.zeros((t, 1))
    b = np.linspace(2.0, 2.5, t)[:, None]  # drifts half a unit
    rep = cluster_asymptotics(synthetic_run([a, b]), cluster_tol=1e-3)
    assert rep.diagnostics["switching_tails"]


def test_clustering_window_validation():
    run = synthetic_run([np.zeros((30, 1))])
    with pytest.raises(ConfigurationError):
        cluster_asymptotics(run, window=5)
    with pytest.raises(ConfigurationError):
        cluster_asymptotics(run, window=31)
    solo = cluster_asymptotics(run, window=30)
    assert solo.index == 1
    assert solo.min_separation == float("inf")


def explicit_pair_distances(tails):
    """The pairwise window distances written out over all (m, m) pairs,
    and the final-step distances from their own (m, m, d) difference."""
    m, window, _ = tails.shape
    diff = tails[:, None] - tails[None]
    norms = np.sqrt(np.sum(diff * diff, axis=3))
    third = window // 3
    parts = np.stack([norms[:, :, window - (3 - p) * third:window - (2 - p) * third]
                      .max(axis=2) for p in range(3)])
    finals = tails[:, -1, :]
    fdiff = finals[:, None, :] - finals[None, :, :]
    return (norms.max(axis=2), norms.min(axis=2), parts,
            np.sqrt(np.sum(fdiff * fdiff, axis=2)))


# at d = 200 a scratch block holds 10 rows of a 31-step window, at
# d = 1000 two: rows span several blocks, the last one partial
@pytest.mark.parametrize("m, d", [pytest.param(1, 3, id="1"),
                                  pytest.param(2, 3, id="2"),
                                  pytest.param(9, 3, id="9"),
                                  pytest.param(40, 3, id="40"),
                                  pytest.param(24, 200, id="24-d200"),
                                  pytest.param(8, 1000, id="8-d1000")])
def test_pair_distances_match_the_explicit_formula(m, d, monkeypatch):
    rng = np.random.default_rng(m)
    centres = np.where(rng.random(m) < 0.5, -0.6, 0.6)[:, None, None]
    tails = centres + 1e-5 * rng.standard_normal((m, 31, d))
    want = explicit_pair_distances(tails)
    d_max, d_min, _, d_final = want
    seen = row_groups(monkeypatch)
    # m - 1 rows dealt to 1, 2 and 3 groups: 39, 23 and 7 rows split
    # unevenly, and a group's blocks shrink as the groups share the scratch
    for cpus in (1, 2, 3):
        monkeypatch.setattr(core, "_cpu_count", lambda c=cpus: c)
        got = index._pair_distances(tails)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        rep = cluster_asymptotics(synthetic_run(tails), cluster_tol=1e-3)
        labels = np.zeros(m, dtype=int)
        for lbl, c in enumerate(rep.clusters):
            labels[d_max[c.representative_ic] <= 1e-3] = lbl
        cross = labels[:, None] != labels[None, :]
        same = ~cross & ~np.eye(m, dtype=bool)
        assert rep.min_separation == (d_min[cross].min() if cross.any() else np.inf)
        assert rep.max_diameter == (d_final[same].max() if same.any() else 0.0)
        assert len(rep.clusters) == np.unique(centres).size
    assert seen == [max(1, min(c, m - 1)) for c in (1, 2, 3) for _ in range(2)]


@pytest.mark.parametrize("d", [1, 2, 3, 8, 9, 200])
def test_squared_distances_root_is_norm_along_the_last_axis(d):
    # clustering and the certified verdict measure with this loop, the
    # separatrix's commit rule and pair divergence with np.linalg.norm(...,
    # axis=-1): the same bits, in blocks (of 3 rows here) or not.  numpy
    # sums fewer than 8 terms in order, 8 or more in unrolled lanes, where
    # coordinate order would differ
    rng = np.random.default_rng(d)
    ref = rng.standard_normal((13, d))
    xs = ref + 10.0 ** rng.uniform(-8, 1, (7, 13, 1)) * rng.standard_normal((7, 13, d))
    out = np.empty((7, 13))
    index._squared_distances(xs, ref, np.empty((3, 13, d)), out)
    assert np.array_equal(np.sqrt(out), np.linalg.norm(xs - ref, axis=-1))


def test_pair_distances_propagate_nan(monkeypatch):
    # a nan in one member's window reaches every statistic of its pairs
    # that reads that step, and no other pair, at any group count
    rng = np.random.default_rng(8)
    tails = rng.standard_normal((7, 30, 3))
    tails[4, 12, 1] = np.nan
    row_groups(monkeypatch)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(core, "_cpu_count", lambda c=cpus: c)
        d_max, d_min, d_parts, d_final = index._pair_distances(tails)
        none = np.zeros((7, 7), dtype=bool)
        pairs = none.copy()
        pairs[4], pairs[:, 4], pairs[4, 4] = True, True, False
        # step 12 lies in the middle third, [10, 20)
        for stat, hit in ((d_max, pairs), (d_min, pairs), (d_parts[0], none),
                          (d_parts[1], pairs), (d_parts[2], none),
                          (d_final, none)):
            assert np.array_equal(np.isnan(stat), hit)


def test_pair_distances_scratch_is_bounded(monkeypatch):
    # the context ensemble's shape, whose whole (m - 1, W, d) difference
    # array would be 15.8 MB; it splits into a row group per CPU, and the
    # groups share one scratch budget, however many there are
    m, window, d = 100, 100, 200
    tails = np.random.default_rng(0).standard_normal((m, window, d))
    seen = row_groups(monkeypatch)
    for cpus in (1, 2, 4):
        monkeypatch.setattr(core, "_cpu_count", lambda c=cpus: c)
        tracemalloc.start()
        try:
            index._pair_distances(tails)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # six (m, m) arrays are filled, six more are their symmetric sums
        results = 12 * m * m * 8
        assert peak - results < 1.5 * 2**20
    assert seen == [1, 2, 4]


def test_pair_groups_outnumbering_the_cpus_keep_every_row(monkeypatch):
    # eight groups write disjoint rows of one result array while the
    # interpreter switches threads every microsecond: a lost or misplaced
    # row write would show as a difference
    rng = np.random.default_rng(12)
    tails = rng.standard_normal((41, 30, 16))
    want = explicit_pair_distances(tails)
    seen = row_groups(monkeypatch)
    monkeypatch.setattr(core, "_cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            for g, w in zip(index._pair_distances(tails), want):
                assert np.array_equal(g, w)
    finally:
        sys.setswitchinterval(interval)
    assert seen == [8] * 5


@pytest.mark.parametrize("failing", ["none", "caller", "helper"])
def test_pair_groups_leave_no_thread_behind(failing, monkeypatch):
    # three row groups: group 0 in the calling thread, groups 1 and 2 on
    # helper threads; "helper" fails group 1 alone, at its first row
    row_groups(monkeypatch)
    monkeypatch.setattr(core, "_cpu_count", lambda: 3)
    callers = set()

    class Tails(np.ndarray):
        def __getitem__(self, key):
            caller = threading.current_thread() is threading.main_thread()
            callers.add(caller)
            if not caller:
                time.sleep(0.01)  # still running when group 0 is done
            if failing == "caller" and caller or failing == "helper" and key == 1:
                raise RuntimeError(f"{failing} failed")
            return super().__getitem__(key)

    plain = np.random.default_rng(6).standard_normal((7, 30, 4))
    tails = plain.view(Tails)
    before = threading.active_count()
    if failing == "none":
        got = index._pair_distances(tails)
        for g, w in zip(got, explicit_pair_distances(plain)):
            assert np.array_equal(g, w)
    else:
        with pytest.raises(RuntimeError, match=f"^{failing} failed$"):
            index._pair_distances(tails)
    assert callers == {True, False}
    assert threading.active_count() == before


def test_component_labels_match_scipy():
    def check(adj):
        want = connected_components(csr_matrix(adj), directed=False)
        count, labels = index._component_labels(adj)
        assert count == want[0]
        assert labels.tolist() == want[1].tolist()

    rng = np.random.default_rng(3)
    check(np.ones((1, 1), dtype=bool))
    check(np.zeros((1, 1), dtype=bool))
    check(np.eye(7, dtype=bool))  # isolated nodes only
    for m in (2, 5, 30, 100):
        for density in (0.0, 0.01, 0.05, 0.2, 0.8):
            upper = np.triu(rng.random((m, m)) < density, 1)
            check(upper | upper.T | np.eye(m, dtype=bool))
    # a path is the slowest case: the smallest label walks every edge
    path = np.eye(100, dtype=bool) | np.eye(100, k=1, dtype=bool)
    path |= path.T
    check(path)
    order = rng.permutation(100)
    check(path[np.ix_(order, order)])
    # the clustering matrix: d_max <= tol, whose diagonal is zero
    tails = np.where(rng.random(40) < 0.5, -0.6, 0.6)[:, None, None] + \
        1e-4 * rng.standard_normal((40, 20, 2))
    check(index._pair_distances(tails)[0] <= 1e-3)


def exact_passes(monkeypatch):
    """Count the exact pair passes (index._pair_distances calls)."""
    calls, pair_distances = [], index._pair_distances

    def counting(tails):
        calls.append(tails.shape)
        return pair_distances(tails)
    monkeypatch.setattr(index, "_pair_distances", counting)
    return calls


def verdict_and_exact(tails, tol, calls):
    """(_rung_verdict, whether it ran the exact pass, cluster_asymptotics'
    index) for tails (m, W, d)."""
    calls.clear()
    verdict = index._rung_verdict(tails, tol)
    fell_back = bool(calls)
    with np.errstate(invalid="ignore"):  # the report's np.std of an inf tail
        want = cluster_asymptotics(synthetic_run(tails), tol).index
    return verdict, fell_back, want


def random_ensemble(rng, tol):
    """Members on one of k paths, spread, drifting and touching on every
    scale around the tolerance, in 1, 2, 3 or 200 dimensions."""
    m, t = int(rng.integers(1, 12)), int(rng.integers(10, 40))
    d = int(rng.choice([1, 2, 3, 200], p=[0.35, 0.35, 0.2, 0.1]))
    k = int(rng.integers(1, 4))
    paths = tol * 10 ** rng.uniform(-1, 3) * rng.standard_normal((k, 1, d))
    paths = paths + (tol * 10 ** rng.uniform(-4, 0.5)
                     * np.cumsum(rng.standard_normal((k, t, d)), axis=1))
    tails = (paths[rng.integers(0, k, m)]
             + tol * 10 ** rng.uniform(-8, 0.5) * rng.standard_normal((m, t, d)))
    if m > 1 and rng.random() < 0.15:  # one member visits another once
        i, j = rng.choice(m, 2, replace=False)
        step = rng.integers(0, t)
        tails[j, step] = tails[i, step] + tol * rng.uniform(0, 2) / np.sqrt(d)
    if rng.random() < 0.03:
        tails[rng.integers(0, m), rng.integers(0, t), rng.integers(0, d)] = \
            rng.choice([np.nan, np.inf, -np.inf])
    return tails


def test_rung_verdict_equals_the_exact_index_on_random_ensembles(monkeypatch):
    rng = np.random.default_rng(23)
    tol = 1e-3
    calls = exact_passes(monkeypatch)
    seen = {"decided": 0, "fell back": 0, "definite": 0, "indefinite": 0,
            "one member": 0, "not finite": 0}
    for _ in range(2000):
        tails = random_ensemble(rng, tol)
        verdict, fell_back, want = verdict_and_exact(tails, tol, calls)
        assert verdict == want
        seen["fell back" if fell_back else "decided"] += 1
        seen["indefinite" if want is None else "definite"] += 1
        seen["one member"] += tails.shape[0] == 1
        seen["not finite"] += not np.isfinite(tails).all()
    # every way through the verdict is taken many times
    assert min(seen.values()) >= 40, seen


@pytest.mark.parametrize("d", [1, 2, 200])
def test_rung_verdict_decides_tight_clusters_without_the_exact_pass(
        d, monkeypatch):
    rng = np.random.default_rng(d)
    tol = 1e-3
    calls = exact_passes(monkeypatch)
    for k in (1, 2, 3, 4):
        for m in (1, 2, 16, 40):
            if m < k:
                continue
            centres = rng.uniform(-1, 1, (k, 1, d))
            labels = np.arange(m) % k
            tails = (centres[labels] + 0.01 * np.sin(np.arange(30))[:, None]
                     + 1e-7 * rng.standard_normal((m, 30, d)))
            verdict, fell_back, want = verdict_and_exact(tails, tol, calls)
            assert verdict == want == k and not fell_back


@pytest.mark.parametrize("d", [1, 2, 200])
def test_rung_verdict_on_clusters_wider_than_tol_over_8(d, monkeypatch):
    # members 0.045-0.09 tol from their cluster's centre: linked and out of
    # the band (diameters below 0.18 tol < tol/4), but some lie farther
    # than tol/8 from the first pivot of their cluster
    rng = np.random.default_rng(d)
    tol = 1e-3
    calls = exact_passes(monkeypatch)
    for k in (1, 2, 3):
        centres = rng.uniform(-1, 1, (k, 1, d))
        offsets = rng.standard_normal((24, 1, d))
        offsets *= (0.09 * tol * rng.uniform(0.5, 1, (24, 1, 1))
                    / np.linalg.norm(offsets, axis=2, keepdims=True))
        tails = centres[np.arange(24) % k] + offsets + np.zeros((1, 20, d))
        verdict, fell_back, want = verdict_and_exact(tails, tol, calls)
        assert verdict == want == k


@pytest.mark.parametrize("edge", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("d", [1, 2, 200])
def test_rung_verdict_falls_back_at_the_band_edges(edge, d, monkeypatch):
    # d_max (= d_min) a few ulps either side of tol/4, tol and 4 tol:
    # inside the rounding bound, so the verdict must hand the pair to the
    # exact pass.  The pair alone has pivot 0 at one end; the triple has
    # it in the middle, between members -a and b along one axis
    tol = 1e-3
    calls = exact_passes(monkeypatch)
    gap = np.float64(edge * tol)
    for _ in range(3):
        gap = np.nextafter(gap, 0.0)
    for _ in range(7):
        axis = np.zeros((20, d))
        axis[:, -1] = 1.0
        a = gap * 0.375
        pair = np.stack([0.0 * axis, gap * axis])
        triple = np.stack([0.0 * axis, -a * axis, (gap - a) * axis])
        assert (gap - a) + a == gap
        for tails in (pair, triple):
            verdict, fell_back, want = verdict_and_exact(tails, tol, calls)
            assert verdict == want and fell_back, (edge, gap)
        gap = np.nextafter(gap, 1.0)


def test_rung_verdict_sees_a_cross_pair_within_tol_at_one_step(monkeypatch):
    # far apart over the window but within tol at one step: the pivots'
    # inf over the window, not their sup, bounds the pair's d_min
    t = 30
    a = np.zeros((t, 1))
    b = np.ones((t, 1))
    b[12] = 5e-4
    calls = exact_passes(monkeypatch)
    verdict, fell_back, want = verdict_and_exact(np.stack([a, b, a + 1e-6]),
                                                 1e-3, calls)
    assert verdict is want is None and fell_back


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rung_verdict_on_tails_that_are_not_finite(bad, monkeypatch):
    rng = np.random.default_rng(5)
    calls = exact_passes(monkeypatch)
    base = np.where(rng.random(6) < 0.5, -0.6, 0.6)[:, None, None] \
        + 1e-6 * rng.standard_normal((6, 20, 2))
    for m, row in ((1, 0), (6, 0), (6, 3), (6, 5)):
        tails = base[:m].copy()
        tails[row, 7, 1] = bad
        verdict, fell_back, want = verdict_and_exact(tails, 1e-3, calls)
        assert verdict == want and fell_back
    both = base.copy()  # inf - inf in the pair of these two members
    both[[1, 4], 7, 0] = bad
    with np.errstate(invalid="ignore"):  # the exact pass's own warning
        verdict, fell_back, want = verdict_and_exact(both, 1e-3, calls)
    assert verdict == want and fell_back


def test_rung_verdict_scratch_is_bounded():
    # the context ensemble's shape: beyond the (m, m) bounds, one block of
    # the pair kernel's scratch and one (m, W) row, never a tails-sized
    # array (16 MB here)
    m, window, d = 100, 100, 200
    rng = np.random.default_rng(0)
    tails = (np.where(np.arange(m) % 2, -0.5, 0.5)[:, None, None]
             + 1e-7 * rng.standard_normal((m, window, d)))
    tracemalloc.start()
    try:
        verdict = index._rung_verdict(tails, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == 2
    assert peak < index._PAIR_SCRATCH_BYTES + m * window * 8 + 12 * m * m * 8


def test_max_pair_distance_propagates_nan_across_blocks():
    rng = np.random.default_rng(4)
    xs = rng.uniform(-1, 1, (1500, 3))
    block = index._PAIR_BLOCK_BYTES // (16 * xs.shape[0])
    assert block < xs.shape[0] - 1
    assert index._max_pair_distance(xs) == pdist(xs).max()
    for row in (0, block - 1, block, xs.shape[0] - 1):
        bad = xs.copy()
        bad[row, 1] = np.nan
        assert np.isnan(index._max_pair_distance(bad)), row


def test_max_pair_distance_scratch_is_bounded():
    n, d = 3000, 3
    xs = np.random.default_rng(0).standard_normal((n, d))
    tracemalloc.start()
    try:
        got = index._max_pair_distance(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == pdist(xs).max()
    # all pairs at once would take 36 MB.  Beyond the block: the
    # coordinate-major copy of xs, and the buffer of up to 128 KiB that
    # numpy's ufuncs use for short broadcast loops
    assert peak <= index._PAIR_BLOCK_BYTES + xs.nbytes + 160 * 1024


def assert_pdist_bits(xs):
    got = index._max_pair_distance(xs)
    assert np.float64(got).tobytes() == pdist(xs).max().tobytes(), xs


def test_max_pair_distance_on_sets_where_the_screen_bound_is_tight():
    # collinear points symmetric about the box centre: the maximal pair's
    # bound (hi_i + hi_j) (1 + eps) + eta sits within rounding of its
    # distance
    rng = np.random.default_rng(31)
    for d in (1, 2, 3):
        v = rng.standard_normal(d)
        for scale in (1.0, 1e-10, 1e-155, 1e-300):
            for t in ([-1, 1, 0], [-1, -0.5, 0.5, 1], [-1, 1, -1, 1, 0.25, -0.25],
                      [-1, -1 + 1e-9, 0.3, -0.3, 1 - 1e-9, 1]):
                assert_pdist_bits(np.outer(t, scale * v))
                assert_pdist_bits(0.5 + np.outer(t, scale * v))
    # the bound is kept whole: a row whose pair bound reaches the first
    # row's largest distance only through the (1 + eps) widening is kept
    eps = index._rounding(1)[0]
    for scale in (1.0, 1e-10):
        for shy, kept in ((3 * eps, 2), (5 * eps, 1)):
            xs = scale * np.array([[-1.0], [1.0], [1.0 - shy]])
            assert index._screen(xs)[1] == kept, (scale, shy)
            assert_pdist_bits(xs)


def test_max_pair_distance_when_the_farthest_row_leaves_the_maximal_pair():
    rng = np.random.default_rng(32)
    left_out = 0
    for _ in range(2000):
        xs = rng.uniform(-1, 1, (int(rng.integers(3, 7)), 2))
        order = index._screen(xs)[0]
        dist = pdist(xs)
        i, j = np.triu_indices(len(xs), 1)
        pair = {i[np.argmax(dist)], j[np.argmax(dist)]}
        left_out += order[0] not in pair
        assert_pdist_bits(xs)
    assert left_out > 50  # about 8 % of such sets


def test_max_pair_distance_on_sets_the_screen_cannot_prune():
    # every row is as far from the box centre as the maximal pair allows
    angles = 2 * np.pi * np.arange(64) / 64
    circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    # (a small circle away from 0 is not round after rounding, and is pruned)
    for centre, radius in ((0.0, 1.0), (0.0, 1e-9), (0.0, 1e-200), (0.5, 1.0),
                           (-3.0, 3.0)):
        xs = centre + radius * circle
        assert index._screen(xs)[1] == xs.shape[0] - 1, (centre, radius)
        assert_pdist_bits(xs)


def test_switching_fibres_measure_few_rows(switching_system, switching_input):
    # the screen's whole saving: a collapsed fibre's maximum comes from
    # the pairs of a handful of its 1,089 rows
    r_plus = Region(lo=np.array([-1.0, 0.55]), hi=np.array([1.0, 1.0]))
    r_minus = Region(lo=np.array([-1.0, -1.0]), hi=np.array([1.0, -0.55]))
    for region in (r_plus, r_minus):
        for depth in (80, 200):
            fib = pullback_fibre(switching_system, switching_input, n=0,
                                 depth=depth, region=region)
            assert index._screen(fib.points)[1] <= 8, depth
            assert (np.float64(fib.final_diameter).tobytes()
                    == pdist(fib.points).max().tobytes()), depth


def test_estimate_echo_index_switching(switching_system, switching_input):
    proto = IndexProtocol(ic_counts=(16, 24), transients=(150, 300),
                          horizon=120, window=100)
    rep = estimate_echo_index(switching_system, switching_input, protocol=proto)
    assert rep.index == 2
    assert rep.diagnostics["stabilized"]
    assert rep.diagnostics["shift_check"] == "agree"
    assert [r[2] for r in rep.diagnostics["rungs"]] == ["2", "2"]


def test_estimate_echo_index_contracting_reservoir():
    rng = np.random.default_rng(5)
    w = rng.uniform(-1, 1, (4, 4))
    w = 0.8 * w / np.linalg.norm(w, 2)
    params = RnnParams(alpha=1.0, w_r=w, w_in=rng.uniform(-1, 1, (4, 1)))
    seq = gen_uniform_scaled(0.5, -20, 900, seed=2)
    rep = estimate_echo_index(params, seq)
    assert rep.index == 1


def test_estimate_never_stabilizes_on_an_isometry():
    system = RotationSystem()
    seq = const_seq(0.0, -20, 2000)
    rep = estimate_echo_index(system, seq)
    assert rep.index is None
    assert not rep.diagnostics["stabilized"]


def bistable_driven():
    # x' = tanh(2x + u): bistable for |u| < 0.533, one attractor beyond
    return RnnParams(alpha=1.0, w_r=[[2.0]], w_in=[[1.0]])


SHORT_LADDER = IndexProtocol(ic_counts=(8, 12, 16), transients=(40, 60, 200),
                             horizon=30, window=20)


def test_many_input_ladder_matches_one_input_ladders():
    params = bistable_driven()
    seqs = [const_seq(0.0, -5, 394), const_seq(1.0, -5, 394),
            gen_uniform_scaled(1.0, -5, 400, seed=6), const_seq(0.533, -5, 394),
            gen_uniform_scaled(1.1, -5, 400, seed=1)]
    seeds = [3, 1, 0, 2, 0]
    many = estimate_echo_indices(params, seqs, SHORT_LADDER, ic_seeds=seeds)
    for seq, seed, rep in zip(seqs, seeds, many):
        solo = estimate_echo_index(params, seq, replace(SHORT_LADDER, ic_seed=seed))
        assert rep.verdict() == solo.verdict()
        assert rep.min_separation == solo.min_separation
        assert rep.max_diameter == solo.max_diameter
        assert rep.diagnostics == solo.diagnostics
    # 2 and 1 stable at the second rung, 1 stable at the third (its shift
    # lane checked a rung later), never stable, and a shift-check
    # disagreement
    assert [r.verdict() for r in many] == ["2", "1", "1", "indefinite", "indefinite"]
    assert [len(r.diagnostics["rungs"]) for r in many] == [2, 2, 3, 3, 2]
    assert not many[3].diagnostics["stabilized"]
    assert many[4].diagnostics["shift_check"].startswith("disagreement")
    with pytest.raises(ConfigurationError):
        estimate_echo_indices(params, seqs, SHORT_LADDER, ic_seeds=[0])


def two_phase_ladder(system, seq, protocol, seed, anchor):
    """The ladder's report for one input the two-phase way: fresh
    ensembles rung by rung until two agree, then a separate shift-check
    ensemble at anchor + shift_check."""
    history, stable = [], False
    for count, transient in zip(protocol.ic_counts, protocol.transients):
        run = run_ensemble(system, seq, count, transient, protocol.horizon,
                           anchor=anchor, ic_seed=seed)
        rep = cluster_asymptotics(run, protocol.cluster_tol, protocol.window)
        history.append(rep)
        if len(history) >= 2 and rep.is_definite and history[-2].index == rep.index:
            stable = True
            break
    diagnostics = dict(rep.diagnostics, stabilized=stable)
    diagnostics["rungs"] = [(c, t, h.verdict()) for c, t, h in
                            zip(protocol.ic_counts, protocol.transients, history)]
    if not stable:
        return replace(rep, index=None, diagnostics=diagnostics)
    shifted = cluster_asymptotics(
        run_ensemble(system, seq, count, transient, protocol.horizon,
                     anchor=anchor + protocol.shift_check, ic_seed=seed),
        protocol.cluster_tol, protocol.window)
    if shifted.index != rep.index:
        diagnostics["shift_check"] = (
            f"disagreement at anchor {anchor + protocol.shift_check}: "
            f"{shifted.verdict()} vs {rep.verdict()}")
        return replace(rep, index=None, diagnostics=diagnostics)
    diagnostics["shift_check"] = "agree"
    return replace(rep, diagnostics=diagnostics)


# anchors at which the fifth input's shift check disagrees unless the
# shift is 0
@pytest.mark.parametrize("shift_check,anchor", [(13, 4), (0, 4), (-7, 11)])
def test_shift_lanes_reproduce_the_two_phase_ladder(shift_check, anchor,
                                                    monkeypatch):
    params = bistable_driven()
    seqs = [const_seq(0.0, -5, 394), const_seq(1.0, -5, 394),
            gen_uniform_scaled(1.0, -5, 400, seed=6), const_seq(0.533, -5, 394),
            gen_uniform_scaled(1.1, -5, 400, seed=1)]
    seeds = [3, 1, 0, 2, 0]
    protocol = replace(SHORT_LADDER, shift_check=shift_check)
    rungs, windows, inside, outside = [], [], [], []
    advance = core._advance

    def counted(fn, calls):
        def run(*args, **kwargs):
            calls.append(True)
            inside.append(True)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return run

    def checking_advance(*args):
        outside.append(not inside)
        return advance(*args)
    monkeypatch.setattr(index, "_ladder_rung", counted(index._ladder_rung, rungs))
    monkeypatch.setattr(index._Rung, "window", counted(index._Rung.window, windows))
    monkeypatch.setattr(core, "_advance", checking_advance)
    many = estimate_echo_indices(params, seqs, protocol, anchor=anchor,
                                 ic_seeds=seeds)
    # one evolution to the window per rung, then one window per lane group
    # (shift lanes, main lanes); no second pass
    assert len(rungs) == max(len(r.diagnostics["rungs"]) for r in many) == 3
    assert len(windows) == 2 * len(rungs)
    assert not any(outside)
    monkeypatch.undo()
    for seq, seed, rep in zip(seqs, seeds, many):
        assert rep.summary_dict() == two_phase_ladder(
            params, seq, protocol, seed, anchor).summary_dict()
    # inputs leave at rungs 1 and 2, one never stabilises, and a shift
    # check away from the anchor disagrees
    assert [len(r.diagnostics["rungs"]) for r in many] == [2, 2, 3, 3, 2]
    assert [r.diagnostics["stabilized"] for r in many] == [True] * 3 + [False, True]
    assert "shift_check" not in many[3].diagnostics
    assert [r.diagnostics["shift_check"] == "agree" for r in many[:3]] == [True] * 3
    assert many[4].diagnostics["shift_check"].startswith(
        "agree" if shift_check == 0 else "disagreement")


def test_a_ladder_makes_one_exact_pass_per_input(monkeypatch):
    # two rungs, both inputs stable at rung 1: each gets verdicts for
    # rungs 0 and 1 and its shift check, and one exact pass for the report
    # it keeps, where the exact-every-rung ladder makes three
    params = bistable_driven()
    seqs = [const_seq(0.0, -5, 394), const_seq(1.0, -5, 394)]
    seeds = [3, 1]
    protocol = IndexProtocol(ic_counts=(8, 12), transients=(40, 60), horizon=30,
                             window=20)
    calls = exact_passes(monkeypatch)
    many = estimate_echo_indices(params, seqs, protocol, ic_seeds=seeds)
    assert [r.verdict() for r in many] == ["2", "1"]
    assert calls == [(12, 20, 1)] * 2
    for seq, seed, rep in zip(seqs, seeds, many):
        calls.clear()
        assert rep.summary_dict() == two_phase_ladder(
            params, seq, protocol, seed, 0).summary_dict()
        assert len(calls) == 3


@pytest.mark.parametrize("seeds", [[3, 1, 3], [2, 2]])
@pytest.mark.parametrize("ic_counts", [(16, 24, 32), (32, 16)])
def test_a_ladder_draws_each_seeds_ics_once(ic_counts, seeds, monkeypatch):
    # max(ic_counts) ICs per distinct seed, drawn once; each rung takes
    # the first ic_counts[r] of them, the bits of a draw of that count
    # (with one seed, as one view shared by every lane)
    system = RotationSystem()  # never stabilises: every rung runs
    seqs = [const_seq(0.0, -5, 200)] * len(seeds)
    protocol = IndexProtocol(ic_counts=ic_counts, transients=(10, 20, 30)[:len(ic_counts)],
                             horizon=12, window=10)
    draw, evolve, draws, rung_ics = index._draw_ics, index._evolve, [], []

    def counted_draw(system, seed, count):
        draws.append((seed, count))
        return draw(system, seed, count)

    def recording_evolve(system, seqs, ics, *args):
        rung_ics.append(ics.copy())
        return evolve(system, seqs, ics, *args)
    monkeypatch.setattr(index, "_draw_ics", counted_draw)
    monkeypatch.setattr(index, "_evolve", recording_evolve)
    reports = estimate_echo_indices(system, seqs, protocol, ic_seeds=seeds)
    assert not any(r.diagnostics["stabilized"] for r in reports)
    assert sorted(draws) == [(seed, max(ic_counts)) for seed in sorted(set(seeds))]
    assert len(rung_ics) == len(ic_counts)
    for count, ics in zip(ic_counts, rung_ics):
        # each input's lane, then its shift lane, from the same ICs
        assert ics.shape == (2 * len(seeds), count, 2)
        for lane, seed in enumerate(seeds * 2):
            assert np.array_equal(ics[lane], draw(system, seed, count))


def continued_rung(system, seqs, seeds, protocol, r):
    """Tails of rung r continued from rung r - 1, as the ladder does it."""
    table, rows = index._ladder_ics(system, seeds, protocol)
    prev = index._ladder_rung(system, seqs, table, rows, protocol, r - 1, 0)
    carried = prev.carry(rung_window(prev), protocol.transients[r])
    return rung_window(index._ladder_rung(system, seqs, table, rows, protocol, r,
                                          0, carried))


def fresh_rung(system, seq, seed, protocol, r):
    return run_ensemble(system, seq, protocol.ic_counts[r], protocol.transients[r],
                        protocol.horizon, ic_seed=seed).trajectories


def count_advanced_steps(monkeypatch):
    """Records (members, steps) for every lockstep advance that moves a
    member, counting the rows of its drive blocks as they pass."""
    steps = []
    advance = core._advance

    def counting(system, drive, xs, tails):
        if not xs.shape[1]:
            return advance(system, drive, xs, tails)
        steps.append((xs.shape[1], 0))

        def counted():
            for block in drive:
                steps[-1] = (xs.shape[1], steps[-1][1] + len(block))
                yield block
        return advance(system, counted(), xs, tails)
    monkeypatch.setattr(core, "_advance", counting)
    return steps


def test_continued_rung_is_bit_exact_on_the_scalar_path(monkeypatch):
    params = bistable_driven()
    seqs = [gen_uniform_scaled(w, -5, 400, seed=s)
            for w, s in ((0.3, 0), (1.0, 6), (1.2, 0))]
    seeds = [0, 4, 1]
    steps = count_advanced_steps(monkeypatch)
    for r in (1, 2):  # overlapping tail windows, then disjoint ones
        steps.clear()
        tails = continued_rung(params, seqs, seeds, SHORT_LADDER, r)
        if r == 1:
            # rung 0 runs to its window's first step, 40, then through its
            # window; the shared members restart from their states at 60,
            # the next window's first step, so every member is there at
            # once, and the overlap 60..70 is evolved again
            assert steps == [(8, 40), (8, 30), (4, 60), (12, 0), (12, 30)]
        for i, (seq, seed) in enumerate(zip(seqs, seeds)):
            assert np.array_equal(tails[i],
                                  fresh_rung(params, seq, seed, SHORT_LADDER, r))


def test_continued_rung_is_bit_exact_on_a_reservoir_with_feedback(monkeypatch):
    rng = np.random.default_rng(21)
    n_r = 30
    w_r = rng.uniform(-1, 1, (n_r, n_r))
    params = RnnParams(alpha=0.6, w_r=0.9 * w_r / np.linalg.norm(w_r, 2),
                       w_in=rng.uniform(-1, 1, (n_r, 2)),
                       w_fb=rng.uniform(-0.5, 0.5, (n_r, 1)),
                       w_out=rng.uniform(-0.2, 0.2, (1, n_r)))
    seq = InputSequence(anchor=0, values=rng.uniform(-1, 1, (400, 2)))
    proto = IndexProtocol(ic_counts=(5, 5), transients=(50, 150), horizon=40,
                          window=30)
    steps = count_advanced_steps(monkeypatch)
    tails = continued_rung(params, [seq], [7], proto, 1)[0]
    # rung 2 continues all five members from rung 1's last step, 90, to
    # its window's first step, 150, no restart
    assert steps == [(5, 50), (5, 40), (5, 60), (5, 40)]
    assert np.array_equal(tails, fresh_rung(params, seq, 7, proto, 1))


def test_continued_rung_is_bit_exact_under_the_default_protocol(
        switching_system, monkeypatch):
    proto = IndexProtocol()  # (16, 24, 32) ICs after (150, 300, 600) steps
    seq = gen_two_symbol(*switching_inputs(), 0.5, -5, 800, seed=4)
    steps = count_advanced_steps(monkeypatch)
    for r in (1, 2):
        steps.clear()
        tails = continued_rung(switching_system, [seq], [5], proto, r)
        shared, count = proto.ic_counts[r - 1], proto.ic_counts[r]
        join = proto.transients[r - 1] + proto.horizon
        # rung r - 1 runs from the anchor to its window, then through it;
        # rung r runs its new members from the anchor to rung r - 1's end,
        # then every member on from there to its window, then through it
        assert steps == [(shared, proto.transients[r - 1]), (shared, proto.horizon),
                         (count - shared, join),
                         (count, proto.transients[r] - join), (count, proto.horizon)]
        assert shared < count
        assert np.array_equal(tails[0], fresh_rung(switching_system, seq, 5,
                                                   proto, r))


def test_shrinking_transient_falls_back_to_fresh_evolution(
        switching_system, switching_input, monkeypatch):
    proto = IndexProtocol(ic_counts=(6, 6), transients=(300, 150), horizon=120)
    steps = count_advanced_steps(monkeypatch)
    tails = continued_rung(switching_system, [switching_input], [2], proto, 1)
    # after rung 0's two calls every member restarts at the anchor
    assert steps[2:] == [(6, 150), (6, 120)]
    assert np.array_equal(tails[0], fresh_rung(switching_system, switching_input,
                                               2, proto, 1))


def feedback_reservoir(seed, n_r=30):
    rng = np.random.default_rng(seed)
    w_r = rng.uniform(-1, 1, (n_r, n_r))
    params = RnnParams(alpha=0.6, w_r=0.9 * w_r / np.linalg.norm(w_r, 2),
                       w_in=rng.uniform(-1, 1, (n_r, 2)),
                       w_fb=rng.uniform(-0.5, 0.5, (n_r, 1)),
                       w_out=rng.uniform(-0.2, 0.2, (1, n_r)))
    return params, InputSequence(anchor=0, values=rng.uniform(-1, 1, (400, 2)))


def assert_fresh_run(kept, system, seq, protocol, r, anchor, seed):
    fresh = run_ensemble(system, seq, protocol.ic_counts[r], protocol.transients[r],
                         protocol.horizon, anchor=anchor, ic_seed=seed)
    assert kept.system is system and kept.input_seq is seq
    assert np.array_equal(kept.initial_conditions, fresh.initial_conditions)
    assert np.array_equal(kept.trajectories, fresh.trajectories)
    assert (kept.transient, kept.horizon, kept.anchor, kept.ic_seed) == (
        fresh.transient, fresh.horizon, fresh.anchor, fresh.ic_seed)
    assert type(kept.transient) is type(kept.anchor) is int


@pytest.mark.parametrize("keep_rung", [0, -1])
@pytest.mark.parametrize("system_name", ["feedback", "switching"])
def test_kept_rung_equals_a_fresh_run(system_name, keep_rung, switching_system,
                                      switching_input, monkeypatch):
    if system_name == "feedback":
        system, seq = feedback_reservoir(21)
        proto = IndexProtocol(ic_counts=(5, 8), transients=(50, 150),
                              horizon=40, window=30, ic_seed=7)
        anchor = 3
    else:
        system, seq = switching_system, switching_input
        proto = IndexProtocol(ic_counts=(16, 24), transients=(150, 300),
                              horizon=120, window=100, ic_seed=2)
        anchor = 0
    steps = count_advanced_steps(monkeypatch)
    plain = estimate_echo_index(system, seq, proto, anchor=anchor)
    plain_steps = list(steps)
    steps.clear()
    rep = estimate_echo_index(system, seq, proto, anchor=anchor,
                              keep_rung=keep_rung)
    assert steps == plain_steps  # keeping a rung evolves nothing more
    assert plain.ensemble is None
    assert rep.summary_dict() == plain.summary_dict()
    assert "ensemble" not in rep.summary_dict() and "ensemble" not in repr(rep)
    assert_fresh_run(rep.ensemble, system, seq, proto, keep_rung % 2, anchor,
                     proto.ic_seed)


def test_kept_rung_is_none_when_the_ladder_stops_before_it():
    params = bistable_driven()
    seq = const_seq(0.0, -5, 394)
    rep = estimate_echo_index(params, seq, SHORT_LADDER, keep_rung=2)
    assert rep.verdict() == "2" and len(rep.diagnostics["rungs"]) == 2
    assert rep.ensemble is None
    assert estimate_echo_index(params, seq, SHORT_LADDER, keep_rung=-1).ensemble is None
    for bad in (3, -4):
        with pytest.raises(ConfigurationError):
            estimate_echo_index(params, seq, SHORT_LADDER, keep_rung=bad)


def test_many_input_ladder_keeps_one_run_per_input(monkeypatch):
    params = bistable_driven()
    seqs = [const_seq(0.0, -5, 394), const_seq(1.0, -5, 394),
            gen_uniform_scaled(1.0, -5, 400, seed=6), const_seq(0.533, -5, 394),
            gen_uniform_scaled(1.1, -5, 400, seed=1)]
    seeds = [3, 1, 0, 2, 0]
    steps = count_advanced_steps(monkeypatch)
    plain = estimate_echo_indices(params, seqs, SHORT_LADDER, ic_seeds=seeds)
    plain_steps = list(steps)
    for r in (1, 2):
        steps.clear()
        reps = estimate_echo_indices(params, seqs, SHORT_LADDER, ic_seeds=seeds,
                                     keep_rung=r)
        assert steps == plain_steps
        for seq, seed, rep, ref in zip(seqs, seeds, reps, plain):
            assert rep.summary_dict() == ref.summary_dict()
            if len(rep.diagnostics["rungs"]) <= r:
                assert rep.ensemble is None
                continue
            assert_fresh_run(rep.ensemble, params, seq, SHORT_LADDER, r, 0, seed)
        runs = [rep.ensemble for rep in reps if rep.ensemble is not None]
        assert len(runs) == (5 if r == 1 else 2)
        for a in runs:  # each input owns its arrays, not the whole rung's
            assert a.trajectories.base is None
            assert not any(np.shares_memory(a.trajectories, b.trajectories)
                           for b in runs if b is not a)


@pytest.mark.parametrize("keep_rung", [None, -1])
def test_a_ladder_holds_one_lane_groups_window_at_a_time(keep_rung, monkeypatch):
    # one lane's window is 2.9 MB here: the shift lanes' window and the
    # main lanes' share one buffer, and a kept last rung is a view of it
    n_r, m, horizon = 50, 60, 120
    rng = np.random.default_rng(8)
    w = rng.uniform(-1, 1, (n_r, n_r))
    params = RnnParams(alpha=1.0, w_r=0.8 * w / np.linalg.norm(w, 2),
                       w_in=rng.uniform(-1, 1, (n_r, 1)))
    proto = IndexProtocol(ic_counts=(m, m), transients=(20, 40), horizon=horizon,
                          window=100)
    seq = gen_uniform_scaled(0.5, -5, proto.reach, seed=2)
    monkeypatch.setattr(core, "_cpu_count", lambda: 1)
    tracemalloc.start()
    try:
        rep = estimate_echo_index(params, seq, proto, keep_rung=keep_rung)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict() == "1" and len(rep.diagnostics["rungs"]) == 2
    if keep_rung is not None:
        assert rep.ensemble.trajectories.base is not None
    # one lane's window, the exact pass's scratch, results and row of
    # squares (test_pair_distances_scratch_is_bounded), and a few arrays
    # of both lanes' states; holding both lanes' windows adds 2.9 MB
    window, states = m * (horizon + 1) * n_r * 8, 2 * m * n_r * 8
    assert peak < (window + index._PAIR_SCRATCH_BYTES + 12 * m * m * 8
                   + m * proto.window * 8 + 4 * states)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_member_groups_give_the_bits_of_one_run(cpus, monkeypatch):
    # every network ensemble split into groups on `cpus` threads: the
    # ladder (continuation, shift lanes, a kept rung), a plain ensemble
    # and an orbit keep the bytes of the unsplit runs
    system, seq = feedback_reservoir(21)
    seqs = [seq, InputSequence(anchor=-5, values=np.random.default_rng(2).uniform(
        -1, 1, (406, 2)))]
    proto = IndexProtocol(ic_counts=(5, 8, 7), transients=(50, 150, 150),
                          horizon=40, window=30, ic_seed=7, shift_check=13)
    x0 = np.random.default_rng(3).uniform(-1, 1, system.n_r)

    def outputs():
        reps = estimate_echo_indices(system, seqs, proto, anchor=3,
                                     ic_seeds=[7, 4], keep_rung=1)
        return ([repr(rep.summary_dict()) for rep in reps]
                + [rep.ensemble.trajectories.tobytes() for rep in reps]
                + [run_ensemble(system, seq, 9, 60, 30, anchor=2,
                                ic_seed=4).trajectories.tobytes(),
                   orbit(system, seq, x0, 200, anchor=1).states.tobytes()])

    serial = outputs()
    on_main, advance = [], core._advance

    def recording(*args):
        on_main.append(threading.current_thread() is threading.main_thread())
        return advance(*args)
    monkeypatch.setattr(core, "_MIN_GROUP_WORK", 1)
    monkeypatch.setattr(core, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(core, "_advance", recording)
    assert outputs() == serial
    assert set(on_main) == ({True, False} if cpus > 1 else {True})


def test_protocol_validation():
    with pytest.raises(ConfigurationError, match="two or more transients"):
        IndexProtocol(ic_counts=(16,), transients=(100,))
    with pytest.raises(ConfigurationError, match="two or more transients"):
        IndexProtocol(ic_counts=(16, 24), transients=(100,))
    with pytest.raises(ConfigurationError, match="one IC count per transient"):
        IndexProtocol(ic_counts=(16,), transients=(100, 200))
    # refused when built, not once a rung starts
    for ics, transients in (((0, 24), (100, 200)), ((16, -1), (100, 200)),
                            ((16, 24), (-5, 10)), ((16, 24), (100, -1))):
        with pytest.raises(ConfigurationError, match="ic_counts >= 1"):
            IndexProtocol(ic_counts=ics, transients=transients)
    assert IndexProtocol(ic_counts=(1, 1), transients=(0, 0)).transients == (0, 0)
    # clustering reads the last `window` of horizon + 1 retained states
    for horizon, window in ((120, 200), (120, 122), (120, 9), (30, 100)):
        with pytest.raises(ConfigurationError, match="window"):
            IndexProtocol(horizon=horizon, window=window)
    for window in (10, 121):
        assert IndexProtocol(horizon=120, window=window).window == window
    # a tolerance that is not a positive finite number would make every
    # verdict indefinite without saying why
    for tol in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigurationError, match="cluster_tol"):
            IndexProtocol(cluster_tol=tol)
    assert IndexProtocol(cluster_tol=1e-12).cluster_tol == 1e-12


@pytest.mark.parametrize("shift_check", [13, 0, -7])
def test_protocol_reach_is_the_last_input_a_ladder_reads(shift_check):
    # x' = tanh(2x) under zero input is index 2 at both rungs, so the
    # ladder runs every rung and then the shift check
    params = bistable_driven()
    protocol = IndexProtocol(ic_counts=(8, 12), transients=(40, 60), horizon=30,
                             window=20, shift_check=shift_check)
    assert protocol.reach == max(0, shift_check) + 60 + 30
    anchor = 5
    rep = estimate_echo_index(params, const_seq(0.0, anchor - 20,
                                                anchor + protocol.reach),
                              protocol, anchor=anchor)
    assert rep.index == 2
    assert len(rep.diagnostics["rungs"]) == 2
    assert rep.diagnostics["shift_check"] == "agree"
    with pytest.raises(WindowExhausted):
        estimate_echo_index(params, const_seq(0.0, anchor - 20,
                                              anchor + protocol.reach - 1),
                            protocol, anchor=anchor)


@pytest.mark.parametrize("n_r,n_i,width", [(2, 2, 1), (1, 1, 2)])
def test_input_width_must_match_the_network(n_r, n_i, width):
    params = RnnParams(alpha=0.5, w_r=0.5 * np.eye(n_r),
                       w_in=np.ones((n_r, n_i)))
    seq = const_seq(np.zeros(width), -50, 200)
    widths = f"{width} channels, the network takes n_i = {n_i}"
    with pytest.raises(ConfigurationError, match=widths):
        orbit(params, seq, np.zeros(n_r), 10)
    with pytest.raises(ConfigurationError, match=widths):
        run_ensemble(params, seq, 4, transient=10, horizon=5)
    with pytest.raises(ConfigurationError, match=widths):
        estimate_echo_index(params, seq, SHORT_LADDER)
    with pytest.raises(ConfigurationError, match=widths):
        pullback_fibre(params, seq, n=0, depth=10)


def test_kloeden_past_fibre_shrinks_monotonically():
    system = KloedenSystem(a=1.5)
    seq = system.arrival_sequence(-80, 0)
    # fibre at time -1 sees only the contracting past drive
    # the past drive is constant, so depth j at time -1 is the state box
    # pushed j steps: its diameters shrink with the depth
    past = [pullback_fibre(system, seq, n=-1, depth=j).final_diameter
            for j in range(61)]
    assert past[-1] < 1e-8
    assert np.all(np.diff(past) <= 0.0)
    assert pullback_fibre(system, seq, n=0, depth=0).final_diameter == 2.0
    # criterion depth at time 0 (one expanding arrival at k = 0)
    fib = pullback_fibre(system, seq, n=0, depth=35)
    assert fib.final_diameter < 1e-6
    assert fib.points.shape[1] == 1


def test_fibre_cloud_path_for_higher_dimensions():
    rng = np.random.default_rng(8)
    w = rng.uniform(-1, 1, (3, 3))
    w = 0.6 * w / np.linalg.norm(w, 2)
    params = RnnParams(alpha=1.0, w_r=w, w_in=rng.uniform(-1, 1, (3, 1)))
    seq = gen_uniform_scaled(0.2, -60, 10, seed=1)
    fib = pullback_fibre(params, seq, n=0, depth=40)
    assert fib.points.shape == (1000, 3)
    assert fib.final_diameter < 1e-6
    again = pullback_fibre(params, seq, n=0, depth=40)
    assert np.array_equal(fib.points, again.points)
    other = pullback_fibre(params, seq, n=0, depth=40, cloud_seed=1)
    assert not np.array_equal(fib.points, other.points)


def test_fibre_diameter_equals_pdist_max(switching_system, switching_input):
    def check(xs):
        ref = pdist(xs).max() if xs.shape[0] > 1 else 0.0
        got = index._max_pair_distance(xs)
        assert np.float64(got).tobytes() == np.float64(ref).tobytes(), xs.shape

    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 50, 1000):
        for d in (1, 2, 3, 10, 200):
            for scale in (1.0, 1e-10, 1e-155, 1e-300):
                for centre in (0.5, 0.0):
                    if (n, d, scale, centre) == (1000, 200, 1e-155, 0.0):
                        continue  # 10^8 subnormal products take seconds
                    # skewed clouds: the maximal pair is off-centre
                    check(centre + scale * rng.standard_exponential((n, d)))
            check(rng.uniform(-1, 1, (n, d)))
    # squares of differences below ~1e-154 underflow, and r with them
    check(np.array([[0.0], [3e-162]]))
    check(3e-162 * rng.standard_exponential((50, 3)))
    with np.errstate(invalid="ignore", over="ignore"):
        check(np.full((5, 2), np.inf))
        check(np.vstack([rng.uniform(-1, 1, (20, 2)), [[np.nan, 0.0]]]))
        check(1e160 * rng.uniform(-1, 1, (20, 2)))  # squares overflow
        check(np.array([[-1e154], [0.0], [1e154]]))  # only pair distances do
    check(np.full((300, 2), 0.3))
    check(np.full((4, 3), -0.0))
    clump = 1e-20 * rng.uniform(-1, 1, (40, 2))
    check(np.concatenate([clump, clump + [1e-17, 0.0]]))
    check(np.concatenate([np.full((40, 2), 0.5), np.full((40, 2), 0.5 + 1e-17)]))
    for d in (2, 3):
        t = rng.uniform(-1, 1, (200, 1))
        check(0.2 + t * rng.uniform(-1, 1, d))
    angles = rng.uniform(0, 2 * np.pi, 500)
    check(np.stack([np.cos(angles), np.sin(angles)], axis=1))
    # a fibre's points against the plain step_batch loop, its diameter
    # against pdist
    r_plus = Region(lo=np.array([-1.0, 0.55]), hi=np.array([1.0, 1.0]))
    for depth in (0, 1, 80):
        fib = pullback_fibre(switching_system, switching_input, n=0,
                             depth=depth, region=r_plus)
        xs = r_plus.grid(33)[0]
        for k in range(1 - depth, 1):
            xs = step_batch(switching_system, switching_input.at(k), xs)
        assert fib.points.tobytes() == xs.tobytes(), depth
        assert (np.float64(fib.final_diameter).tobytes()
                == pdist(xs).max().tobytes()), depth


def test_fibre_respects_region_and_window(switching_system, switching_input):
    r_plus = Region(lo=np.array([-1.0, 0.55]), hi=np.array([1.0, 1.0]))
    fib = pullback_fibre(switching_system, switching_input, n=0, depth=80,
                         region=r_plus)
    assert fib.final_diameter < 1e-4
    assert fib.points.shape == (33 * 33, 2)
    deep = pullback_fibre(switching_system, switching_input, n=0, depth=200,
                          region=r_plus)
    assert deep.final_diameter < 1e-10
    with pytest.raises(WindowExhausted):
        pullback_fibre(switching_system, switching_input, n=0, depth=400)
    with pytest.raises(ConfigurationError):
        pullback_fibre(switching_system, switching_input, n=0, depth=-1)
    with pytest.raises(ConfigurationError):
        pullback_fibre(switching_system, switching_input, n=0, depth=10,
                       region=Region(lo=[0.0], hi=[1.0]))


def bistable_scalar():
    # autonomous tanh(2x): stable points near +-0.9575, unstable at 0
    return RnnParams(alpha=1.0, w_r=[[2.0]], w_in=[[0.0]])


def test_separatrix_odd_symmetry_boundary_at_zero():
    # by odd symmetry the basin boundary is 0; the bracket is kept
    # asymmetric so no midpoint lands exactly on the fixed point
    params = bistable_scalar()
    seq = const_seq(0.0, -1, 300)
    res = separatrix_bisect(params, seq, np.array([-0.37]), np.array([0.52]),
                            horizon=250)
    assert res.width <= 1e-12
    assert abs(res.boundary[0]) <= 1e-12
    assert res.warning is None
    assert res.straddle_pair is not None
    a, b = res.straddle_pair
    assert np.linalg.norm(b - a) <= 1e-11
    near = res.trace[res.trace[:, 0] <= 1e-2]
    assert near.shape[0] > 10
    assert np.all(np.diff(near[:, 1]) >= 0.0)


def test_separatrix_same_basin_is_rejected():
    params = bistable_scalar()
    seq = const_seq(0.0, -1, 300)
    with pytest.raises(ConfigurationError):
        separatrix_bisect(params, seq, np.array([0.2]), np.array([0.5]),
                          horizon=250)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_clustering_and_bisection_refuse_a_tol_that_is_not_positive(
        tol, monkeypatch):
    # with tol -1, these 8 members of a contracting network (echo index
    # 1) were called 8 definite clusters
    params = RnnParams(alpha=1.0, w_r=[[0.5]], w_in=[[1.0]])
    run = run_ensemble(params, const_seq(0.1, 0, 200), 8, transient=100,
                       horizon=60)
    assert cluster_asymptotics(run).index == 1
    with pytest.raises(ConfigurationError,
                       match="cluster_tol must be positive and finite"):
        cluster_asymptotics(run, cluster_tol=tol)

    # and no bisection midpoint could commit: refused before any orbit
    def no_orbit(*args, **kwargs):
        raise AssertionError("an orbit was evolved")
    monkeypatch.setattr(core, "_advance", no_orbit)
    with pytest.raises(ConfigurationError,
                       match="cluster_tol must be positive and finite"):
        separatrix_bisect(bistable_scalar(), const_seq(0.0, -1, 300),
                          np.array([-0.37]), np.array([0.52]), horizon=250,
                          cluster_tol=tol)


def test_pair_divergence_step():
    params = bistable_scalar()
    seq = const_seq(0.0, -1, 300)
    res = separatrix_bisect(params, seq, np.array([-0.37]), np.array([0.52]),
                            horizon=250)
    a, b = res.straddle_pair
    t = pair_divergence_step(params, seq, a, b, threshold=0.1, horizon=250)
    # a 1e-11 gap doubling per step crosses 0.1 after about 33 steps
    assert t is not None and 20 <= t <= 60
    assert pair_divergence_step(params, seq, a, a, threshold=0.1,
                                horizon=50) is None


def test_other_systems_orbits_are_checked_like_reservoir_orbits():
    system = KloedenSystem(a=1.5)
    seq = system.arrival_sequence(0, 200)
    # a 2-vector (or scalar) state of a 1-D system is refused, as is a
    # negative horizon, before any step
    for bad in ([0.1, 0.3], 0.1, [[0.1]]):
        with pytest.raises(ConfigurationError, match="shape"):
            orbit(system, seq, bad, 5)
        with pytest.raises(ConfigurationError, match="shape"):
            pair_divergence_step(system, seq, bad, [0.2], 0.5, 5)
        with pytest.raises(ConfigurationError, match="shape"):
            separatrix_bisect(system, seq, bad, [0.7], horizon=100)
    with pytest.raises(ConfigurationError):
        pair_divergence_step(KloedenSystem(), seq, [0.1, 0.3], [0.2, 0.1], 0.5, 5)
    with pytest.raises(ConfigurationError, match="nonnegative"):
        orbit(system, seq, [0.1], -1)
    with pytest.raises(ConfigurationError, match="nonnegative"):
        pair_divergence_step(system, seq, [0.1], [0.2], 0.5, -3)
    with pytest.raises(ConfigurationError, match="nonnegative"):
        separatrix_bisect(system, seq, [-0.5], [0.7], horizon=-3)
    with pytest.raises(WindowExhausted):
        orbit(system, seq, [0.1], 201)
    with pytest.raises(WindowExhausted):
        pair_divergence_step(system, seq, [0.1], [0.2], 0.5, 5, anchor=-2)
    # and the valid calls run: 0 is the unstable fixed point between the
    # two forward attractors
    traj = orbit(system, seq, [0.1], 200)
    assert traj.n_steps == 200 and traj.final.shape == (1,)
    x = np.array([0.1])
    for k in range(1, 201):
        x = system.step_one(seq.at(k), x)
    assert np.array_equal(traj.final, x)
    assert pair_divergence_step(system, seq, [1e-6], [-1e-6], 0.5, 200) > 0
    res = separatrix_bisect(system, seq, [-0.5], [0.7], horizon=200)
    assert res.warning is None and abs(res.boundary[0]) < 1e-9


def count_orbit_steps(monkeypatch):
    """Record (orbits, anchor, n) of every lockstep run of solo orbits
    (core._orbits) made through index."""
    calls = []

    def counted(params, seq, x0s, n, anchor=0):
        calls.append((len(x0s), anchor, n))
        return core._orbits(params, seq, x0s, n, anchor)

    monkeypatch.setattr(index, "_orbits", counted)
    return calls


def record_round_chunks(monkeypatch):
    """Record (members, t0, t1) of every _advance_groups call made by
    index itself, which a bisection makes once per chunk of a round."""
    chunks = []

    def recorded(system, seqs, xs, t0, t1, tails):
        chunks.append((xs.shape[1], t0, t1))
        return core._advance_groups(system, seqs, xs, t0, t1, tails)

    monkeypatch.setattr(index, "_advance_groups", recorded)
    return chunks


def sequential_path(orbit_of, a, b, levels, rep_a, rep_b, cluster_tol):
    """(side, step) of each midpoint the sequential bisection measures in
    `levels` steps from [a, b], each over its full solo orbit orbit_of(mid)."""
    path = []
    for _ in range(levels):
        mid = (a + b) / 2.0
        path.append(index._commit_steps(orbit_of(mid)[None], rep_a, rep_b,
                                        cluster_tol)[0])
        if path[-1][0] is None:
            break
        a, b = (mid, b) if path[-1][0] == "a" else (a, mid)
    return path


def test_bisect_round_matches_full_horizon(switching_system, switching_input,
                                           monkeypatch):
    # tol 0 commits a step exactly where a representative equals an orbit,
    # so each first hit is placed at will, chunk edges and ties included:
    # rep_a follows the round's first midpoint from hit_a on, rep_b the
    # same midpoint (a tie when hit_a == hit_b) or the next one after an
    # "a" commit from hit_b on.  The basin boundary is near x2 = -0.0265,
    # between these two midpoints, so their orbits never meet.  Orbits in
    # one basin can merge to the same bits, so other midpoints may commit
    # too; sequential_path finds where.
    a, b = np.array([0.3, -0.1]), np.array([0.5, 0.02])
    first = (a + b) / 2.0
    chunk = index._COMMIT_CHUNK
    chunks = record_round_chunks(monkeypatch)
    for horizon in (30, chunk, 137, 2 * chunk, 600):
        solo = {}

        def orbit_of(x):
            if x.tobytes() not in solo:
                solo[x.tobytes()] = orbit(switching_system, switching_input, x,
                                          horizon).states
            return solo[x.tobytes()]
        full = {"first": orbit_of(first), "next": orbit_of((first + b) / 2.0)}
        hits = {None, 0, 1, chunk - 1, chunk, chunk + 1, 73, 120, horizon - 1,
                horizon}
        hits = [h for h in hits if h is None or h <= horizon]
        for levels, b_follows in ((1, "first"), (2, "first"), (2, "next")):
            for hit_a in hits:
                for hit_b in hits:
                    rep_a, rep_b = full["first"].copy(), full[b_follows].copy()
                    rep_a[:horizon + 1 if hit_a is None else hit_a] += 1.0
                    rep_b[:horizon + 1 if hit_b is None else hit_b] += 1.0
                    want = sequential_path(orbit_of, a, b, levels, rep_a,
                                           rep_b, 0.0)
                    chunks.clear()
                    got = index._bisect_round(switching_system, switching_input,
                                              a, b, levels, 0, rep_a, rep_b, 0.0)
                    case = (horizon, levels, b_follows, hit_a, hit_b)
                    assert got == want, case
                    # the placed hits decide the first midpoint, "a" on a tie
                    if b_follows == "next" or hit_b is None:
                        placed = ("a", hit_a) if hit_a is not None else (None, None)
                    elif hit_a is not None and hit_a <= hit_b:
                        placed = ("a", hit_a)
                    else:
                        placed = ("b", hit_b)
                    assert got[0] == placed, case
                    # the round stops with the chunk that settles its path
                    last = (horizon if got[-1][0] is None
                            else max(step for _, step in got))
                    steps = min(horizon, chunk * max(1, -(-last // chunk)))
                    assert chunks == [(2 ** levels - 1, t, min(t + chunk, horizon))
                                      for t in range(0, steps, chunk)], case


def bisect_full_horizon(system, seq, lo, hi, horizon, max_iters=80,
                        cluster_tol=1e-3, target_width=1e-12):
    """separatrix_bisect with every midpoint evolved over the full horizon;
    also returns each midpoint's commit step."""
    rep_a = orbit(system, seq, lo, horizon).states
    rep_b = orbit(system, seq, hi, horizon).states
    a, b = lo.copy(), hi.copy()
    commit_times, trace, straddle, warning = {"a": None, "b": None}, [], None, None
    commits = []
    for _ in range(max_iters):
        if float(np.linalg.norm(b - a)) <= target_width:
            break
        mid = (a + b) / 2.0
        states = orbit(system, seq, mid, horizon).states
        side, t = index._commit_steps(states[None], rep_a, rep_b, cluster_tol)[0]
        commits.append(t)
        if side is None:
            warning = "did not commit"
            break
        if side == "a":
            a = mid
        else:
            b = mid
        commit_times[side] = t
        trace.append((float(np.linalg.norm(b - a)),
                      min(v for v in commit_times.values() if v is not None)))
        if straddle is None and np.linalg.norm(b - a) <= 1e-11:
            straddle = (a.copy(), b.copy())
    return a, b, trace, straddle, warning, commits


def assert_same_bisection(res, full):
    a, b, trace, straddle, warning, _ = full
    assert res.bracket_lo.tobytes() == a.tobytes()
    assert res.bracket_hi.tobytes() == b.tobytes()
    assert res.trace.tobytes() == np.asarray(trace).reshape(-1, 2).tobytes()
    assert (res.straddle_pair is None) == (straddle is None)
    if straddle is not None:
        assert all(np.array_equal(x, y) for x, y in zip(res.straddle_pair,
                                                        straddle))
    assert (res.warning is not None) == (warning is not None)


SWITCHING_BRACKET = ([0.49, -0.2], [0.49, 0.0])


def test_separatrix_midpoints_stop_at_commit(switching_system, switching_input,
                                             monkeypatch):
    scalar, flat = bistable_scalar(), const_seq(0.0, -1, 300)
    cases = [(scalar, flat, [-0.37], [0.52], 250, False),
             (scalar, flat, [-0.37], [0.52], 20, True),
             (switching_system, switching_input, *SWITCHING_BRACKET, 600, False),
             (switching_system, switching_input, *SWITCHING_BRACKET, 137, True)]
    for system, seq, lo, hi, horizon, warns in cases:
        lo, hi = np.array(lo), np.array(hi)
        full = bisect_full_horizon(system, seq, lo, hi, horizon)
        calls = count_orbit_steps(monkeypatch)
        chunks = record_round_chunks(monkeypatch)
        res = separatrix_bisect(system, seq, lo, hi, horizon=horizon)
        monkeypatch.undo()
        assert_same_bisection(res, full)
        assert (res.warning is not None) == warns
        # the representatives run the full horizon as a lockstep pair of
        # solo orbits; each chunk continues the last or starts a round's
        # midpoints at the anchor, and a round stops at the chunk that
        # decides its path: before the horizon, unless a midpoint on it
        # never commits
        assert calls == [(2, 0, horizon)]
        assert all(t0 in (0, last[2]) for last, (_, t0, _)
                   in zip([(0, 0, 0)] + chunks, chunks))
        starts = [i for i, (_, t0, _) in enumerate(chunks) if t0 == 0]
        rounds = -(-(len(full[2]) + warns) // index._BISECT_LEVELS)
        assert len(starts) == rounds
        ends = [chunks[j - 1][2] for j in starts[1:] + [len(chunks)]]
        assert ends[-1] == horizon if warns else max(ends) < horizon


@pytest.mark.parametrize("levels", [1, 2, 3, 4, 5])
def test_separatrix_rounds_of_any_depth_match_full_horizon(
        switching_system, switching_input, monkeypatch, levels):
    scalar, flat = bistable_scalar(), const_seq(0.0, -1, 300)
    cases = [(scalar, flat, [-0.37], [0.52], 250, {}),
             (scalar, flat, [-0.37], [0.52], 20, {}),
             (switching_system, switching_input, *SWITCHING_BRACKET, 600, {}),
             (switching_system, switching_input, *SWITCHING_BRACKET, 137, {}),
             (switching_system, switching_input, *SWITCHING_BRACKET, 600,
              {"max_iters": 7}),
             (switching_system, switching_input, *SWITCHING_BRACKET, 600,
              {"target_width": 1e-5})]
    monkeypatch.setattr(index, "_BISECT_LEVELS", levels)
    for system, seq, lo, hi, horizon, kw in cases:
        lo, hi = np.array(lo), np.array(hi)
        res = separatrix_bisect(system, seq, lo, hi, horizon=horizon, **kw)
        assert_same_bisection(res, bisect_full_horizon(system, seq, lo, hi,
                                                       horizon, **kw))


def test_separatrix_rounds_cut_the_kernel_steps(switching_system,
                                                switching_input, monkeypatch):
    lo, hi = (np.array(x) for x in SWITCHING_BRACKET)
    *_, commits = bisect_full_horizon(switching_system, switching_input, lo, hi,
                                      600)
    rounds = []
    bisect_round = index._bisect_round

    def counted(system, seq, a, b, levels, *args):
        rounds.append(levels)
        return bisect_round(system, seq, a, b, levels, *args)
    monkeypatch.setattr(index, "_bisect_round", counted)
    steps = count_advanced_steps(monkeypatch)
    res = separatrix_bisect(switching_system, switching_input, lo, hi, horizon=600)
    levels, chunk = index._BISECT_LEVELS, index._COMMIT_CHUNK
    assert res.warning is None and len(res.trace) == len(commits)
    assert rounds == [levels] * -(-len(commits) // levels)
    # the representatives as one lockstep pair, then the rounds' chunks,
    # against the chunks a midpoint at a time would need
    assert steps[:1] == [(2, 600)]
    sequential = sum(min(600, chunk * max(1, -(-t // chunk))) for t in commits)
    assert 3 * sum(n for _, n in steps[1:]) <= sequential


def brute_hausdorff(a, b):
    worst = 0.0
    for p in a:
        best = min(float(np.linalg.norm(p - q)) for q in b)
        worst = max(worst, best)
    return worst


def test_hausdorff_semidistance_exact():
    assert hausdorff_semidistance([[0.0]], [[0.0], [1.0]]) == 0.0
    assert hausdorff_semidistance([[0.0], [1.0]], [[0.0]]) == 1.0
    rng = np.random.default_rng(12)
    for _ in range(25):
        a = rng.uniform(-3, 3, (int(rng.integers(1, 9)), 2))
        b = rng.uniform(-3, 3, (int(rng.integers(1, 9)), 2))
        assert hausdorff_semidistance(a, b) == brute_hausdorff(a, b)
    with pytest.raises(ValueError):
        hausdorff_semidistance(np.zeros((0, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        hausdorff_semidistance(np.zeros((2, 2)), np.zeros((3, 1)))


@pytest.mark.parametrize("a, b", [
    ([[math.nan]], [[0.0]]),
    ([[1.0]], [[math.nan], [0.0]]),
    ([[1.0]], [[0.0], [math.nan]]),
    ([[math.inf]], [[0.0]]),
])
def test_hausdorff_semidistance_refuses_points_that_are_not_finite(a, b):
    # a nan in a gave 0.0, and one in b an answer that hung on point order
    with pytest.raises(ValueError, match="finite points"):
        hausdorff_semidistance(a, b)
