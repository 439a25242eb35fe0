"""Echo index estimation: ensembles, clustering, fibres, separatrix.

The echo index of an input sequence is the number of simultaneously
stable responses the driven network supports.  It is estimated here by
evolving an ensemble of initial conditions under one fixed input
realization, discarding a transient, and single-linkage clustering the
retained tails in the max-over-window state metric.  The verdict is
"indefinite" (index None) whenever the evidence is ambiguous: pairwise
distances inside the ambiguity band around the clustering tolerance,
clusters that come within it at some step, or failure to stabilize
under protocol escalation.

Systems are either RnnParams or any object exposing `state_dim`,
`state_bound` and `step_batch(u, xs)`, which must apply the map rowwise:
each row's result depends on that row alone.

Every orbit here, ensemble member, separatrix midpoint or solo (the
separatrix's representatives, pair divergence), is a core._advance_groups
run under two bit-exact contracts:

- Lockstep batching.  The members of every lane in one ladder rung
  form one (lanes, members, d) array, each row under its own lane's
  drive, and so do the midpoints of one separatrix round
  (_bisect_round), the separatrix's two representatives, pair
  divergence's two orbits (core._orbits) and the lanes of
  _run_ensembles.  An input's lanes are its own and its shift lane,
  the input shifted by the protocol's shift_check, whose tails are the
  shift check's ensemble.  `orbit` is the kernel's one-member case, so
  each row is its solo orbit by construction; numpy must only compute
  each stacked row on its own, a property of numpy/OpenBLAS (see core),
  not of the paper.  A large network ensemble's members are stepped as
  contiguous groups, one per CPU the process may use, on a thread pool
  shut down before the call returns; since rows are independent, they
  give the same bits at any CPU count.
- Continuation.  An ensemble runs in two phases: one lockstep call
  evolves every lane's members to the window's first step and writes
  no tails (_evolve), stepping a lane's bit-identical members once
  (core._advance), then one call per lane group evolves that group's
  window on from the states it reached (_Rung.window); a ladder rung
  windows its shift lanes, then its main lanes.  A ladder rung whose
  transient does not shrink restarts each member it shares with the
  previous rung from its state at the new window's first step (its
  final state if that comes first), evolving any overlap of the windows
  again.  A separatrix round evolves its midpoints chunk by chunk, each
  chunk continuing from the states the last one ended in.  By the
  cocycle identity (iterating s steps and then t more equals iterating
  s + t steps under the same input) every row still equals its solo
  orbit, and the tails a fresh run's, bit for bit.

A ladder holds one window of tails at a time: a buffer it allocates
once, for the most members any rung windows in one lane group, and
reuses for each rung's shift-lane window and then its main-lane window.
The shift lanes are read before the main lanes' window overwrites them:
their verdicts where the input could stabilise at that rung, and the
states the next rung continues from.  A caller that also needs a rung's
ensemble (to write it out) passes estimate_echo_indices' keep_rung;
each report then holds that rung's EnsembleRun in report.ensemble, so no
ensemble is evolved twice.  The kept run is a view of the buffer only
for one input at a rung after which no window reuses the buffer; it is
a copy otherwise.  Clustering deals a large ensemble's rows to groups,
one per CPU the process may use, with the same bits at any CPU count;
the groups share one scratch budget of 1 MiB for their pair differences
(_PAIR_SCRATCH_BYTES), whatever the ensemble's size, beside one row of
(m - 1) x W squared distances each.  A pullback fibre's one diameter,
measured on its final points, pairs only the points a certified
triangle screen keeps, with pdist's bits, and keeps its scratch in one
block of about 512 KiB (_PAIR_BLOCK_BYTES; see pullback_fibre).

A ladder makes one exact clustering pass per input: the report it
keeps, of the rung where the input stabilises or of its last rung, is
cluster_asymptotics itself, and at the last rung its index is that
rung's verdict.  Every other rung and every shift check reads only an
index, from _rung_verdict: the triangle inequality
through a few pivot members, widened by a rounding bound, decides it
wherever each pair lies surely below tol/4 or surely beyond 4 tol, and
the exact pass decides the rest.  So every verdict equals the exact
pass's index, and every report stays what estimate_echo_index gives for
its input alone, byte for byte.  Both measure with one loop,
_squared_distances, whose roots are np.linalg.norm(axis=-1)'s bits,
which the separatrix's commit rule and pair divergence take.
"""

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

# orbit is not called here; the benchmark's tracer (bench/spans.py)
# patches it under this module's name
from .core import (ConfigurationError, RnnParams, _advance_groups, _group_count,
                   _orbits, _require_input, _run_groups, orbit, step_batch)
from .contraction import Region
from .rng import DOMAIN_FIBRE, DOMAIN_IC, substream
from .sequences import shift, write_member_csv


# ----------------------------------------------------------------------
# ensemble evolution
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleRun:
    """Ensemble of trajectories under one shared input realization.

    trajectories[i, j] is the state of IC i at time
    anchor + transient + j, for j = 0..horizon.
    """

    system: object
    input_seq: object
    initial_conditions: np.ndarray = field(repr=False)
    transient: int
    horizon: int
    anchor: int
    ic_seed: int
    trajectories: np.ndarray = field(repr=False)

    @property
    def count(self):
        return self.initial_conditions.shape[0]

    @property
    def tail_anchor(self):
        return self.anchor + self.transient


@dataclass(frozen=True)
class _Rung:
    """Members of one ensemble for several lanes at one anchor, evolved
    to the first step of their window, anchor + transient.

    ics and starts are (lanes, m, d): each member's IC and its state at
    the window's first step, lane i under seqs[i].  window() evolves a
    group of lanes on through the window; every row stays its solo orbit.
    """

    system: object
    seqs: list
    ics: np.ndarray
    starts: np.ndarray
    anchor: int
    transient: int
    horizon: int

    def window(self, lanes, tails):
        """Write the windows of the lanes in the slice `lanes` into tails
        (lanes, m, horizon + 1, d), each member's states from anchor +
        transient to anchor + transient + horizon, and return tails."""
        t0 = self.anchor + self.transient
        _advance_groups(self.system, self.seqs[lanes], self.starts[lanes], t0,
                        t0 + self.horizon, tails)
        return tails

    def carry(self, tails, transient):
        """(states, s) for a next ensemble with `transient`, from the
        window tails of some of this one's lanes: a copy of each member's
        state s steps past the anchor, s being the next window's first step
        or the member's final step, whichever comes first.  None if the
        transient shrinks: every member restarts at the anchor."""
        if transient < self.transient:
            return None
        s = min(transient, self.transient + self.horizon)
        return tails[:, :, s - self.transient].copy(), s


def _evolve(system, seqs, ics, transient, horizon, anchor, carried=None):
    """_Rung of members ics[i] (lanes, m, d) under seqs[i], evolved in one
    lockstep run to their window's first step, anchor + transient, with
    no tails written.

    `carried` is (states, s) from _Rung.carry of an earlier ensemble of
    the same lanes, ICs and anchor: the members the two share restart
    from their states at s steps past the anchor, where the others join
    them once evolved from the anchor.  Any part of the new window that
    the earlier one also held is evolved again, bit-exact by the cocycle
    identity.  Without it every member starts at the anchor.
    """
    if transient < 0 or horizon < 1:
        raise ConfigurationError("need transient >= 0 and horizon >= 1")
    for seq in seqs:
        _require_input(system, seq, anchor + 1, anchor + transient + horizon)
    join, xs = anchor, ics
    if carried is not None:
        states, s = carried
        keep, join = min(ics.shape[1], states.shape[1]), anchor + s
        fresh = _advance_groups(system, seqs, ics[:, keep:], anchor, join)
        xs = np.concatenate([states[:, :keep], fresh], axis=1)
    starts = _advance_groups(system, seqs, xs, join, anchor + transient)
    return _Rung(system, seqs, ics, starts, anchor, transient, horizon)


def _draw_ics(system, ic_seed, count):
    """`count` ICs uniform on [-L, L]^d, one PRNG substream per IC, so a
    larger count extends a smaller one."""
    count = int(count)
    if count < 1:
        raise ConfigurationError("need at least one initial condition")
    bound = system.state_bound
    return np.stack([substream(ic_seed, DOMAIN_IC, i).uniform(-bound, bound,
                                                              system.state_dim)
                     for i in range(count)])


def run_ensemble(system, input_seq, ics, transient, horizon, anchor=0, ic_seed=0):
    """Evolve an ensemble and retain the tail window of every member.

    Parameters
    ----------
    ics : int or array
        Either a count (ICs drawn uniformly from [-L, L]^d, one PRNG
        substream per IC) or an explicit (m, d) array.
    transient, horizon : int
        Steps discarded / retained.  The input window must cover
        [anchor + 1, anchor + transient + horizon].
    """
    return _run_ensembles(system, [input_seq], ics, transient, horizon, anchor,
                          ic_seed)[0]


def _run_ensembles(system, input_seqs, ics, transient, horizon, anchor=0,
                   ic_seed=0):
    """run_ensemble for each input sequence, all from the same ICs, as
    one lockstep ensemble of a lane per input: one run to the window's
    first step, then one for every lane's window."""
    d = system.state_dim
    if np.isscalar(ics):
        ics_arr = _draw_ics(system, ic_seed, ics)
    else:
        ics_arr = np.array(ics, dtype=float)
        if ics_arr.ndim == 1:
            ics_arr = ics_arr[:, None]
        if ics_arr.ndim != 2 or ics_arr.shape[1] != d:
            raise ConfigurationError(f"explicit ICs must be (m, {d}), got {ics_arr.shape}")
    seqs = list(input_seqs)
    rung = _evolve(system, seqs, np.stack([ics_arr] * len(seqs)), transient,
                   horizon, anchor)
    tails = rung.window(slice(None), np.empty(
        (len(seqs), ics_arr.shape[0], horizon + 1, d)))
    return [EnsembleRun(system=system, input_seq=seq, initial_conditions=ics_arr,
                        transient=int(transient), horizon=int(horizon),
                        anchor=int(anchor),
                        ic_seed=int(ic_seed) if np.isscalar(ics) else -1,
                        trajectories=lane)
            for seq, lane in zip(seqs, tails)]


def ensemble_to_csv(run, path):
    """Plot-ready CSV: one row per IC per retained step."""
    n, d = run.trajectories.shape[1:]
    write_member_csv(path, "ic_id,k," + ",".join(f"x_{j + 1}" for j in range(d)),
                     range(run.tail_anchor, run.tail_anchor + n), run.trajectories)


# ----------------------------------------------------------------------
# clustering
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Cluster:
    member_count: int
    representative_ic: int
    final_state: np.ndarray
    tail: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class EchoIndexReport:
    """Clustering verdict; index None means "indefinite".

    An index is definite when no pair distance lies in the ambiguity
    band [tol/4, 4 tol] and min_separation > cluster_tol.  These gates
    imply the diagnostics' subwindow counts all equal the index (a
    subwindow distance is at least the pair's min over the window),
    max_diameter < tol/4 (linkage edges are then below tol/4, and a
    chain of them in the sup-metric cannot cross the band) and coverage
    1.0 (each member then lies within tol/4 of its representative).
    min_separation is the smallest over-time gap between members of
    different clusters (inf over the window); max_diameter is the
    largest intra-cluster distance at the final retained step.
    ensemble is the EnsembleRun of the ladder rung a caller kept
    (estimate_echo_indices' keep_rung); it is not part of the summary.

    A report is always an exact pass over its rung's pairs.  In a
    ladder's report, the other rungs' verdicts (diagnostics["rungs"]) and
    the shift check's are certified verdicts (_rung_verdict), each equal
    to the index the exact pass would give.
    """

    index: object
    clusters: list
    min_separation: float
    max_diameter: float
    cluster_tol: float
    diagnostics: dict
    ensemble: object = field(default=None, repr=False)

    @property
    def is_definite(self):
        return self.index is not None

    def verdict(self):
        return _verdict(self.index)

    def summary_dict(self):
        return {
            "index": self.verdict(),
            "cluster_sizes": [c.member_count for c in self.clusters],
            "min_separation": self.min_separation,
            "max_diameter": self.max_diameter,
            "cluster_tol": self.cluster_tol,
            "diagnostics": {k: v for k, v in self.diagnostics.items()},
        }


def _component_labels(adj):
    """(count, labels) of a symmetric boolean adjacency's components,
    numbered by smallest member; each pass lowers every label to its
    neighbours' smallest until none moves."""
    labels, low = None, np.arange(adj.shape[0])
    while not np.array_equal(low, labels):
        labels, low = low, np.minimum(low, np.where(adj, low, low.size).min(axis=1))
    roots, labels = np.unique(labels, return_inverse=True)
    return roots.size, labels


# bytes of pair differences that clustering (_pair_distances) holds at
# once, shared by its row groups, and bytes of scratch a fibre's diameter
# (_max_pair_distance) holds: blocks of rows instead of every pair
_PAIR_SCRATCH_BYTES = 1024 * 1024
_PAIR_BLOCK_BYTES = 512 * 1024

# pair-step-dimensions (m (m - 1) / 2 pairs x W x d) clustering needs
# before a second row group on another CPU saves time.  At W = 100 two
# groups ran 0.9-1.03x as long as one at (m, d) = (30, 50) (2.2M),
# 0.97x at (20, 200) (3.8M), 0.67x at (60, 50) (8.9M) and 0.56x at the
# context task's (100, 200) (99M), on a 2-core host with 2 MiB of L2
# cache per core; switching2d (87,000) and scalar_sweep (43,500) stay
# far below it
_MIN_PAIR_WORK = 2 ** 22


def _squared_distances(xs, ref, buf, out):
    """The package's one squared-distance loop: out (n, W) gets each step's
    squared distance of xs (n, W, d) to ref (W, d), block by block of
    buf's height: subtract into buf, square in place, sum along d into
    out.  Each (row, step) sum reduces its own contiguous row, so the
    block height leaves the bits unchanged, and the roots are
    np.linalg.norm(xs - ref, axis=-1) bit for bit."""
    block = buf.shape[0]
    for j0 in range(0, xs.shape[0], block):
        j1 = min(j0 + block, xs.shape[0])
        diff = np.subtract(xs[j0:j1], ref, out=buf[:j1 - j0])
        np.multiply(diff, diff, out=diff)
        np.sum(diff, axis=2, out=out[j0:j1])


def _pair_distances(tails):
    """Pair distances of the tails (m, W, d) over the window: max, min,
    max per last third (3, m, m), final.

    Row i measures the members j > i into its squared distances (m - 1 -
    i, W) with _squared_distances, and takes its statistics from them
    once; one sqrt of the results ends the call: sqrt is correctly
    rounded and monotone, so that gives the roots' statistics bit for bit,
    nan included.  Rows are dealt round-robin (row i to group i mod g) to
    g groups through core._run_groups, g the least of m - 1, the CPUs the
    process may use and the pairs x W x d // _MIN_PAIR_WORK; each group
    writes only its own rows, so any g gives the same bits.  The groups
    share one scratch budget of _PAIR_SCRATCH_BYTES for their blocks, and
    each holds one row of squares beside it.
    """
    m, window, d = tails.shape
    third = window // 3
    cuts = [window - (3 - p) * third for p in range(3)]
    groups = _group_count(m - 1, m * (m - 1) // 2 * window * d, _MIN_PAIR_WORK)
    block = min(max(1, _PAIR_SCRATCH_BYTES // (groups * window * d * 8)), m - 1)
    # max, min, the three thirds' max, final: upper triangles, squared
    upper = np.zeros((6, m, m))

    def run(g):
        buf, squares = np.empty((block, window, d)), np.empty((m - 1, window))
        for i in range(g, m - 1, groups):
            row, out = squares[:m - 1 - i], upper[:, i, i + 1:]
            _squared_distances(tails[i + 1:], tails[i], buf, row)
            np.max(row, axis=1, out=out[0])
            np.min(row, axis=1, out=out[1])
            np.maximum.reduceat(row, cuts, axis=1, out=out[2:5].T)
            out[5] = row[:, -1]

    _run_groups(run, groups)
    np.sqrt(upper, out=upper)
    both = upper + np.transpose(upper, (0, 2, 1))
    return both[0], both[1], both[2:5], both[5]


def _check_tol(cluster_tol):
    """Refuse a clustering tolerance that is not positive and finite."""
    if not 0.0 < cluster_tol < np.inf:
        raise ConfigurationError("cluster_tol must be positive and finite, "
                                 f"got {cluster_tol}")


def _linkage(d_max, d_min, cluster_tol):
    """Single linkage of the pair distances at cluster_tol: (index,
    cluster count, labels, ambiguous pairs, min_separation), index the
    count if no pair lies in the band [tol/4, 4 tol] and min_separation
    > tol, else None (see EchoIndexReport).  The diagonal's 0.0 lies
    below any positive tol's band."""
    n_clusters, labels = _component_labels(d_max <= cluster_tol)
    band = (d_max >= cluster_tol / 4) & (d_max <= 4 * cluster_tol)
    ambiguous_pairs = int(np.count_nonzero(band) // 2)
    cross = labels[:, None] != labels[None, :]
    min_separation = float(d_min[cross].min()) if cross.any() else float("inf")
    definite = ambiguous_pairs == 0 and min_separation > cluster_tol
    return (int(n_clusters) if definite else None, n_clusters, labels,
            ambiguous_pairs, min_separation)


def cluster_asymptotics(run, cluster_tol=1e-3, window=None):
    """Cluster ensemble tails and derive the index verdict.

    Single linkage at `cluster_tol` in the max-over-window metric.  The
    verdict degrades to indefinite when any pairwise distance falls in
    the ambiguity band [tol/4, 4 tol] or two clusters come within tol
    at some step (see EchoIndexReport).  cluster_tol must be positive and
    finite.
    """
    _check_tol(cluster_tol)
    tails_full = run.trajectories
    max_window = tails_full.shape[1]
    if window is None:
        window = max_window
    if window < 10:
        raise ConfigurationError(f"window must be >= 10 steps, got {window}")
    if window > max_window:
        raise ConfigurationError(f"window {window} exceeds retained steps {max_window}")
    tails = tails_full[:, max_window - window:, :]
    m = tails.shape[0]
    d_max, d_min, d_parts, d_final = _pair_distances(tails)
    index, n_clusters, labels, ambiguous_pairs, min_separation = _linkage(
        d_max, d_min, cluster_tol)
    part_counts = tuple(_component_labels(d_parts[p] <= cluster_tol)[0]
                        for p in range(3))

    finals = tails[:, -1, :]
    clusters = []
    for lbl in range(n_clusters):
        members = np.flatnonzero(labels == lbl)
        sub = d_max[np.ix_(members, members)]
        medoid = members[int(np.argmin(sub.max(axis=1)))]
        clusters.append(Cluster(member_count=int(members.size),
                                representative_ic=int(medoid),
                                final_state=finals[medoid].copy(),
                                tail=tails[medoid].copy()))

    # the diagonal's 0.0 leaves the max of the other same-label pairs as is
    max_diameter = float(d_final[labels[:, None] == labels[None, :]].max())

    coverage = float(np.mean([d_final[i, clusters[labels[i]].representative_ic]
                              <= cluster_tol for i in range(m)]))
    tail_stds = [float(np.std(c.tail, axis=0).max()) for c in clusters]
    diagnostics = {
        "subwindow_counts": part_counts,
        "ambiguous_pairs": ambiguous_pairs,
        "coverage": coverage,
        "tail_std": tail_stds,
        "switching_tails": bool(any(s > 10 * cluster_tol for s in tail_stds)),
        "window": int(window),
    }
    return EchoIndexReport(index=index,
                           clusters=clusters,
                           min_separation=min_separation,
                           max_diameter=max_diameter,
                           cluster_tol=float(cluster_tol),
                           diagnostics=diagnostics)


def _rounding(d):
    """(eps, eta) = ((d + 4) 2**-52, 1e-150).  A computed distance c and
    the exact one D of the same float vectors in d coordinates, squares
    summed in any order, have |c - D| <= eps/4 D + eta/2: the difference,
    its square and the sqrt each round once (relative 2**-53), a sum of d
    nonnegative terms is within (d - 1) 2**-53 relative, and the sqrt
    halves the squares' part: (d + 4) 2**-54 to first order; an
    underflowed square loses at most 2**-1075, under eta/2 after the
    sqrt.  So c (1 + eps) + eta >= D, and eps, four times the need, also
    covers the roundings in forming a bound such as (hi_i + hi_j)
    (1 + eps) + eta."""
    return (d + 4) * 2.0 ** -52, 1e-150


# pivots a certified verdict (_rung_verdict) measures at most before it
# runs the exact pass.  A pivot costs m of the exact pass's m (m - 1) / 2
# pair rows: with k tight clusters a verdict measures k pivots, and took
# 0.35, 0.57 and 1.11 ms for k = 2, 4 and 8 at (m, W, d) = (30, 100, 2)
# against 2.0 ms for the exact pass, and 6.5, 13 and 28 ms at the context
# task's (100, 100, 200) against 90-160 ms (medians, one BLAS thread,
# 2-core Xeon).  Every preset's verdict needs one or two.  Four cover
# indices up to 4; a verdict that falls back after them took 1.4x the
# exact pass alone at m = 30 (1.6-1.8x at m = 16, the default protocol's
# first rung), and 1.0-1.4x at the context task's shape
_VERDICT_PIVOTS = 4


def _rung_verdict(tails, cluster_tol):
    """cluster_asymptotics' index for the window tails (m, W, d), decided
    from certified bounds where they suffice, else by the exact pass.

    Each member's distance to a few pivot members is measured over the
    window by _squared_distances, the loop the exact pass measures with;
    pivots are chosen greedily, from member 0 on, each the member
    farthest (sup over the window) from the pivots so far, until every
    member lies within tol/8 of one or _VERDICT_PIVOTS are measured.
    Member i's sup rho_ik and inf sigma_ik over the window to pivot k
    tighten the (m, m) bounds below in place as each pivot is measured.

    Rounding (eps, eta from _rounding).  hi = rho (1 + eps) + eta and lo
    = sigma (1 - eps) - eta bound the exact pivot distances at every step
    of the window, and by the triangle inequality the pair (i, j) has

        computed d_max <= U = min_k (hi_ik + hi_jk) (1 + eps) + eta,
        computed d_min >= L = max_k max(lo_ik - hi_jk, lo_jk - hi_ik)
                              (1 - eps) - eta.

    If every pair has U < tol/4 or L > 4 tol, the exact pass would link
    exactly the pairs U < tol/4 (each d_max < tol/4 <= tol), find none in
    the band [tol/4, 4 tol], and see every cross-cluster pair's d_min
    above 4 tol > tol: its index is the component count of {U < tol/4}.
    Otherwise, or if a pivot distance is not finite (a nan or inf in the
    window, or an overflow), the exact pass decides.  Beyond (m, m) bounds
    its scratch is one block of the pair kernel's 1 MiB
    (_PAIR_SCRATCH_BYTES) and one (m, W) row of squared distances.
    """
    m, window, d = tails.shape
    eps, eta = _rounding(d)
    block = min(max(1, _PAIR_SCRATCH_BYTES // (window * d * 8)), m)
    buf, squares = np.empty((block, window, d)), np.empty((m, window))
    upper, lower = np.full((m, m), np.inf), np.full((m, m), -np.inf)
    reach, k = np.full(m, np.inf), 0  # sup distance to the nearest pivot so far
    for p in range(_VERDICT_PIVOTS):
        # a pivot's distance to itself is inf - inf = nan where it holds
        # an inf: quiet here, as the exact pass it falls back to is not
        with np.errstate(invalid="ignore", over="ignore"):
            _squared_distances(tails, tails[k], buf, squares)
        rho, sigma = np.sqrt(squares.max(axis=1)), np.sqrt(squares.min(axis=1))
        if not np.isfinite(rho).all():  # a nan anywhere reaches the max
            break
        hi = rho * (1 + eps) + eta
        np.minimum(upper, hi[:, None] + hi, out=upper)
        np.maximum(lower, (sigma * (1 - eps) - eta)[:, None] - hi, out=lower)
        np.minimum(reach, rho, out=reach)
        k = int(np.argmax(reach))
        if reach[k] <= cluster_tol / 8 or p + 1 == _VERDICT_PIVOTS:
            joined = upper * (1 + eps) + eta < cluster_tol / 4
            apart = np.maximum(lower, lower.T) * (1 - eps) - eta > 4 * cluster_tol
            np.fill_diagonal(apart, True)
            if (joined | apart).all():
                return _component_labels(joined)[0]
            break
    d_max, d_min, _, _ = _pair_distances(tails)
    return _linkage(d_max, d_min, cluster_tol)[0]


# ----------------------------------------------------------------------
# estimation protocol
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IndexProtocol:
    """Escalation ladder for estimate_echo_index.

    Rung r runs ic_counts[r] initial conditions in lockstep (each row
    is its solo orbit: both come from core._advance) after transients[r]
    discarded steps; the estimate is accepted once two consecutive rungs
    give the same definite index, then spot-checked at the anchor
    shifted by shift_check, whose ensemble evolves alongside in the same
    rungs.  IC i is drawn from its own substream, so rung r + 1 shares
    its first min(ic_counts[r], ic_counts[r + 1]) ICs with rung r.  If
    transients[r + 1] >= transients[r], those members restart from their
    states at step min(transients[r + 1], transients[r] + horizon) of
    rung r, and any overlap of the two windows is evolved again
    (bit-exact by the cocycle identity); otherwise rung r + 1 starts
    every member afresh at the anchor.  Clustering reads the last window
    of horizon + 1 states: window is in [10, horizon + 1].
    """

    ic_counts: tuple = (16, 24, 32)
    transients: tuple = (150, 300, 600)
    horizon: int = 120
    window: int = 100
    cluster_tol: float = 1e-3
    ic_seed: int = 0
    shift_check: int = 13

    def __post_init__(self):
        if len(self.transients) < 2:
            raise ConfigurationError(
                "the ladder needs two or more transients, one per rung, got "
                f"{tuple(self.transients)}")
        if len(self.ic_counts) != len(self.transients):
            raise ConfigurationError(
                f"the ladder needs one IC count per transient, got "
                f"{len(self.ic_counts)} IC counts for {len(self.transients)} "
                "transients")
        if min(self.ic_counts) < 1 or min(self.transients) < 0:
            raise ConfigurationError(
                "protocol needs ic_counts >= 1 and transients >= 0, got "
                f"{tuple(self.ic_counts)} and {tuple(self.transients)}")
        _check_tol(self.cluster_tol)
        if not 10 <= self.window <= self.horizon + 1:
            raise ConfigurationError(
                f"window must lie in [10, horizon + 1 = {self.horizon + 1}], "
                f"got {self.window}")

    @property
    def reach(self):
        """Last input time past the anchor that a ladder can read: its
        longest rung, run at the shift check's anchor when that is later.
        An input that ends at anchor + reach serves every rung and the
        shift check; one step shorter can raise WindowExhausted.  Every
        rung an input reaches also reads its shift check's window."""
        return max(0, self.shift_check) + max(self.transients) + self.horizon


def _ladder_ics(system, seeds, protocol):
    """(table, rows): each distinct seed's ICs for every rung of the
    protocol as one array, drawn once however many lanes and rungs share
    the seed, and the table row of each seed in `seeds`.  A row holds
    max(ic_counts) ICs, of which rung r takes the first ic_counts[r] (a
    larger count extends a smaller one)."""
    distinct = sorted(set(seeds))
    count = max(protocol.ic_counts)
    table = np.stack([_draw_ics(system, seed, count) for seed in distinct])
    return table, [distinct.index(seed) for seed in seeds]


def _ladder_rung(system, seqs, table, rows, protocol, r, anchor, carried=None):
    """Rung r of the protocol for every lane, lane i from the first
    ic_counts[r] ICs of row rows[i] of the _ladder_ics table, evolved to
    its window's first step (_evolve), continuing the `carried` states of
    an earlier rung of the same lanes (_Rung.carry).  Lanes that all take
    one row share it as one read-only view, not a copy a lane."""
    count, transient = protocol.ic_counts[r], protocol.transients[r]
    firsts = table[:, :count]
    if len(set(rows)) == 1:
        ics = np.broadcast_to(firsts[rows[0]], (len(rows),) + firsts.shape[1:])
    else:
        ics = firsts[rows]
    return _evolve(system, seqs, ics, int(transient), protocol.horizon, anchor,
                   carried)


def _rung_runs(rung, seeds, tails):
    """EnsembleRun of each lane's members of a rung whose window `tails`
    holds (seeds[k] is lane k's): views of the rung's arrays."""
    return [EnsembleRun(system=rung.system, input_seq=rung.seqs[k],
                        initial_conditions=rung.ics[k], transient=rung.transient,
                        horizon=int(rung.horizon), anchor=int(rung.anchor),
                        ic_seed=seeds[k], trajectories=tails[k])
            for k in range(tails.shape[0])]


def _owned(run):
    """run with copies of its arrays, which hold no buffer alive."""
    return replace(run, initial_conditions=run.initial_conditions.copy(),
                   trajectories=run.trajectories.copy())


def _window(tails, protocol):
    """The protocol's clustering window of one lane's tails (m, W, d)."""
    return tails[:, tails.shape[1] - protocol.window:]


def _verdict(index):
    return "indefinite" if index is None else str(index)


def _stable(verdicts):
    """Whether the last two rungs agree on a definite index."""
    return (len(verdicts) >= 2 and verdicts[-1] is not None
            and verdicts[-2] == verdicts[-1])


def _final_report(final, verdicts, shifted, protocol, anchor):
    """The kept report with the ladder's verdict: verdicts are the rungs'
    indices, shifted the shift check's, read only if the ladder stabilised."""
    diagnostics = dict(final.diagnostics)
    diagnostics["rungs"] = [(int(c), int(t), _verdict(v)) for c, t, v in
                            zip(protocol.ic_counts, protocol.transients, verdicts)]
    if not _stable(verdicts):
        diagnostics["stabilized"] = False
        return replace(final, index=None, diagnostics=diagnostics)
    diagnostics["stabilized"] = True
    if shifted != final.index:
        diagnostics["shift_check"] = (
            f"disagreement at anchor {anchor + protocol.shift_check}: "
            f"{_verdict(shifted)} vs {final.verdict()}")
        return replace(final, index=None, diagnostics=diagnostics)
    diagnostics["shift_check"] = "agree"
    return replace(final, diagnostics=diagnostics)


def estimate_echo_indices(system, input_seqs, protocol=None, anchor=0,
                          ic_seeds=None, keep_rung=None):
    """Echo index estimates for many inputs from one lockstep ladder.

    Each report equals what estimate_echo_index gives for that input
    alone (with ic_seed = ic_seeds[i], default protocol.ic_seed).  Input
    i runs as two lanes of every rung it reaches: its own, and its shift
    lane, shift(seq_i, protocol.shift_check) at `anchor` with the same
    ICs, which is seq_i's ensemble at anchor + shift_check.  Every rung
    evolves the lanes of the inputs still open to their window's first
    step as one batch; where the protocol allows, each member the
    previous rung shares restarts from the one state carried from it
    (_Rung.carry).  Then the shift lanes' window and the main lanes'
    window are evolved, in that order, into one buffer of tails the
    ladder allocates once and reuses at every rung.  From the shift
    lanes' window the ladder reads their carried states and, for each
    input whose previous rung's verdict is definite (the inputs that can
    stabilise at this rung), its shift verdict.  An input that
    stabilises at a rung has its shift lane checked there and leaves the
    ladder with both lanes; an input that never stabilises evolves its
    shift lane through every rung too.

    The stabilisation rule and the shift check read only an index, so
    every rung and every shift check gets only a verdict (_rung_verdict):
    cluster_asymptotics' index, decided from certified bounds on pivot
    distances where they suffice and by the exact pass otherwise.  The
    one report kept, of the rung where the input stabilises or of the
    last rung, is the exact cluster_asymptotics call, so each input makes
    one exact pair pass where the bounds decide; at the last rung the
    report's index is the rung's verdict.

    keep_rung (a protocol rung index, negative from the end) makes each
    report carry that rung's ensemble at `anchor` in report.ensemble,
    bit-identical to run_ensemble(system, seq, ic_counts[r],
    transients[r], horizon, anchor, ic_seed), or None if the ladder
    stopped before that rung.  It is built from the rung's own arrays:
    for one input, views of its ICs and of the buffer, unless a later
    rung's window reuses the buffer; otherwise a copy per input, which
    holds no other input's tails.  So keeping a rung evolves nothing
    more.  Beyond one lane group's window of tails, clustering needs only
    (m, m) results, 1 MiB of pair scratch shared by its row groups and one
    row of (m - 1) x W squared distances per group (_pair_distances); a
    verdict needs one block of that scratch and one (m, W) row.
    """
    protocol = protocol or IndexProtocol()
    seqs = list(input_seqs)
    seeds = ([protocol.ic_seed] * len(seqs) if ic_seeds is None
             else [int(s) for s in ic_seeds])
    if len(seeds) != len(seqs):
        raise ConfigurationError(
            f"{len(seeds)} IC seeds for {len(seqs)} input sequences")
    n_rungs = len(protocol.ic_counts)
    if keep_rung is not None:
        if not -n_rungs <= keep_rung < n_rungs:
            raise ConfigurationError(
                f"keep_rung {keep_rung} outside a {n_rungs}-rung protocol")
        keep_rung %= n_rungs
    n, tol, horizon = len(seqs), protocol.cluster_tol, protocol.horizon
    shifted_seqs = [shift(seq, protocol.shift_check) for seq in seqs]
    history = [[] for _ in seqs]
    reports, kept, shifted = [None] * n, [None] * n, [None] * n
    open_, carried = list(range(n)), None
    table, seed_rows = _ladder_ics(system, seeds, protocol)
    # one window of one lane group, the most any rung holds: each window
    # of each rung is a view of its first m x count x (horizon + 1) x d
    buffer = np.empty(n * max(protocol.ic_counts) * (horizon + 1)
                      * system.state_dim)
    for r in range(n_rungs):
        if not open_:
            break
        # lane row is input open_[row], lane m + row its shift lane
        m, last = len(open_), r + 1 == n_rungs
        rung_seqs = [seqs[i] for i in open_] + [shifted_seqs[i] for i in open_]
        rung_seeds = [seeds[i] for i in open_] * 2
        rung = _ladder_rung(system, rung_seqs, table,
                            [seed_rows[i] for i in open_] * 2, protocol, r,
                            anchor, carried)
        count, d = rung.ics.shape[1:]
        tails = buffer[:m * count * (horizon + 1) * d].reshape(
            m, count, horizon + 1, d)
        # the shift lanes' window first, read before the main lanes' window
        # overwrites it: the verdicts of inputs that could stabilise at this
        # rung, and the states the next rung continues from
        rung.window(slice(m, None), tails)
        for row, i in enumerate(open_):
            if history[i] and history[i][-1] is not None:
                shifted[i] = _rung_verdict(_window(tails[row], protocol), tol)
        shift_carry = None if last else rung.carry(tails, protocol.transients[r + 1])
        rung.window(slice(0, m), tails)
        runs = _rung_runs(rung, rung_seeds, tails)
        rows = []
        for row, i in enumerate(open_):
            if last:  # the report is the exact pass: its index is the verdict
                reports[i] = cluster_asymptotics(runs[row], tol, protocol.window)
                history[i].append(reports[i].index)
                continue
            history[i].append(_rung_verdict(_window(tails[row], protocol), tol))
            if _stable(history[i]):
                reports[i] = cluster_asymptotics(runs[row], tol, protocol.window)
            else:
                rows.append(row)
        if r == keep_rung:
            # a view only while no later window reuses the buffer, and of
            # one input, whose run then holds no other input's tails
            for row, i in enumerate(open_):
                kept[i] = _owned(runs[row]) if m > 1 or rows else runs[row]
        carried = None  # the last rung, or a shrinking transient
        if shift_carry is not None:
            states, s = rung.carry(tails, protocol.transients[r + 1])
            carried = np.concatenate([states[rows], shift_carry[0][rows]]), s
        open_ = [open_[row] for row in rows]
    return [replace(_final_report(reports[i], history[i], shifted[i], protocol,
                                  anchor), ensemble=kept[i])
            for i in range(n)]


def estimate_echo_index(system, input_seq, protocol=None, anchor=0,
                        keep_rung=None):
    """Escalating ensemble estimate of the echo index at one anchor.

    Escalates through the protocol's rungs until two consecutive rungs
    agree on a definite index, then requires the same index at a second
    anchor (shift invariance); any disagreement or exhaustion of the
    ladder yields "indefinite".  This is the one-input case of
    estimate_echo_indices, whose shift lane evolves the second anchor's
    ensemble in the same rungs.  Its tails, the shift lane's included,
    are bit-identical to fresh run_ensemble calls and to solo orbits:
    all of them are core._advance runs, whose rows are computed on their
    own (a reservoir row as a row of a 4-row GEMM up to n_r = 300 and one
    gemv above, step_batch rowwise otherwise), and
    a rung that restarts members from carried states is exact by the
    cocycle identity.  keep_rung is estimate_echo_indices'.
    """
    return estimate_echo_indices(system, [input_seq], protocol, anchor,
                                 keep_rung=keep_rung)[0]


# ----------------------------------------------------------------------
# pullback fibres
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PullbackFibre:
    """Image of the state box pushed from time n - depth up to time n,
    and its diameter (see pullback_fibre)."""

    time: int
    depth: int
    points: np.ndarray = field(repr=False)
    final_diameter: float


# pullback fibre seeds: grid points per axis (dimension <= 2), else a cloud
_FIBRE_GRID = 33
_FIBRE_CLOUD = 1000


def _squares_to(xs, ref):
    """Each row's squared distance to ref, summed in coordinate order."""
    acc = np.zeros(xs.shape[0])
    for col, r in zip(xs.T, ref):
        acc += np.square(col - r)
    return acc


def _screen(xs):
    """(order, k): the rows by falling hi = c (1 + eps) + eta, c a row's
    computed distance to the box centre (eps, eta from _rounding), and
    the count k of leading rows a with (hi_a + hi_(a+1)) (1 + eps) + eta
    >= low, low the first row's largest computed pair distance.  Rows
    after k pair at a computed distance below low <= the answer.  A nan
    or inf keeps all rows in order; an infinite low keeps all rows."""
    n, d = xs.shape
    lo, up = xs.min(axis=0), xs.max(axis=0)
    if not np.isfinite([lo, up]).all():
        return np.arange(n), n - 1
    eps, eta = _rounding(d)
    with np.errstate(over="ignore"):  # an overflow only keeps rows
        hi = np.sqrt(_squares_to(xs, lo / 2 + up / 2)) * (1 + eps) + eta
        order = np.argsort(-hi, kind="stable")
        low = np.sqrt(_squares_to(xs, xs[order[0]]).max())
    hi = hi[order]
    k = np.count_nonzero((hi[:-1] + hi[1:]) * (1 + eps) + eta >= low)
    return order, n - 1 if np.isinf(low) else k


def _max_pair_distance(xs):
    """Largest sqrt(sum_k (xs[i, k] - xs[j, k])**2) over pairs i != j, the
    squares summed in coordinate order (nan if any is nan; 0.0 for one
    row): pdist(xs).max() bit for bit.  Each row _screen keeps is paired
    with every later row in its order, from one coordinate-major copy of
    xs, in blocks of rows whose two scratch arrays fit _PAIR_BLOCK_BYTES."""
    n, d = xs.shape
    order, k = _screen(xs)
    block, xt = max(1, _PAIR_BLOCK_BYTES // (16 * n)), np.empty((d, n))
    for row, col in zip(xt, xs.T):
        row[:] = col[order]
    scratch, best = np.empty(2 * min(block, k) * (n - 1)), np.float64(0.0)
    for i0 in range(0, k, block):
        i1 = min(i0 + block, k)
        acc, diff = scratch[:2 * (i1 - i0) * (n - 1 - i0)].reshape(2, i1 - i0, -1)
        acc.fill(0.0)
        for rows, cols in zip(xt[:, i0:i1, None], xt[:, None, i0 + 1:]):
            acc += np.square(np.subtract(rows, cols, out=diff), out=diff)
        np.fill_diagonal(acc[1:], 0.0)  # i = j, nan if row i holds an inf
        best = np.maximum(best, acc.max())
    return np.sqrt(best)


def pullback_fibre(system, input_seq, n, depth, region=None, cloud_seed=0):
    """Approximate the natural-association fibre at time n.

    Seeds a deterministic grid over the state box (33 per axis for
    dimension <= 2) or a fixed-seed 1000-point cloud (higher dimension),
    evolves it from time n - depth to n, and measures the final points'
    diameter: max sqrt(sum_k (p_k - q_k)**2) over pairs (p, q), squares
    summed in coordinate order, from the pairs of the few points a
    certified screen keeps (_screen), so it equals scipy's
    pdist(points).max() bit for bit (0.0 for a single point).  In
    certified contraction regions it shrinks at least like mu^depth.
    """
    if depth < 0:
        raise ConfigurationError("depth must be nonnegative")
    d = system.state_dim
    bound = system.state_bound
    box = region if region is not None else Region(lo=-bound * np.ones(d),
                                                   hi=bound * np.ones(d))
    if box.dim != d:
        raise ConfigurationError("region dimension does not match the state")
    if d <= 2:
        xs, _ = box.grid(_FIBRE_GRID)
    else:
        rng = substream(cloud_seed, DOMAIN_FIBRE, 0)
        xs = rng.uniform(box.lo, box.hi, size=(_FIBRE_CLOUD, d))
    _require_input(system, input_seq, n - depth + 1, n)
    step = (partial(step_batch, system) if isinstance(system, RnnParams)
            else system.step_batch)
    for k in range(n - depth + 1, n + 1):
        xs = step(input_seq.at(k), xs)
    return PullbackFibre(time=int(n), depth=int(depth), points=xs,
                         final_diameter=float(_max_pair_distance(xs)))


# ----------------------------------------------------------------------
# separatrix bisection
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SeparatrixResult:
    """Bisection outcome: boundary point, bracket, and escape-time trace.

    trace[i] = (bracket width after iteration i, smallest commit step
    among the measured endpoints of that bracket).  straddle_pair holds
    the first bracket whose width dropped to <= 1e-11, for
    divergence-time studies.
    """

    boundary: np.ndarray
    bracket_lo: np.ndarray
    bracket_hi: np.ndarray
    trace: np.ndarray
    straddle_pair: tuple
    warning: str = None

    @property
    def width(self):
        return float(np.linalg.norm(self.bracket_hi - self.bracket_lo))


def _commit_steps(states, rep_a, rep_b, cluster_tol):
    """(side, step) of each trajectory states[i], rows its steps: the first
    step where it is within tol of one representative and at least 10 tol
    from the other, "a" on a tie; (None, None) if it never commits."""
    da = np.linalg.norm(states - rep_a, axis=-1)
    db = np.linalg.norm(states - rep_b, axis=-1)
    never = states.shape[1]
    to_a = (da <= cluster_tol) & (db >= 10 * cluster_tol)
    to_b = (db <= cluster_tol) & (da >= 10 * cluster_tol)
    hits_a = np.where(to_a.any(axis=1), to_a.argmax(axis=1), never).tolist()
    hits_b = np.where(to_b.any(axis=1), to_b.argmax(axis=1), never).tolist()
    return [(None, None) if min(ha, hb) == never
            else ("a", ha) if ha <= hb else ("b", hb)
            for ha, hb in zip(hits_a, hits_b)]


# steps a separatrix round evolves its midpoints between two commit
# checks
_COMMIT_CHUNK = 50

# bisection levels one separatrix round evolves, as 2**levels - 1
# midpoints in lockstep.  On switching2d's 41-step bisection, 1 to 5
# levels took 8,000, 4,300, 2,950, 2,400 and 1,950 kernel steps and
# 56, 36, 28, 28 and 30 ms (medians of 80, one BLAS thread, 2-core
# Xeon); 3 and 4 tie here, and 4 was 5-8 % faster in other runs.  A 2-D
# member costs the kernel little; a wide network pays for every member.
_BISECT_LEVELS = 4


def _bisect_round(system, input_seq, a, b, levels, anchor, rep_a, rep_b,
                  cluster_tol):
    """(side, step) of each midpoint on the path of the next `levels`
    bisection steps from the bracket [a, b], ending early at a midpoint
    that does not commit (None, None) within the representatives' horizon.

    Node 0 is the midpoint of [a, b]; node i's children 2i + 1 and 2i + 2
    are the midpoints of its bracket's halves kept after an "a" and a "b"
    commit, each (x + y) / 2.0 of its own bracket, the float the
    sequential bisection forms there.  All 2**levels - 1 nodes run as one
    lockstep ensemble in chunks of _COMMIT_CHUNK steps, each continuing
    from the carried states, so each row is its solo orbit bit for bit;
    after each chunk its rows are checked for commits, and the round ends
    once every node on the path has decided.
    """
    brackets = [(a, b)]
    for i in range(2 ** (levels - 1) - 1):
        x, y = brackets[i]
        mid = (x + y) / 2.0
        brackets += [(mid, y), (x, mid)]
    xs = np.stack([(x + y) / 2.0 for x, y in brackets])[None]
    horizon, count = rep_a.shape[0] - 1, len(brackets)
    tails = np.empty((1, count, _COMMIT_CHUNK + 1, xs.shape[2]))
    decided, t = {}, 0
    while True:
        n = min(_COMMIT_CHUNK, horizon - t)
        xs = _advance_groups(system, [input_seq], xs, anchor + t, anchor + t + n,
                             tails)
        commits = _commit_steps(tails[0, :, :n + 1], rep_a[t:t + n + 1],
                                rep_b[t:t + n + 1], cluster_tol)
        for i, (side, hit) in enumerate(commits):
            if side is not None and i not in decided:
                decided[i] = side, t + hit
        t += n
        if t == horizon:
            decided = {i: decided.get(i, (None, None)) for i in range(count)}
        path, i = [], 0
        for _ in range(levels):
            if i not in decided:
                break
            path.append(decided[i])
            if path[-1][0] is None:
                return path
            i = 2 * i + (1 if path[-1][0] == "a" else 2)
        else:
            return path


def separatrix_bisect(system, input_seq, lo, hi, horizon=600, max_iters=80,
                      cluster_tol=1e-3, anchor=0, target_width=1e-12):
    """Bisect the segment [lo, hi] for the basin boundary.

    lo and hi must converge to different basins under the given input
    (checked first); their solo orbits serve as the cluster
    representatives for labeling midpoints.  A midpoint commits at the
    first step where it is within cluster_tol of one representative and
    >= 10 cluster_tol from the other ("a" if both happen at one step).
    The midpoints of the next _BISECT_LEVELS bisection steps, all that
    the bracket could reach, are evolved as one lockstep round
    (_bisect_round) only until the path the bracket takes through them
    is decided.  Each is the float, and its orbit the bits, that one
    midpoint at a time would give, so the result is the same.  The
    trace records, per iteration, the bracket width after the update
    and the smaller commit step among the endpoints measured so far;
    every replacement lands strictly closer to the boundary, so this
    escape time never decreases as the bracket tightens (plateaus
    happen while one side waits for its update).  cluster_tol must be
    positive and finite: no midpoint could commit under any other.
    """
    _check_tol(cluster_tol)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    rep_a, rep_b = _orbits(system, input_seq, [lo, hi], horizon, anchor)
    if np.linalg.norm(rep_a[-1] - rep_b[-1]) <= 10 * cluster_tol:
        raise ConfigurationError("lo and hi converge to the same basin")
    a, b = lo.copy(), hi.copy()
    commit_times = {"a": None, "b": None}
    trace, straddle, warning, path = [], None, None, []
    for done in range(max_iters):
        width = float(np.linalg.norm(b - a))
        if width <= target_width:
            break
        mid = (a + b) / 2.0
        if not path:
            path = _bisect_round(system, input_seq, a, b,
                                 min(_BISECT_LEVELS, max_iters - done), anchor,
                                 rep_a, rep_b, cluster_tol)
        side, t = path.pop(0)
        if side is None:
            warning = ("midpoint did not commit within the horizon; "
                       "returning the best bracket")
            break
        a, b = (mid, b) if side == "a" else (a, mid)
        commit_times[side] = t
        known = [v for v in commit_times.values() if v is not None]
        trace.append((float(np.linalg.norm(b - a)), min(known)))
        if straddle is None and np.linalg.norm(b - a) <= 1e-11:
            straddle = (a.copy(), b.copy())
    return SeparatrixResult(boundary=(a + b) / 2.0, bracket_lo=a, bracket_hi=b,
                            trace=np.asarray(trace, dtype=float).reshape(-1, 2),
                            straddle_pair=straddle, warning=warning)


def pair_divergence_step(system, input_seq, a, b, threshold, horizon, anchor=0):
    """First step at which two orbits drift more than `threshold` apart."""
    return _divergence_step(*_orbits(system, input_seq, [a, b], horizon, anchor),
                            threshold)


def _divergence_step(sa, sb, threshold):
    """First row where states sa and sb are more than `threshold` apart."""
    over = np.linalg.norm(sa - sb, axis=1) > threshold
    return int(np.argmax(over)) if over.any() else None


# ----------------------------------------------------------------------
# Hausdorff semi-distance
# ----------------------------------------------------------------------

def hausdorff_semidistance(a, b):
    """sup over a of the distance to b, exact for finite point sets.

    Not symmetric: h({0}, {0, 1}) = 0 while h({0, 1}, {0}) = 1.  Each
    pair distance is np.linalg.norm of the difference, so the result is
    bit-identical to the obvious two-loop computation (a vectorized
    square-sum can differ in the last ulp through fused multiply-adds).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("hausdorff_semidistance requires nonempty sets")
    if a.shape[1] != b.shape[1]:
        raise ValueError("point sets live in different dimensions")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("hausdorff_semidistance requires finite points")
    worst = 0.0
    for p in a:
        best = min(float(np.linalg.norm(p - q)) for q in b)
        if best > worst:
            worst = best
    return worst
