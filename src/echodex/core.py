"""Leaky tanh network: state-update map, Jacobian, orbits.

The state update is

    x[k+1] = (1 - alpha) x[k] + alpha * phi(W_r x[k] + W_in u[k+1] + W_fb z[k])
    z[k]   = W_o x[k]                      (linear readout, optional)

with phi = tanh.  The feedback term is omitted when no readout is
configured.  Every step evaluates the affine form in one fixed order,
M x, then + W_in u, with M = W_r + W_fb W_o the effective matrix that
RnnParams forms once (the Jacobian and the certifiers read the same M),
so that repeated runs are bit-identical and the cocycle identity holds
exactly.  A leak-free network (alpha = 1) steps as x[k+1] = phi(...)
alone: the leak terms would only multiply by 1 and add 0 * x[k], which
changes nothing but the sign of a zero state.

One kernel, _advance, evolves (lanes, members, d) states of any system
in lockstep, each lane under its own drive, one block row per step:
W_in u[k] plus any state-independent terms for a network, u[k]
otherwise.  _drive maps input sequences into one drive block of about
_DRIVE_BYTES (64 KiB), however many lanes and steps, every lane of a
network in one _matvec_rows call a block; a network whose states fit
as many bytes again steps on the block's rows widened to the states'
shape, so that each step adds two arrays of one shape (numpy's
contiguous fast path, not a broadcast).  orbit is the kernel's
one-member case, _orbits (several solo orbits of one input) and the
index module's ensembles its many-member cases (so their rows equal
solo orbits by construction), and
training.teacher_forced_states one run under W_in u[k] plus the
fed-back target plus noise.  _advance steps a copy of its states in
place, in a run that writes no tails each lane's bit-identical members
once.  Two loops evolve states apart from it: index.pullback_fibre's
step_batch point cloud, and experiments._escapes_basin, fold_bisect's
scalar orbit, which stops at its first escape.

Rows equal solo orbits and step bit for bit, at any CPU count, because
_matvec_rows maps every row of a network on its own.  For a matrix of
at most 300 rows and columns (_GEMM_MAX_SIDE) a row is a row of a 4-row
OpenBLAS GEMM, padded with zero rows to whole blocks: its bits depend
neither on the other rows nor on its place in the block, nor on the
BLAS thread count, and a solo state is a block of its own.  A larger
matrix maps one gemv per row; a 1 x 1 one multiplies.

_advance_groups, the one way into the kernel from input sequences, may
step a large network ensemble's members as contiguous groups, one per
CPU the process may use: a row's bits are the same at any CPU count and
as its solo orbit's.  _run_groups is the package's one way onto several
CPUs, a thread pool shut down before it returns; member groups and
index._pair_distances' row groups both run through it.  The row groups
share one fixed scratch budget of 1 MiB (index._PAIR_SCRATCH_BYTES), not
one block per CPU.
step, built on the same _preactivation with the kernel's row maps and
the same update, is the per-step public reference the test suite checks
orbit against: their states agree byte for byte, signs of zero included.

Orbits depend only on parameter values, never on how the caller laid
them out in memory.  RnnParams stores every matrix C-contiguous from a
64-byte boundary, and _advance steps its states in parts of one buffer
aligned the same way: BLAS takes another summation path for a
Fortran-ordered matrix, so its bits would differ, and a gemv over a
matrix placed off a 64-byte boundary runs up to ~40 % slower.

All floats are 64-bit.  Parameter objects are frozen and their arrays
read-only; step / jacobian / orbit are pure functions safe to call from
many threads.
"""

import ctypes
from dataclasses import dataclass, field
from functools import partial
import json
import math
import os
from pathlib import Path

import numpy as np

from .sequences import json_text


class ConfigurationError(ValueError):
    """Raised for dimension mismatches and invalid parameter values."""


# ----------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------

def _aligned_empty(shape, parts=1):
    """A list of `parts` uninitialised C-contiguous float64 arrays of
    `shape`, carved from one buffer, each starting on a 64-byte boundary
    (a cache line, and the widest vector load BLAS issues)."""
    size = math.prod(shape)
    stride = 8 * max(1, -(-size // 8))  # whole cache lines, at least one
    buf = np.empty(parts * stride + 7)
    start = -ctypes.addressof(ctypes.c_char.from_buffer(buf)) % 64 // 8
    return [buf[i:i + size].reshape(shape)
            for i in range(start, start + parts * stride, stride)]


def _frozen_matrix(a):
    """Read-only float64 copy of a in an _aligned_empty array."""
    a = np.asarray(a, dtype=float)
    out, = _aligned_empty(a.shape)
    out[...] = a
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class RnnParams:
    """Immutable network parameters.

    w_r is (n_r, n_r), w_in is (n_r, n_i), w_fb is (n_r, n_o).  The
    readout is linear (w_out of shape (n_o, n_r)) or absent (w_out is
    None), in which case w_fb must be all zero because the feedback
    argument would be undefined.
    """

    alpha: float
    w_r: np.ndarray
    w_in: np.ndarray
    w_fb: np.ndarray = None
    w_out: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "w_r", _frozen_matrix(self.w_r))
        object.__setattr__(self, "w_in", _frozen_matrix(self.w_in))
        if self.w_r.ndim != 2 or self.w_r.shape[0] != self.w_r.shape[1]:
            raise ConfigurationError(f"w_r must be square, got {self.w_r.shape}")
        n_r = self.w_r.shape[0]
        if self.w_in.ndim != 2 or self.w_in.shape[0] != n_r:
            raise ConfigurationError(
                f"w_in must be ({n_r}, n_i), got {self.w_in.shape}")
        if self.w_fb is None:
            object.__setattr__(self, "w_fb", _frozen_matrix(np.zeros((n_r, 0))))
        else:
            object.__setattr__(self, "w_fb", _frozen_matrix(self.w_fb))
        if self.w_fb.ndim != 2 or self.w_fb.shape[0] != n_r:
            raise ConfigurationError(
                f"w_fb must be ({n_r}, n_o), got {self.w_fb.shape}")
        n_o = self.w_fb.shape[1]
        if self.w_out is not None:
            object.__setattr__(self, "w_out", _frozen_matrix(self.w_out))
            if self.w_out.shape != (n_o, n_r):
                raise ConfigurationError(
                    f"w_out must be ({n_o}, {n_r}), got {self.w_out.shape}")
        elif np.any(self.w_fb != 0.0):
            raise ConfigurationError("w_fb must be all zero when there is no readout")
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigurationError(f"alpha must lie in (0, 1], got {self.alpha}")
        for name in ("w_r", "w_in", "w_fb", "w_out"):
            a = getattr(self, name)
            if a is not None and not np.all(np.isfinite(a)):
                raise ConfigurationError(f"{name} contains non-finite entries")
        # effective recurrent matrix M = W_r + W_fb W_o (W_r itself
        # without a readout), formed once: every step reads it
        m = self.w_r if self.w_out is None else _frozen_matrix(
            self.w_r + self.w_fb @ self.w_out)
        object.__setattr__(self, "_m", m)

    # -- shape helpers -------------------------------------------------

    @property
    def n_r(self):
        return self.w_r.shape[0]

    @property
    def n_i(self):
        return self.w_in.shape[1]

    @property
    def n_o(self):
        return self.w_fb.shape[1]

    @property
    def readout(self):
        return "none" if self.w_out is None else "linear"

    @property
    def effective_matrix(self):
        """M = W_r + W_fb W_o: each step's pre-activation is M x, then
        + W_in u, and the state Jacobian is (1 - alpha) I + alpha S M."""
        return self._m

    # state space is the hypercube [-L, L]^{n_r}, L = 1 the tanh bound
    @property
    def state_dim(self):
        return self.n_r

    @property
    def state_bound(self):
        return 1.0

    # -- serialization -------------------------------------------------

    def to_dict(self):
        doc = {
            "alpha": self.alpha,
            "activation": "tanh",
            "readout": self.readout,
            "n_r": self.n_r,
            "n_i": self.n_i,
            "n_o": self.n_o,
            "w_r": self.w_r.tolist(),
            "w_in": self.w_in.tolist(),
            "w_fb": self.w_fb.tolist(),
        }
        if self.w_out is not None:
            doc["w_out"] = self.w_out.tolist()
        return doc

    @classmethod
    def from_dict(cls, doc):
        activation = doc.get("activation", "tanh")
        if activation != "tanh":
            raise ConfigurationError(f"unknown activation {activation!r}")
        n_r = int(doc["n_r"])
        n_o = int(doc["n_o"])
        w_fb = np.asarray(doc["w_fb"], dtype=float).reshape(n_r, n_o)
        w_out = None
        if doc.get("readout", "none") == "linear":
            w_out = np.asarray(doc["w_out"], dtype=float).reshape(n_o, n_r)
        return cls(
            alpha=float(doc["alpha"]),
            w_r=np.asarray(doc["w_r"], dtype=float).reshape(n_r, n_r),
            w_in=np.asarray(doc["w_in"], dtype=float).reshape(n_r, int(doc["n_i"])),
            w_fb=w_fb,
            w_out=w_out,
        )


def save_params(params, path):
    Path(path).write_text(json_text(params.to_dict()))


def load_params(path):
    return RnnParams.from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# the map and its Jacobian
# ----------------------------------------------------------------------

# rows per block of a GEMM row map, and the largest side of a matrix
# that takes one: at n = 350 the 4-row GEMM ran slower than one gemv per
# row, and from n = 400 its bits changed with the BLAS thread count
_BLOCK = 4
_GEMM_MAX_SIDE = 300


def _block_rows(w):
    """Rows per block of _matvec_rows(w): _BLOCK when it maps rows by
    GEMM, 1 when it maps them one at a time."""
    return _BLOCK if 1 < max(w.shape) <= _GEMM_MAX_SIDE else 1


def _matvec_rows(w):
    """(x, out=None) -> w @ v for every row v of x (..., b, n), written to
    `out` when given, b = _block_rows(w); x and out hold whole blocks of
    rows (_matvec pads any others), and out is C-contiguous.

    - A w with 1 < max(w.shape) <= _GEMM_MAX_SIDE maps each block of 4
      rows as one GEMM, every block in one np.matmul (blocks, 4, n) by
      w^T.  In OpenBLAS's 4-row GEMM a row's bits depend neither on the
      other rows' values nor on its place in the block, nor on the BLAS
      thread count (a measured property the tests pin), so a state
      padded with three zero rows gets the bits it gets in any block.
      They differ from one gemv's in the last ulps.
    - A 1 x 1 w is one multiply by a 0-d array (with a np.float64 scalar
      it took ~1.5x as long at a (30, 2, 1) state), bound without a
      Python call per step.
    - A larger w runs one gemv per row.
    """
    if w.shape == (1, 1):
        return partial(np.multiply, w.reshape(()))
    if _block_rows(w) == 1:
        return lambda x, out=None: np.matmul(
            w, x[..., None], out=None if out is None else out[..., None])[..., 0]
    wt = w.T
    return lambda x, out=None: np.matmul(x, wt, out=out)


def _matvec(w, x):
    """w applied to every row of x (..., n) through _matvec_rows, its rows
    padded with zero rows to whole blocks in a new array: the bits _advance
    gives each row."""
    lead, n, b = x.shape[:-1], x.shape[-1], _block_rows(w)
    rows = math.prod(lead)
    padded = np.zeros((-(-rows // b), b, n))
    padded.reshape(-1, n)[:rows] = x.reshape(rows, n)
    y = _matvec_rows(w)(padded)
    return y.reshape(-1, w.shape[0])[:rows].reshape(lead + w.shape[:1])


def _rows_gemm(w, xs):
    """w applied to every row of xs (m, n) as one GEMM; a 1 x 1 w is
    _matvec_rows' one multiply, so that signs of zero agree with it."""
    if w.shape == (1, 1):
        return np.multiply(w.reshape(()), xs)
    return xs @ w.T


def _preactivation(params, u, x, matvec=_matvec):
    """M x, then + W_in u (M the effective matrix): the one fixed order.

    matvec(w, x) applies w to every row of x; the batch maps pass
    _rows_gemm.
    """
    return matvec(params.effective_matrix, x) + matvec(params.w_in, u)


def _update(alpha, x, pre):
    """The state after x: tanh(pre) for alpha = 1, else (1 - alpha) x +
    alpha tanh(pre), as _advance computes it in place."""
    if alpha == 1.0:
        return np.tanh(pre)
    return (1.0 - alpha) * x + alpha * np.tanh(pre)


def _check_uq(params, u, x, batch=False):
    """u (n_i,) and x (n_r,), or the states x (m, n_r) of a batch map, as
    float arrays checked against the network."""
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    if u.shape != (params.n_i,):
        raise ConfigurationError(f"input must have shape ({params.n_i},), got {u.shape}")
    if x.ndim != 1 + batch or x.shape[-1] != params.n_r:
        want = f"(m, {params.n_r})" if batch else f"({params.n_r},)"
        raise ConfigurationError(f"state{'s' * batch} must have shape {want}, "
                                 f"got {x.shape}")
    return u, x


def step(params, u, x):
    """One application of the state-update map G(u, x)."""
    u, x = _check_uq(params, u, x)
    return _update(params.alpha, x, _preactivation(params, u, x))


def step_batch(params, u, xs):
    """Apply the map to every row of xs (m, n_r) under one input value.

    One GEMM for all rows, for point clouds (pullback fibres, region
    checks) where exactness is not a contract: row results equal step()
    only up to last-ulp BLAS variation and depend on the batch.
    Orbits and ensembles, whose rows must equal step() bit for bit, are
    stepped by _advance through _matvec_rows instead: rows of 4-row
    GEMMs up to n = 300, one gemv per row above.  4-row blocks cost
    more here: they cut switching2d's 1,089-point fibres into 273 small
    GEMMs, and its preset's run went from 0.10 to 0.12-0.15 s.
    """
    u, xs = _check_uq(params, u, xs, batch=True)
    return _update(params.alpha, xs,
                   _preactivation(params, u, xs, matvec=_rows_gemm))


def jacobian(params, u, x):
    """State Jacobian D_x G(u, x) = (1 - alpha) I + alpha S(u, x) M.

    M = W_r + W_fb W_o is the effective recurrent matrix and
    S = diag(phi'(xi_j)) with xi_j the j-th pre-activation; for tanh,
    phi'(xi) = 1 - tanh(xi)^2.
    """
    u, x = _check_uq(params, u, x)
    s = 1.0 - np.tanh(_preactivation(params, u, x)) ** 2
    return (1.0 - params.alpha) * np.eye(params.n_r) + params.alpha * (
        s[:, None] * params.effective_matrix)


def jacobian_batch(params, u, xs):
    """Jacobians at every row of xs (m, n_r); returns (m, n_r, n_r)."""
    u, xs = _check_uq(params, u, xs, batch=True)
    s = 1.0 - np.tanh(_preactivation(params, u, xs, matvec=_rows_gemm)) ** 2
    eye = (1.0 - params.alpha) * np.eye(params.n_r)
    return eye[None, :, :] + params.alpha * (
        s[:, :, None] * params.effective_matrix[None, :, :])


# ----------------------------------------------------------------------
# orbits
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Finite orbit segment; states[j] is the state at time anchor + j."""

    anchor: int
    states: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "states", _frozen_matrix(self.states))

    @property
    def n_steps(self):
        return self.states.shape[0] - 1

    @property
    def final(self):
        return self.states[-1]

    def at(self, k):
        """State at absolute time index k."""
        j = k - self.anchor
        if not 0 <= j <= self.n_steps:
            raise IndexError(f"time {k} outside trajectory [{self.anchor}, "
                             f"{self.anchor + self.n_steps}]")
        return self.states[j]


def _require_input(system, input_seq, first, last):
    """input_seq.require_window(first, last), after checking that an
    RnnParams system takes as many input channels as the sequence has."""
    if isinstance(system, RnnParams) and input_seq.n_i != system.n_i:
        raise ConfigurationError(
            f"input sequence has {input_seq.n_i} channels, the network "
            f"takes n_i = {system.n_i}")
    input_seq.require_window(first, last)


# bytes one _drive block and its mapped inputs hold, and as many again in
# _advance's widened drive rows, whatever the lane count and run length
_DRIVE_BYTES = 64 * 1024


def _drive(system, seqs, t0, t1):
    """Blocks of the drive into times t0 + 1 .. t1 of lanes seqs[i]:
    row j of a block holds each lane's W_in u as (lanes, 1, n_r) for
    RnnParams, its u as (lanes, n_i) for other systems.  Every block is
    a view of one buffer, overwritten by the next.  A network stacks
    every lane's inputs, padded with zero rows to whole blocks where the
    steps do not fill them, and maps them all with one _matvec_rows call
    a block: a 1 x 1 W_in multiplies them in place in the block itself,
    any other maps them from a second buffer of (lanes, steps, n_i).  The
    block and that buffer hold up to _DRIVE_BYTES together (and at most
    3 padding rows a lane)."""
    rnn = isinstance(system, RnnParams)
    lanes = len(seqs)
    width = system.state_dim if rnn else seqs[0].n_i
    in_place = not rnn or system.w_in.shape == (1, 1)
    per_step = 8 * lanes * (width + (0 if in_place else system.n_i))
    chunk = max(1, min(t1 - t0, _DRIVE_BYTES // per_step))
    if rnn:
        b, n_i = _block_rows(system.w_in), system.n_i
        w_in, k = _matvec_rows(system.w_in), -(-chunk // b)
        buf = np.empty(lanes * k * b * width)
        raw = buf if in_place else np.empty(lanes * k * b * n_i)
    else:
        block = np.empty((chunk, lanes, width))
    for c0 in range(t0 + 1, t1 + 1, chunk):
        n = min(chunk, t1 + 1 - c0)
        inputs = [s.values[c0 - s.anchor:c0 - s.anchor + n] for s in seqs]
        if not rnn:
            yield np.stack(inputs, axis=1, out=block[:n])
            continue
        k = -(-n // b)
        u = _front(raw, (lanes, k * b, n_i))
        np.stack(inputs, out=u[:, :n])
        u[:, n:] = 0.0
        block = _front(buf, (lanes, k, b, width))
        w_in(u.reshape(lanes, k, b, n_i), out=block)
        yield block.reshape(lanes, -1, width)[:, :n, None].swapaxes(0, 1)


def _distinct_rows(x):
    """(rows, inverse) that keep each lane's distinct rows of x (lanes, r,
    d) once, or None when no lane has fewer than r.  rows (lanes, w) holds
    the rows kept, each lane's in order and padded with its row 0 to the
    widest lane's count w; inverse (lanes, r) holds the kept row, counted
    in rows, that each row's bits are in.

    Rows are compared by their bits, never by value (0.0 and -0.0 stay
    apart), and only within a lane.  A row is keyed by the wrapping sum of
    its int64 words and merges onto the first row of its lane with its key
    only if all their bits agree, so a key shared by unequal rows merges
    none of them."""
    lanes, r = x.shape[:2]
    bits = x.view(np.int64)
    key = bits.sum(axis=-1)
    same = key[:, :, None] == key[:, None, :]
    # equal bits share a key: where each row's key is only its own,
    # nothing merges
    if np.count_nonzero(same) == lanes * r:
        return None
    own = np.arange(r)
    first = same.argmax(axis=-1)
    # confirm only the rows keyed as an earlier row: no state-sized gather
    i, j = (first != own).nonzero()
    differ = (bits[i, first[i, j]] != bits[i, j]).any(axis=-1)
    first[i[differ], j[differ]] = j[differ]
    kept = first == own
    w = kept.sum(axis=1).max()
    if w == r:
        return None
    new = kept.cumsum(axis=1) - 1
    rows = np.zeros((lanes, w), dtype=np.intp)
    i, j = kept.nonzero()
    rows[i, new[i, j]] = j
    return rows, np.take_along_axis(new, first, axis=1)


def _front(a, shape):
    """The first values of the C-contiguous array a, as an array of shape."""
    return a.reshape(-1)[:math.prod(shape)].reshape(shape)


def _widened(block, shape, buf):
    """The rows of a network's drive block (steps, lanes, 1, d) widened
    to the states' shape (lanes, w, d), so that each step adds two arrays
    of one shape: numpy's contiguous fast path (the broadcast add took
    2-3x as long at a (30, 2, 1) state).  They come in sub-blocks of the
    flat buffer buf, as many steps each as it holds, each filled by one
    np.copyto.  Without buf, or when the rows already have the shape,
    the block itself."""
    if buf is None or block.shape[1:] == shape:
        yield block
        return
    per = buf.size // math.prod(shape)
    for s0 in range(0, len(block), per):
        part = block[s0:s0 + per]
        wide = _front(buf, part.shape[:1] + shape)
        np.copyto(wide, part)
        yield wide


def _blocks(buf, rows, b):
    """The first `rows` rows of buf (..., d) padded to whole blocks of b
    rows, as (blocks, b, d)."""
    return _front(buf, (-(-rows // b), b, buf.shape[-1]))


def _advance(system, drive, xs, tails=None):
    """Evolve members xs[i, k] (lanes, members, d) in lockstep, a step per
    drive block row (see _drive), lane i's members under row[i]; return
    their final states.  With tails (lanes, members, steps + 1, d) it
    writes member k's start state to tails[i, k, 0] and its state after
    step j to tails[i, k, j]; without tails it writes none.  A network
    step is M x with M the effective matrix, then + row, then _update's
    arithmetic; other systems step through step_batch(row[i], ...).  The
    states are copied once into part 0 of one _aligned_empty buffer (pre
    is part 1 for a network) and stepped in place.  For a network both
    parts hold the states' rows padded with zero rows to whole blocks of
    _block_rows(M), at most 3 rows more, and M maps the padded blocks:
    the step allocates nothing.

    A network whose states fit _DRIVE_BYTES takes the rows of each
    block through _widened, at the width that block is stepped at: a
    merge narrows the states, so the next block is widened less.  Rows
    that already have the states' shape (one member a lane), and every
    row of a network whose states do not fit, are used as they come.

    A run that writes no tails steps each lane's bit-identical members
    once.  Before each drive block, _distinct_rows keeps one row per
    distinct state of each lane in the front of the same buffers, and the
    padded blocks shrink to the rows kept (the padding rows zeroed again);
    the map from members to rows is applied once, to the final states.
    This is exact: every row is computed on its own (a row of a 4-row
    GEMM whose bits do not depend on the other rows, one gemv per row, an
    elementwise tanh, or a rowwise step_batch), so rows with equal bits
    under one lane's drive stay equal, and each row is still its solo
    orbit bit for bit.  A run with tails steps every member: its tails
    are full width."""
    lanes, members, d = xs.shape
    if members == 0:
        return xs
    rnn = isinstance(system, RnnParams)
    # one member a lane: the rows already have the states' shape
    fits = rnn and members > 1 and xs.nbytes <= _DRIVE_BYTES
    wide = np.empty(_DRIVE_BYTES // 8) if fits else None
    b = _block_rows(system.effective_matrix) if rnn else 1
    rows = lanes * members
    x_buf, *pre_buf = _aligned_empty((rows + -rows % b, d), 1 + rnn)
    x_buf[rows:] = 0.0
    x = _front(x_buf, xs.shape)
    x[...] = xs
    if tails is not None:
        tails[:, :, 0] = x
    if rnn:
        m, alpha = _matvec_rows(system.effective_matrix), system.alpha
        om, leak_free = 1.0 - alpha, alpha == 1.0
        pre_buf, = pre_buf
        pre = _front(pre_buf, xs.shape)
        x_blocks, pre_blocks = _blocks(x_buf, rows, b), _blocks(pre_buf, rows, b)
    lane, inverse, k = np.arange(lanes)[:, None], None, 0
    for block in drive:
        merged = _distinct_rows(x) if tails is None and x.shape[1] > 1 else None
        if merged is not None:
            kept_rows, rowmap = merged
            inverse = rowmap if inverse is None else rowmap[lane, inverse]
            kept = x[lane, kept_rows]
            x = _front(x_buf, kept.shape)
            x[...] = kept
            if rnn:
                rows = kept.size // d
                pre = _front(pre_buf, kept.shape)
                x_blocks = _blocks(x_buf, rows, b)
                pre_blocks = _blocks(pre_buf, rows, b)
                x_blocks.reshape(-1, d)[rows:] = 0.0
        for sub in _widened(block, x.shape, wide):
            for k, u in enumerate(sub, k + 1):
                if rnn:
                    # inlined and in place: a Python call per step slows
                    # the n_r = 1 loop by 7-8 %, a new array per
                    # operation by 2-8 %
                    m(x_blocks, out=pre_blocks)
                    pre += u
                    if leak_free:
                        np.tanh(pre, out=x)
                    else:
                        np.tanh(pre, out=pre)
                        pre *= alpha
                        x *= om
                        x += pre
                else:
                    x = np.stack([system.step_batch(ui, xi)
                                  for ui, xi in zip(u, x)])
                if tails is not None:
                    tails[:, :, k] = x
    return x if inverse is None else x[lane, inverse]


# per-step multiply-adds (lanes x members x n_r**2) a network ensemble
# needs before a second member group on another CPU saves time: 600
# steps of 2 lanes at n_r = 50 ran 1.16x as long split with 40 members
# (200,000) and 0.72x with 60 (300,000), on a 2-core host with 2 MiB
# of L2 cache per core
_MIN_GROUP_WORK = 2 ** 18


def _cpu_count():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _group_count(limit, work, min_work):
    """Groups to split `work` into: the least of `limit`, work // min_work
    and the CPUs the process may use, and at least one."""
    groups = min(limit, work // min_work)
    return min(groups, _cpu_count()) if groups > 1 else 1


def _run_groups(run, groups):
    """[run(0), ..., run(groups - 1)], the one way the package puts work
    on several CPUs: run(0) in the calling thread, the others on a pool of
    groups - 1 helper threads (imported only when groups > 1, so start-up
    does not pay for it) that are joined before this returns.  An
    exception of run(0) is raised here once the helpers are done, else a
    helper's."""
    if groups <= 1:
        return [run(0)]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(groups - 1) as pool:
        helpers = [pool.submit(run, i) for i in range(1, groups)]
        return [run(0)] + [h.result() for h in helpers]


def _advance_groups(system, seqs, xs, t0, t1, tails=None):
    """_advance(system, _drive(system, seqs, t0, t1), xs, tails), the one
    way into the kernel from input sequences: members start at time t0,
    and tails (lanes, members, t1 - t0 + 1, d), if given, take their
    states at t0 .. t1.

    A network ensemble runs as g contiguous groups of members, g the
    least of the members, the CPUs the process may use and lanes x
    members x n_r**2 // _MIN_GROUP_WORK, through _run_groups.  Each group
    is a whole run over its own drive and its own views of xs and tails,
    with no per-step synchronisation.  Rows are independent, so every bit
    is the same as in one run.  Other systems never split (step holds the
    GIL): they, and any ensemble too small to split, run as one group.
    """
    lanes, members = xs.shape[:2]
    groups = 1
    if isinstance(system, RnnParams):
        groups = _group_count(members, lanes * members * system.n_r ** 2,
                              _MIN_GROUP_WORK)
    cuts = [members * i // groups for i in range(groups + 1)]

    def run(i):
        part = slice(cuts[i], cuts[i + 1])
        return _advance(system, _drive(system, seqs, t0, t1), xs[:, part],
                        None if tails is None else tails[:, part])

    return np.concatenate(_run_groups(run, groups), axis=1)


def orbit(system, input_seq, x0, n, anchor=0):
    """Iterate the map n times from x0 anchored at time `anchor`.

    system is RnnParams or any object with state_dim, state_bound and a
    rowwise step_batch (see the index module).  The step arriving at
    time k consumes input value u[k], so the input window must cover
    [anchor + 1, anchor + n].  Underflow raises the sequence's
    window-exhausted error; there is no silent padding.

    Returns
    -------
    Trajectory
        states[j] is the state at time anchor + j, j = 0..n.
    """
    return Trajectory(anchor=anchor,
                      states=_orbits(system, input_seq, [x0], n, anchor)[0])


def _orbits(system, input_seq, x0s, n, anchor=0):
    """States (len(x0s), n + 1, d) of the orbits from each state in x0s,
    all under one input, run as one lockstep ensemble: row k is
    orbit(system, input_seq, x0s[k], n, anchor).states bit for bit."""
    d = system.state_dim
    x0s = [np.asarray(x0, dtype=float) for x0 in x0s]
    for x0 in x0s:
        if x0.shape != (d,):
            raise ConfigurationError(f"x0 must have shape ({d},), got {x0.shape}")
    if n < 0:
        raise ConfigurationError("n must be nonnegative")
    _require_input(system, input_seq, anchor + 1, anchor + n)
    states = np.empty((1, len(x0s), n + 1, d))
    _advance_groups(system, [input_seq], np.stack(x0s)[None], anchor, anchor + n,
                    states)
    return states[0]


def spectral_norm(mat):
    """Largest singular value (induced 2-norm), relative accuracy 1e-10."""
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2:
        raise ConfigurationError(f"expected a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ConfigurationError("matrix contains non-finite entries")
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])
