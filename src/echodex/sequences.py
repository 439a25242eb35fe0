"""Input sequences, the shift operator, metrics, and generators.

Bi-infinite input sequences are represented as finite windows with an
explicit anchor: `values[j]` holds u[anchor + j].  Consumers declare the
coverage they need and underflow raises WindowExhausted; silent
truncation would corrupt pullback computations, so it does not exist.

Every generator draws from the committed substream rule in `rng`, one
substream per channel, so the same parameters and seed reproduce the
same sequence bit-exactly regardless of thread count or platform.
"""

from dataclasses import dataclass, field
from itertools import chain, islice
import json
import math
import numbers
from pathlib import Path

import numpy as np

from .rng import DOMAIN_CHANNEL, substream


class WindowExhausted(LookupError):
    """Input window exhausted: a consumer stepped outside the stored range."""


# ----------------------------------------------------------------------
# sequence type
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class InputSequence:
    """Window of a bi-infinite input sequence with declared value box.

    lo/hi are the componentwise bounds of the compact set U the values
    are promised to live in; they default to the observed bounds.
    """

    anchor: int
    values: np.ndarray = field(repr=False)
    lo: np.ndarray = None
    hi: np.ndarray = None

    def __post_init__(self):
        # reuse an already-frozen buffer (shift() relies on this being
        # zero-copy); anything writable is copied, never frozen in place
        if (isinstance(self.values, np.ndarray) and self.values.ndim == 2
                and self.values.dtype == np.float64
                and not self.values.flags.writeable):
            vals = self.values
        else:
            vals = np.array(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] == 0:
            raise ValueError(f"values must be a nonempty (T, n_i) array, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sequence values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        lo = np.min(vals, axis=0) if self.lo is None else np.array(self.lo, dtype=float)
        hi = np.max(vals, axis=0) if self.hi is None else np.array(self.hi, dtype=float)
        if lo.shape != (vals.shape[1],) or hi.shape != (vals.shape[1],):
            raise ValueError("lo/hi must have one entry per channel")
        if np.any(vals < lo[None, :]) or np.any(vals > hi[None, :]):
            raise ValueError("sequence values fall outside the declared box U")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def n_i(self):
        return self.values.shape[1]

    @property
    def length(self):
        return self.values.shape[0]

    @property
    def first(self):
        return self.anchor

    @property
    def last(self):
        return self.anchor + self.length - 1

    def at(self, k):
        """Value u[k]; raises WindowExhausted outside the window."""
        j = k - self.anchor
        if not 0 <= j < self.length:
            raise WindowExhausted(
                f"input window exhausted: k={k} outside [{self.first}, {self.last}]")
        return self.values[j]

    def require_window(self, first, last):
        """Assert the window covers [first, last] (no-op when first > last)."""
        if first > last:
            return
        if first < self.first or last > self.last:
            raise WindowExhausted(
                f"input window exhausted: need [{first}, {last}], "
                f"have [{self.first}, {self.last}]")

    def slice(self, first, last):
        """Copy of the subwindow [first, last]."""
        self.require_window(first, last)
        a, b = first - self.anchor, last - self.anchor + 1
        return InputSequence(anchor=first, values=self.values[a:b].copy(),
                             lo=self.lo, hi=self.hi)


def shift(seq, n):
    """Shift operator: (sigma^n u)[k] = u[k + n].

    Implemented as an anchor adjustment; the value buffer is shared, so
    this is zero-copy.  shift(u, 0) == u and shifts compose additively.
    """
    return InputSequence(anchor=seq.anchor - n, values=seq.values,
                         lo=seq.lo, hi=seq.hi)


# ----------------------------------------------------------------------
# metrics on sequence space
# ----------------------------------------------------------------------

def d_prod(u, v, half_width):
    """Truncated product metric sum over |k| <= half_width of d_U/2^|k|.

    d_U is the Euclidean metric on U.  This truncates an infinite sum;
    the truncation error is at most diam(U) * 2^(1 - half_width), where
    diam(U) covers both declared boxes.
    """
    if half_width < 0:
        raise ValueError("half_width must be nonnegative")
    if u.n_i != v.n_i:
        raise ValueError("sequences have different channel counts")
    u.require_window(-half_width, half_width)
    v.require_window(-half_width, half_width)
    ks = np.arange(-half_width, half_width + 1)
    ua = u.values[ks - u.anchor]
    va = v.values[ks - v.anchor]
    dists = np.linalg.norm(ua - va, axis=1)
    weights = 0.5 ** np.abs(ks)
    return float(np.sum(dists * weights))


def d_unif(u, v):
    """Uniform metric: sup over the (shared) window of d_U(u[k], v[k])."""
    if u.anchor != v.anchor or u.length != v.length:
        raise ValueError("d_unif requires equal windows")
    if u.n_i != v.n_i:
        raise ValueError("sequences have different channel counts")
    return float(np.max(np.linalg.norm(u.values - v.values, axis=1)))


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

def gen_two_symbol(u1, u2, p, first, last, seed):
    """I.i.d. choice of u1 (probability p) else u2 on window [first, last]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    u1 = np.atleast_1d(np.asarray(u1, dtype=float))
    u2 = np.atleast_1d(np.asarray(u2, dtype=float))
    if u1.shape != u2.shape:
        raise ValueError("u1 and u2 must have the same shape")
    n = last - first + 1
    if n <= 0:
        raise ValueError("empty window")
    draws = substream(seed, DOMAIN_CHANNEL, 0).random(n)
    vals = np.where((draws < p)[:, None], u1[None, :], u2[None, :])
    lo = np.minimum(u1, u2)
    hi = np.maximum(u1, u2)
    return InputSequence(anchor=first, values=vals, lo=lo, hi=hi)


def gen_uniform_scaled(w, first, last, seed):
    """Scalar inputs w * Uniform(-1, 1) on window [first, last]."""
    if w < 0:
        raise ValueError(f"w must be nonnegative, got {w}")
    n = last - first + 1
    if n <= 0:
        raise ValueError("empty window")
    vals = substream(seed, DOMAIN_CHANNEL, 0).uniform(-1.0, 1.0, size=(n, 1))
    vals *= w
    vals.setflags(write=False)  # handed over: InputSequence keeps it uncopied
    return InputSequence(anchor=first, values=vals,
                         lo=np.array([-w]), hi=np.array([w]))


# Exponential filter taps: g(s) = exp(-s/50), truncated where g < 1e-6.
_FILTER_TAU = 50.0
_FILTER_CUTOFF = 1e-6


def _filter_kernel():
    s_max = int(math.floor(-_FILTER_TAU * math.log(_FILTER_CUTOFF)))
    g = np.exp(-np.arange(s_max + 1) / _FILTER_TAU)
    return g[g >= _FILTER_CUTOFF]


@dataclass(frozen=True)
class ContextTask:
    """Drive channels, pulse channels and targets for the context task.

    drive holds the two smoothed channels (u1, u2); pulses is a (T, 2)
    0/1 array for the on/off impulses (u3, u4); targets is (T, 2) with
    the context target z1 in {-1, +1} and the selection target z2.
    The initial context before any pulse is "off" (z1 = -1); the target
    flips at the pulse step itself, and a simultaneous on+off pulse
    resolves to "on".  All arrays share the drive's window.
    """

    drive: InputSequence
    pulses: np.ndarray
    targets: np.ndarray

    def _stacked(self, pulses):
        return InputSequence(anchor=self.drive.anchor,
                             values=np.column_stack([self.drive.values, pulses]),
                             lo=np.zeros(4), hi=np.ones(4))

    def full_input(self):
        """Four-channel sequence [u1, u2, u3, u4] on the same window."""
        return self._stacked(self.pulses)

    def pulses_off_input(self):
        """Same drive but with both pulse channels identically zero."""
        return self._stacked(np.zeros_like(self.pulses))


def gen_context_task(first, last, pulse_prob, seed):
    """Context-task data on window [first, last].

    The smooth channels are causal convolutions of Uniform[0, 1) noise
    with g(s) = exp(-s/50) (truncated at g < 1e-6), plus biases 0.3 and
    0.15, each normalized so its window maximum is one.  Enough past
    noise is drawn that every in-window sample has full kernel support.
    Pulses are unit-amplitude Bernoulli(pulse_prob) impulses.
    """
    if not 0.0 < pulse_prob < 1.0:
        raise ValueError(f"pulse_prob must lie in (0, 1), got {pulse_prob}")
    n = last - first + 1
    if n <= 0:
        raise ValueError("empty window")
    kernel = _filter_kernel()
    pad = kernel.size - 1
    smooth = np.empty((n, 2))
    for j, bias in enumerate((0.3, 0.15)):
        noise = substream(seed, DOMAIN_CHANNEL, j).random(n + pad)
        conv = np.convolve(noise, kernel)[pad:pad + n]
        conv = conv + bias
        peak = conv.max()
        if peak <= 0.0:
            raise ValueError(f"degenerate window: channel {j + 1} has no positive values")
        smooth[:, j] = conv / peak
    pulses = np.empty((n, 2))
    for j in range(2):
        pulses[:, j] = (substream(seed, DOMAIN_CHANNEL, 2 + j).random(n)
                        < pulse_prob).astype(float)
    # context target: flips at the pulse step, "on" wins collisions,
    # initial context is "off"
    z1 = np.empty(n)
    state = -1.0
    for t in range(n):
        if pulses[t, 0] == 1.0:
            state = 1.0
        elif pulses[t, 1] == 1.0:
            state = -1.0
        z1[t] = state
    z2 = np.where(z1 > 0, smooth[:, 0], smooth[:, 1])
    targets = np.column_stack([z1, z2])
    drive = InputSequence(anchor=first, values=smooth,
                          lo=np.zeros(2), hi=np.ones(2))
    return ContextTask(drive=drive, pulses=pulses, targets=targets)


def splice_large_input(u, m, far_value, admissible=None):
    """Replace u[k] for |k| > m by a constant far value.

    The far value is meant to lie in the large-input admissible set of a
    certifier (intersection of the P_j cones); pass that certificate as
    `admissible` (anything with a .contains(u) test) to enforce it.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    far = np.atleast_1d(np.asarray(far_value, dtype=float))
    if far.shape != (u.n_i,):
        raise ValueError(f"far_value must have shape ({u.n_i},), got {far.shape}")
    if admissible is not None and not admissible.contains(far):
        raise ValueError("far_value fails the admissible-set membership test")
    ks = np.arange(u.first, u.last + 1)
    vals = u.values.copy()
    vals[np.abs(ks) > m] = far
    lo = np.minimum(u.lo, far)
    hi = np.maximum(u.hi, far)
    return InputSequence(anchor=u.anchor, values=vals, lo=lo, hi=hi)


# ----------------------------------------------------------------------
# file formats
# ----------------------------------------------------------------------

# rows one % call formats: a block's text is kilobytes, never a file's
_CSV_BLOCK = 1024


def write_csv(path, header, fmt, rows):
    """Write `header`, then `fmt % row` for each row tuple, one per
    LF-terminated line.  Every CSV of the package goes through here or
    through write_member_csv; floats use %.17g, which round-trips every
    double exactly, so reruns reproduce the files byte for byte.  Rows
    are formatted a block of _CSV_BLOCK at a time, one % call a block:
    never a call per row, and never the whole file's text."""
    line, rows = fmt + "\n", iter(rows)
    _write_blocks(path, header, (
        (line * len(block)) % tuple(chain.from_iterable(block))
        for block in iter(lambda: list(islice(rows, _CSV_BLOCK)), [])))


def write_member_csv(path, header, ks, members):
    """Write `header`, then the line "i,k,x_1,...,x_d" (%d, %d, then
    %.17g each) for each member i of members (m, n) or (m, n, d) and each
    of its states x = members[i, j], k = ks[j]: the member-major CSV of
    an ensemble.  The k column is spelled once per file and each id once
    per member, into a format whose only placeholders are the member's
    floats; one member's floats and one block of its text are held at a
    time, one % call a block of _CSV_BLOCK lines."""
    members = np.asarray(members, dtype=float)
    n, d = members.shape[1], math.prod(members.shape[2:])
    lines = [",%d" % k + ",%.17g" * d + "\n" for k in ks]
    if len(lines) != n:
        raise ValueError(f"{len(lines)} k values for {n} states a member")
    # each block's first float, and its lines after a "": joined on a
    # member's id, they put the id before every line
    blocks = [(j * d, [""] + lines[j:j + _CSV_BLOCK])
              for j in range(0, n, _CSV_BLOCK)]

    def texts():
        for i, member in enumerate(members):
            ic, values = "%d" % i, member.reshape(-1).tolist()
            for start, block in blocks:
                yield ic.join(block) % tuple(
                    values[start:start + (len(block) - 1) * d])
    _write_blocks(path, header, texts())


def _write_blocks(path, header, texts):
    """The CSV at path: header, then each text of `texts` as it comes."""
    with open(path, "w", newline="\n") as f:
        f.write(header + "\n")
        f.writelines(texts)


def json_text(doc, sort_keys=False):
    """doc as json.dumps(doc, indent=1, sort_keys=sort_keys) + "\n" spells
    it.  Every JSON file and printout of the package goes through here.
    A list of floats is joined in one pass with float.__repr__, json's
    spelling of a finite float, where the pure-Python encoder an indent
    forces on json would write it item by item."""
    parts = []
    _json_parts(doc, "\n", sort_keys, parts)
    parts.append("\n")
    return "".join(parts)


def _json_parts(value, pad, sort_keys, parts):
    """Append value's text to parts at the indent of `pad`, a newline
    and one space per level, as json.dumps(indent=1) writes it."""
    inner = pad + " "
    if isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) == {float}:
            text = ("," + inner).join(map(float.__repr__, value))
            if "n" not in text:  # nan and inf, which json spells NaN, Infinity
                parts += ("[", inner, text, pad, "]")
                return
        for k, item in enumerate(value):
            parts += ("," if k else "[", inner)
            _json_parts(item, inner, sort_keys, parts)
        parts += (pad, "]")
    elif isinstance(value, dict) and value:
        items = sorted(value.items()) if sort_keys else value.items()
        for k, (key, item) in enumerate(items):
            name = key if isinstance(key, str) else json.dumps(key)
            parts += ("," if k else "{", inner, json.dumps(name), ": ")
            _json_parts(item, inner, sort_keys, parts)
        parts += (pad, "}")
    else:
        parts.append(json.dumps(value))


def save_sequence(seq, path):
    """Write CSV with header k,u_1..u_{n_i}."""
    write_csv(path, "k," + ",".join(f"u_{j + 1}" for j in range(seq.n_i)),
              "%d" + ",%.17g" * seq.n_i,
              zip(range(seq.first, seq.last + 1), *seq.values.T.tolist()))


def load_sequence(path):
    """Read a sequence CSV written by save_sequence."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or not lines[0].startswith("k,"):
        raise ValueError(f"{path}: not a sequence CSV (missing 'k,u_1..' header)")
    ks = []
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        ks.append(int(parts[0]))
        rows.append([float(v) for v in parts[1:]])
    ks = np.asarray(ks)
    if ks.size == 0:
        raise ValueError(f"{path}: empty sequence")
    if np.any(np.diff(ks) != 1):
        raise ValueError(f"{path}: time indices must be consecutive")
    return InputSequence(anchor=int(ks[0]), values=np.asarray(rows))


_GENERATORS = {
    "two_symbol": lambda p, seed: gen_two_symbol(
        p["u1"], p["u2"], p["p"], p["first"], p["last"], seed),
    "uniform_scaled": lambda p, seed: gen_uniform_scaled(
        p["w"], p["first"], p["last"], seed),
}


# generator-spec params that may be a list of numbers, one per channel
_CHANNEL_PARAMS = ("u1", "u2")


def _kind(value):
    """'list' (of numbers), 'number' or None: the kinds of values that
    presets' configs and generator specs take from outside."""
    if isinstance(value, (list, tuple)):
        return "list" if all(_kind(v) == "number" for v in value) else None
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return "number" if real else None


def _is_integer(v):
    return _kind(v) == "number" and isinstance(v, int)


def _check_params(params):
    """Raise ValueError naming the first spec param of the wrong type:
    params is an object, first and last integers, u1 and u2 numbers or
    lists of numbers, and every other value a number."""
    if not isinstance(params, dict):
        raise ValueError(f"generator params must be an object, got {params!r}")
    for key, value in params.items():
        if key in ("first", "last"):
            ok, want = _is_integer(value), "an integer"
        elif key in _CHANNEL_PARAMS:
            ok = _kind(value) is not None
            want = "a number or a list of numbers"
        else:
            ok, want = _kind(value) == "number", "a number"
        if not ok:
            raise ValueError(f"generator param {key!r} must be {want}, "
                             f"got {value!r}")


def load_input(path):
    """Load an input from CSV or from a generator-spec JSON document
    {"kind", "params", "seed"} whose kind is a key of _GENERATORS; a
    field or param of the wrong type raises ValueError naming it."""
    path = Path(path)
    if path.suffix.lower() != ".json":
        return load_sequence(path)
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"a generator spec must be an object, got {doc!r}")
    kind, params, seed = doc["kind"], doc["params"], doc["seed"]
    if not isinstance(kind, str) or kind not in _GENERATORS:
        raise ValueError(f"unknown generator kind {kind!r}; "
                         f"known: {', '.join(_GENERATORS)}")
    if not _is_integer(seed):
        raise ValueError(f"generator seed must be an integer, got {seed!r}")
    _check_params(params)
    return _GENERATORS[kind](params, seed)
