"""Checks on what one preset pass wrote and printed, made apart from echodex.

Each `check_<preset>(out, seed, doc)` reads the files that
`echodex <preset> --seed SEED --out OUT` wrote into `out` and the JSON
document it printed (`doc`), recomputes what it can with numpy and the
math module alone, and raises CheckError on the first disagreement.
Inputs and initial conditions are redrawn from the committed substream
rule (a PCG64 stream per (seed, domain, index) spawn key); nothing is
compared against a stored copy of earlier output.
"""

import csv
import json
import math

import numpy as np

# spawn-key domains of the committed substream rule (input channel, IC)
_CHANNEL, _IC = 1, 2

# a float64 step recomputed with another tanh may differ in the last bits
_ULPS = 4


class CheckError(AssertionError):
    """An output disagrees with its independent recomputation."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _stream(seed, domain, index):
    key = np.random.SeedSequence(entropy=int(seed), spawn_key=(domain, index))
    return np.random.Generator(np.random.PCG64(key))


def _ics(seed, count, dim):
    """Uniform [-1, 1]^dim initial conditions, one substream per IC."""
    return np.stack([_stream(seed, _IC, i).uniform(-1.0, 1.0, dim)
                     for i in range(count)])


def _read_csv(path, header):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == header.split(","),
             f"{path.name}: header {rows[0] if rows else None} != {header}")
    return np.array([[float(v) for v in row] for row in rows[1:]])


def _ensemble(path, header, count, first_k, steps):
    """Ensemble CSV as (count, steps, d), with ic_id and k columns verified."""
    rows = _read_csv(path, header)
    _require(rows.shape[0] == count * steps,
             f"{path.name}: {rows.shape[0]} rows, want {count * steps}")
    _require(np.array_equal(rows[:, 0], np.repeat(np.arange(count), steps))
             and np.array_equal(rows[:, 1],
                                np.tile(np.arange(first_k, first_k + steps), count)),
             f"{path.name}: ic_id/k columns out of order")
    return rows[:, 2:].reshape(count, steps, -1)


def _within_ulps(got, want, scale, what):
    err = np.abs(got - want)
    tol = _ULPS * np.spacing(np.abs(scale))
    bad = np.flatnonzero(err > tol)
    _require(bad.size == 0,
             f"{what}: {bad.size} values off by more than {_ULPS} ulp "
             f"(worst {float(err.max()):.3g})")


def _two_groups(tails, tol, what):
    """Single linkage at tol in the max-over-window metric gives 2 groups,
    each tighter than tol and further than tol from the other at all times."""
    dist = np.sqrt(np.sum((tails[:, None] - tails[None, :]) ** 2, axis=3))
    d_max, d_min = dist.max(axis=2), dist.min(axis=2)
    m = tails.shape[0]
    labels = -np.ones(m, dtype=int)
    groups = 0
    for start in range(m):
        if labels[start] >= 0:
            continue
        labels[start] = groups
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for j in np.flatnonzero((d_max[i] <= tol) & (labels < 0)):
                labels[j] = groups
                frontier.append(j)
        groups += 1
    _require(groups == 2, f"{what}: {groups} groups at tol {tol}, want 2")
    same = labels[:, None] == labels[None, :]
    spread = float(d_max[same].max())
    gap = float(d_min[~same].min())
    _require(spread < tol < gap,
             f"{what}: spread {spread:.3g} and gap {gap:.3g} around tol {tol}")
    return labels


def _bisect(fn, lo, hi, iters=200):
    """Root of fn on [lo, hi] (sign change required) by plain bisection."""
    f_lo = fn(lo)
    _require(f_lo * fn(hi) < 0, "bisection bracket has no sign change")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (fn(mid) < 0) == (f_lo < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ----------------------------------------------------------------------
# scalar_sweep: x[k] = tanh(1.01 x[k-1] + u[k]), u = w * Uniform(-1, 1)
# ----------------------------------------------------------------------

SCALAR_W = (0.0006, 0.01, 0.05)
SCALAR_FIRST, SCALAR_LAST = -100, 40400
SCALAR_ICS, SCALAR_STEPS = 10, 2000


def check_scalar_sweep(out, seed, doc):
    _require(doc.get("ok") is True, "report is not ok")
    x_star = _bisect(lambda x: math.tanh(1.01 * x) - x, 1e-3, 1.0)
    for w in SCALAR_W:
        u = w * _stream(seed, _CHANNEL, 0).uniform(
            -1.0, 1.0, size=SCALAR_LAST - SCALAR_FIRST + 1)
        x = _ensemble(out / f"sample_w{w:g}.csv", "ic_id,k,x_1", SCALAR_ICS, 0,
                      SCALAR_STEPS + 1)[:, :, 0]
        _require(np.array_equal(x[:, 0], _ics(seed, SCALAR_ICS, 1)[:, 0]),
                 f"sample_w{w:g}: k=0 rows are not the drawn ICs")
        pre = 1.01 * x[:, :-1] + u[1 - SCALAR_FIRST: SCALAR_STEPS + 1 - SCALAR_FIRST]
        want = np.array([math.tanh(v) for v in pre.ravel()]).reshape(pre.shape)
        _within_ulps(x[:, 1:], want, want, f"sample_w{w:g} recurrence")
        if w == SCALAR_W[0]:
            labels = _two_groups(x[:, -100:, None], 1e-3, f"sample_w{w:g} tails")
            ends = sorted(float(np.mean(x[labels == g, -1])) for g in (0, 1))
            _require(abs(ends[0] + x_star) < 0.02 and abs(ends[1] - x_star) < 0.02,
                     f"sample_w{w:g}: groups end at {ends}, fixed points "
                     f"+-{x_star:.6f}")


# ----------------------------------------------------------------------
# context_task: trained 200-unit reservoir with feedback
# ----------------------------------------------------------------------

CONTEXT_TRAIN, CONTEXT_TEST = 6000, 3000
CONTEXT_ICS, CONTEXT_TRANSIENT, CONTEXT_HORIZON = 100, 800, 120


def _context_drive(seed, n):
    """The two smooth channels: exp(-s/50)-filtered noise plus bias, peak 1."""
    g = np.exp(-np.arange(int(math.floor(-50.0 * math.log(1e-6))) + 1) / 50.0)
    g = g[g >= 1e-6]
    pad = g.size - 1
    smooth = np.empty((n, 2))
    for j, bias in enumerate((0.3, 0.15)):
        noise = _stream(seed, _CHANNEL, j).random(n + pad)
        conv = np.convolve(noise, g)[pad:pad + n] + bias
        smooth[:, j] = conv / conv.max()
    return smooth


def check_context_task(out, seed, doc):
    _require(doc.get("ok") is True, "report is not ok")
    summary = doc["summary"]
    ev = _read_csv(out / "test_eval.csv", "k,z1_target,z1_out,z2_target,z2_out,scored")
    _require(np.array_equal(ev[:, 0], np.arange(CONTEXT_TRAIN + 1,
                                                CONTEXT_TRAIN + CONTEXT_TEST + 1)),
             "test_eval.csv: k column is not the test window")
    scored = ev[:, 5] == 1.0
    hits = int(np.count_nonzero(np.sign(ev[scored, 2]) == ev[scored, 1]))
    accuracy = hits / int(scored.sum())
    _require(int(scored.sum()) == summary["scored_steps"],
             f"{int(scored.sum())} scored rows vs summary {summary['scored_steps']}")
    _require(accuracy == summary["accuracy"],
             f"recomputed accuracy {accuracy!r} != summary {summary['accuracy']!r}")
    _require(accuracy >= 0.95, f"accuracy {accuracy:.4f} < 0.95")

    p = json.loads((out / "model.json").read_text())["params"]
    n_r = int(p["n_r"])
    w_r = np.asarray(p["w_r"]).reshape(n_r, n_r)
    w_in = np.asarray(p["w_in"]).reshape(n_r, -1)
    w_fb = np.asarray(p["w_fb"]).reshape(n_r, -1)
    w_out = np.asarray(p["w_out"]).reshape(-1, n_r)
    alpha = float(p["alpha"])
    steps = CONTEXT_TRANSIENT + CONTEXT_HORIZON
    drive = _context_drive(seed, CONTEXT_TRAIN + CONTEXT_TEST + 1)
    u_off = np.column_stack([drive, np.zeros_like(drive)])  # pulses off
    x = _ics(seed, CONTEXT_ICS, n_r)
    want = np.empty((CONTEXT_ICS, CONTEXT_HORIZON + 1))
    for k in range(1, steps + 1):
        pre = x @ w_r.T + w_in @ u_off[k] + (x @ w_out.T) @ w_fb.T
        x = (1.0 - alpha) * x + alpha * np.tanh(pre)
        if k >= CONTEXT_TRANSIENT:
            want[:, k - CONTEXT_TRANSIENT] = x @ w_out[0]
    z1 = _ensemble(out / "ensemble_z1.csv", "ic_id,k,z1", CONTEXT_ICS,
                   CONTEXT_TRANSIENT, CONTEXT_HORIZON + 1)[:, :, 0]
    # batched products round differently from solo orbits, by ~1e-15 a step
    err = float(np.max(np.abs(z1 - want)))
    _require(err <= 1e-9, f"ensemble_z1.csv differs from recomputation by {err:.3g}")
    _two_groups(z1[:, :, None], 1e-3, "ensemble_z1 tails")


# ----------------------------------------------------------------------
# switching2d: leak 1/4, W = diag(1/2, 3/2), inputs +-(1/4, 3/20)
# ----------------------------------------------------------------------

SWITCH_W = np.array([0.5, 1.5])
SWITCH_U = np.array([0.25, 0.15])
SWITCH_FIRST, SWITCH_LAST = -300, 700
SWITCH_ICS, SWITCH_TRANSIENT, SWITCH_HORIZON = 30, 200, 120
SWITCH_REGIONS = {"R+": ((-1.0, 0.55), (1.0, 1.0)),
                  "R-": ((-1.0, -1.0), (1.0, -0.55))}
PAPER_STRIP = (-0.5390, 0.3390)


def _switch_step(x, u):
    return 0.75 * x + 0.25 * np.tanh(SWITCH_W * x + u)


def check_switching2d(out, seed, doc):
    _require(doc.get("ok") is True, "report is not ok")
    summary = doc["summary"]
    a = math.atanh(1.0 / math.sqrt(3.0))
    for key, s in (("strip_f1", 1.0), ("strip_f2", -1.0)):
        strip = ((-a - 0.15 * s) / 1.5, (a - 0.15 * s) / 1.5)
        _require(np.allclose(summary[key], strip, rtol=0.0, atol=1e-12),
                 f"{key} {summary[key]} vs closed form {strip}")
        if s > 0:
            _require(np.allclose(strip, PAPER_STRIP, rtol=0.0, atol=1e-4),
                     f"closed-form strip {strip} vs paper {PAPER_STRIP}")

    for name, (lo, hi) in SWITCH_REGIONS.items():
        axes = [np.linspace(lo[j], hi[j], 33) for j in range(2)]
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        worst = 0.0
        for u in (SWITCH_U, -SWITCH_U):
            # the Jacobian is diagonal, so its norm is the largest |entry|
            sech2 = 1.0 / np.cosh(SWITCH_W * pts + u) ** 2
            worst = max(worst, float(np.max(np.abs(0.75 + 0.25 * SWITCH_W * sech2))))
            img = _switch_step(pts, u)
            _require(np.all((img >= lo) & (img <= hi)),
                     f"{name}: a grid point leaves the region")
        cert = summary["certificates"][name]
        _require(abs(cert["worst_norm"] - worst) <= 1e-12,
                 f"{name}: worst norm {cert['worst_norm']!r} vs closed form {worst!r}")
        _require(worst <= 0.999 and cert["certified"] and cert["invariant"],
                 f"{name}: not certified (worst norm {worst:.6f})")

    draws = _stream(seed, _CHANNEL, 0).random(SWITCH_LAST - SWITCH_FIRST + 1)
    u = np.where((draws < 0.5)[:, None], SWITCH_U, -SWITCH_U)
    tails = _ensemble(out / "ensemble.csv", "ic_id,k,x_1,x_2", SWITCH_ICS,
                      SWITCH_TRANSIENT, SWITCH_HORIZON + 1)
    ks = np.arange(SWITCH_TRANSIENT + 1, SWITCH_TRANSIENT + SWITCH_HORIZON + 1)
    prev = tails[:, :-1]
    leak = 0.75 * prev
    act = 0.25 * np.tanh(SWITCH_W * prev + u[ks - SWITCH_FIRST])
    _within_ulps(tails[:, 1:], leak + act, np.maximum(np.abs(leak), np.abs(act)),
                 "ensemble.csv recurrence")
    x = _ics(seed, SWITCH_ICS, 2)
    for k in range(1, SWITCH_TRANSIENT + 1):
        x = _switch_step(x, u[k - SWITCH_FIRST])
    err = float(np.max(np.abs(tails[:, 0] - x)))
    _require(err <= 1e-9, f"ensemble.csv k={SWITCH_TRANSIENT} rows differ from "
                          f"evolved ICs by {err:.3g}")
    _two_groups(tails, 1e-3, "ensemble.csv tails")


CHECKS = {
    "scalar_sweep": check_scalar_sweep,
    "context_task": check_context_task,
    "switching2d": check_switching2d,
}
