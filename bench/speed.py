"""How fast the host runs Python right now, sampled while a pass runs.

The 2-vCPU host this benchmark was built on runs the same code up to
~1.5x slower for seconds to minutes at a time, with no steal time to
show it, so the raw wall time of one pass says as much about the host
as about echodex.  A Probe measures the host alongside the pass: every
`period` seconds SIGALRM interrupts the pass between two bytecodes of
the main thread and times one fixed slice of pure-Python work (~0.15
ms).  Slices are also taken just before and just after the window, so
a pass that stays inside one long native call still gets a rate.

`scaled(wall, probe.summary(), ...)` is a wall time less the slices
taken inside it, scaled by REF_SLICE_S / median slice time: the time
the work would take on a host running one slice in REF_SLICE_S.  Of
the slice kinds tried (pure Python, small numpy ufuncs, small
matrix-vector products) the pure-Python one tracked the presets' pass
times best.

Only `signal` and `time` are imported here, because the setup probe
imports this module in a fresh interpreter whose start-up it times.
"""

import signal
import time

SLICE_LOOPS = 2000
REF_SLICE_S = 150e-6  # about this host's slice time in its fast phases
EDGE_SLICES = 10


def _slice():
    s = 0
    for i in range(SLICE_LOOPS):
        s += i * i % 7
    return s


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


class Probe:
    """Context manager sampling slice times in the main thread."""

    def __init__(self, period=0.02):
        self.period = period
        self.edges = []  # slices taken just before and after the window
        self.ticks = []  # slices taken on SIGALRM inside the window
        self._previous = None

    @staticmethod
    def _time_slice(into):
        start = time.perf_counter()
        _slice()
        into.append(time.perf_counter() - start)

    def _tick(self, signum, frame):
        self._time_slice(self.ticks)

    def _edge(self):
        for _ in range(EDGE_SLICES):
            self._time_slice(self.edges)

    def __enter__(self):
        self._edge()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._edge()
        return False

    def summary(self):
        return {"slices": len(self.edges) + len(self.ticks),
                "tick_s": sum(self.ticks), "edge_s": sum(self.edges),
                "median_slice_s": _median(self.edges + self.ticks)}


def scaled(wall, summary, edges_inside):
    """`wall` less the probe's slices inside it (the ticks, and the edge
    slices too when `edges_inside`), at the reference slice time."""
    busy = summary["tick_s"] + (summary["edge_s"] if edges_inside else 0.0)
    return (wall - busy) * REF_SLICE_S / summary["median_slice_s"]
