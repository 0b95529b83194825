"""Host speed probe: reports timings at a fixed reference speed of the host.

The benchmark runs on a shared 2-vCPU host whose speed swings with the load
of other tenants: the same crosscheck pass took 1.4 s and 3.0 s within one
hour, and a plain Python loop slows with it.  Averaging inside a 25 s run does
not remove swings that last longer.

While a workload's timed loop runs, a SIGALRM handler runs a fixed probe
every PERIOD_S seconds, doing the kind of work the workload does and nothing
of ppf.  The "small" probe (sweep, crosscheck) is a Python integer loop and
additions of 64-element arrays, as in ppf's small fields.  The "large" probe
(verify_*) adds random gathers from a 4 MB table, larger than L2, as in the
big fields' log/exp lookups: other tenants' memory traffic slows those
without slowing the small probe.  The probe's time measures the host's
current speed: speed = REFERENCE_PROBE_S / probe time, 1 on the reference
host, below 1 when the host is slower.  An operation's reference time is its
wall time, less the probe time inside it, times the mean speed of the probes
around it: what it would take on the host at reference speed.  The probe does not call ppf, so a change to ppf moves
reference times exactly as it moves wall times; the readable lines of a run
print the wall figures and the mean speed as well.
"""

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
# About each probe's median time on the reference host (2-vCPU Intel Xeon,
# KVM, Python 3.11.7, numpy 2.4.6); only a scale, the same on every run.
REFERENCE_PROBE_S = {"small": 0.0025, "large": 0.004}
_LOOP, _ADDS = 40_000, 1_200
_ARRAY = np.arange(64, dtype=np.int64)
_GATHERS = 2
_TABLE_SIZE, _GATHER_SIZE = 1 << 19, 1 << 16   # 4 MB of int64; 64k lookups


def probe_kind(workload):
    return "large" if workload.startswith("verify") else "small"


def probe(kind, table=None, index=None):
    """Seconds the fixed probe work of `kind` takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(_LOOP):
        s += i
    a = _ARRAY
    for _ in range(_ADDS):
        a + a
    if kind == "large":
        for _ in range(_GATHERS):
            table[index].sum()
    return time.perf_counter() - t0


class HostSpeed:
    """Context manager: probes the host every PERIOD_S while it is entered."""

    def __init__(self, kind):
        self.kind = kind
        self.samples = []   # (start, seconds) of each probe
        self._previous = None
        self._table = self._index = None
        if kind == "large":
            rng = np.random.default_rng(0)
            self._table = rng.integers(0, _TABLE_SIZE, size=_TABLE_SIZE)
            self._index = rng.integers(0, _TABLE_SIZE, size=_GATHER_SIZE)

    def __enter__(self):
        self._on_alarm(None, None)  # a first sample, so short regions have one
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append((t0, probe(self.kind, self._table, self._index)))

    def _within(self, t0, t1):
        return [(s, d) for s, d in self.samples if t0 <= s <= t1]

    def probe_seconds(self, t0, t1):
        """Probe time spent inside [t0, t1]."""
        return sum(d for _, d in self._within(t0, t1))

    def speed(self, t0, t1):
        """Mean host speed over [t0, t1], widened by one period on each side
        so that short operations have a probe; the whole run's when none
        (there is always the sample taken on entry)."""
        near = self._within(t0 - PERIOD_S, t1 + PERIOD_S) or self.samples
        ref = REFERENCE_PROBE_S[self.kind]
        return statistics.fmean(ref / d for _, d in near)

    def reference_seconds(self, t0, t1):
        """Wall time of [t0, t1] without the probes, at reference host speed."""
        return (t1 - t0 - self.probe_seconds(t0, t1)) * self.speed(t0, t1)

    def mean_speed(self):
        return self.speed(float("-inf"), float("inf"))
