"""Host-speed probe, sampled while the benchmark runs, to put times on one scale.

The benchmark's machine is a small virtual machine on a shared host.  Its
cores switch, every few seconds, between speeds that differ by up to 2x,
and how long a run spends at each speed changes from run to run.  Raw times
of the same operation therefore spread by a fifth to a half across runs.

`HostClock` runs a background thread that, every INTERVAL_S, times a short
fixed probe in its own thread CPU time.  The benchmark times each piece of
work in CPU time (which leaves out the time the scheduler or the hypervisor
takes away) and scales it by REFERENCE_PROBE_S over the mean probe time
while that work ran, which gives its cost at the reference speed, in
seconds.  The probe runs no hamdelay code, so a change to the program moves
the scaled time as much as the raw one.  The process is pinned to one CPU
(run.py), so the probes see the core the work runs on.
"""

from __future__ import annotations

import statistics
import threading
from time import perf_counter, thread_time

import numpy as np

# Probe CPU time that defines the reference speed: the probe's median at the
# machine's slower, more common speed (2 vCPU Xeon at 2.0 GHz, Python 3.11,
# numpy 2.4, one BLAS thread).  Scaled times read as seconds at that speed.
REFERENCE_PROBE_S = 1.1e-3
INTERVAL_S = 0.05
MIN_PROBES = 3

_Z = np.random.default_rng(12345).random((16, 2, 2))


def _probe_work() -> float:
    """Small-array ufuncs in a Python loop, as in batch-1 path integration.
    Of the probes tried (plain Python, small and large dense solves, matrix
    products, streaming a large array), this one's time tracked the
    workloads' operation times most closely, on every workload."""
    acc, z = 0.0, _Z
    for k in range(80):
        g = np.sin(z + 0.1 * k) * np.cos(z) * 0.3
        z = z + 1e-3 * g[..., ::-1]
        acc += float(g.sum())
    return acc


class HostClock:
    """Samples the probe in a background thread between start() and stop()."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, end, probe CPU s)
        self._stop = threading.Event()
        self._thread = None

    def start(self) -> None:
        _probe_work()  # warm the probe's code paths before the first sample
        self._stop.clear()
        self._thread = threading.Thread(target=self._sample, name="host-speed-probe", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            t0, c0 = perf_counter(), thread_time()
            _probe_work()
            self.samples.append((t0, perf_counter(), thread_time() - c0))

    def probe_s(self, t0: float, t1: float) -> float:
        """Mean probe time over [t0, t1], or over the MIN_PROBES probes nearest
        to it when fewer than that ran inside it."""
        inside = [c for s, e, c in self.samples if s >= t0 and e <= t1]
        if len(inside) < MIN_PROBES:
            mid = 0.5 * (t0 + t1)
            nearest = sorted(self.samples, key=lambda p: abs(0.5 * (p[0] + p[1]) - mid))[:MIN_PROBES]
            inside = [c for _, _, c in nearest]
        return statistics.fmean(inside)

    def scaled(self, t0: float, t1: float, cpu: float) -> float:
        """CPU seconds spent during [t0, t1], at the reference speed."""
        return cpu * REFERENCE_PROBE_S / self.probe_s(t0, t1)
