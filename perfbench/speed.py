"""Host-speed probe: scales the time of an untraced pass to a fixed host speed.

On a shared host the speed of a CPU switches between levels up to about
1.6x apart, in phases of seconds to minutes.  A raw pass time then
follows the phase the run happened to fall in, and ten runs spread by
more than any useful bound.  Instead, the pass is cut into segments of
about SEGMENT_S seconds at the return of public calls (CUT_POINTS), and
between segments a probe times a fixed kernel of the same kind of work
as the workload's pass (KERNELS).  Each segment's wall and CPU seconds
are scaled by the kernel's reference time over the mean of the probes at
the segment's two ends, so the pass time reads as if the host ran at the
speed where the kernel takes its reference time.  The probe's own time
is in no segment.

The scaling assumes that nothing of the program runs while the probe
does: cuts are made only on the main thread, and every workload runs at
the CLI default ``--threads 1``.  A change that left work running between
calls would slow the probe and flatter the scaled times; the raw times
are printed and written next to them for that reason.
"""

from __future__ import annotations

import functools
import statistics
import threading
from time import perf_counter, process_time

import numpy as np

from tracer import _resolve

SEGMENT_S = 0.5
PROBE_REPEATS = 3
# Bindings after whose return a segment may end: the CLI entry point and
# the calls that dominate the long passes (oracle, ed-large, quench-evolve).
CUT_POINTS = ("cli:main", "sweeps:evolve_mode", "edoracle:ground_state",
              "edoracle:build_hamiltonian")

_GRID = np.linspace(0.0, 1.0, 20000)
_RNG = np.random.default_rng(0)
_A, _B = _RNG.standard_normal((2, 300, 300))
_H = _RNG.standard_normal((96, 96)) + 1j * _RNG.standard_normal((96, 96))
_H = _H + _H.conj().T


def _python_kernel():
    """One thread: numpy element-wise work, float formatting, a Python loop."""
    for _ in range(4):
        values = np.sin(_GRID) * np.cos(_GRID) + np.exp(-_GRID)
    ",".join(repr(float(x)) for x in values[:6000])
    acc = 0
    for i in range(60000):
        acc += i * i


def _blas_kernel():
    """BLAS and LAPACK on their default threads: matrix products and an eigh."""
    for _ in range(4):
        _A @ _B
    np.linalg.eigh(_H)


# kernel name -> (kernel, reference seconds: its median time on the
# 2-core x86-64 VM the bounds were set on).  The python kernel tracks
# passes that run on one CPU (sweeps, quench-evolve) or whose small
# eigensolves barely use the second one (oracle); the blas kernel tracks
# ed-large, whose 256x256 and 1024x1024 eigensolves split over both CPUs.
KERNELS = {"python": (_python_kernel, 0.012), "blas": (_blas_kernel, 0.0057)}


def probe(kernel) -> float:
    """Seconds the kernel takes now: median of PROBE_REPEATS timings."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Scaler:
    """Segments of one untraced pass, with the probe times at their ends."""

    def __init__(self, kernel: str):
        self._kernel, self._ref_s = KERNELS[kernel]
        self.segments = []  # (wall_s, cpu_s, probe_before_s, probe_after_s)
        self._saved = []
        self._main = threading.main_thread().ident
        self._t0 = float("inf")

    def install(self):
        for binding in CUT_POINTS:
            owner, attr = _resolve(binding)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn):
        @functools.wraps(fn)
        def cut_after(*args, **kwargs):
            result = fn(*args, **kwargs)
            if perf_counter() - self._t0 >= SEGMENT_S and threading.get_ident() == self._main:
                self.cut()
            return result

        return cut_after

    def start(self):
        self.segments = []
        self._probe = probe(self._kernel)
        self._t0, self._c0 = perf_counter(), process_time()

    def cut(self):
        wall, cpu = perf_counter() - self._t0, process_time() - self._c0
        p = probe(self._kernel)
        self.segments.append((wall, cpu, self._probe, p))
        self._probe = p
        self._t0, self._c0 = perf_counter(), process_time()

    def totals(self) -> dict:
        """Raw and scaled wall and CPU seconds of the pass, and the probe count."""
        scale = [self._ref_s / ((b + a) / 2) for _, _, b, a in self.segments]
        return {
            "wall_s": sum(s[0] for s in self.segments),
            "cpu_s": sum(s[1] for s in self.segments),
            "wall_scaled_s": sum(s[0] * k for s, k in zip(self.segments, scale)),
            "cpu_scaled_s": sum(s[1] * k for s, k in zip(self.segments, scale)),
            "probes": len(self.segments) + 1,
        }
