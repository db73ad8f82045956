"""Program time scaled to the host's speed, measured between its segments.

The benchmark's host is shared with other tenants, and its speed drifts by
tens of percent within seconds; a run's median does not average that out.
``HostClock`` therefore cuts the timed phase into segments at hook points (the
library's engine calls and the boundaries between operations, at most one cut
per ``MIN_SEGMENT_S``) and runs a fixed reference kernel at every cut, with
the clock paused. A segment's time is scaled by ``KERNEL_REF_S`` over the mean
of the kernel times just before and just after it, which gives the time the
segment would have taken at the reference speed. The kernel is library-free,
so a change to the library moves the scaled time as it moves the raw time.
"""
from __future__ import annotations

import functools
from time import perf_counter

import numpy as np

# The kernel's time on the 2-vCPU host the benchmark was written on, when
# that host ran fast; it only sets the scale of the reference-speed metrics.
KERNEL_REF_S = 0.0125
# Cuts at most this often: each costs a kernel run of about 12 ms, outside the
# measured time, and the speed drifts over seconds, not milliseconds.
MIN_SEGMENT_S = 0.1
_LOGS = np.log(np.arange(1, 20001, dtype=np.float64))


def kernel_s() -> float:
    """Seconds taken by one run of the reference kernel: complex powers in
    NumPy, the shape of the zeta engine's work, then a pure-Python float
    loop, the shape of the quadrature loop's bookkeeping."""
    t0 = perf_counter()
    for k in range(10):
        np.exp((-0.5 - 1j * (100.0 + k)) * _LOGS).sum()
    acc = 0.0
    for i in range(120000):
        acc += i * 0.5
    return perf_counter() - t0


class HostClock:
    """Timed-phase clock with reference-kernel cuts.

    ``now()`` is a perf_counter that excludes the time spent in the kernel, so
    spans read from it (the tracer's) are not inflated by the cuts.
    """

    def __init__(self):
        kernel_s()  # warm-up: first-call costs stay out of the reference
        self.first_kernel_s = kernel_s()
        self.segments = []  # (seconds, kernel before, kernel after)
        self._kernel = self.first_kernel_s
        self._paused = 0.0
        self._start = perf_counter()

    def now(self) -> float:
        return perf_counter() - self._paused

    def start(self) -> None:
        """Begin the timed phase: drop what ran since construction."""
        self.segments = []
        self._start = perf_counter()

    def lap(self, force: bool = False) -> None:
        """Close the current segment and run the kernel, unless the segment
        is shorter than ``MIN_SEGMENT_S`` and ``force`` is false."""
        t = perf_counter()
        seconds = t - self._start
        if seconds < MIN_SEGMENT_S and not force:
            return
        k = kernel_s()
        self.segments.append((seconds, self._kernel, k))
        self._kernel = k
        end = perf_counter()
        self._paused += end - t
        self._start = end

    def hook(self, owner, attr: str) -> None:
        """Replace ``owner.attr`` by a wrapper that cuts before each call."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            self.lap()
            return fn(*args, **kwargs)

        setattr(owner, attr, hooked)

    def raw_s(self) -> float:
        return sum(s for s, _, _ in self.segments)

    def ref_s(self) -> float:
        return sum(s * KERNEL_REF_S / (0.5 * (kb + ka)) for s, kb, ka in self.segments)

    def kernel_median_s(self) -> float:
        ks = sorted(k for _, _, k in self.segments) or [self.first_kernel_s]
        return ks[len(ks) // 2]


def install_hooks(clock: HostClock) -> None:
    """Cut at the library's engine calls, where their consumers look them
    up, at the quadrature edges and at each suite of ``run_suite``."""
    from types import SimpleNamespace

    from zetacontour import contour, reporting, universality, zero_finder

    clock.hook(zero_finder, "zeta_batch")
    clock.hook(contour, "log_deriv_batch")
    clock.hook(contour, "integrate_edge")
    clock.hook(universality, "log_deriv_batch")
    for attr in ("zeta", "xi", "zeta_alternating"):
        clock.hook(reporting, attr)
    for name, (body, height) in list(reporting.SUITES.items()):
        holder = SimpleNamespace(body=body)  # lets hook() replace a dict value
        clock.hook(holder, "body")
        reporting.SUITES[name] = (holder.body, height)
