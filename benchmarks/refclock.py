"""Request times in units of a fixed reference computation run beside them.

The 2-vCPU host this benchmark was written on changes speed in phases of
roughly 10 to 60 s: the same optimisation-free grid pass takes 0.50 s in one
phase and 0.95 s in the next, in wall and in thread CPU time alike, so over
30 s windows the median pass time spread by 0.23 (quartile distance over
median). The reference kernel below (small complex eigensolves, Kronecker
products and an interpreter loop, like the program's own mix) slows down in
step with the program. It does not call causalcap, so a change to the
program moves a time measured in its units and a change of host speed
mostly does not.

The kernel is sampled on a timer signal while requests run: the handler
runs between bytecodes of the main thread, or while it waits for a child
process, so requests need no hooks. A request's time in reference units is
its wall time, less the samples taken inside it, times the mean kernel
speed (1 / kernel time) over its window: the number of kernel runs that fit
in the same time. The mean speed weighs a phase by the time it lasts; a
median kernel time instead picks one phase, and over twelve solves of one
channel it left a spread of 0.15 where the mean speed left 0.04.

The two vCPUs of that host also differ in speed from moment to moment (by
up to 1.6x), so a request that runs in a child process should run on the
CPU the samples are taken on. A sample taken there while the child runs
can be time-sliced with it and read up to 4x slow; in two sets of ten
cli-session runs that spread the figures by up to 0.12, against 0.16 for
samples taken only between child processes.
"""

from __future__ import annotations

import signal
import time

import numpy as np

clock = time.perf_counter

_rng = np.random.default_rng(20180406)
_M = _rng.normal(size=(16, 16)) + 1j * _rng.normal(size=(16, 16))
_H = _M + _M.conj().T
_K = _H[:4, :4].copy()


def kernel() -> float:
    """About 1 ms of work on the 2-vCPU development host."""
    acc = 0.0
    for _ in range(12):
        acc += float(np.abs(np.linalg.eigvalsh(_H)).sum())
        acc += float(np.kron(_K, _K).trace().real)
        acc += sum(j * 0.5 for j in range(60))
    return acc


class RefClock:
    """Samples of the kernel's time, taken on a timer or on request.

    With `interval` set, entering the context starts a timer that takes a
    sample every `interval` seconds until the context exits.
    """

    def __init__(self, interval: float | None = None):
        self.interval = interval
        self.start: list[float] = []
        self.dur: list[float] = []
        self._busy = False
        kernel()  # warm-up
        self.sample()

    def sample(self, n: int = 1) -> None:
        if self._busy:
            return
        self._busy = True
        for _ in range(n):
            t0 = clock()
            kernel()
            self.start.append(t0)
            self.dur.append(clock() - t0)
        self._busy = False

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> RefClock:
        if self.interval:
            self._old = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)

    def scaled(self, requests) -> tuple[list[float], list[float]]:
        """Net wall times and times in reference units of (t0, t1) requests.

        The requests run one after another; the speed is the mean of
        1 / kernel time over the samples taken between the first start and
        the last end, plus the nearest sample on either side. Call after a
        sample that follows the last request.
        """
        # The timer may append a sample at any bytecode; `start` gets its
        # entry first, and one slice is one bytecode.
        n = len(self.dur)
        start, dur = np.array(self.start[:n]), np.array(self.dur[:n])
        lo, hi = np.searchsorted(start, [requests[0][0], requests[-1][1]])
        speed = np.mean(1.0 / dur[max(lo - 1, 0):hi + 1])
        cum = np.concatenate(([0.0], np.cumsum(dur)))
        net = []
        for t0, t1 in requests:
            a, b = np.searchsorted(start, [t0, t1])
            net.append(t1 - t0 - (cum[b] - cum[a]))
        return net, [t * speed for t in net]
