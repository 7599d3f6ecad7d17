"""Machine speed, read from a fixed reference computation sampled while the program runs.

On a shared machine the speed of Python code on a core switches between
states about 1.7x apart, each lasting a fraction of a second to a few
seconds, and the two cores switch independently; process CPU time moves
with it.  A run therefore cannot remove it by repetition alone, and a
reference timed before and after a 4-s call misses what happened during it.

So while a program call runs, a timer interrupts it every INTERVAL_S and
runs one pass of a reference computation that is part of the benchmark, not
of the program: the oracle's BFS over BSQ_REF_N.  The time spent in the
interrupts is taken out of the call's time, and the call is reported at the
reference speed,

    scaled = (raw - interrupts) * REF_PASS_S / mean(reference pass),

that is, in seconds on a machine where one reference pass takes REF_PASS_S.
A change to the program moves its scaled time as it moves its raw time; a
change in the machine's speed moves the reference passes too and cancels.
Every bracket also takes passes right before and after its calls, and a
caller that must not be interrupted (each call in a route batch is timed on
its own) takes passes between its calls with `sample` instead.
"""
from __future__ import annotations

import signal
import time

import oracle

REF_PASS_S = 0.0002  # nominal length of one reference pass
INTERVAL_S = 0.01
MIN_PASSES = 4
REF_KIND, REF_N = "BSQ", 6


def reference_pass() -> float:
    """The length of one reference pass, in seconds."""
    t0 = time.perf_counter()
    oracle.bfs_words(REF_KIND, REF_N, 0)
    return time.perf_counter() - t0


class Bracket:
    """Program time with reference passes sampled through it.

        with Bracket() as b:
            ...program calls...
        b.raw, b.factor, b.scaled
    """

    def __init__(self, sampled: bool = True):
        self.sampled = sampled  # interrupt the calls every INTERVAL_S
        self.passes: list[float] = []
        self.spent = 0.0  # seconds spent in passes inside the bracket

    def sample(self) -> None:
        """Take one reference pass inside the bracket; its time is not the program's."""
        t0 = time.perf_counter()
        self.passes.append(reference_pass())
        self.spent += time.perf_counter() - t0

    def _interrupt(self, signum, frame):
        self.sample()

    def __enter__(self):
        for _ in range(MIN_PASSES // 2):
            self.passes.append(reference_pass())
        if self.sampled:
            self._previous = signal.signal(signal.SIGALRM, self._interrupt)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw = time.perf_counter() - self.t0
        if self.sampled:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.raw -= self.spent
        for _ in range(MIN_PASSES // 2):
            self.passes.append(reference_pass())
        self.factor = REF_PASS_S * len(self.passes) / sum(self.passes)
        self.scaled = self.raw * self.factor
        return False


def timed(fn, *args):
    """(result, raw seconds, scaled seconds); an exception is returned as the result."""
    with Bracket() as b:
        try:
            result = fn(*args)
        except Exception as exc:  # the operation failed; the caller counts it
            result = exc
    return result, b.raw, b.scaled
