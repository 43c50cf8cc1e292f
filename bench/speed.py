"""Machine speed, sampled while the benchmark runs, for scaling its times.

On a shared host the same Python code runs up to twice as fast in one
second as in the next (measured on a 2-vCPU VM: 20 ms chunks of a fixed
loop took 14 to 27 ms, and a 1.7 s `pavc vc` run took 1.28 to 2.17 s
over fourteen repetitions).  Times taken minutes apart are then not
comparable.  While `Speed` is started, a SIGALRM timer runs a fixed
pure-Python chunk every PERIOD_S, inside the operations as well as
between them.  `scaled` takes an interval's measured time, removes the
time spent in chunks, and scales the rest by NOMINAL_S over the mean
chunk time within WINDOW_S of the interval: the time the interval would
take on a machine where one chunk takes NOMINAL_S.  Over the same
fourteen runs the scaled times spread 9 per cent (quartile distance over
median), against 34 per cent unscaled.  Unscaled times are reported
beside the scaled ones.

Contention does not slow all code alike, so each workload samples with
the chunk closest to its hot loop; with a dict-and-tuple chunk, vc-search
times were over-corrected by about a tenth when the host sped up.  Scaled
times are comparable within one workload, not between workloads.

Python runs the handler between bytecodes of the main thread, so a long
call into C code delays the next sample but is not interrupted; system
calls interrupted by the signal are retried (PEP 475).
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left
from dataclasses import dataclass
from time import perf_counter

NOMINAL_S = 0.001
PERIOD_S = 0.02
WINDOW_S = 0.25
_MASKS = tuple(range(0, 4096, 37))


@dataclass(frozen=True)
class _Node:
    kind: str
    args: tuple


def evaluator_chunk() -> int:
    """Frozen-dataclass trees built, hashed and deduplicated in a dict, as
    in formula simplification and evaluation."""
    seen: dict[_Node, int] = {}
    for i in range(170):
        leaf = _Node("<=", (i & 7, (i >> 3) & 7))
        node = _Node("and", (leaf, _Node("<", (i & 3,))))
        seen[node] = seen.get(node, 0) + 1
    return len(seen)


def vclab_chunk() -> int:
    """Sets of masked integers, as in vclab's trace counting."""
    return sum(len({m & sub for m in _MASKS}) for sub in range(240))


def text_chunk() -> int:
    """Integers to decimal strings, joined and nested, as in meta files."""
    acc = 0
    for i in range(240):
        row = {str(i * 7919 + j): [str(j), str(i * j)] for j in range(8)}
        acc += len(",".join(f"{k}:{v[0]}" for k, v in row.items()))
    return acc


class Speed:
    def __init__(self, chunk):
        self.chunk = chunk
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        if len(self.starts) != len(self.durations):
            return  # a signal arrived inside a sample
        # collections triggered by the chunk's allocations would sweep
        # pavc's objects too; with collection off, that cost stays in
        # pavc's time instead of being counted as the chunk's
        was = gc.isenabled()
        gc.disable()
        start = perf_counter()
        self.starts.append(start)
        self.chunk()
        self.durations.append(perf_counter() - start)
        if was:
            gc.enable()

    def start(self) -> None:
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float) -> float:
        """Seconds of [start, end) outside the chunks, at nominal speed."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        own = sum(self.durations[lo:hi])
        near = self.durations[bisect_left(self.starts, start - WINDOW_S):
                              bisect_left(self.starts, end + WINDOW_S)]
        if not near:
            near = self.durations[max(0, lo - 1):lo + 1]
        return (end - start - own) * NOMINAL_S / statistics.fmean(near)
