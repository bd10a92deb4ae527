"""Machine-speed reference: scales measured times to a steady machine.

On the shared 2-vCPU machine the benchmark was written on, the speed of
pure-Python code changed by up to 2x from one stretch of seconds to the
next, and a whole 24 s run could be 40% slower than the one before it.  So
the time metrics of two runs differed more from the machine than from the
seed or the code.

A run therefore times a fixed piece of pure-Python work, ``reference``,
before its first input and after each CHUNK_S of input time, and scales the
time of each input by REF_S / (the mean of the reference times just before
and just after its chunk).  A scaled time is the time the input would have
taken while the reference took REF_S.  rowlab plays no part in the
reference, so a change to rowlab moves the scaled times as it moves the
measured ones.  The reference runs with the cyclic garbage collector off,
so the size of rowlab's heap does not change what it measures.
"""

from __future__ import annotations

import gc
import time

REF_S = 0.0005  # what the reference took on that machine in a fast stretch
CHUNK_S = 0.2
REPEATS = 3  # the reference takes the fastest of these


def _tree(n: int):
    return ("leaf", n) if n < 2 else ("node", _tree(n - 1), _tree(n - 2))


def _show(t) -> str:
    return str(t[1]) if t[0] == "leaf" else f"({_show(t[1])} {_show(t[2])})"


def reference() -> float:
    """Seconds the fixed work takes now (the fastest of REPEATS)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            seen = {}
            for i in range(2):
                text = _show(_tree(13))
                seen[text[:20] + str(i)] = len(text)
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def factor(before: float, after: float) -> float:
    """What to multiply a time measured between two references by."""
    return REF_S / ((before + after) / 2)
