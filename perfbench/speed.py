"""A probe of the machine's speed, to take its drift out of the timings.

The benchmark runs on shared machines whose processor speed moves by up to
1.7x for tens of seconds to minutes at a time, with the work unchanged
(thread CPU time moves with wall time, so it is not time taken by other
processes).  A run of 20 s cannot average that out, and no statistic over
one run can tell a slow program from a slow minute of the machine.

So the benchmark times a fixed pure-Python loop next to the program: before
every request it times (and after one that took LONG_REQUEST_S or more), and
right after each start it times.
A timing is reported at the reference speed, ``seconds * REFERENCE_S /
probe``: what it would read on a machine that runs the loop in REFERENCE_S.
The loop is the harness's own code, so a change to the program moves the
timings as before, while the machine's drift moves the probe and the timing
alike and cancels.
"""

from __future__ import annotations

from time import perf_counter

# a typical reading of the probe on the 2-vCPU machine the baseline was
# measured on; only the scale of the reported timings depends on it
REFERENCE_S = 0.0011
# a request this long is scaled by the mean of a probe before and one after it
LONG_REQUEST_S = 0.05
_LOOPS = 10000
_REPEATS = 3


def _loop() -> int:
    acc = 0
    for i in range(_LOOPS):
        acc += i * i % 7
    return acc


def probe() -> float:
    """Seconds the fixed loop takes now: the best of a few repetitions."""
    best = float("inf")
    for _ in range(_REPEATS):
        t0 = perf_counter()
        _loop()
        best = min(best, perf_counter() - t0)
    return best


def at_reference(seconds: float, probe_s: float) -> float:
    return seconds * REFERENCE_S / probe_s
