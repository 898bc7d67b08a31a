"""Reference kernel that tracks how fast the machine runs at the moment.

On a shared virtual machine the speed of the same code can change by a factor
of two for seconds at a time, as neighbours load the host.  The benchmark
therefore runs this fixed kernel between operations and scales each
operation's time by ``REFERENCE_S`` over the mean of the readings taken within
``WINDOW_S`` of the operation, always including those just before and after
it.  Averaging over neighbouring readings narrows the reading's own noise
(on a 2-vCPU VM that was steadily 1.6x slow, scaling by the two adjacent
two-run readings alone left a wider spread than no scaling), while the
window stays short against swings that last seconds.

The slowdown differs between the two vCPUs of the VM the benchmark was
defined on, so the kernel runs in the benchmark's own thread, which just ran
the operation.  (A helper process was tried: its readings correlated 0.2 with
in-thread ones, and scaling by them widened the spread instead of narrowing
it.)  State an operation leaves in the process must not slow the kernel, or
it would be divided away and never show as the program's time:

* before each reading the process waits until none of its threads uses CPU.
  OpenBLAS worker threads spin for about 135 ms after a threaded call;
  readings taken while something still runs after ``SETTLE_LIMIT_S`` are
  counted in ``Reference.unsettled``, which the run reports;
* a reading refuses to run while a profiling or tracing hook is installed.

The kernel is a plain Python integer loop followed by a small complex
Gram-Schmidt in numpy.  Over ten 20 s windows of the heavy workload, scaling
by the loop alone left a quartile spread of 7-10% in the per-case medians,
by the Gram-Schmidt alone 4-7%, and by both together 2-4% (unscaled: 20%).
A reading lasts about a tenth of the operation before it (at least two
kernel runs), so that it averages the machine's speed over a span that
grows with the operation it scales.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# Time of one kernel call on the machine the benchmark was defined on (2-vCPU
# x86-64 VM, CPython 3.11, numpy 2.4 with OpenBLAS) when uncontended.  Scaled
# times are in seconds at that speed.
REFERENCE_S = 0.0125

# Settling before a reading: CPU use is sampled over steps of SETTLE_STEP_S
# until one step uses under a tenth of it, for at most SETTLE_LIMIT_S.
SETTLE_STEP_S = 0.01
SETTLE_LIMIT_S = 0.5

# Readings this close to an operation (before its start or after its end) take
# part in its scale.
WINDOW_S = 1.0

# Kernel runs per reading: a READING_SHARE of the preceding operation's time,
# within [MIN_CALLS, MAX_CALLS].
READING_SHARE = 0.1
MIN_CALLS = 2
MAX_CALLS = 20

_LOOP = 100_000


# numpy is imported on first use, so that importing this module before the
# set-up timer starts does not take numpy's import out of set-up time.
@functools.cache
def _vectors():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.standard_normal((48, 64)) + 1j * rng.standard_normal((48, 64))


def _kernel() -> None:
    import numpy as np

    total = 0
    for i in range(_LOOP):
        total += i * i
    basis: list = []
    for v in _vectors():
        r = v.copy()
        for _ in range(2):
            for q in basis:
                r = r - (q.conj() @ r) * q
        norm = np.linalg.norm(r)
        if norm > 1e-9:
            basis.append(r / norm)


def settle() -> bool:
    """Wait until no thread of this process uses CPU; False if one still does."""
    deadline = time.perf_counter() + SETTLE_LIMIT_S
    while time.perf_counter() < deadline:
        cpu = time.process_time()
        time.sleep(SETTLE_STEP_S)
        if time.process_time() - cpu < 0.1 * SETTLE_STEP_S:
            return True
    return False


def calls_for(seconds: float) -> int:
    """Kernel runs of a reading after an operation of ``seconds``."""
    return max(MIN_CALLS, min(MAX_CALLS, round(READING_SHARE * seconds / REFERENCE_S)))


class Reference:
    """Readings of the reference kernel, and how many were taken unsettled."""

    def __init__(self):
        self.unsettled = 0

    def seconds(self, calls: int = MIN_CALLS) -> float:
        """Mean wall time of ``calls`` kernel runs, taken once the process is idle."""
        if sys.getprofile() is not None or sys.gettrace() is not None:
            raise RuntimeError("a profiling or tracing hook is installed")
        if not settle():
            self.unsettled += 1
        start = time.perf_counter()
        for _ in range(calls):
            _kernel()
        return (time.perf_counter() - start) / calls


def window_scales(readings, intervals, window: float = WINDOW_S) -> list[float]:
    """Scale of each operation from the readings around it.

    ``readings`` holds ``(time, seconds)`` pairs, one taken before the first
    operation and one after each; ``intervals`` the ``(start, end)`` times of
    the operations.
    """
    scales = []
    for i, (start, end) in enumerate(intervals):
        near = [
            seconds
            for j, (at, seconds) in enumerate(readings)
            if j in (i, i + 1) or start - window <= at <= end + window
        ]
        scales.append(REFERENCE_S / statistics.fmean(near))
    return scales


def scale(before: float, after: float) -> float:
    """Factor from wall time to time at reference speed."""
    return REFERENCE_S / ((before + after) / 2.0)
