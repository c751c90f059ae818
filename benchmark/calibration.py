"""Machine-speed calibration for the timed metrics.

The benchmark was written on a 2-vCPU VM of a shared host whose CPU
speed drifts: the same task took 0.25 s in one minute and 0.45 s a few
minutes later, with CPU time equal to wall time (no steal).  Wall times
of one run are therefore scaled to a reference speed.  calibrate()
times one pass of a fixed pure-Python kernel, built from what the CDCL
hot path does (method calls, attribute and list access, small-int
arithmetic), right next to the work it calibrates and in the same
process: the two vCPUs can run at different speeds.  A wall time w
measured where the kernel took c seconds is reported as
w * REFERENCE_S / c, with c the mean of the passes just before and
just after it; wider windows of passes followed the drift worse.

The kernel is benchmark code, so a change to rulesat cannot move it:
a program that gets 10% slower reads 10% slower at any machine speed.
"""

from __future__ import annotations

import time

# median kernel time on the machine the baseline was measured on
REFERENCE_S = 0.0060


class _Cells:
    __slots__ = ("cells",)

    def __init__(self):
        self.cells = [0] * 64

    def step(self, i: int) -> int:
        j = i & 63
        v = self.cells[j] ^ i
        self.cells[j] = v & 1023
        return v & 1


def _kernel() -> int:
    state = _Cells()
    acc = 0
    for i in range(25000):
        if state.step(i):
            acc += 1
        if state.cells[(i * 7) & 63] > 500:
            acc -= 1
    return acc


def calibrate() -> float:
    """Seconds one pass of the kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scaled(wall: float, kernel: float) -> float:
    """wall seconds measured where a kernel pass took kernel seconds, at reference speed."""
    return wall * REFERENCE_S / kernel
