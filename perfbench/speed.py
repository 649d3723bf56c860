"""Machine-speed reference, sampled through each pass.

On a shared host the speed this process gets swings by up to a factor of two,
as other tenants' load comes and goes; CPU time swings with wall time, so the
guest cannot tell. A fixed reference computation slows down the same way. It
is timed after every measured call, a number of times proportional to the
call's length (so its samples are spread evenly over the pass's time), and

    corrected = measured * REFERENCE_S / mean(reference timings of the pass)

is a time at one fixed machine speed: the speed at which the reference takes
REFERENCE_S. The reference is benchmark code (exact Gaussian elimination with
``fractions.Fraction``, as the program does), so no change to the program
changes it. Raw times are reported alongside.
"""

import gc
from fractions import Fraction
from time import perf_counter

# The reference's fastest time on a 2.1 GHz Xeon (Sapphire Rapids) KVM vCPU, Python 3.11.7.
REFERENCE_S = 0.0007

_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(7)] for i in range(6)]


def _eliminate():
    m = [row[:] for row in _MATRIX]
    r = 0
    for c in range(7):
        p = next((i for i in range(r, 6) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(6):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == 6:
            break


def reference():
    """One timing of the reference computation, in seconds.

    The collector is paused meanwhile, so the size of the program's heap does
    not leak into the reference.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _eliminate()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Reference timings collected over one pass."""

    def __init__(self):
        self.refs = []

    def sample(self, after_seconds):
        """Time the reference once per 20 ms of the call just made (1 to 50 times)."""
        for _ in range(max(1, min(50, round(after_seconds / 0.02)))):
            self.refs.append(reference())

    def factor(self):
        """Multiply a raw time by this to get it at the fixed speed."""
        return REFERENCE_S * len(self.refs) / sum(self.refs)
