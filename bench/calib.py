"""Host-speed calibration: a fixed piece of work timed next to every job.

The machines this benchmark runs on are shared, and their speed drifts by
up to 2x in spells of seconds to minutes, as other tenants come and go.
Two things slow a job down there.  Time slices taken by other work add
wall time but no CPU time, so every time in this benchmark is the CPU time
of the thread that does the work.  A slower core (a busy sibling thread,
a lower clock, shared caches) adds CPU time too.  So the worker also times
this kernel, which never changes and imports nothing of the program, right
before and after each job and every TICK_S of CPU time inside it, and the
latencies are reported at the reference speed: a job that took `t` CPU
seconds while the kernel took `c` CPU seconds is reported as
`t * REFERENCE_S / c`.  A program change moves the job's time and not the
kernel's, so it shows in full; a slow spell of the host moves both alike.

The kernel is the program's staple work in miniature: a sparse product of
two polynomials stored as dicts from exponent tuples to Fraction
coefficients, products of rationals with numerators and denominators of a
few hundred digits, as Groebner bases produce, and the build of a dict of a
few thousand tuple keys, which reaches past the first-level caches as the
program's larger polynomials do.  With all three, the kernel's time moved
with the jobs' time across the host's fast and slow spells at a ratio near
1 (0.88 to 1.05 on four prolong-search jobs; the polynomial product alone
gave 0.7 to 0.9, so it over-corrected).  The cyclic garbage collector is off
while the kernel runs, so that the program's heap cannot make it slower.
"""

import gc
import time
from fractions import Fraction

# Kernel time at the reference speed (about its median on a quiet 2-vCPU
# x86-64 VM with Python 3.11); reported times are seconds at that speed.
REFERENCE_S = 1.0e-3
# CPU time between two samples taken inside a running job.
TICK_S = 0.025

_P = tuple(((i, j), Fraction(i + 1, j + 2)) for i in range(3) for j in range(3))
_Q = tuple(((i, j), Fraction(2 * j + 1, i + 3)) for i in range(3) for j in range(3))
_BIG = tuple(Fraction(3**200 + i, 7**150 + 2 * i) for i in range(24))


def _kernel():
    acc = {}
    for (a0, a1), ca in _P:
        for (b0, b1), cb in _Q:
            key = (a0 + b0, a1 + b1)
            acc[key] = acc.get(key, 0) + ca * cb
    total = 0
    for i in range(0, len(_BIG), 2):
        total += _BIG[i] * _BIG[i + 1]
    table = {}
    for i in range(2000):
        table[(i, i % 13)] = i
    return acc, total, table


def sample():
    """CPU seconds one run of the kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.thread_time()
        _kernel()
        return time.thread_time() - started
    finally:
        if enabled:
            gc.enable()
