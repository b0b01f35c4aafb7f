"""Time one fresh interpreter's way to ready: import the CLI, parse the inputs.

    python3 bench/setup_probe.py <src dir> <problem file>...

Prints the CPU seconds this takes and, after them, the median time of the
calibration kernel (calib.py) run right afterwards, so that the caller can
report the set-up time at the reference speed.  This is the set-up every
CLI invocation pays before its command runs; interpreter start-up itself is
not counted.
"""

import sys
import time

started = time.thread_time()
sys.path.insert(0, sys.argv[1])
import delta_kernel.cli  # noqa: E402,F401
from delta_kernel.parser import parse_system  # noqa: E402

for path in sys.argv[2:]:
    with open(path, "r", encoding="utf-8") as fh:
        parse_system(fh.read())
elapsed = time.thread_time() - started

import statistics  # noqa: E402

import calib  # noqa: E402

samples = [calib.sample() for _ in range(12)][3:]
print(repr(elapsed), repr(statistics.median(samples)))
