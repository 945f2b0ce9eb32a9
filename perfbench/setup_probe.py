"""One workload set-up in a fresh interpreter, for run.py's setup_s.

Prints time.monotonic() once the set-up is done; run.py subtracts the
monotonic time at which it spawned this process (the clock is
system-wide on Linux), so the parent's wait adds nothing to the sample.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <smoke 0|1>
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs src on the path)

workloads.prepare(sys.argv[1], int(sys.argv[2]), smoke=sys.argv[3] == "1")
print(repr(time.monotonic()))
