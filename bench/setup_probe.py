"""Print the seconds a fresh interpreter takes to set up one workload:
import the package and build the workload's inputs.

Usage: python3 bench/setup_probe.py WORKLOAD SEED   (src/ on PYTHONPATH)
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports numideal: part of set-up)

workloads.build(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - t0)
