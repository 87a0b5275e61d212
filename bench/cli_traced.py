"""Run the numideal command line with the benchmark's tracer installed.

Usage: python3 bench/cli_traced.py SPANS_JSON ARGS...   (src/ on PYTHONPATH)

Runs `numideal ARGS...`, writes the recorded spans and the time to import
numideal.cli to SPANS_JSON, and exits with the command's exit code.
"""

import sys
import time

from tracer import Tracer

t0 = time.perf_counter()
import numideal.cli  # noqa: E402

import_ms = (time.perf_counter() - t0) * 1e3
tracer = Tracer()
tracer.install()
try:
    code = numideal.cli.main(sys.argv[2:])
finally:
    tracer.dump(sys.argv[1], import_ms=import_ms)
sys.exit(code)
