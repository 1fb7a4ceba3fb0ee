"""Time one set-up in this fresh interpreter.

Set-up is ``import dehnsurg`` (numpy and mpmath included) plus loading and
validating the bundled corpus; for the ``ingest`` workload, whose op is the
loading, it is the import alone.  Prints the set-up time in seconds and,
taken just after it, the mean calibration kernel time in nanoseconds.

Usage: python3 bench/setup_probe.py WORKLOAD
"""

import time

_start = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dehnsurg  # noqa: E402

if sys.argv[1] != "ingest":
    dehnsurg.load_knots(dehnsurg.bundled_corpus_path())
_setup_s = time.perf_counter() - _start

import calibrate  # noqa: E402

calibrate.kernel_ns()
print(_setup_s, sum(calibrate.kernel_ns() for _ in range(5)) / 5)
