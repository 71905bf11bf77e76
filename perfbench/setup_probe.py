"""Time one fresh set-up: import, input generation and parsing.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <size>

Prints the wall seconds and the same time at the calibration reference
speed as its last line.  The benchmark runs this in new processes so
that import time is measured cold each time.
"""

import shutil
import sys
import tempfile
import time
from pathlib import Path

START = time.perf_counter()

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibration import reference_seconds  # noqa: E402


def main() -> int:
    name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=HERE / ".work"))
    try:
        workloads.prepare(name, seed, workdir, size)
        wall = time.perf_counter() - START
        print(wall, reference_seconds(wall))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
