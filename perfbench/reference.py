"""Host-speed reference: a fixed pure-Python task timed between operations.

The speed of a shared host can change by half within tens of seconds,
and the program's run time changes with it. The benchmark therefore
runs this task, in a child process of its own, before the first timed
operation and after each block of operations (one operation, or a few
seconds of them run back to back), and scales every wall time of the
run to a fixed host speed:

    scaled = wall * REFERENCE_S / median(reference times of the run)

The host is noisy at short time scales too, so one reference time can
be off by half; the median over the run is not. REFERENCE_S is about
the task's shortest wall time on the reference machine (2 cores,
Python 3.11.7), so scaled times read as wall times on a host that runs
the task in REFERENCE_S. The task does the kind of work the program
does (CSV text, floats, dicts, sorting), always the same amount, and
imports nothing from the package, so no change to the program moves it.

    python3 perfbench/reference.py
"""

from __future__ import annotations

import csv
import io
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

REFERENCE_S = 0.265
ROWS = 35_000
TIMEOUT_S = 60.0


def work() -> int:
    rng = random.Random(0)
    buf = io.StringIO()
    writer = csv.writer(buf)
    for i in range(ROWS):
        region = f"R{i % 1344:04d}"
        writer.writerow([f"{region}_L{i}", region, repr(rng.uniform(200.0, 20_000.0)),
                         repr(rng.uniform(0.1, 50.0))])
    buf.seek(0)
    density: dict[str, list[float]] = {}
    for _id, region, population, area in csv.reader(buf):
        density.setdefault(region, []).append(float(population) / float(area))
    return len(sorted((sum(v), k) for k, v in density.items()))


def run_reference() -> float:
    """Wall time of the task in a fresh child process, spawn to exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve())], check=True,
                   stdout=subprocess.DEVNULL, timeout=TIMEOUT_S)
    return time.perf_counter() - start


class HostClock:
    """Reference times taken between the operations of one run."""

    def __init__(self):
        self.samples = [run_reference()]

    def sample(self) -> None:
        """Call right after each block of operations."""
        self.samples.append(run_reference())

    def factor(self) -> float:
        """The factor that scales the run's wall times."""
        return REFERENCE_S / statistics.median(self.samples)


if __name__ == "__main__":
    work()
