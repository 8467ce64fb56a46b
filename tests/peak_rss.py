"""Peak memory of million-row outputs, which are written in chunks.

Runs a 1e6-point `qprop force --grid` and a 1e6-draw `qprop sample` as child
processes, in JSON and in CSV, with their output discarded, and reads each
child's peak resident set size with os.wait4 (Linux, where ru_maxrss is in
KiB). Exits 1 if a call fails or peaks above LIMIT_MB.

    PYTHONPATH=src python3 tests/peak_rss.py
"""
from __future__ import annotations

import os
import subprocess
import sys
import time

LIMIT_MB = 120

CALLS = {
    "force": ["force", "--mean-price", "1.0", "--sigma", "0.25", "--gamma", "1.0",
              "--grid", "0.5:2.0:1000000"],
    "sample": ["sample", "--trials", "1000000", "--buyer-mean-price", "1.05",
               "--buyer-sigma", "0.1", "--seller-mean-price", "0.95",
               "--seller-sigma", "0.1", "--seed", "3"],
}


def peak(argv: list[str]) -> tuple[int, float, float]:
    """(exit code, peak RSS in MB, wall seconds) of one qprop child."""
    start = time.perf_counter()
    with open(os.devnull, "w") as sink:
        child = subprocess.Popen([sys.executable, "-m", "qprop", *argv], stdout=sink)
        _, status, usage = os.wait4(child.pid, 0)
    return (os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024,
            time.perf_counter() - start)


def main() -> int:
    failed = False
    for name, argv in CALLS.items():
        for output in ("json", "csv"):
            code, mb, seconds = peak([*argv, "--output", output])
            bad = code != 0 or mb > LIMIT_MB
            failed |= bad
            print(f"{name} {output}: exit {code}, peak {mb:.1f} MB, {seconds:.2f} s"
                  + ("  FAIL" if bad else ""))
    print(f"limit {LIMIT_MB} MB: {'failed' if failed else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
