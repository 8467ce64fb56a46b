"""Peak memory of million-row outputs, which are written in chunks.

Runs a 1e6-point `qprop force --grid`, a 1e6-point `qprop joint --grid` (the
widest table) and a 1e6-draw `qprop sample` as child processes, in JSON and
in CSV, with their output discarded, and reads each child's peak resident set
size with os.wait4 (Linux, where ru_maxrss is in KiB). Each call runs twice:
as it is, and bound to one CPU (os.sched_setaffinity in the child before it
starts, where the platform has it), where no formatter child starts and one
process evaluates and formats the whole output. Exits 1 if a call fails or
peaks above LIMIT_MB.

    PYTHONPATH=src python3 tests/peak_rss.py
"""
from __future__ import annotations

import os
import subprocess
import sys
import time

LIMIT_MB = 64

CALLS = {
    "force": ["force", "--mean-price", "1.0", "--sigma", "0.25", "--gamma", "1.0",
              "--grid", "0.5:2.0:1000000"],
    "joint": ["joint", "--buyer-mean-price", "0.95", "--buyer-sigma", "0.2",
              "--seller-mean-price", "1.1", "--seller-sigma", "0.3", "--gamma", "1.0",
              "--grid", "0.8:1.25:1000000"],
    "sample": ["sample", "--trials", "1000000", "--buyer-mean-price", "1.05",
               "--buyer-sigma", "0.1", "--seller-mean-price", "0.95",
               "--seller-sigma", "0.1", "--seed", "3"],
}


def one_cpu() -> None:
    """Bind the calling process to the lowest CPU of its set."""
    os.sched_setaffinity(0, [min(os.sched_getaffinity(0))])


def peak(argv: list[str], preexec_fn=None) -> tuple[int, float, float]:
    """(exit code, peak RSS in MB, wall seconds) of one qprop child."""
    start = time.perf_counter()
    with open(os.devnull, "w") as sink:
        child = subprocess.Popen([sys.executable, "-m", "qprop", *argv], stdout=sink,
                                 preexec_fn=preexec_fn)
        _, status, usage = os.wait4(child.pid, 0)
    return (os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024,
            time.perf_counter() - start)


def main() -> int:
    failed = False
    placements = {"": None}
    if hasattr(os, "sched_setaffinity"):
        placements[", one CPU"] = one_cpu
    for placement, preexec_fn in placements.items():
        for name, argv in CALLS.items():
            for output in ("json", "csv"):
                code, mb, seconds = peak([*argv, "--output", output], preexec_fn)
                bad = code != 0 or mb > LIMIT_MB
                failed |= bad
                print(f"{name} {output}{placement}: exit {code}, peak {mb:.1f} MB, "
                      f"{seconds:.2f} s" + ("  FAIL" if bad else ""))
    print(f"limit {LIMIT_MB} MB: {'failed' if failed else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
