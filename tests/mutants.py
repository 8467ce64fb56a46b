"""The mutation catalogue: each entry breaks the program in one place, and
names the tests that must then fail.

Run from the repository root:

    python3 tests/mutants.py

An entry is (file, old text, new text, pytest selection). Each old text must
occur exactly once in its file. Each mutant is applied alone to a copy of the
tree, with the other files as they are, and ``python -m pytest -x -q
SELECTION`` is run in that copy, with the copy's ``src`` on ``PYTHONPATH``,
no bytecode written and no plugin loaded by entry point. A mutant is killed
when its selection fails (pytest exit status 1). A mutant that survives, a
selection that does not run (any other status, or a run beyond TIMEOUT_S)
and an old text that is missing or occurs more than once are each reported,
and make the exit status 1. Standard library only.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                ".benchmarks")

CLI = "src/qprop/cli.py"
PROPENSITY = "src/qprop/propensity.py"
DECISION = "src/qprop/decision.py"
TEST_CLI = "tests/test_cli.py::"
CHILD_EXIT = TEST_CLI + "test_the_child_leaves_by_os_exit_on_every_path"

# The output stage: the forked formatter child, its pipe and the chunks, the
# interrupt and the number formats; where the two processes run; and the
# scale, pair and grid rules of the models.
MUTANTS = [
    # The child leaves by interpreter exit, or goes on as a second caller.
    (CLI, "os._exit(0)", "sys.exit(0)", CHILD_EXIT),
    (CLI, "os._exit(0)", "return", CHILD_EXIT),
    # The child is not reaped, or not killed while it formats.
    (CLI, "os.waitpid(pid, 0)", "pass",
     TEST_CLI + "test_split_output_is_byte_identical"),
    (CLI, "os.kill(pid, 9)", "pass",
     TEST_CLI + "test_a_parent_that_fails_early_kills_a_child_held_in_a_chunk"),
    # The child formats the chunks this process formats.
    (CLI, "chunks[1::2]", "chunks[0::2]",
     TEST_CLI + "test_chunked_writer_matches_per_value_route"),
    # The texts a child did not send are taken to be empty.
    (CLI, "next(texts, None)", 'next(texts, "")',
     TEST_CLI + "test_a_child_that_dies_leaves_the_output_whole"),
    # The read end of the pipe is left for its finalizer.
    (CLI, 'with open(read_fd, "rb") as stream:', 'for stream in [open(read_fd, "rb")]:',
     TEST_CLI + "test_no_pipe_end_outlives_a_split_call"),
    # An interrupt ends with a traceback, or with exit status 130.
    (CLI, "except KeyboardInterrupt:", "except ArithmeticError:",
     TEST_CLI + "test_an_interrupt_ends_a_process_with_one_line_and_sigint"),
    (CLI, "signal.raise_signal(signal.SIGINT)", "pass",
     TEST_CLI + "test_an_interrupt_ends_a_process_with_one_line_and_sigint"),
    # An odd number of chunks: the two processes format unequal shares.
    (CLI, "    count += count % 2 if count > 1 else 0\n", "",
     TEST_CLI + "test_spans_cut_an_even_number_of_equal_chunks"),
    # JSON numbers: an integer value without its .0, -0 kept as -0.0, and an
    # exponent cell (a subnormal's) left as %.12g wrote it.
    (CLI, 'bare = len(values) - text.count(".")', "bare = 0",
     TEST_CLI + "test_column_formatter_matches_per_value_route"),
    (CLI, "repr(float(cell) + 0.0)", "repr(float(cell))",
     TEST_CLI + "test_column_formatter_matches_per_value_route"),
    (CLI, 'for letter in "en":', 'for letter in "n":',
     TEST_CLI + "test_column_formatter_matches_per_value_route"),
    # The child stays on this thread's CPUs, or one CPU is asked to run two
    # processes.
    (CLI, "os.sched_setaffinity(0, cpus[len(cpus) // 2:])", "pass",
     TEST_CLI + "test_the_child_runs_on_the_upper_half_of_the_cpus"),
    (CLI, " and len(cpus) != 1", "", TEST_CLI + "test_one_cpu_runs_a_large_call_in_one_process"),
    # hbar defaults to 2; a buyer's fixed price is put on the seller side; a
    # point-mass joint reaches the grid; gamma loses its 0.5; the sampled
    # protocol reads B's rows for its columns.
    (PROPENSITY, "def from_oscillator(cls, omega: float = 1.0, hbar: float = 1.0)",
     "def from_oscillator(cls, omega: float = 1.0, hbar: float = 2.0)",
     TEST_CLI + "test_printed_gamma_is_the_given_or_the_oscillator_scale"),
    (CLI, 'fixed = "seller" if "buyer" in curves else "buyer"',
     'fixed = "buyer" if "buyer" in curves else "seller"',
     TEST_CLI + "test_buyer_fixed_price_is_the_buyer_point_mass"),
    (CLI, 'if model == "joint" and grid is not None and any(', "if False and any(",
     TEST_CLI + "test_point_mass_joint_grid_exits_2"),
    (PROPENSITY, '_fit("gamma", 0.5 * self.hbar * self.omega)',
     '_fit("gamma", self.hbar * self.omega)',
     "tests/test_acceptance.py::test_criterion_7_oscillator_closure"),
    (DECISION, "(b11, b21), (b12, b22)", "(b11, b12), (b21, b22)",
     "tests/test_kernels.py::test_second_measurement_weighs_the_column_of_the_first_outcome"),
]


def stale(root: Path, mutants: list) -> list[str]:
    """Each entry whose old text does not occur exactly once under root."""
    found = []
    for file, old, _, _ in mutants:
        count = (root / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            found.append(f"{file}: {old!r} occurs {count} times")
    return found


def survivors(root: Path, mutants: list) -> list[str]:
    """Each mutant that its selection does not kill, in a copy of root; a
    line is printed for every mutant as it is run."""
    found = []
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(root, tree, ignore=IGNORE)
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1",
               "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
        for file, old, new, selection in mutants:
            path = tree / file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(old, new), encoding="utf-8")
            start = time.perf_counter()
            try:
                status = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                     *selection.split()], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                status = "timeout"
            finally:
                path.write_text(text, encoding="utf-8")
            outcome = {0: "survived", 1: "killed"}.get(status, f"did not run ({status})")
            seconds = time.perf_counter() - start
            line = f"{outcome:<20} {seconds:6.1f} s  {file}: {old!r} -> {new!r}"
            print(line, flush=True)
            if status != 1:
                found.append(line)
    return found


def main() -> int:
    start = time.perf_counter()
    found = stale(ROOT, MUTANTS) or survivors(ROOT, MUTANTS)
    for line in found:
        print("ERROR", line)
    print(f"{len(MUTANTS)} mutants, {len(found)} errors, {time.perf_counter() - start:.1f} s")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
