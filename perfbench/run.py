#!/usr/bin/env python3
"""qprop benchmark: one seeded workload per run, end to end or traced.

Run from the root of a qprop checkout:

    python3 perfbench/run.py --workload grid_render --seed 1 --seconds 40 --trace 0

Load model: a closed loop with one client. Each operation starts only after
the previous one has exited, and at most one child process runs at a time.
A CLI operation is one ``python -m qprop ...`` child timed from spawn to
exit, with its peak RSS from ``os.wait4``; a library operation is a batch
of public-function calls in a fresh child interpreter. Every operation runs
several times in a run and counts with its mean time, scaled to the
machine's full speed by a reference loop timed between operations. Every
output is checked against closed forms (see checks.py) and a failed check
counts the operation as failed.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the same operations in process with span wrappers
around the layers' public functions and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat each metric with its sample count, the exact work counts and the
environment. The exit code is 0 only when every check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 9
STARTUP_RUNS = 7
CHILD_TIMEOUT_S = 150.0
# The reference loop timed between operations, and its time at the full speed of the
# machine the benchmark was tuned on (an Intel Xeon vCPU under KVM, Python 3.11).
REFERENCE_LOOPS = 200_000
REFERENCE_S = 0.012

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "qubits.random_unitary_2x2.calls": "count",
    "qubits.random_unitary_2x2.self_s": "s",
    "qubits.apply.calls": "count",
    "qubits.apply.self_s": "s",
    "qubits.tensor.self_s": "s",
    "qubits.rotation_gate.self_s": "s",
    "qubits.probabilities.self_s": "s",
    "qubits.measure_collapse.calls": "count",
    "qubits.measure_collapse.self_s": "s",
    "decision.equivalence_check.calls": "count",
    "decision.equivalence_check.self_s": "s",
    "decision.entangled_circuit.self_s": "s",
    "decision.sequential_measurement.self_s": "s",
    "decision.order_effect_circuit.calls": "count",
    "decision.order_effect_circuit.self_s": "s",
    "decision.order_effect_summary.self_s": "s",
    "decision.sequential_measurement_sampled.self_s": "s",
    "decision.interference_term.self_s": "s",
    "propensity.density.points": "count",
    "propensity.density.self_s": "s",
    "propensity.entropic_force.self_s": "s",
    "propensity.sample_prices.draws": "count",
    "propensity.sample_prices.self_s": "s",
    "propensity.joint_propensity.calls": "count",
    "cli.main.self_s": "s",
    "cli.rows_out": "count",
    "cli.bytes_out": "bytes",
    "cli.build_parser.self_s": "s",
    "cli.load_config.self_s": "s",
    "cli.exit_unexpected": "count",
    "startup.interpreter_ms": "ms",
    "startup.import_ms": "ms",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


class ChildFailed(Exception):
    """A set-up or probe child exited non-zero; the run cannot be measured."""


def child_env() -> dict:
    env = {key: value for key, value in os.environ.items()
           if key not in ("QPROP_SEED", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list, cwd: Path, stdout: Path, stderr: Path):
    """Run one child to exit: (seconds from spawn to exit, peak RSS in KiB, exit code)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss, proc.returncode


def spawn_checked(argv: list, workdir: Path) -> float:
    elapsed, _, code = spawn(argv, workdir, workdir / "child.out", workdir / "child.err")
    if code != 0:
        raise ChildFailed(f"{' '.join(argv[1:])} exited {code}: "
                          f"{(workdir / 'child.err').read_text(errors='replace')[-2000:]}")
    return elapsed


def run_setup(args, workdir: Path) -> float:
    """Seconds from spawn to exit of one set-up child."""
    return spawn_checked([sys.executable, str(HERE / "child.py"), "setup", "--workload",
                          args.workload, "--seed", str(args.seed), "--size", args.size,
                          "--workdir", str(workdir)], workdir)


def run_op(op: workloads.Op, workdir: Path):
    """(latency s, peak RSS KiB, failure reason or None, rows, bytes) of one operation."""
    stdout, stderr = workdir / "op.out", workdir / "op.err"
    if op.kind == "batch":
        argv = [sys.executable, str(HERE / "child.py"), "batch", *op.argv]
    else:
        argv = [sys.executable, "-m", "qprop", *op.argv]
    written_path = workdir / op.out_file if op.out_file else None
    if written_path is not None and written_path.exists():
        written_path.unlink()
    elapsed, rss, code = spawn(argv, workdir, stdout, stderr)
    out_text = stdout.read_text(encoding="utf-8", errors="replace")
    err_text = stderr.read_text(encoding="utf-8", errors="replace")
    if op.kind == "batch":
        if code != 0 or "Traceback" in err_text:
            return elapsed, rss, f"batch exited {code}: {err_text[-300:]}", 0, 0
        try:
            reason = checks.check_batch(op, json.loads(out_text))
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"unreadable batch result: {exc}"
        return elapsed, rss, reason, 0, 0
    written = None
    if written_path is not None and written_path.exists():
        written = written_path.read_text(encoding="utf-8")
    reason, rows = checks.check_cli(op, code, out_text, err_text, written)
    nbytes = checks.output_bytes(out_text) + (checks.output_bytes(written) if written else 0)
    return elapsed, rss, reason, rows, nbytes


def quantile(values: list, q: float) -> float:
    """Quantile of ``values``, interpolated between the midpoints of equal weights."""
    values = sorted(values)
    pos = q * len(values) - 0.5
    if pos <= 0:
        return values[0]
    if pos >= len(values) - 1:
        return values[-1]
    lo = int(pos)
    return values[lo] + (values[lo + 1] - values[lo]) * (pos - lo)


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop in this process."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def measure(wl: workloads.Workload, workdir: Path, seconds: float, setup) -> dict:
    """Cycle through the workload's operations for ``seconds``, at least one whole pass.

    The machine's speed drifts by up to 1.5x over seconds to minutes, so
    every time is scaled to the machine's full speed: the reference loop
    runs after each operation, and the times are multiplied by
    ``REFERENCE_S`` over the reference loop's mean time in this run. The
    run covers its whole window instead of stopping at a pass boundary,
    and each operation counts with its mean time, so every operation of
    the pass weighs the same however often the cut let it run. Set-up
    samples are spread over the same window.
    """
    n = len(wl.ops)
    latencies = [[] for _ in range(n)]
    written = [None] * n
    rss, failures, setups, refs = [], [], [setup()], []
    start = time.perf_counter()
    deadline = start + seconds
    setup_every = seconds / SETUP_RUNS
    i = 0
    while i < n or time.perf_counter() < deadline:
        k = i % n
        op = wl.ops[k]
        elapsed, peak, reason, rows, nbytes = run_op(op, workdir)
        latencies[k].append(elapsed)
        rss.append(peak)
        refs.append(reference_loop())
        if written[k] is None:
            written[k] = (rows, nbytes)
        elif written[k] != (rows, nbytes) and not reason:
            reason = f"wrote {rows} rows and {nbytes} bytes, earlier {written[k]}"
        if reason:
            failures.append(f"op {k} ({' '.join(op.argv)[:120]}): {reason}")
        i += 1
        if len(setups) < SETUP_RUNS and time.perf_counter() - start >= len(setups) * setup_every:
            setups.append(setup())
    scale = REFERENCE_S / statistics.fmean(refs)
    means = [statistics.fmean(ts) for ts in latencies]
    repeats = f"each of the {n} operations run {min(map(len, latencies))} to " \
              f"{max(map(len, latencies))} times, {i} in all"
    p50, p90 = quantile(means, 0.5), quantile(means, 0.9)
    return {
        "attempted": i,
        "failed": len(failures),
        "failures": failures,
        "counts": {"rows": sum(r for r, _ in written), "bytes": sum(b for _, b in written)},
        "samples": {"latency_s": latencies, "setup_s": setups, "reference_s": refs},
        "header": f"times scaled by {scale:.4f}: reference loop {REFERENCE_S * 1000:g} ms at "
                  f"full speed, mean {1000 * REFERENCE_S / scale:.3f} ms over {len(refs)} "
                  f"in this run; unscaled: items_per_s {wl.items / sum(means):.6g}, "
                  f"call_p50_ms {1000 * p50:.6g}, call_p90_ms {1000 * p90:.6g}",
        "metrics": {
            "setup_s": (scale * statistics.median(setups),
                        f"median of {len(setups)} spread over the run"),
            "items_per_s": (wl.items / (scale * sum(means)),
                            f"{wl.items} items per pass over the sum of the operations' mean "
                            f"times; {repeats}"),
            "call_p50_ms": (1000.0 * scale * p50, f"over the mean times of n={n} operations"),
            "call_p90_ms": (1000.0 * scale * p90, f"n={n}, {sum(t > p90 for t in means)} beyond"),
            "peak_rss_mb": (max(rss) / 1024.0, f"largest of {len(rss)} operation children"),
        },
    }


def startup_probes(workdir: Path) -> dict:
    bare, imported = [], []
    for _ in range(STARTUP_RUNS):
        bare.append(spawn_checked([sys.executable, "-c", "pass"], workdir))
        imported.append(spawn_checked([sys.executable, "-c", "import qprop.cli"], workdir))
    interpreter = statistics.median(bare)
    return {"startup.interpreter_ms": (1000.0 * interpreter, f"median of {STARTUP_RUNS}"),
            "startup.import_ms": (1000.0 * (statistics.median(imported) - interpreter),
                                  f"median of {STARTUP_RUNS}, less the bare interpreter")}


def traced(args, workdir: Path, seconds: float) -> dict:
    report_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
    spawn_checked([sys.executable, str(HERE / "child.py"), "trace", "--workload", args.workload,
                   "--seed", str(args.seed), "--size", args.size, "--workdir", str(workdir),
                   "--seconds", repr(seconds), "--report", str(report_path),
                   "--spans", str(spans_path)], workdir)
    report = json.loads(report_path.read_text(encoding="utf-8"))
    metrics = {name: (value, "") for name, value in report["layers"].items()}
    metrics["trace.overhead_frac"] = (
        report["layers"]["trace.overhead_frac"],
        f"median of {len(report['traced_pass_s'])} traced against "
        f"{len(report['untraced_pass_s'])} untraced in-process passes")
    return {"metrics": metrics, "failures": report["failures"], "failed": report["failed"],
            "header": f"per-layer figures cover the traced set-up warm-up and one pass; "
                      f"{report['spans']} spans in {spans_path.name}",
            "attempted": report["attempted"],
            "counts": {"rows": report["layers"]["cli.rows_out"],
                       "bytes": report["layers"]["cli.bytes_out"]}}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": git_commit(), "workload": args.workload, "seed": args.seed,
            "size": args.size, "trace": bool(args.trace), "seconds": args.seconds}


def main() -> int:
    parser = argparse.ArgumentParser(description="qprop benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    args = parser.parse_args()
    if not (ROOT / "src" / "qprop" / "cli.py").is_file():
        print(f"perfbench: no qprop source at {ROOT / 'src' / 'qprop'}; "
              "run from the root of a qprop checkout", file=sys.stderr)
        return 2

    wl = workloads.build(args.workload, args.seed, args.size)
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            run_setup(args, workdir)
            start = time.perf_counter()
            probes = startup_probes(workdir)
            result = traced(args, workdir, args.seconds - (time.perf_counter() - start))
            result["metrics"].update(probes)
            wanted = PER_LAYER
        else:
            result = measure(wl, workdir, args.seconds, lambda: run_setup(args, workdir))
            wanted = END_TO_END
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    counts = {**wl.input_counts(), **result["counts"]}
    env = environment(args)
    metrics = {name: {"value": result["metrics"][name][0], "unit": unit}
               for name, unit in wanted.items()}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}")
    print("environment " + json.dumps(env))
    print("counts per pass " + json.dumps(counts))
    if "header" in result:
        print(result["header"])
    for name, unit in wanted.items():
        value, note = result["metrics"][name]
        print(f"  {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"  failed_frac = {failed / attempted:.6g} ratio  ({failed} of {attempted} operations)")
    for failure in result["failures"][:20]:
        print(f"FAILED {failure}")
    OUT.mkdir(exist_ok=True)
    report = {"environment": env, "counts": counts, "metrics": metrics,
              "notes": {name: result["metrics"][name][1] for name in wanted},
              "failed_frac": {"value": failed / attempted, "failed": failed,
                              "attempted": attempted},
              "failures": result["failures"][:20], "samples": result.get("samples")}
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
