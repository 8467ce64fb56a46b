"""Child interpreters of the benchmark.

    child.py setup --workload W --seed S --size Z --workdir D
        import qprop and qprop.cli, warm up every traced layer function
        once, and write the workload's config files into D
    child.py batch CONFIG
        run the circuit library batch described by CONFIG and print its
        results as JSON
    child.py trace --workload W --seed S --size Z --workdir D --seconds T --report R --spans P
        run the workload in process with span wrappers installed, then
        alternate untraced and traced passes to measure the overhead

qprop is imported from the checkout's ``src`` directory.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import qprop  # noqa: E402
from qprop import cli, decision, propensity, qubits  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402

WARM_UP_CONFIG = "[run]\nmodel = oscillator\noutput = json\n\n[oscillator]\nsigma = 0.3\n"


def warm_up(workdir: str) -> None:
    """Call every traced layer function once."""
    rng = np.random.default_rng(0)
    a, b = qubits.random_unitary_2x2(rng), qubits.random_unitary_2x2(rng)
    qubits.probabilities(qubits.apply(qubits.tensor(a, b), qubits.initial_state(2)))
    qubits.measure_collapse(qubits.apply(qubits.rotation_gate(0.3), qubits.initial_state(1)), rng)
    decision.equivalence_check(a, b)
    decision.order_effect_summary(0.3, 0.2)
    decision.interference_term(0.3, 0.2)
    decision.sequential_measurement_sampled(a, b, 2, rng)
    curve = propensity.GaussianCurve(0.0, 0.3)
    propensity.entropic_force(curve, np.linspace(-0.1, 0.1, 3), propensity.EntropicScale.direct(1.0))
    propensity.density(curve, 0.1)
    propensity.sample_prices(propensity.joint_propensity(curve, propensity.GaussianCurve(0.1, 0.2)),
                             2, rng)
    config = os.path.join(workdir, "warm_up.ini")
    with open(config, "w", encoding="utf-8") as handle:
        handle.write(WARM_UP_CONFIG)
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["run", config]) != 0:
            raise RuntimeError("warm-up call of qprop.cli.main failed")


def run_batch(spec: dict) -> dict:
    """The circuit library batch: an order-effect grid and a sampled protocol."""
    grid = []
    for theta in spec["thetas"]:
        for phi in spec["phis"]:
            summary = decision.order_effect_summary(theta, phi)
            row = [getattr(m, key) for m in (summary.a_then_b, summary.b_then_a)
                   for key in ("a_yes", "a_no", "b_yes", "b_no")]
            grid.append(row + [decision.interference_term(theta, phi)])
    rng = np.random.default_rng(spec["unitary_seed"])
    gates = [qubits.random_unitary_2x2(rng) for _ in range(2)]
    dist = decision.sequential_measurement_sampled(
        gates[0], gates[1], spec["trials"], np.random.default_rng(spec["sample_seed"]))
    return {"grid": grid,
            "gates": [[[z.real, z.imag] for z in g.entries.ravel()] for g in gates],
            "sampled": [dist.p_yes_yes, dist.p_yes_no, dist.p_no_yes, dist.p_no_no]}


def _load_batch(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class PassResult:
    seconds: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)
    rows: int = 0
    bytes: int = 0
    unexpected: int = 0


def run_pass(wl: workloads.Workload, tracer: Tracer | None) -> PassResult:
    """One pass of the workload in this interpreter; only the calls are timed."""
    result = PassResult()
    for index, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op = index
        result.attempted += 1
        if op.kind == "batch":
            start = time.perf_counter()
            try:
                out = run_batch(_load_batch(op.argv[0]))
            except Exception:
                out = None
                reason = traceback.format_exc().strip().splitlines()[-1]
            result.seconds += time.perf_counter() - start
            if out is not None:
                reason = checks.check_batch(op, out)
        else:
            if op.out_file and os.path.exists(op.out_file):
                os.remove(op.out_file)
            stdout, stderr = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(list(op.argv))
            except Exception:
                code = None
                stderr.write(traceback.format_exc())
            result.seconds += time.perf_counter() - start
            written = None
            if op.out_file and os.path.exists(op.out_file):
                with open(op.out_file, encoding="utf-8") as handle:
                    written = handle.read()
            err = stderr.getvalue()
            if code != op.expect_exit or "Traceback" in err:
                result.unexpected += 1
            reason, rows = checks.check_cli(op, code, stdout.getvalue(), err, written)
            result.rows += rows
            result.bytes += checks.output_bytes(stdout.getvalue())
            result.bytes += checks.output_bytes(written) if written else 0
        if reason:
            result.failures.append(f"op {index} ({' '.join(op.argv)[:120]}): {reason}")
    return result


def trace(args) -> None:
    wl = workloads.build(args.workload, args.seed, args.size)
    os.chdir(args.workdir)
    deadline = time.perf_counter() + args.seconds
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    warm_up(".")
    warm_s = time.perf_counter() - start
    first = run_pass(wl, tracer)
    recorded = tracer.spans
    layers = {}
    for home, name, _, _ in TRACED:
        key = f"{home}.{name}"
        layers[f"{key}.calls"] = tracer.calls[key]
        layers[f"{key}.self_s"] = tracer.self_ns[key] / 1e9
    layers["propensity.density.points"] = tracer.work["propensity.density"]
    layers["propensity.sample_prices.draws"] = tracer.work["propensity.sample_prices"]
    layers["cli.rows_out"] = first.rows
    layers["cli.bytes_out"] = first.bytes
    layers["cli.exit_unexpected"] = first.unexpected
    layers["trace.wall_s"] = warm_s + first.seconds

    passes = [first]
    traced_s, untraced_s = [first.seconds], []
    while True:
        tracer.uninstall()
        pass_start = time.perf_counter()
        untraced = run_pass(wl, None)
        passes.append(untraced)
        untraced_s.append(untraced.seconds)
        now = time.perf_counter()
        if now + 2 * (now - pass_start) > deadline:
            break
        tracer.reset()
        tracer.install()
        traced = run_pass(wl, tracer)
        passes.append(traced)
        traced_s.append(traced.seconds)
    tracer.uninstall()
    layers["trace.overhead_frac"] = 1.0 - statistics.median(untraced_s) / statistics.median(traced_s)

    tracer.spans = recorded
    tracer.write_spans(args.spans)
    report = {"layers": layers, "traced_pass_s": traced_s, "untraced_pass_s": untraced_s,
              "attempted": sum(p.attempted for p in passes),
              "failed": sum(len(p.failures) for p in passes),
              "failures": [f for p in passes for f in p.failures][:20],
              "spans": len(recorded)}
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)


def setup(args) -> None:
    wl = workloads.build(args.workload, args.seed, args.size)
    warm_up(args.workdir)
    for name, text in wl.files.items():
        with open(os.path.join(args.workdir, name), "w", encoding="utf-8") as handle:
            handle.write(text)


def main() -> int:
    if not Path(qprop.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported qprop from {qprop.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("setup", "trace"):
        p = sub.add_parser(mode)
        p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
        p.add_argument("--workdir", required=True)
        if mode == "trace":
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--report", required=True)
            p.add_argument("--spans", required=True)
    sub.add_parser("batch").add_argument("config")
    args = parser.parse_args()
    if args.mode == "batch":
        json.dump(run_batch(_load_batch(args.config)), sys.stdout)
    elif args.mode == "setup":
        setup(args)
    else:
        trace(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
