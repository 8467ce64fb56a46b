"""Run the same seeded qprop calls on a parent revision and on a working tree,
and report every call whose outcome differs.

Run from the repository root:

    python3 tests/differential.py                  # HEAD against the working tree
    python3 tests/differential.py HEAD~1 --cases 2000 --seed 15

The parent revision is exported with ``git archive`` into a temporary
directory. Each tree runs all calls in one child interpreter, in process
through ``qprop.cli.main``, from a working directory of its own that holds
the same config files. The calls cover all nine commands with ordinary,
extreme and malformed values, ``run`` configs (some not UTF-8), ``--out``
files, ``QPROP_SEED`` and the help and version calls. One call in
``LARGE_EVERY`` is a ``force`` or ``joint`` grid or a ``sample`` of
``CHUNK_ROWS`` rows, one more, or two to three times as many, so that the
two-process formatting of large outputs and its chunk seams are compared
too. A call's outcome is its exit code, stdout, stderr and ``--out`` file,
with the value of ``wall_time_ms`` masked; an exception that escapes
``main`` counts as exit ``"raised"``. The report counts calls by kind
(identical; stderr only; stdout, out file or exit code) and prints the first
few of each kind that differs. The exit code is 0 when every call is
identical.

With ``--bench PARENT`` it runs the benchmark instead, as a black box, on
an export of PARENT and on the working tree, in pairs that alternate which
side runs first:

    python3 tests/differential.py --bench HEAD --workload grid_render --pairs 10 \\
        --seed 2001 --out BENCH_20.json

Pair k runs ``perfbench/run.py --workload W --seed SEED+k --seconds 40
--trace 0`` from each tree's root, with ``PYTHONDONTWRITEBYTECODE=1``. The
working tree runs from a copy without its ``__pycache__`` directories and
dot-files, since Python reads a valid ``.pyc`` even when it writes none: so
neither side reads cached bytecode of its own modules, as in a fresh
checkout, and both read the standard library's. The out file keeps every
run's last-line JSON under ``runs`` and is rewritten
as each run ends, so an interrupted session loses no finished run; a later
call adds to it, one workload or more pairs at a time. Beside the runs it
holds, per workload and end-to-end metric of ``BENCHMARK.json``, each
side's median, quartiles (inclusive method) and runs over whole pairs, and
the number of pairs in which the change read better: the layout of
``BENCH_8.json``. The exit code is 0 when every run passed its checks.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_WALL_TIME = re.compile(r'"wall_time_ms": [-+0-9.eE]+')
SHOW = 5                                  # calls listed per kind

KINDS = ("identical", "stderr only", "stdout, out file or exit code")

FIXED_CALLS = [[], ["--help"], ["--version"], ["run", "--help"], ["entangle"],
               ["oscillator", "--sigma"], ["oscillator", "--sigma=--"]]

LARGE_EVERY = 250                         # one large call in this many
LARGE_MODELS = ("force", "joint", "sample")

SPECIAL = ["0", "-0.0", "nan", "inf", "-inf", "1e400", "5e-324", "1.7976931348623157e308"]
MALFORMED = ["", "abc", "1e", "0x10", "1,5", "--"]


def export(rev: str, dest: Path, repo: Path = ROOT) -> Path:
    """The tree of ``rev`` (a git revision of ``repo``), written under dest;
    returns its ``src`` directory."""
    tar = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)
    return dest / "src"


def _number(rng: random.Random, kind: str) -> str:
    roll = rng.random()
    if roll < 0.70:
        value = rng.uniform(0.05, 5.0)
        return repr(round(value if kind == "posfloat" or rng.random() < 0.6 else -value, 6))
    if roll < 0.85:                       # the whole float range, either sign
        value = 10.0 ** rng.uniform(-300.0, 300.0)
        return repr(value if rng.random() < 0.8 else -value)
    return rng.choice(SPECIAL if roll < 0.95 else MALFORMED)


def _value(rng: random.Random, spec, max_rows: int) -> str:
    if spec.kind in ("float", "posfloat"):
        return _number(rng, spec.kind)
    roll = rng.random()
    if spec.kind == "grid":
        if roll < 0.8:
            lo = rng.uniform(0.1, 2.0)
            return f"{lo:.6g}:{lo * rng.uniform(1.01, 5.0):.6g}:{rng.randint(2, 16)}"
        return rng.choice(["1:2", "a:b:3", "2:1:5", "1:2:1", "0:1:4", "1:inf:3",
                           f"1:2:{max_rows + 1}", f"1e-300:1e300:{rng.randint(2, 16)}"])
    if spec.kind == "choice":
        return rng.choice([*spec.choices, "xy"]) if roll < 0.95 else ""
    if spec.kind == "posint":             # trials: kept small, one past a cap refused
        if roll < 0.85:
            return str(rng.randint(1, 40))
        return rng.choice(["0", "-1", "2.5", "x", str(max_rows + 1)])
    if roll < 0.9:                        # int: the seed
        return str(rng.randrange(2 ** 32))
    return rng.choice(["-1", str(2 ** 70), "1.5", "x"])


PAIR = {f"{side}_{key}" for side in ("buyer", "seller")
        for key in ("mean_price", "sigma", "fixed_price")}


def _either_or(rng: random.Random, names: set) -> tuple:
    """(family, passed): the either-or parameters among names, and those of
    them a call passes. Most calls pass a valid buyer/seller pair (two
    curves, or one curve and the other side's fixed price) and exactly one of
    force's price and grid; the rest leave each to chance, as every other
    parameter is (an empty family)."""
    if rng.random() < 0.25:
        return set(), set()
    if PAIR <= names:
        fixed = rng.choice([None, "buyer", "seller"])
        curves = {f"{side}_{key}" for side in ("buyer", "seller") if side != fixed
                  for key in ("mean_price", "sigma")}
        return PAIR, curves | ({f"{fixed}_fixed_price"} if fixed else set())
    if {"price", "grid"} <= names:
        return {"price", "grid"}, {rng.choice(["price", "grid"])}
    return set(), set()


def _large_case(rng: random.Random, k: int, i: int, chunk_rows: int) -> dict:
    """The k-th large call, case number i: force, joint and sample in turn, at
    chunk_rows rows, one more and 2 to 3 times as many, in turn; JSON and CSV
    in turn, and every third and fourth of four calls by a config with --out.
    The fourth and fifth of five calls draw each number as a small call does
    half the time, from the whole float range and the special and malformed
    values too, and their grids span 1e-300 to 1e300 a quarter of the time,
    so that a call of many rows also fails: in a model, in the scan for
    values beyond the float range, or earlier."""
    model = LARGE_MODELS[k % 3]
    rows = (chunk_rows, chunk_rows + 1, 2 * chunk_rows + rng.randint(1, chunk_rows))[k // 3 % 3]
    output = ("json", "csv")[k % 2]
    extreme = k % 5 >= 3

    def price():
        if extreme and rng.random() < 0.5:
            return _number(rng, "posfloat")
        return f"{rng.uniform(0.5, 2.0):.6g}"

    def sigma():
        if extreme and rng.random() < 0.5:
            return _number(rng, "posfloat")
        return f"{rng.uniform(0.2, 0.5):.6g}"     # every grid point's density >= 1e-300

    grid = f"{rng.uniform(0.2, 0.8):.6g}:{rng.uniform(1.5, 3.0):.6g}:{rows}"
    if extreme and rng.random() < 0.25:
        grid = f"1e-300:1e300:{rows}"
    pair = {"buyer-mean-price": price(), "buyer-sigma": sigma(),
            "seller-mean-price": price(), "seller-sigma": sigma()}
    values = {"force": {"mean-price": price(), "sigma": sigma(), "gamma": price(), "grid": grid},
              "joint": {**pair, "gamma": price(), "grid": grid},
              "sample": {"trials": str(rows), **pair,
                         "seed": str(rng.randrange(2 ** 32))}}[model]
    if k % 4 < 2:
        flags = [(f"--{key}={value}",) if value.startswith("-") else (f"--{key}", value)
                 for key, value in values.items()]
        argv = [model, *(part for flag in flags for part in flag), "--output", output]
        return {"argv": argv, "env": {}, "files": {}}
    lines = ["[run]", f"model = {model}", f"output = {output}", f"[{model}]",
             *(f"{key} = {value}" for key, value in values.items())]
    path = f"cfg/{i}.ini"
    return {"argv": ["run", path, "--out", f"out/{i}.txt"], "env": {},
            "files": {path: ("\n".join(lines) + "\n").encode("utf-8")}}


def make_cases(n: int, seed: int) -> list:
    """``n`` seeded calls: each a dict of argv, env (extra variables) and files
    (config path to bytes, written into every tree's working directory)."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from qprop.cli import CHUNK_ROWS, COMMANDS, MAX_ROWS
    finally:
        sys.path.pop(0)
    rng = random.Random(seed)
    cases = [{"argv": argv, "env": {}, "files": {}} for argv in FIXED_CALLS]
    cases += [{"argv": [model, "--help"], "env": {}, "files": {}} for model in COMMANDS]
    while len(cases) < n:
        i = len(cases)
        if i % LARGE_EVERY == LARGE_EVERY - 1:
            cases.append(_large_case(rng, i // LARGE_EVERY, i, CHUNK_ROWS))
            continue
        model = rng.choice(list(COMMANDS))
        family, passed = _either_or(rng, {spec.name for spec in COMMANDS[model].params})
        values = {spec: _value(rng, spec, MAX_ROWS) for spec in COMMANDS[model].params
                  if (spec.name in passed if spec.name in family
                      else rng.random() < (0.95 if spec.required else 0.4))}
        output = rng.choice(["json", "csv"])
        env = {}
        if "seed" not in {spec.name for spec in values} and rng.random() < 0.5:
            env["QPROP_SEED"] = rng.choice([str(rng.randrange(2 ** 32)), "-3", "abc"])
        if rng.random() < 1 / 3:
            lines = ["[run]", f"model = {model}", f"output = {output}", f"[{model}]"]
            lines += [f"{spec.config_key} = {value}" for spec, value in values.items()
                      if spec.kind != "flag"]
            if rng.random() < 0.05:
                lines.insert(rng.randint(0, len(lines)), rng.choice(
                    ["spin = 1", "[extra]", "model", "=", "[run]"]))
            data = ("\n".join(lines) + "\n").encode("utf-8")
            roll = rng.random()
            if roll < 0.03:
                data = data.decode("utf-8").encode("utf-16")
            elif roll < 0.06:
                at = rng.randint(0, len(data))
                data = data[:at] + b"\xff" + data[at:]
            path = f"cfg/{i}.ini"
            argv = ["run", path]
            if rng.random() < 0.5:
                argv += ["--out", f"out/{i}.txt" if rng.random() < 0.9 else f"nodir/{i}.txt"]
            cases.append({"argv": argv, "env": env, "files": {path: data}})
            continue
        argv = [model]
        for spec, value in values.items():
            if spec.kind == "flag":
                argv.append(spec.flag)
            elif value.startswith("-") and rng.random() < 0.5:
                argv.append(f"{spec.flag}={value}")
            else:
                argv += [spec.flag, value]
        if rng.random() < 0.5:
            argv += ["--output", output]
        cases.append({"argv": argv, "env": env, "files": {}})
    return cases


def _masked(text: str) -> str:
    return _WALL_TIME.sub('"wall_time_ms": *', text)


def _child(src: str, cases_path: str, results_path: str) -> None:
    """Run every call of cases_path in this interpreter, from the working
    directory, and write the outcomes to results_path."""
    sys.path.insert(0, src)
    import qprop
    from qprop.cli import main

    if not Path(qprop.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported qprop from {qprop.__file__}, not from {src}")
    results = []
    for case in json.loads(Path(cases_path).read_text(encoding="utf-8")):
        os.environ.pop("QPROP_SEED", None)
        os.environ.update(case["env"])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(case["argv"])
            except Exception as exc:  # noqa: BLE001 - an escaped exception is an outcome
                code = "raised"
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        out_file = None
        if "--out" in case["argv"]:
            path = Path(case["argv"][case["argv"].index("--out") + 1])
            if path.exists():
                out_file = path.read_text(encoding="utf-8")
                path.unlink()
        results.append({"exit": code, "stdout": _masked(out.getvalue()), "stderr": err.getvalue(),
                        "out": out_file and _masked(out_file)})
    Path(results_path).write_text(json.dumps(results), encoding="utf-8")


def run_trees(srcs: list, cases: list, tmp: Path) -> list:
    """The outcomes of every call on each of srcs, the trees run side by side."""
    children = []
    for k, src in enumerate(srcs):
        work = tmp / f"work{k}"
        for name in ("cfg", "out"):
            (work / name).mkdir(parents=True, exist_ok=True)
        for case in cases:
            for name, data in case["files"].items():
                (work / name).write_bytes(data)
        (work / "cases.json").write_text(json.dumps(
            [{"argv": case["argv"], "env": case["env"]} for case in cases]), encoding="utf-8")
        env = {key: value for key, value in os.environ.items()
               if key not in ("PYTHONPATH", "QPROP_SEED")}
        children.append(subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--child", str(src),
             "cases.json", "results.json"], cwd=work, env=env))
    for child in children:
        if child.wait() != 0:
            raise RuntimeError(f"differential child exited {child.returncode}")
    return [json.loads((tmp / f"work{k}" / "results.json").read_text(encoding="utf-8"))
            for k in range(len(srcs))]


def kind_of(base: dict, change: dict) -> str:
    if base == change:
        return KINDS[0]
    if {**base, "stderr": ""} == {**change, "stderr": ""}:
        return KINDS[1]
    return KINDS[2]


def compare(base_src: Path, change_src: Path, cases: list) -> dict:
    """Indices of the calls of each kind, base against change, with both
    trees' outcomes under "outcomes"."""
    with tempfile.TemporaryDirectory(prefix="qprop-differential-") as tmp:
        base, change = run_trees([base_src, change_src], cases, Path(tmp))
    kinds = {kind: [] for kind in KINDS}
    for i, (b, c) in enumerate(zip(base, change)):
        kinds[kind_of(b, c)].append(i)
    return {**kinds, "outcomes": (base, change)}


def report(cases: list, found: dict) -> str:
    base, change = found["outcomes"]
    lines = []
    for name, outcomes in (("base", base), ("change", change)):
        tally = collections.Counter(str(outcome["exit"]) for outcome in outcomes)
        lines.append(f"{name} exit codes: " + ", ".join(f"{code}: {count}"
                                                       for code, count in sorted(tally.items())))
    for kind in KINDS:
        lines.append(f"{kind}: {len(found[kind])}")
        for i in found[kind][:SHOW]:
            note = ("" if kind == KINDS[0]
                    else f"  (exit {base[i]['exit']} -> {change[i]['exit']})")
            lines.append(f"  {' '.join(cases[i]['argv']) or '(no arguments)'}{note}")
    return "\n".join(lines)


BENCH_COMMAND = [sys.executable, "perfbench/run.py"]     # run from a tree's root
SIDES = ("parent", "change")


def _bench_run(command: list, tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from tree's root: its exit code, its last line of
    standard output as JSON (None if it is not JSON) and its environment line."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", repr(seconds), "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines() or [""]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    environment = next((json.loads(line.split(" ", 1)[1]) for line in lines
                        if line.startswith("environment ")), None)
    return {"exit": proc.returncode, "result": result, "environment": environment,
            "stderr": proc.stderr[-2000:]}


def _spread(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "runs": values}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarize(runs: list, better: dict) -> dict:
    """Per workload, over the whole pairs of runs (a parent and a change run of
    one seed, in the order they ran): seeds, which side ran first, each
    side's correct flag and failed count, and for each metric in better
    (name: "lower" or "higher") each side's median, quartiles and runs and
    the pairs in which the change read better."""
    workloads = {}
    for run in runs:
        pair = workloads.setdefault(run["workload"], {}).setdefault(run["seed"], {})
        pair.setdefault("first", run["side"])
        pair[run["side"]] = run["result"] or {"correct": False, "failed": None, "metrics": {}}
    summary = {}
    for workload, pairs in workloads.items():
        whole = [(seed, pair) for seed, pair in pairs.items() if set(SIDES) <= set(pair)]
        if not whole:
            continue
        metrics = {}
        for name, direction in better.items():
            values = [[pair[side]["metrics"].get(name, {}).get("value") for side in SIDES]
                      for _, pair in whole]
            values = [v for v in values if None not in v]
            if not values:
                continue
            sign = 1 if direction == "higher" else -1
            metrics[name] = {**{side: _spread([v[k] for v in values])
                                for k, side in enumerate(SIDES)},
                             "change_better_pairs": sum(sign * (c - p) > 0 for p, c in values)}
        summary[workload] = {
            "seeds": [seed for seed, _ in whole],
            "first": [pair["first"] for _, pair in whole],
            "correct": [[pair[side]["correct"] for side in SIDES] for _, pair in whole],
            "failed": [[pair[side]["failed"] for side in SIDES] for _, pair in whole],
            "metrics": metrics}
    return summary


def bench(rev: str, workload: str, pairs: int, out: Path, seed: int, seconds: float,
          claim: str | None = None, command: list = BENCH_COMMAND,
          change: Path = ROOT) -> tuple[dict, bool]:
    """Run pairs of benchmark runs on rev and on the change tree, adding each
    run to out (read first, if it exists) as it ends; returns out's record
    and whether every run of this call passed its checks."""
    better = {metric["name"]: metric["better"] for metric in
              json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}
    parent_commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev], check=True,
                                   capture_output=True, text=True).stdout.strip()
    record = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {
        "description": (
            "perfbench end-to-end medians and quartiles (inclusive method) over paired runs "
            "of the parent commit and of this change, each from its own copy of the tree, "
            f"`{' '.join(BENCH_COMMAND[1:])} --workload W --seed S --seconds {seconds:g} "
            "--trace 0` with PYTHONDONTWRITEBYTECODE=1 and no cached bytecode of either "
            "tree, alternating which side ran first "
            "(`first` per pair), by `tests/differential.py --bench`. Every run's last line of "
            "standard output is under `runs`, added as the run ended. change_better_pairs "
            "counts the pairs in which the change read better."),
        "parent_commit": parent_commit, "environment": None, "claimed_gain": None, "runs": []}
    if record["parent_commit"] != parent_commit:
        raise SystemExit(f"{out} holds runs against {record['parent_commit']}, not {rev}")
    if claim:
        record["claimed_gain"] = {"workload": workload, "metric": claim}
    seeds = {run["seed"] for run in record["runs"] if run["workload"] == workload}
    if seeds & set(range(seed, seed + pairs)):
        raise SystemExit(f"{out} already holds {workload} runs of seeds {sorted(seeds)}")
    ok = True
    with tempfile.TemporaryDirectory(prefix="qprop-bench-") as tmp:
        trees = {"parent": export(rev, Path(tmp) / "parent").parent,
                 "change": Path(shutil.copytree(change, Path(tmp) / "change", ignore=(
                     shutil.ignore_patterns("__pycache__", ".*"))))}
        for k in range(pairs):
            order = SIDES if (len(seeds) + k) % 2 == 0 else SIDES[::-1]
            for side in order:
                run = _bench_run(command, trees[side], workload, seed + k, seconds)
                if record["environment"] is None and run["environment"]:
                    record["environment"] = {key: run["environment"].get(key) for key in
                                             ("nproc", "cpu", "python", "numpy", "size",
                                              "seconds")}
                record["runs"].append({"workload": workload, "seed": seed + k, "side": side,
                                       **run})
                record["workloads"] = summarize(record["runs"], better)
                tmp_out = out.with_name(out.name + ".tmp")
                tmp_out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
                os.replace(tmp_out, out)
                result = run["result"] or {}
                ok &= run["exit"] == 0 and result.get("correct") is True
                values = {name: metric["value"] for name, metric in
                          result.get("metrics", {}).items()}
                print(f"{workload} seed {seed + k} {side}: exit {run['exit']}, "
                      + ", ".join(f"{name} {value:.6g}" for name, value in values.items()),
                      flush=True)
    return record, ok


def bench_report(record: dict) -> str:
    lines = []
    for workload, summary in record["workloads"].items():
        lines.append(f"{workload}: {len(summary['seeds'])} pairs")
        for name, metric in summary["metrics"].items():
            lines.append(f"  {name}: {metric['parent']['median']:.6g} -> "
                         f"{metric['change']['median']:.6g}, change better in "
                         f"{metric['change_better_pairs']} of {len(summary['seeds'])}")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--cases", type=int, default=2000, help="number of calls")
    parser.add_argument("--seed", type=int, default=15,
                        help="seed of the calls; with --bench, the seed of the first pair")
    parser.add_argument("--bench", metavar="PARENT",
                        help="run the benchmark on PARENT and the working tree instead")
    parser.add_argument("--workload", help="with --bench: the workload")
    parser.add_argument("--pairs", type=int, default=10, help="with --bench: pairs of runs")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="with --bench: seconds per run")
    parser.add_argument("--out", type=Path, help="with --bench: the BENCH_<n>.json to add to")
    parser.add_argument("--claim", metavar="METRIC",
                        help="with --bench: the metric whose gain on the workload is claimed")
    args = parser.parse_args()
    if args.bench:
        if not (args.workload and args.out):
            parser.error("--bench needs --workload and --out")
        record, ok = bench(args.bench, args.workload, args.pairs, args.out, args.seed,
                           args.seconds, args.claim)
        print(bench_report(record))
        return 0 if ok else 1
    cases = make_cases(args.cases, args.seed)
    with tempfile.TemporaryDirectory(prefix="qprop-parent-") as tmp:
        found = compare(export(args.rev, Path(tmp)), ROOT / "src", cases)
    print(f"{len(cases)} calls, seed {args.seed}: {args.rev} against the working tree")
    print(report(cases, found))
    return 0 if len(found[KINDS[0]]) == len(cases) else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(*sys.argv[2:5])
    else:
        sys.exit(main())
