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
files, ``QPROP_SEED`` and the help and version calls. A call's outcome is
its exit code, stdout, stderr and ``--out`` file, with the value of
``wall_time_ms`` masked; an exception that escapes ``main`` counts as exit
``"raised"``. The report counts calls by kind (identical; stderr only;
stdout, out file or exit code) and prints the first few of each kind that
differs. The exit code is 0 when every call is identical.
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


def make_cases(n: int, seed: int) -> list:
    """``n`` seeded calls: each a dict of argv, env (extra variables) and files
    (config path to bytes, written into every tree's working directory)."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from qprop.cli import COMMANDS, MAX_ROWS
    finally:
        sys.path.pop(0)
    rng = random.Random(seed)
    cases = [{"argv": argv, "env": {}, "files": {}} for argv in FIXED_CALLS]
    cases += [{"argv": [model, "--help"], "env": {}, "files": {}} for model in COMMANDS]
    while len(cases) < n:
        i = len(cases)
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--cases", type=int, default=2000, help="number of calls")
    parser.add_argument("--seed", type=int, default=15, help="seed of the calls")
    args = parser.parse_args()
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
