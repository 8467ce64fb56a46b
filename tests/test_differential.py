"""Self-test of tests/differential.py: HEAD against the working tree is all
identical, and a copy of the tree with one changed output digit is caught.
An uncommitted change to what a call prints fails the first half, as the
tool is meant to report it. The --bench half runs against a stub of the
benchmark command."""
import json
import shutil
import subprocess

import pytest

import differential
from qprop import __version__
from qprop.cli import CHUNK_ROWS


def test_head_matches_the_tree_and_a_changed_digit_is_caught(tmp_path):
    if subprocess.run(["git", "-C", str(differential.ROOT), "rev-parse", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    tree = differential.ROOT / "src"
    mutant = tmp_path / "mutant"
    shutil.copytree(tree, mutant, ignore=shutil.ignore_patterns("__pycache__"))
    init = mutant / "qprop" / "__init__.py"
    line = f'__version__ = "{__version__}"'
    text = init.read_text(encoding="utf-8")
    assert text.count(line) == 1
    digit = str((int(line[-2]) + 1) % 10)           # the version's last digit
    init.write_text(text.replace(line, line[:-2] + digit + '"'), encoding="utf-8")
    config = b"[run]\nmodel = reversal\n\n[reversal]\nx1 = 1\nx2 = 4\n"
    cases = differential.make_cases(24, seed=1) + [
        {"argv": ["reversal", "--x1", "1", "--x2", "4"], "env": {}, "files": {}},
        {"argv": ["run", "cfg/r.ini", "--out", "out/r.json"], "env": {},
         "files": {"cfg/r.ini": config}}]
    head, here, changed = differential.run_trees(
        [differential.export("HEAD", tmp_path / "head"), tree, mutant], cases, tmp_path)
    kinds = [differential.kind_of(a, b) for a, b in zip(head, here)]
    assert kinds == ["identical"] * len(cases)
    caught = [differential.kind_of(a, b) for a, b in zip(here, changed)]
    version = [case["argv"] for case in cases].index(["--version"])
    assert caught[version] == "stdout, out file or exit code"
    # Every call that prints a JSON record or the version differs; no other does.
    prints_version = [f'"version": "{__version__}"' in outcome["stdout"] + (outcome["out"] or "")
                      or outcome["stdout"] == f"qprop {__version__}\n" for outcome in here]
    assert prints_version[-2:] == [True, True] and here[-1]["out"] and not here[-1]["stdout"]
    assert [kind != "identical" for kind in caught] == prints_version


def test_large_calls_reach_every_chunk_seam():
    """The large calls of a 2,500-call run: force, joint and sample at
    CHUNK_ROWS rows, one more and 3 chunks, each model in JSON and in CSV,
    by flags and by a config with --out."""
    cases = differential.make_cases(2500, seed=20)
    seen = set()
    for case in cases[differential.LARGE_EVERY - 1::differential.LARGE_EVERY]:
        argv = case["argv"]
        words = b"".join(case["files"].values()).decode("utf-8").replace("=", " ").split()

        def value(name):
            return (words[words.index(name) + 1] if argv[0] == "run"
                    else argv[argv.index(f"--{name}") + 1])

        model = value("model") if argv[0] == "run" else argv[0]
        output = value("output")
        rows = int(value("trials") if model == "sample" else value("grid").split(":")[2])
        seam = rows - CHUNK_ROWS if rows <= CHUNK_ROWS + 1 else -(-rows // CHUNK_ROWS)
        seen.add((model, seam, output, "--out" in argv))
    assert {(model, seam) for model, seam, _, _ in seen} == {
        (model, seam) for model in ("force", "joint", "sample") for seam in (0, 1, 3)}
    for model in ("force", "joint", "sample"):
        assert {output for m, _, output, _ in seen if m == model} == {"json", "csv"}
    assert {out for _, _, _, out in seen} == {True, False}


# The benchmark's stand-in: it counts the runs already in the out file as it
# starts, and reads 50 higher in the change tree.
STUB = """\
out="$(dirname "$0")/BENCH.json"
done=0
if [ -f "$out" ]; then done=$(grep -c '"side":' "$out"); fi
value=$((100 + done))
if [ "$(basename "$PWD")" = change ]; then value=$((value + 50)); fi
echo 'environment {"nproc": 2, "cpu": "stub", "python": "3", "numpy": "2", "size": "full", '\
'"seconds": '"$6"'}'
echo '{"correct": true, "attempted": 6, "failed": 0, "metrics": {"items_per_s": {"value": '\
"$value"'.0, "unit": "items/s"}, "setup_s": {"value": 0.2, "unit": "s"}}}'
"""


def test_bench_alternates_pairs_and_keeps_every_run(tmp_path):
    """--bench with the benchmark command stubbed: the stub reads the out file
    as it starts, so each run's value shows that every earlier run was
    already written."""
    if subprocess.run(["git", "-C", str(differential.ROOT), "rev-parse", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    stub, out, change = tmp_path / "stub.sh", tmp_path / "BENCH.json", tmp_path / "change"
    stub.write_text(STUB, encoding="utf-8")
    change.mkdir()
    command = ["sh", str(stub)]
    record, ok = differential.bench("HEAD", "grid_render", 2, out, 5, 1.0, "items_per_s",
                                    command=command, change=change)
    assert ok and record == json.loads(out.read_text(encoding="utf-8"))
    runs = [(run["seed"], run["side"], run["result"]["metrics"]["items_per_s"]["value"])
            for run in record["runs"]]
    assert runs == [(5, "parent", 100.0), (5, "change", 151.0),
                    (6, "change", 152.0), (6, "parent", 103.0)]
    summary = record["workloads"]["grid_render"]
    assert (summary["seeds"], summary["first"]) == ([5, 6], ["parent", "change"])
    assert summary["correct"] == [[True, True]] * 2 and summary["failed"] == [[0, 0]] * 2
    rate = summary["metrics"]["items_per_s"]
    assert rate["parent"] == {"median": 101.5, "q1": 100.75, "q3": 102.25, "runs": [100.0, 103.0]}
    assert rate["change_better_pairs"] == 2
    assert summary["metrics"]["setup_s"]["change_better_pairs"] == 0    # ties count for neither
    assert record["claimed_gain"] == {"workload": "grid_render", "metric": "items_per_s"}
    assert record["environment"]["seconds"] == 1.0
    with pytest.raises(SystemExit):                   # a later call refuses a seed it holds
        differential.bench("HEAD", "grid_render", 1, out, 6, 1.0, command=command, change=change)


def test_bench_runs_neither_side_with_cached_bytecode(tmp_path, monkeypatch):
    """Python reads a valid .pyc even under PYTHONDONTWRITEBYTECODE, so the
    change tree runs from a copy without its __pycache__ directories, as the
    parent's export has none."""
    if subprocess.run(["git", "-C", str(differential.ROOT), "rev-parse", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    change = tmp_path / "change"
    (change / "src" / "__pycache__").mkdir(parents=True)
    (change / "src" / "__pycache__" / "m.cpython-311.pyc").write_bytes(b"")
    (change / "src" / "m.py").write_text("", encoding="utf-8")
    seen = {}

    def bench_run(command, tree, workload, seed, seconds):
        seen[tree.name] = ([str(path.relative_to(tree)) for path in tree.rglob("__pycache__")],
                           (tree / "src" / "m.py").is_file())
        return {"exit": 0, "result": None, "environment": None, "stderr": ""}

    monkeypatch.setattr(differential, "_bench_run", bench_run)
    differential.bench("HEAD", "grid_render", 1, tmp_path / "BENCH.json", 1, 1.0, change=change)
    assert seen == {"parent": ([], False), "change": ([], True)}
