"""Self-test of the benchmark at tiny input sizes.

    python3 -m pytest perfbench

Runs every workload end to end and traced, checks the result line against
BENCHMARK.json, and checks that the output checks reject a wrong output
and that the benchmark refuses to run without the qprop source.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*extra, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *extra], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_clean_at_tiny_size(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_inputs_repeat_for_a_seed():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 9, "tiny"), workloads.build(name, 9, "tiny")
        assert [op.argv for op in a.ops] == [op.argv for op in b.ops]
        assert a.files == b.files
    calls = workloads.build("small_calls", 9).ops
    assert len(calls) == 45
    assert {op.model for op in calls} == set(workloads.MODELS)
    assert sum(op.expect_exit == 2 for op in calls) == len(calls) // 5


def test_small_calls_hold_each_kind_of_invalid_call():
    wl = workloads.build("small_calls", 9)
    bad = [op for op in wl.ops if op.expect_exit == 2]
    texts = [" ".join(op.argv) + wl.files.get(op.argv[-1], "") for op in bad]
    assert {op.model for op in bad} == set(workloads.MODELS)
    assert any("colour" in text for text in texts)
    assert any("gamma" in text and "omega" in text for text in texts)
    assert any(op.model in ("equivalence", "sample") and op.seed is None for op in bad)
    assert any(op.model in ("force", "joint") and "colour" not in text
               for op, text in zip(bad, texts))


def test_checks_reject_a_wrong_output():
    op = workloads.Op("cli", [], "oscillator", {"sigma": 0.5}, "csv")
    good = ("quantity,value\nsigma,0.5\nomega,1\nhbar,1\nmass,2\ngamma,0.5\n"
            "force_constant,2\n")
    assert checks.check_cli(op, 0, good, "", None) == (None, 6)
    reason, _ = checks.check_cli(op, 0, good.replace("mass,2", "mass,2.000001"), "", None)
    assert "mass" in reason
    reason, _ = checks.check_cli(op, 1, good, "", None)
    assert "exit code" in reason


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "small_calls", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
