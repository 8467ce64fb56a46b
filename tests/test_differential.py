"""Self-test of tests/differential.py: HEAD against the working tree is all
identical, and a copy of the tree with one changed output digit is caught.
An uncommitted change to what a call prints fails the first half, as the
tool is meant to report it."""
import shutil
import subprocess

import pytest

import differential
from qprop import __version__


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
