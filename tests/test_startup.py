"""What a call imports: the package, the CLI and each kind of call load only
the modules they compute with. configparser is loaded by `run` alone, json
only by a call that writes JSON, and no call loads numpy, dataclasses or
inspect (numpy loads inspect).

Each probe runs ``python -m qprop`` (or ``qprop.cli``) in a fresh
interpreter and reports the names in ``sys.modules`` as the process leaves. The call leaves by
``os._exit``, which runs no atexit hook, so the probe wraps ``os._exit`` to
report; its atexit hook reports a process that ends by interpreter teardown
instead, so a forked child that did would print a second line.
"""
import importlib
import subprocess
import sys

import pytest

import qprop
from qprop.cli import COMMANDS, MAX_ROWS

MODEL_MODULES = {"numpy", "qprop._draws", "qprop.decision", "qprop.propensity", "qprop.qubits"}
# Besides: what a call that forks a chunk formatter must not load, but signal,
# which it loads to block SIGINT across the fork.
TRACKED = MODEL_MODULES | {"configparser", "dataclasses", "inspect", "json",
                           "fcntl", "multiprocessing", "signal"}

PROBE = """\
import atexit, os, runpy, sys
def report():
    sys.__stderr__.write("\\nMODULES " + " ".join(sys.modules) + "\\n")
    sys.__stderr__.flush()
def leave(code, pid=os.getpid(), exit=os._exit):
    if os.getpid() == pid:            # a forked child leaves without a word
        report()
    exit(code)
atexit.register(report)
os._exit = leave
runpy.run_module(sys.argv.pop(1), run_name="__main__", alter_sys=True)
"""


def probe(module, *argv):
    """(exit code, stdout, stderr, modules loaded) of ``python -m module``."""
    proc = subprocess.run([sys.executable, "-c", PROBE, module, *argv],
                          capture_output=True, text=True)
    err, _, modules = proc.stderr.rpartition("\nMODULES ")
    return proc.returncode, proc.stdout, err, set(modules.split())


def run_probe(*argv):
    """(exit code, stdout, stderr, tracked modules loaded) of one qprop call."""
    code, out, err, modules = probe("qprop", *argv)
    return code, out, err, TRACKED & modules


def test_the_cli_module_run_as_main_is_not_imported_again():
    """python -m qprop.cli runs cli.py once, as __main__."""
    code, out, err, modules = probe("qprop.cli", "--version")
    assert (code, out, err) == (0, f"qprop {qprop.__version__}\n", "")
    assert "qprop" in modules and "qprop.cli" not in modules


def test_importing_the_package_and_cli_loads_no_model_module():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qprop, qprop.cli; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True)
    assert TRACKED & set(proc.stdout.split()) == set()


BAD_CONFIG = "[run]\nmodel = oscillator\n\n[oscillator]\nsigma = 0.3\nspin = 1\n"

REJECTED = {
    "argparse": ["force", "--mean-price", "1", "--bogus", "2"],
    "validation": ["reversal", "--x1", "-1", "--x2", "2"],
    "grid": ["force", "--mean-price", "1", "--sigma", "0.3", "--gamma", "1",
             "--grid", "2.0:0.5:9"],
    "scale": ["work", "--mean-price", "1", "--sigma", "0.3", "--price1", "1.2",
              "--price2", "1", "--gamma", "1", "--omega", "2"],
    "pair": ["sample", "--trials", "5", "--buyer-fixed-price", "1",
             "--seller-fixed-price", "1.1", "--seed", "1"],
    "grid cap": ["force", "--mean-price", "1", "--sigma", "0.3", "--gamma", "1",
                 "--grid", f"0.5:2.0:{MAX_ROWS + 1}"],
    "trials cap": ["sample", "--trials", str(MAX_ROWS + 1), "--buyer-mean-price", "1",
                   "--buyer-sigma", "0.1", "--seller-mean-price", "1",
                   "--seller-sigma", "0.1", "--seed", "1"],
    "pairs cap": ["equivalence", "--trials", str(MAX_ROWS + 1), "--seed", "1"],
    "tolerance": ["equivalence", "--trials", "5", "--tol", "0", "--seed", "1"],
}


@pytest.mark.parametrize("kind", sorted(REJECTED))
def test_rejected_call_loads_no_numpy(kind):
    code, out, err, loaded = run_probe(*REJECTED[kind])
    assert code == 2
    assert out == ""
    assert "error" in err and "Traceback" not in err
    assert loaded == set()


def test_rejected_config_loads_no_numpy(tmp_path):
    """A config with an unknown key, and one that is not UTF-8."""
    for data, message in ((BAD_CONFIG.encode("utf-8"), "unknown key 'spin'"),
                          (BAD_CONFIG.replace("0.3", "\xff").encode("latin-1"),
                           "cannot read config: ")):
        path = tmp_path / "bad.cfg"
        path.write_bytes(data)
        code, out, err, loaded = run_probe("run", str(path))
        assert code == 2
        assert message in err and err.count("\n") == 1
        assert loaded == {"configparser"}


GRID_CONFIG = ("[run]\nmodel = joint\noutput = csv\n\n[joint]\nbuyer-mean-price = 1\n"
               "buyer-sigma = 0.1\nseller-mean-price = 1.1\nseller-sigma = 0.2\n"
               "gamma = 1\ngrid = 0.5:2.0:5\n")


def test_grid_config_loads_no_numpy(tmp_path):
    """A grid by config is computed with math, as a grid by flag is."""
    path = tmp_path / "grid.cfg"
    path.write_text(GRID_CONFIG, encoding="utf-8")
    code, out, err, loaded = run_probe("run", str(path))
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 6
    assert loaded == {"configparser", "qprop.propensity"}


@pytest.mark.parametrize("kind, message", [
    ("grid cap", f"qprop: error: grid needs at most {MAX_ROWS} points\n"),
    ("trials cap", f"qprop: error: trials must be at most {MAX_ROWS}\n"),
    ("pairs cap", f"qprop: error: trials must be at most {MAX_ROWS}\n"),
], ids=["grid cap", "trials cap", "pairs cap"])
def test_size_caps_are_checked_before_anything_is_built(kind, message):
    """One past a cap exits 2 before numpy is loaded, so nothing was allocated."""
    code, out, err, loaded = run_probe(*REJECTED[kind])
    assert (code, out, err, loaded) == (2, "", message, set())


PAIR = ["joint", "--buyer-mean-price", "1", "--buyer-sigma", "0.1",
        "--seller-mean-price", "1.1", "--seller-sigma", "0.2"]


LOADS = [
    (["interference", "--theta", "0.3", "--phi", "0.2"], {"qprop.decision", "json"}),
    (["reversal", "--x1", "1", "--x2", "4"], {"qprop.decision", "json"}),
    (["order-effect", "--theta", "0.3", "--phi", "0.2", "--order", "ba"],
     {"qprop.decision", "json"}),
    (["oscillator", "--sigma", "0.3", "--output", "csv"], {"qprop.propensity"}),
    (["force", "--mean-price", "1", "--sigma", "0.3", "--gamma", "1",
      "--grid", "0.5:2.0:5"], {"qprop.propensity", "json"}),
    (["force", "--mean-price", "1", "--sigma", "0.3", "--price", "1.1"],
     {"qprop.propensity", "json"}),
    (["equivalence", "--trials", "3", "--seed", "1"], {"json", "qprop.decision", "qprop._draws"}),
    (["work", "--mean-price", "1", "--sigma", "0.3", "--price1", "1.2", "--price2", "1"],
     {"qprop.propensity", "json"}),
    (PAIR, {"qprop.propensity", "json"}),
    (["joint", "--buyer-mean-price", "1", "--buyer-sigma", "0.1",
      "--seller-fixed-price", "1.1"], {"qprop.propensity", "json"}),
    ([*PAIR, "--gamma", "1", "--grid", "0.5:2.0:5"], {"qprop.propensity", "json"}),
    (["sample", "--trials", "3", "--buyer-mean-price", "1", "--buyer-sigma", "0.1",
      "--seller-fixed-price", "1.1", "--seed", "1", "--output", "csv"],
     {"qprop.propensity"}),
    (["force", "--mean-price", "1", "--sigma", "0.3", "--price", "1.1", "--output", "csv"],
     {"qprop.propensity"}),
    # Above CHUNK_ROWS rows: a forked child that reported would print a second line.
    (["force", "--mean-price", "1", "--sigma", "0.3", "--gamma", "1",
      "--grid", "0.5:2.0:20000", "--output", "csv"], {"qprop.propensity", "signal"}),
    (["sample", "--trials", "20000", "--buyer-mean-price", "1", "--buyer-sigma", "0.1",
      "--seller-mean-price", "1.1", "--seller-sigma", "0.2", "--seed", "1"],
     {"qprop._draws", "qprop.propensity", "json", "signal"}),
]


def test_every_command_is_probed():
    assert {argv[0] for argv, _ in LOADS} == set(COMMANDS)


@pytest.mark.parametrize("argv, expected", LOADS)
def test_call_loads_only_its_model_modules(argv, expected):
    """No call loads numpy: one-point curves are closed forms on math, grids
    are computed with math too, and the equivalence sweep and the sample
    draws come from qprop._draws, not the qubit engine or numpy. A call by
    flags loads no configparser, a CSV call no json, and no call dataclasses
    or inspect."""
    code, out, err, loaded = run_probe(*argv)
    assert code == 0 and err == ""
    assert loaded == expected
    assert ("json" in loaded) == ("csv" not in argv)
    assert not loaded & {"numpy", "dataclasses", "inspect"}


def test_every_export_resolves_to_its_home_module_object():
    exported = [name for name in qprop.__all__ if name != "__version__"]
    assert sorted(exported) == sorted(qprop._HOME)
    assert len(exported) == len(set(exported))
    for name in exported:
        home = importlib.import_module(f"qprop.{qprop._HOME[name]}")
        assert getattr(qprop, name) is getattr(home, name), name
    assert set(qprop.__all__) <= set(dir(qprop))
    assert qprop.decision is importlib.import_module("qprop.decision")


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qprop.no_such_name  # noqa: B018
