"""The standard-library generator against numpy's, and the equivalence sweep
on either one.

``qprop._draws.PCG64`` restates numpy's SeedSequence hash, PCG64 stream and
normal ziggurat so that ``qprop equivalence`` draws its gates and ``qprop
sample`` its prices without importing numpy; its doubles must equal
``numpy.random.default_rng(seed).random(n)`` and ``.normal(loc, scale, n)``
bit for bit, for seeds of one 32-bit word and of several.
"""
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qprop._draws import PCG64
from qprop.cli import main
from qprop.decision import equivalence_sweep

# Up to five 32-bit words of entropy: more than SeedSequence's pool of four.
SEEDS = st.integers(0, 2 ** 130)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@given(SEEDS, st.integers(1, 300))
@example(0, 5)
@example(2 ** 32 - 1, 5)
@example(2 ** 32, 5)
@example(2 ** 128 + 12345, 5)
@settings(max_examples=100, deadline=None)
def test_pcg64_equals_numpy_default_rng(seed, n):
    stream = PCG64(seed)
    got = [stream.random() for _ in range(n)]
    assert np.array_equal(bits(got), bits(np.random.default_rng(seed).random(n)))


@given(SEEDS, st.integers(1, 300), st.floats(-1e3, 1e3), st.floats(1e-3, 1e3))
@example(0, 5, 0.0, 1.0)
@example(2 ** 70 + 5, 5, 2.3, 0.007)
@settings(max_examples=100, deadline=None)
def test_normals_equal_numpy_normal(seed, n, loc, scale):
    """The same doubles, and the stream left where numpy leaves it."""
    stream, rng = PCG64(seed), np.random.default_rng(seed)
    assert np.array_equal(bits(stream.normals(n, loc, scale)), bits(rng.normal(loc, scale, n)))
    assert stream.random() == rng.random()


def test_normals_reach_the_tail_and_the_wedge(monkeypatch):
    """Seeds whose first 5,000 draws leave the ziggurat's core: strip 0's
    tail, a wedge point kept and a wedge point refused. Each stays bit-equal
    to numpy's draws."""
    counts = {"tail": 0, "wedge kept": 0, "wedge refused": 0}
    outside = PCG64._outside

    def counted(self, strip, rabs, z):
        value = outside(self, strip, rabs, z)
        counts["tail" if strip == 0 else "wedge kept" if value == z else "wedge refused"] += 1
        return value

    monkeypatch.setattr(PCG64, "_outside", counted)
    for seed in (0, 1, 2 ** 70 + 5):
        stream, rng = PCG64(seed), np.random.default_rng(seed)
        assert np.array_equal(bits(stream.normals(5000, 0.0, 1.0)), bits(rng.normal(size=5000)))
        assert stream.random() == rng.random()
    assert min(counts.values()) >= 1, counts


def test_pcg64_refuses_a_negative_seed():
    with pytest.raises(ValueError):
        PCG64(-1)


@given(SEEDS, st.integers(1, 40), st.sampled_from([1e-12, 1e-16, 1e-17]))
@settings(max_examples=50, deadline=None)
def test_sweep_on_pcg64_equals_the_sweep_on_numpy(seed, trials, tol):
    """The CLI's generator and a library caller's give one sweep."""
    ours = equivalence_sweep(PCG64(seed), trials, tol)
    numpy_sweep = equivalence_sweep(np.random.default_rng(seed), trials, tol)
    assert (ours.trials, ours.tol, ours.failures) == (
        numpy_sweep.trials, numpy_sweep.tol, numpy_sweep.failures)
    assert np.array_equal(
        bits([ours.max_abs_deviation, ours.moduli_identity_max_deviation]),
        bits([numpy_sweep.max_abs_deviation, numpy_sweep.moduli_identity_max_deviation]))


BLOCKED = """\
import sys
sys.modules["numpy"] = None
from qprop import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def assert_runs_with_numpy_blocked(argv, capsys):
    """With numpy unimportable the call exits 0 and prints what it prints
    in a process that has numpy loaded."""
    proc = subprocess.run([sys.executable, "-c", BLOCKED, *argv],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


def test_equivalence_runs_with_numpy_blocked(capsys):
    assert_runs_with_numpy_blocked(
        ["equivalence", "--trials", "50", "--seed", "7", "--output", "csv"], capsys)


def test_sample_runs_with_numpy_blocked(capsys):
    assert_runs_with_numpy_blocked(
        ["sample", "--trials", "500", "--buyer-mean-price", "1.05", "--buyer-sigma", "0.1",
         "--seller-mean-price", "0.95", "--seller-sigma", "0.1", "--seed", "3",
         "--output", "csv"], capsys)
