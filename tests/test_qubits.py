import math
from operator import setitem

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from qprop.qubits import (
    STATE_NORM_TOL,
    Gate,
    StateVector,
    apply,
    basis_labels,
    cnot,
    hadamard,
    initial_state,
    is_unitary,
    measure_collapse,
    probabilities,
    random_unitary_2x2,
    rotation_gate,
    tensor,
)

from checkers import READ_ONLY, raises, refused

SQRT2_INV = 1.0 / math.sqrt(2.0)

X_C_MATRIX = np.array([
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 0],
], dtype=complex)
SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])


# ============================================================
# Values at fixed inputs
# ============================================================

def test_initial_state_one_qubit():
    assert initial_state(1).n_qubits == 1
    assert initial_state(1).amplitudes.tolist() == [1, 0]


def test_initial_state_two_qubits():
    assert initial_state(2).n_qubits == 2
    assert initial_state(2).amplitudes.tolist() == [1, 0, 0, 0]


def test_state_accepts_norm_within_tolerance():
    assert StateVector(np.array([1.0 + 4e-13, 0.0])).n_qubits == 1


def test_basis_labels():
    assert basis_labels(1) == ("0", "1")
    assert basis_labels(2) == ("00", "01", "10", "11")


def test_rotation_zero_is_identity():
    assert rotation_gate(0.0).entries == approx(np.eye(2), abs=1e-15)


def test_rotation_entries():
    """R = (cos, -sin; sin, cos)."""
    c, s = math.cos(0.3), math.sin(0.3)
    assert rotation_gate(0.3).entries == approx(np.array([[c, -s], [s, c]]), abs=1e-15)


def test_rotation_quarter_turn_balances():
    state = apply(rotation_gate(math.pi / 4), initial_state(1))
    assert state.amplitudes == approx(np.array([SQRT2_INV, SQRT2_INV]), abs=1e-12)


def test_hadamard_entries():
    assert hadamard().entries == approx(SQRT2_INV * np.array([[1, 1], [1, -1]]), abs=1e-15)


def test_hadamard_equal_superposition():
    probs = probabilities(apply(hadamard(), initial_state(1)))
    assert probs == approx(np.array([0.5, 0.5]), abs=1e-12)


def test_hadamard_self_inverse_interference():
    """H(H|0>) = |0>: the |1> amplitude cancels."""
    state = apply(hadamard(), apply(hadamard(), initial_state(1)))
    assert state.amplitudes == approx(np.array([1.0, 0.0]), abs=1e-12)


def test_cnot_control_1_matrix():
    assert cnot(control=1).entries.tolist() == X_C_MATRIX.tolist()


def test_cnot_control_1_truth_table():
    """Flips qubit 2 when qubit 1 is set: 00->00, 01->01, 10->11, 11->10."""
    for source, target in ((0, 0), (1, 1), (2, 3), (3, 2)):
        out = apply(cnot(control=1), StateVector(np.eye(4)[source]))
        assert out.amplitudes.tolist() == np.eye(4)[target].tolist()


def test_cnot_control_2_truth_table():
    """Flips qubit 1 when qubit 2 is set: 00->00, 01->11, 10->10, 11->01."""
    for source, target in ((0, 0), (1, 3), (2, 2), (3, 1)):
        out = apply(cnot(control=2), StateVector(np.eye(4)[source]))
        assert out.amplitudes.tolist() == np.eye(4)[target].tolist()


def test_gate_composition_stays_unitary():
    assert is_unitary(hadamard() @ rotation_gate(0.7), 1e-10)


def test_tensor_expands_rotations():
    """The Kronecker product of two rotations acting on |00>."""
    theta, phi = 0.4, 1.1
    state = apply(tensor(rotation_gate(theta), rotation_gate(phi)), initial_state(2))
    expected = [math.cos(theta) * math.cos(phi), math.cos(theta) * math.sin(phi),
                math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi)]
    assert state.amplitudes == approx(np.array(expected), abs=1e-15)


def test_tensor_with_identity_keeps_block_structure():
    expected = np.kron(hadamard().entries, np.eye(2))
    assert tensor(hadamard(), rotation_gate(0.0)).entries == approx(expected, abs=1e-15)


def test_probabilities_basis_state():
    assert initial_state(2).labels == ("00", "01", "10", "11")
    assert probabilities(initial_state(2)).tolist() == [1.0, 0.0, 0.0, 0.0]


def test_probabilities_two_norm_rule():
    assert probabilities(StateVector([0.6, 0.8j])) == approx(np.array([0.36, 0.64]), abs=1e-15)


def test_probabilities_rotated_circuit():
    """cnot(1).(R_pi/6 x R_pi/4)|00>."""
    pair = tensor(rotation_gate(math.pi / 6), rotation_gate(math.pi / 4))
    probs = probabilities(apply(cnot(1), apply(pair, initial_state(2))))
    assert probs == approx(np.array([0.375, 0.375, 0.125, 0.125]), abs=1e-12)


def test_entanglement_marker():
    """cnot(1).(H x I)|00> puts all mass on |00> and |11>."""
    pair = tensor(hadamard(), rotation_gate(0.0))
    probs = probabilities(apply(cnot(1), apply(pair, initial_state(2))))
    assert probs == approx(np.array([0.5, 0.0, 0.0, 0.5]), abs=1e-12)


def test_is_unitary_accepts_gate_and_matrix():
    assert is_unitary(hadamard(), 1e-10)
    assert is_unitary(X_C_MATRIX, 1e-10)


def test_is_unitary_rejects_shear():
    assert not is_unitary(SHEAR, 1e-10)


def test_is_unitary_rejects_nonsquare():
    assert not is_unitary(np.ones((2, 3)), 1e-10)


# ============================================================
# Refusals
# ============================================================

SIZES = "supported register sizes are 1 or 2 qubits, got {}"
test_initial_state_rejects_unsupported_count = refused(
    (ValueError, SIZES.format(3), initial_state, 3),
    (ValueError, SIZES.format(0), initial_state, 0))
test_state_rejects_unnormalized = refused((ValueError, "state is not normalized: sum of |a_i|^2 "
                                           "is 2.0", StateVector, np.array([1.0, 1.0])))
test_state_rejects_nonfinite = refused((ValueError, "amplitudes must be finite (no NaN or Inf "
                                        "entries)", StateVector, np.array([np.nan, 0.0])))
test_state_amplitudes_are_read_only = refused(
    (ValueError, READ_ONLY, lambda: setitem(initial_state(1).amplitudes, 0, 0.0)))
test_rotation_rejects_nonfinite_angle = refused(
    (ValueError, "rotation angle must be finite", rotation_gate, math.nan),
    (ValueError, "rotation angle must be finite", rotation_gate, math.inf))
test_cnot_rejects_bad_control = refused((ValueError, "control qubit must be 1 or 2", cnot, 0),
                                        (ValueError, "control qubit must be 1 or 2", cnot, 3))
test_gate_rejects_shear = refused((ValueError, "gate matrix is not unitary within 1e-10", Gate,
                                   SHEAR))
test_gate_rejects_bad_shape = refused(
    (ValueError, "entries must have shape in ((2, 2), (4, 4)), got (3, 3)", Gate, np.eye(3)))
test_gate_entries_are_read_only = refused(
    (ValueError, READ_ONLY, lambda: setitem(hadamard().entries, (0, 0), 2.0)))
test_tensor_rejects_two_qubit_input = refused(
    (ValueError, "tensor expects two single-qubit gates", lambda: tensor(cnot(1), hadamard())))
test_apply_rejects_dimension_mismatch = refused(
    (ValueError, "gate of dimension 4 does not fit a 1-qubit state",
     lambda: apply(cnot(1), initial_state(1))),
    (ValueError, "gate of dimension 2 does not fit a 2-qubit state",
     lambda: apply(hadamard(), initial_state(2))))
test_partial_measurement_rejects_single_qubit_state = refused(
    (ValueError, "partial measurement needs a two-qubit state",
     lambda: measure_collapse(initial_state(1), np.random.default_rng(0), 1)))
test_partial_measurement_rejects_bad_wire = refused(
    (ValueError, "qubit index must be 1 or 2",
     lambda: measure_collapse(initial_state(2), np.random.default_rng(0), 3)))
test_is_unitary_rejects_bad_tolerance = refused(
    (ValueError, "tolerance must be positive", lambda: is_unitary(hadamard(), 0.0)))


# ============================================================
# Random gates and states
# ============================================================

def test_tensor_of_unitaries_is_unitary():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = tensor(random_unitary_2x2(rng), random_unitary_2x2(rng))
        assert is_unitary(g, 1e-10)

def test_apply_swaps_last_two_amplitudes():
    """cnot(1) maps (a, b, c, d) to (a, b, d, c)."""
    rng = np.random.default_rng(5)
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    raw /= np.linalg.norm(raw)
    out = apply(cnot(control=1), StateVector(raw))
    assert np.allclose(out.amplitudes, raw[[0, 1, 3, 2]], atol=1e-15)


def test_apply_preserves_norm_over_random_unitaries():
    """1000 seeded random unitaries on random states keep the 2-norm at 1."""
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        state = apply(random_unitary_2x2(rng), initial_state(1))
        out = apply(random_unitary_2x2(rng), state)
        norm_sq = float(np.sum(np.abs(out.amplitudes) ** 2))
        assert abs(norm_sq - 1.0) <= 1e-12


@given(st.integers(0, 2**32 - 1), st.sampled_from([None, 1, 2]))
@settings(max_examples=100, deadline=None)
def test_probabilities_of_a_state_form_a_distribution(seed, control):
    """The state's norm check is the whole guarantee: every p_i lies in
    [0, 1] and they sum to 1, both within STATE_NORM_TOL, and the array is
    read-only.
    ``control`` None draws a one-qubit state, else a two-qubit one through
    cnot(control)."""
    rng = np.random.default_rng(seed)
    if control is None:
        state = apply(random_unitary_2x2(rng), initial_state(1))
    else:
        gate = tensor(random_unitary_2x2(rng), random_unitary_2x2(rng))
        state = apply(cnot(control), apply(gate, initial_state(2)))
    probs = probabilities(state)
    assert probs.shape == (len(state.labels),)
    assert np.all((probs >= 0.0) & (probs <= 1.0 + STATE_NORM_TOL))
    assert abs(float(probs.sum()) - 1.0) <= STATE_NORM_TOL
    assert raises(ValueError, READ_ONLY, setitem, probs, 0, 0.5)


# ============================================================
# Computed values are not checked again
# ============================================================

H10 = 0.7071067812                     # 1/sqrt(2) typed to ten digits
# Unitary within GATE_UNITARY_TOL (1e-10), but not within STATE_NORM_TOL.
ADMITTED = {"ten-digit-hadamard": [[H10, H10], [H10, -H10]],
            "diag-1+4e-11": np.diag([1 + 4e-11, 1])}


@pytest.mark.parametrize("entries", ADMITTED.values(), ids=ADMITTED)
def test_an_admitted_gate_runs_through_every_step(entries):
    """A gate admitted within its tolerance is not refused a step later: each
    result is the arithmetic on the entries, bit for bit."""
    gate = Gate(entries)
    m = gate.entries
    assert np.array_equal(apply(gate, initial_state(1)).amplitudes, m @ [1, 0])
    assert np.array_equal((gate @ gate).entries, m @ m)
    two = tensor(gate, gate)
    assert np.array_equal(two.entries, np.kron(m, m))
    assert np.array_equal(apply(two, initial_state(2)).amplitudes, np.kron(m, m) @ [1, 0, 0, 0])


def test_every_computed_value_is_a_read_only_complex128_array_of_its_shape():
    """Each also owns its data, so that no view of another array can change it."""
    rng = np.random.default_rng(3)
    h, r = hadamard(), rotation_gate(0.3)
    pair = apply(cnot(1), apply(tensor(h, r), initial_state(2)))
    values = {
        "rotation_gate": (r.entries, (2, 2)),
        "hadamard": (h.entries, (2, 2)),
        "cnot(1)": (cnot(1).entries, (4, 4)),
        "cnot(2)": (cnot(2).entries, (4, 4)),
        "tensor": (tensor(h, r).entries, (4, 4)),
        "matmul": ((h @ r).entries, (2, 2)),
        "random_unitary_2x2": (random_unitary_2x2(rng).entries, (2, 2)),
        "initial_state(1)": (initial_state(1).amplitudes, (2,)),
        "initial_state(2)": (initial_state(2).amplitudes, (4,)),
        "apply": (apply(h, initial_state(1)).amplitudes, (2,)),
        "apply(2)": (pair.amplitudes, (4,)),
        "full read": (measure_collapse(pair, rng)[1].amplitudes, (4,)),
        "wire read": (measure_collapse(pair, rng, qubit=2)[1].amplitudes, (2,)),
    }
    for name, (arr, shape) in values.items():
        assert (arr.dtype, arr.shape, arr.flags.writeable, arr.base) == (
            np.complex128, shape, False, None), name


# ============================================================
# Measurement
# ============================================================

def test_measure_certain_outcome():
    rng = np.random.default_rng(0)
    for _ in range(20):
        label, collapsed = measure_collapse(initial_state(1), rng)
        assert label == "0"
        assert np.array_equal(collapsed.amplitudes, [1.0, 0.0])


def test_measure_collapses_to_basis_state():
    rng = np.random.default_rng(1)
    state = apply(hadamard(), initial_state(1))
    label, collapsed = measure_collapse(state, rng)
    assert label in ("0", "1")
    expected = np.zeros(2, dtype=complex)
    expected[int(label)] = 1.0
    assert np.array_equal(collapsed.amplitudes, expected)


def test_measure_frequencies_match_probabilities():
    """Empirical frequencies over 1e5 draws stay within 3 binomial SE."""
    n = 100_000
    rng = np.random.default_rng(7)
    state = apply(hadamard(), initial_state(1))
    ones = sum(measure_collapse(state, rng)[0] == "1" for _ in range(n))
    margin = 3.0 * math.sqrt(0.25 / n)
    assert abs(ones / n - 0.5) <= margin


def test_measure_deterministic_given_seed():
    state = apply(rotation_gate(0.9), initial_state(1))
    rng = np.random.default_rng(33)
    run_a = [measure_collapse(state, rng)[0] for _ in range(50)]
    rng = np.random.default_rng(33)
    run_b = [measure_collapse(state, rng)[0] for _ in range(50)]
    assert run_a == run_b


def test_partial_measurement_qubit_1():
    """Measuring qubit 1 of (a, b, c, d) leaves (a, b) or (c, d) renormalized."""
    amps = np.array([0.5, 0.5j, 0.5, -0.5])
    rng = np.random.default_rng(17)
    for _ in range(10):
        bit, remainder = measure_collapse(StateVector(amps), rng, qubit=1)
        pair = amps[:2] if bit == "0" else amps[2:]
        expected = pair / np.linalg.norm(pair)
        assert remainder.n_qubits == 1
        assert np.allclose(remainder.amplitudes, expected, atol=1e-12)


def test_partial_measurement_qubit_2_certain_branch():
    """With no mass on qubit 2 = 1, the remainder is (a, c) renormalized."""
    amps = np.array([0.6, 0.0, 0.8, 0.0])
    bit, remainder = measure_collapse(StateVector(amps), np.random.default_rng(3), qubit=2)
    assert bit == "0"
    assert np.allclose(remainder.amplitudes, [0.6, 0.8], atol=1e-12)


def test_partial_measurement_renormalizes_by_the_probabilities():
    """A partial read sums the branch's |a_i|^2 as ``probabilities`` gives
    them, re * re + im * im: the remainder is amps[g] / sqrt(p[i] + p[j]),
    bit for bit."""
    rng = np.random.default_rng(29)
    for _ in range(200):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = StateVector(amps / np.linalg.norm(amps))
        p = probabilities(state)
        for qubit, groups in ((1, ((0, 1), (2, 3))), (2, ((0, 2), (1, 3)))):
            bit, remainder = measure_collapse(state, rng, qubit=qubit)
            i, j = groups[int(bit)]
            want = state.amplitudes[[i, j]] / math.sqrt(p[i] + p[j])
            assert remainder.amplitudes.tobytes() == want.tobytes()


# ============================================================
# Unitarity helpers
# ============================================================

def test_random_unitary_is_unitary():
    rng = np.random.default_rng(99)
    for _ in range(200):
        assert is_unitary(random_unitary_2x2(rng), 1e-10)


def test_random_unitary_moduli_identities():
    """|u12|^2 = |u21|^2 and |u11|^2 = |u22|^2 for 1000 seeded draws."""
    rng = np.random.default_rng(314)
    for _ in range(1000):
        m = random_unitary_2x2(rng).entries
        assert abs(abs(m[0, 1]) ** 2 - abs(m[1, 0]) ** 2) <= 1e-12
        assert abs(abs(m[0, 0]) ** 2 - abs(m[1, 1]) ** 2) <= 1e-12


# ============================================================
# Properties
# ============================================================

@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_rotation_gate_is_always_unitary(angle):
    gate = rotation_gate(angle)
    assert is_unitary(gate, 1e-10)
    out = apply(gate, initial_state(1))
    assert abs(float(np.sum(np.abs(out.amplitudes) ** 2)) - 1.0) <= 1e-12


@given(st.floats(-6.3, 6.3, allow_nan=False), st.floats(-6.3, 6.3, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_tensor_probabilities_factorize(theta, phi):
    """P(joint) of a product state is the product of single-qubit P's."""
    joint = probabilities(apply(tensor(rotation_gate(theta), rotation_gate(phi)),
                                initial_state(2)))
    p1 = probabilities(apply(rotation_gate(theta), initial_state(1)))
    p2 = probabilities(apply(rotation_gate(phi), initial_state(1)))
    assert np.allclose(joint, np.kron(p1, p2), atol=1e-12)
