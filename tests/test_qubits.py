import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

SQRT2_INV = 1.0 / math.sqrt(2.0)

X_C_MATRIX = np.array([
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 0],
], dtype=complex)


# ============================================================
# States
# ============================================================

def test_initial_state_one_qubit():
    state = initial_state(1)
    assert state.n_qubits == 1
    assert np.array_equal(state.amplitudes, np.array([1, 0], dtype=complex))


def test_initial_state_two_qubits():
    state = initial_state(2)
    assert state.n_qubits == 2
    assert np.array_equal(state.amplitudes, np.array([1, 0, 0, 0], dtype=complex))


def test_initial_state_rejects_unsupported_count():
    with pytest.raises(ValueError):
        initial_state(3)
    with pytest.raises(ValueError):
        initial_state(0)


def test_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]))


def test_state_rejects_nonfinite():
    with pytest.raises(ValueError):
        StateVector(np.array([np.nan, 0.0]))


def test_state_accepts_norm_within_tolerance():
    amps = np.array([1.0 + 4e-13, 0.0])
    state = StateVector(amps)
    assert state.n_qubits == 1


def test_state_amplitudes_are_read_only():
    state = initial_state(1)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_basis_labels():
    assert basis_labels(1) == ("0", "1")
    assert basis_labels(2) == ("00", "01", "10", "11")


# ============================================================
# Gates
# ============================================================

def test_rotation_zero_is_identity():
    assert np.allclose(rotation_gate(0.0).entries, np.eye(2), atol=1e-15)


def test_rotation_entries():
    """R = (cos, -sin; sin, cos)."""
    g = rotation_gate(0.3)
    expected = np.array([[math.cos(0.3), -math.sin(0.3)],
                         [math.sin(0.3), math.cos(0.3)]])
    assert np.allclose(g.entries, expected, atol=1e-15)


def test_rotation_quarter_turn_balances():
    state = apply(rotation_gate(math.pi / 4), initial_state(1))
    assert np.allclose(state.amplitudes, [SQRT2_INV, SQRT2_INV], atol=1e-12)


def test_rotation_rejects_nonfinite_angle():
    with pytest.raises(ValueError):
        rotation_gate(math.nan)
    with pytest.raises(ValueError):
        rotation_gate(math.inf)


def test_hadamard_entries():
    expected = SQRT2_INV * np.array([[1, 1], [1, -1]])
    assert np.allclose(hadamard().entries, expected, atol=1e-15)


def test_hadamard_equal_superposition():
    probs = probabilities(apply(hadamard(), initial_state(1)))
    assert np.allclose(probs, [0.5, 0.5], atol=1e-12)


def test_hadamard_self_inverse_interference():
    """H(H|0>) = |0>: the |1> amplitude cancels."""
    state = apply(hadamard(), apply(hadamard(), initial_state(1)))
    assert np.allclose(state.amplitudes, [1.0, 0.0], atol=1e-12)


def test_cnot_control_1_matrix():
    assert np.array_equal(cnot(control=1).entries, X_C_MATRIX)


def test_cnot_control_1_truth_table():
    """Flips qubit 2 when qubit 1 is set: 00->00, 01->01, 10->11, 11->10."""
    gate = cnot(control=1)
    for source, target in ((0, 0), (1, 1), (2, 3), (3, 2)):
        basis = np.zeros(4, dtype=complex)
        basis[source] = 1.0
        out = apply(gate, StateVector(basis))
        assert abs(out.amplitudes[target] - 1.0) < 1e-15


def test_cnot_control_2_truth_table():
    """Flips qubit 1 when qubit 2 is set: 00->00, 01->11, 10->10, 11->01."""
    gate = cnot(control=2)
    for source, target in ((0, 0), (1, 3), (2, 2), (3, 1)):
        basis = np.zeros(4, dtype=complex)
        basis[source] = 1.0
        out = apply(gate, StateVector(basis))
        assert abs(out.amplitudes[target] - 1.0) < 1e-15


def test_cnot_rejects_bad_control():
    with pytest.raises(ValueError):
        cnot(control=0)
    with pytest.raises(ValueError):
        cnot(control=3)


def test_gate_rejects_shear():
    with pytest.raises(ValueError):
        Gate(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_gate_rejects_bad_shape():
    with pytest.raises(ValueError):
        Gate(np.eye(3))


def test_gate_entries_are_read_only():
    gate = hadamard()
    with pytest.raises(ValueError):
        gate.entries[0, 0] = 2.0


def test_gate_composition_stays_unitary():
    composed = hadamard() @ rotation_gate(0.7)
    assert is_unitary(composed, 1e-10)


def test_tensor_expands_rotations():
    """Kronecker product of two rotations acting on |00>."""
    theta, phi = 0.4, 1.1
    state = apply(tensor(rotation_gate(theta), rotation_gate(phi)), initial_state(2))
    expected = [math.cos(theta) * math.cos(phi), math.cos(theta) * math.sin(phi),
                math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi)]
    assert np.allclose(state.amplitudes, expected, atol=1e-15)


def test_tensor_with_identity_keeps_block_structure():
    g = tensor(hadamard(), rotation_gate(0.0))
    expected = np.kron(hadamard().entries, np.eye(2))
    assert np.allclose(g.entries, expected, atol=1e-15)


def test_tensor_rejects_two_qubit_input():
    with pytest.raises(ValueError):
        tensor(cnot(1), hadamard())


def test_tensor_of_unitaries_is_unitary():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = tensor(random_unitary_2x2(rng), random_unitary_2x2(rng))
        assert is_unitary(g, 1e-10)


# ============================================================
# Application and probabilities
# ============================================================

def test_apply_swaps_last_two_amplitudes():
    """cnot(1) maps (a, b, c, d) to (a, b, d, c)."""
    rng = np.random.default_rng(5)
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    raw /= np.linalg.norm(raw)
    out = apply(cnot(control=1), StateVector(raw))
    assert np.allclose(out.amplitudes, raw[[0, 1, 3, 2]], atol=1e-15)


def test_apply_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        apply(cnot(1), initial_state(1))
    with pytest.raises(ValueError):
        apply(hadamard(), initial_state(2))


def test_apply_preserves_norm_over_random_unitaries():
    """1000 seeded random unitaries on random states keep the 2-norm at 1."""
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        state = apply(random_unitary_2x2(rng), initial_state(1))
        out = apply(random_unitary_2x2(rng), state)
        norm_sq = float(np.sum(np.abs(out.amplitudes) ** 2))
        assert abs(norm_sq - 1.0) <= 1e-12


def test_probabilities_basis_state():
    state = initial_state(2)
    assert state.labels == ("00", "01", "10", "11")
    assert np.array_equal(probabilities(state), [1.0, 0.0, 0.0, 0.0])


def test_probabilities_two_norm_rule():
    state = StateVector(np.array([0.6, 0.8j]))
    probs = probabilities(state)
    assert np.allclose(probs, [0.36, 0.64], atol=1e-15)


def test_probabilities_rotated_circuit():
    """cnot(1).(R_pi/6 x R_pi/4)|00> gives (0.375, 0.375, 0.125, 0.125)."""
    state = apply(cnot(1), apply(tensor(rotation_gate(math.pi / 6),
                                        rotation_gate(math.pi / 4)),
                                 initial_state(2)))
    expected = [0.375, 0.375, 0.125, 0.125]
    assert np.allclose(probabilities(state), expected, atol=1e-12)


def test_entanglement_marker():
    """cnot(1).(H x I)|00> puts all mass on |00> and |11>."""
    state = apply(cnot(1), apply(tensor(hadamard(), rotation_gate(0.0)),
                                 initial_state(2)))
    assert np.allclose(probabilities(state), [0.5, 0.0, 0.0, 0.5], atol=1e-12)


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
    with pytest.raises(ValueError):
        probs[0] = 0.5


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
    bit, remainder = measure_collapse(StateVector(amps), np.random.default_rng(3),
                                      qubit=2)
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


def test_partial_measurement_rejects_single_qubit_state():
    with pytest.raises(ValueError):
        measure_collapse(initial_state(1), np.random.default_rng(0), qubit=1)


def test_partial_measurement_rejects_bad_wire():
    with pytest.raises(ValueError):
        measure_collapse(initial_state(2), np.random.default_rng(0), qubit=3)


# ============================================================
# Unitarity helpers
# ============================================================

def test_is_unitary_accepts_gate_and_matrix():
    assert is_unitary(hadamard(), 1e-10)
    assert is_unitary(X_C_MATRIX, 1e-10)


def test_is_unitary_rejects_shear():
    assert not is_unitary(np.array([[1.0, 1.0], [0.0, 1.0]]), 1e-10)


def test_is_unitary_rejects_nonsquare():
    assert not is_unitary(np.ones((2, 3)), 1e-10)


def test_is_unitary_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        is_unitary(hadamard(), 0.0)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(99)
    for _ in range(200):
        assert is_unitary(random_unitary_2x2(rng), 1e-10)


def test_random_unitary_deterministic_given_seed():
    g1 = random_unitary_2x2(np.random.default_rng(12345))
    g2 = random_unitary_2x2(np.random.default_rng(12345))
    assert np.array_equal(g1.entries, g2.entries)


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
