"""The decision kernels against the step-by-step route they replace.

The oracle below builds every gate, state and product step by step: the
documented gate construction as three matrices multiplied out, tensor,
apply and cnot for the entangled circuit, and a ``measure_collapse`` loop
for the sampled protocol. Gates, event tables and the sweep are checked bit
for bit against matrices of Python complex numbers, the arithmetic the
kernels use; numpy's vectorised complex product may fuse a multiply and an
add, so the numpy state-vector engine is checked to a tolerance. The
kernels must leave the generator where the oracle leaves it.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprop import decision, qubits
from qprop.decision import (
    DRAW_BLOCK,
    DecisionScenario,
    QuestionOrder,
    entangled_circuit,
    equivalence_sweep,
    order_effect_circuit,
    order_effect_summary,
    sequential_measurement,
    sequential_measurement_sampled,
)
from qprop.qubits import (
    Gate,
    apply,
    cnot,
    hadamard,
    initial_state,
    measure_collapse,
    probabilities,
    random_unitaries,
    random_unitary_2x2,
    rotation_gate,
    tensor,
)

from checkers import raises, refused

# More trials than one block of draws holds, so the sampled protocol crosses
# a block boundary; the gate and sweep checks run streams of similar length.
ACROSS_BLOCKS = DRAW_BLOCK + 1808
PAIRS_ACROSS_BLOCKS = DRAW_BLOCK // 2 + 404

# Four units in the last place of 1: numpy's complex product may fuse a
# multiply and an add that the kernels round one at a time.
ENGINE_TOL = 4 * np.finfo(np.float64).eps


# ============================================================
# The step-by-step oracle
# ============================================================

def product(x, y):
    """Matrix product of nested lists of Python numbers."""
    return [[sum(row[k] * y[k][j] for k in range(len(y))) for j in range(len(y[0]))]
            for row in x]


def modulus_square(z):
    return z.real * z.real + z.imag * z.imag


def phase(t):
    return complex(math.cos(t), math.sin(t))


def oracle_unitary(rng):
    """exp(i d) diag(exp(i a), 1) R diag(exp(i b), 1), R = (cos, -sin; sin, cos),
    sin = sqrt(u) and cos = sqrt(1 - u)."""
    u = rng.random()
    a, b, d = rng.uniform(0.0, 2.0 * math.pi, size=3)
    sin, cos = math.sqrt(u), math.sqrt(1.0 - u)
    rot = [[cos, -sin], [sin, cos]]
    m = product(product([[phase(a), 0], [0, 1]], rot), [[phase(b), 0], [0, 1]])
    return Gate(np.array([[phase(d) * z for z in row] for row in m]))


def oracle_sequential(a, b):
    am, bm = a.entries.tolist(), b.entries.tolist()
    return (modulus_square(am[0][0] * bm[0][0]), modulus_square(am[0][0] * bm[1][0]),
            modulus_square(am[1][0] * bm[0][1]), modulus_square(am[1][0] * bm[1][1]))


def oracle_entangled(a, b):
    """cnot(1) . (A x B) |00>, each step a matrix product."""
    am, bm = a.entries.tolist(), b.entries.tolist()
    kron = [[am[i][j] * bm[k][l] for j in range(2) for l in range(2)]
            for i in range(2) for k in range(2)]
    swap_last_two = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    final = product(swap_last_two, product(kron, [[1], [0], [0], [0]]))
    return tuple(modulus_square(amp) for (amp,) in final)


def engine_entangled(a, b):
    final = apply(cnot(control=1), apply(tensor(a, b), initial_state(2)))
    return tuple(float(p) for p in probabilities(final))


def oracle_order_effect(theta, phi, order):
    if order is QuestionOrder.A_THEN_B:
        rotations = tensor(rotation_gate(theta), rotation_gate(phi))
        entangler = cnot(control=1)
    else:
        rotations = tensor(rotation_gate(phi), rotation_gate(theta - phi))
        entangler = cnot(control=2)
    final = apply(entangler, apply(rotations, initial_state(2)))
    return tuple(float(p) for p in probabilities(final))


def oracle_sampled(a, b, trials, rng):
    after_a = apply(a, initial_state(1))
    counts = [0, 0, 0, 0]
    for _ in range(trials):
        first, collapsed = measure_collapse(after_a, rng)
        second, _ = measure_collapse(apply(b, collapsed), rng)
        counts[2 * int(first) + int(second)] += 1
    return tuple(c / trials for c in counts)


def oracle_sweep(rng, trials, tol):
    max_dev = moduli_dev = 0.0
    failures = 0
    for _ in range(trials):
        a, b = oracle_unitary(rng), oracle_unitary(rng)
        dev = max(abs(x - y) for x, y in zip(oracle_sequential(a, b),
                                              oracle_entangled(a, b)))
        max_dev = max(max_dev, dev)
        failures += not dev <= tol
        for m in (a.entries.tolist(), b.entries.tolist()):
            moduli_dev = max(moduli_dev,
                             abs(modulus_square(m[0][1]) - modulus_square(m[1][0])),
                             abs(modulus_square(m[0][0]) - modulus_square(m[1][1])))
    return max_dev, moduli_dev, failures


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


# ============================================================
# Random unitaries
# ============================================================

@pytest.mark.parametrize("seed", [0, 17])
def test_random_unitaries_equal_the_oracle_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    want = np.array([oracle_unitary(rng).entries for _ in range(ACROSS_BLOCKS)])
    got_rng = np.random.default_rng(seed)
    got = random_unitaries(got_rng, ACROSS_BLOCKS)
    assert got.shape == (ACROSS_BLOCKS, 2, 2)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got_rng.random() == rng.random()


def test_random_unitary_2x2_is_one_gate_of_the_stack():
    rng, stack_rng = np.random.default_rng(5), np.random.default_rng(5)
    stack = random_unitaries(stack_rng, 40)
    for entries in stack:
        assert np.array_equal(random_unitary_2x2(rng).entries, entries)
    assert rng.random() == stack_rng.random()


def test_random_unitaries_of_zero_draw_nothing():
    rng = np.random.default_rng(3)
    assert random_unitaries(rng, 0).shape == (0, 2, 2)
    assert rng.random() == np.random.default_rng(3).random()
    assert raises(ValueError, "number of unitaries must not be negative", random_unitaries, rng, -1)


# ============================================================
# Closed event tables and the equivalence sweep
# ============================================================

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_event_tables_equal_the_oracle_bit_for_bit(seed):
    gates = [Gate(m) for m in random_unitaries(np.random.default_rng(seed), 1000)]
    for a, b in zip(gates[0::2], gates[1::2]):
        assert np.array_equal(bits(sequential_measurement(a, b).as_tuple()),
                              bits(oracle_sequential(a, b)))
        assert np.array_equal(bits(entangled_circuit(a, b).as_tuple()),
                              bits(oracle_entangled(a, b)))
        assert np.allclose(entangled_circuit(a, b).as_tuple(), engine_entangled(a, b),
                           rtol=0.0, atol=ENGINE_TOL)


@pytest.mark.parametrize("seed,trials,tol", [
    (11, PAIRS_ACROSS_BLOCKS, 1e-12),
    (12, 700, 1e-16),
    (13, 1, 1e-12),
])
def test_equivalence_sweep_equals_the_oracle_bit_for_bit(seed, trials, tol):
    rng, sweep_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    max_dev, moduli_dev, failures = oracle_sweep(rng, trials, tol)
    sweep = equivalence_sweep(sweep_rng, trials, tol)
    assert (sweep.trials, sweep.tol) == (trials, tol)
    assert bits(sweep.max_abs_deviation) == bits(max_dev)
    assert bits(sweep.moduli_identity_max_deviation) == bits(moduli_dev)
    assert sweep.failures == failures
    assert sweep_rng.random() == rng.random()


test_equivalence_sweep_validates_its_arguments = refused(
    (ValueError, "trials must be at least 1", equivalence_sweep, np.random.default_rng(0), 0),
    (ValueError, "tolerance must be positive", equivalence_sweep, np.random.default_rng(0), 5, 0.0))
ONE_QUBIT = "decision circuits take single-qubit gates"
test_event_tables_reject_two_qubit_gates = refused(
    (ValueError, ONE_QUBIT, lambda: sequential_measurement(cnot(1), hadamard())),
    (ValueError, ONE_QUBIT, lambda: entangled_circuit(cnot(1), hadamard())),
    (ValueError, ONE_QUBIT, lambda: sequential_measurement_sampled(hadamard(), cnot(2), 3,
                                                                   np.random.default_rng(0))))


# ============================================================
# Order effects
# ============================================================

def test_order_effect_equals_the_oracle_bit_for_bit():
    rng = np.random.default_rng(29)
    angles = [(float(t), float(p)) for t, p in rng.uniform(-7.0, 7.0, size=(600, 2))]
    angles += [(k * math.pi / 12, j * math.pi / 12) for k in range(-3, 13) for j in range(-3, 13)]
    angles += [(0.0, 0.0), (1e-300, -1e-300), (1e6, -3.5), (-0.0, math.pi)]
    for theta, phi in angles:
        summary = order_effect_summary(theta, phi)
        for order, dist in ((QuestionOrder.A_THEN_B, summary.a_then_b),
                            (QuestionOrder.B_THEN_A, summary.b_then_a)):
            want = oracle_order_effect(theta, phi, order)
            got = order_effect_circuit(DecisionScenario(theta, phi, order))
            assert np.array_equal(bits(got.as_tuple()), bits(want))
            assert np.array_equal(bits(dist.as_tuple()), bits(want))
            yy, yn, ny, nn = want
            assert np.array_equal(
                bits((dist.a_yes, dist.a_no, dist.b_yes, dist.b_no)),
                bits((yy + yn, ny + nn, yy + ny, yn + nn)))


# ============================================================
# The sampled protocol
# ============================================================

def sampled_cases():
    rng = np.random.default_rng(41)
    pairs = [(Gate(a), Gate(b)) for a, b in random_unitaries(rng, 60).reshape(30, 2, 2, 2)]
    special = [rotation_gate(0.0), rotation_gate(math.pi / 2), hadamard(), Gate(np.eye(2))]
    pairs += [(a, b) for a in special for b in special]
    return pairs


def test_sampled_counts_equal_the_oracle():
    for index, (a, b) in enumerate(sampled_cases()):
        trials = 1 + 97 * index % 400
        rng, kernel_rng = np.random.default_rng(index), np.random.default_rng(index)
        want = oracle_sampled(a, b, trials, rng)
        got = sequential_measurement_sampled(a, b, trials, kernel_rng)
        assert got.as_tuple() == want
        assert kernel_rng.random() == rng.random()


class FixedDraw:
    """A generator stand-in whose next uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class Draws:
    """A generator stand-in that hands out the given uniforms in order: one
    at a time, or as an array of the shape asked for, filled row by row."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        n = math.prod(size)
        taken, self.values = self.values[:n], self.values[n:]
        return np.array(taken).reshape(size)


def test_second_measurement_weighs_the_column_of_the_first_outcome():
    """Gate B's column picked by the first outcome, not its row, weighs the
    second measurement. Unitarity makes |b12|^2 equal |b21|^2 only to the
    gate tolerance, so a draw between the two tells them apart."""
    c, s, delta = math.cos(0.7), math.sin(0.7), 4e-11
    b = Gate(np.array([[c, -s], [s + delta, c]]))      # unitary within 1e-10
    # Above hadamard's 1/2 the first outcome is 1; the second draw lies
    # between |b12|^2 and |b21|^2.
    draws = [0.75, 0.5 * (s * s + (s + delta) ** 2)]
    want = oracle_sampled(hadamard(), b, 1, Draws(draws))
    got = sequential_measurement_sampled(hadamard(), b, 1, Draws(draws))
    assert got.as_tuple() == want == (0.0, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("probs", [
    (0.0, 1.0), (1.0, 0.0), (0.3, 0.7), (0.5, 0.4999999999999999),
    (0.9999999999999998, 0.0), (0.0, 0.9999999999999998)])
def test_vectorised_pick_follows_sample_index(probs):
    """Zero-mass outcomes are never picked, and a draw beyond the rounded
    total mass falls to the last outcome with mass."""
    draws = [0.0, 0.3, 0.4999999999999999, 0.5, 0.9999999999999998,
             1.0 - 2.0 ** -53]
    want = [qubits._sample_index(probs, FixedDraw(u)) for u in draws]
    assert decision._sample_indices(list(probs), np.array(draws)).tolist() == want


@pytest.mark.parametrize("gates", [(hadamard(), rotation_gate(0.7)),
                                   (rotation_gate(0.0), hadamard())])
def test_sampled_counts_equal_the_oracle_across_blocks(gates):
    rng, kernel_rng = np.random.default_rng(99), np.random.default_rng(99)
    want = oracle_sampled(*gates, ACROSS_BLOCKS, rng)
    got = sequential_measurement_sampled(*gates, ACROSS_BLOCKS, kernel_rng)
    assert got.as_tuple() == want
    assert kernel_rng.random() == rng.random()


# ============================================================
# The QQ equality (Wang & Busemeyer 2013, Topics in Cognitive Science 5(4))
# ============================================================

def differing_answers(dist):
    """P(A+B-) + P(A-B+), the same whichever of A or B is asked first."""
    return dist.p_yes_no + dist.p_no_yes


@given(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0))
@settings(max_examples=200, deadline=None)
def test_qq_equality_for_angle_pairs(theta, phi):
    ab = order_effect_circuit(DecisionScenario(theta, phi, QuestionOrder.A_THEN_B))
    ba = order_effect_circuit(DecisionScenario(theta, phi, QuestionOrder.B_THEN_A))
    assert differing_answers(ab) == pytest.approx(differing_answers(ba), abs=1e-14)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_qq_equality_for_random_unitary_pairs(seed):
    """Asking A then B runs A, measures, then B; asking B first runs B.A,
    measures, then B^-1 back into A's basis. The table of the second order
    is indexed (B, A), and its off-diagonal sum is the same quantity."""
    a, b = (Gate(m) for m in random_unitaries(np.random.default_rng(seed), 2))
    b_inverse = Gate(b.entries.conj().T)
    for table in (sequential_measurement, entangled_circuit):
        ab = table(a, b)
        ba = table(b @ a, b_inverse)
        assert differing_answers(ab) == pytest.approx(differing_answers(ba), abs=1e-14)
