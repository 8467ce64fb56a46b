import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qprop.decision import (
    EVENT_LABELS,
    DecisionScenario,
    EquivalenceReport,
    EventDistribution,
    QuestionOrder,
    entangled_circuit,
    equivalence_check,
    equivalence_sweep,
    interference_term,
    measured_b_yes,
    order_effect_circuit,
    order_effect_magnitude,
    order_effect_summary,
    preference_reversal_switch,
    sequential_measurement,
    sequential_measurement_sampled,
    unmeasured_b_yes,
)
from qprop.qubits import (
    Gate,
    apply,
    hadamard,
    initial_state,
    is_unitary,
    probabilities,
    random_unitary_2x2,
    rotation_gate,
)

GRID = [k * math.pi / 24 for k in range(48)]


def closed_form_a_then_b(theta, phi):
    c_t, s_t = math.cos(theta) ** 2, math.sin(theta) ** 2
    c_p, s_p = math.cos(phi) ** 2, math.sin(phi) ** 2
    return (c_t * c_p, c_t * s_p, s_t * s_p, s_t * c_p)


def closed_form_b_then_a(theta, phi):
    c_p, s_p = math.cos(phi) ** 2, math.sin(phi) ** 2
    c_d, s_d = math.cos(theta - phi) ** 2, math.sin(theta - phi) ** 2
    return (c_p * c_d, s_p * s_d, s_p * c_d, c_p * s_d)


# ============================================================
# Order-effect circuits
# ============================================================

def test_event_labels():
    assert EVENT_LABELS == ("A+B+", "A+B-", "A-B+", "A-B-")


def test_a_then_b_events_at_pi6_pi4():
    dist = order_effect_circuit(DecisionScenario(math.pi / 6, math.pi / 4,
                                              QuestionOrder.A_THEN_B))
    assert dist.as_tuple() == pytest.approx((0.375, 0.375, 0.125, 0.125), abs=1e-12)


def test_b_then_a_events_at_pi6_pi4():
    theta, phi = math.pi / 6, math.pi / 4
    dist = order_effect_circuit(DecisionScenario(theta, phi, QuestionOrder.B_THEN_A))
    assert dist.as_tuple() == pytest.approx(closed_form_b_then_a(theta, phi),
                                            abs=1e-12)


def test_circuit_matches_closed_form_full_grid():
    """Simulated joints equal the closed forms on a 48x48 angular grid."""
    for theta in GRID:
        for phi in GRID:
            ab = order_effect_circuit(
                DecisionScenario(theta, phi, QuestionOrder.A_THEN_B))
            ba = order_effect_circuit(
                DecisionScenario(theta, phi, QuestionOrder.B_THEN_A))
            assert ab.as_tuple() == pytest.approx(
                closed_form_a_then_b(theta, phi), abs=1e-12)
            assert ba.as_tuple() == pytest.approx(
                closed_form_b_then_a(theta, phi), abs=1e-12)


def test_event_distribution_sums_to_one_on_grid():
    for theta in GRID[::6]:
        for phi in GRID[::6]:
            for order in QuestionOrder:
                dist = order_effect_circuit(DecisionScenario(theta, phi, order))
                assert sum(dist.as_tuple()) == pytest.approx(1.0, abs=1e-12)


def test_event_distribution_marginals():
    dist = EventDistribution(0.4, 0.3, 0.2, 0.1)
    assert dist.a_yes == pytest.approx(0.7)
    assert dist.a_no == pytest.approx(0.3)
    assert dist.b_yes == pytest.approx(0.6)
    assert dist.b_no == pytest.approx(0.4)


@pytest.mark.parametrize("probs", [(0.5, 0.5, 0.5, 0.5), (math.nan, 0.0, 0.0, 0.0),
                                   (math.nan, 1.0, 0.0, 0.0), (math.nan, 0.0, 0.0, 1.0)],
                         ids=["sum-2", "nan", "nan-beside-1", "nan-then-1"])
def test_event_distribution_rejects_bad_sum(probs):
    """A NaN compares false both ways; it must fail the checks, not slip past."""
    with pytest.raises(ValueError):
        EventDistribution(*probs)


def test_event_distribution_as_dict_order():
    dist = EventDistribution(0.4, 0.3, 0.2, 0.1)
    assert list(dist.as_dict()) == list(EVENT_LABELS)


def test_order_effect_summary_marginals():
    theta, phi = math.pi / 6, math.pi / 4
    summary = order_effect_summary(theta, phi)
    assert summary.a_then_b.a_yes == pytest.approx(math.cos(theta) ** 2, abs=1e-12)
    assert summary.b_then_a.b_yes == pytest.approx(
        math.cos(theta - phi) ** 2, abs=1e-12)
    # cos^2(pi/12)
    assert summary.b_then_a.b_yes == pytest.approx(0.9330127018922194, abs=1e-12)
    assert summary.a_then_b.b_yes == pytest.approx(
        math.cos(theta) ** 2 * math.cos(phi) ** 2
        + math.sin(theta) ** 2 * math.sin(phi) ** 2, abs=1e-12)


def test_orders_agree_when_phi_is_zero():
    """With no second rotation the two question orders coincide."""
    for theta in GRID[::4]:
        ab = order_effect_circuit(
            DecisionScenario(theta, 0.0, QuestionOrder.A_THEN_B))
        ba = order_effect_circuit(
            DecisionScenario(theta, 0.0, QuestionOrder.B_THEN_A))
        assert ab.as_tuple() == pytest.approx(ba.as_tuple(), abs=1e-12)


def test_circuit_rejects_nonfinite_angles():
    with pytest.raises(ValueError):
        DecisionScenario(math.nan, 0.1, QuestionOrder.A_THEN_B)
    with pytest.raises(ValueError):
        order_effect_summary(0.1, math.inf)
    # Finite angles whose difference overflows are refused by name, not
    # passed to cos as an infinity.
    for call in (lambda: order_effect_summary(1e308, -1e308),
                 lambda: interference_term(-1e308, 1e308),
                 lambda: DecisionScenario(1e308, -1e308, QuestionOrder.B_THEN_A)):
        with pytest.raises(OverflowError, match="^theta - phi does not fit in a float$"):
            call()


# ============================================================
# Interference
# ============================================================

def test_interference_frozen_values():
    assert interference_term(math.pi / 4, math.pi / 4) == pytest.approx(0.5,
                                                                        abs=1e-12)
    assert order_effect_magnitude(math.pi / 4, math.pi / 4) == pytest.approx(
        -0.5, abs=1e-12)
    assert interference_term(math.pi / 8, -math.pi / 8) == pytest.approx(
        -0.25, abs=1e-12)


def test_interference_closed_form_identity():
    """unmeasured minus measured B-yes equals sin(2 theta) sin(2 phi) / 2."""
    for theta in GRID:
        for phi in GRID:
            expected = 0.5 * math.sin(2 * theta) * math.sin(2 * phi)
            assert interference_term(theta, phi) == pytest.approx(expected,
                                                                  abs=1e-12)


def test_interference_vanishes_at_right_angles():
    for k in range(5):
        assert abs(interference_term(k * math.pi / 2, 0.3)) <= 1e-12
        assert abs(interference_term(0.3, k * math.pi / 2)) <= 1e-12


def test_interference_symmetric_in_arguments():
    for theta in GRID[::5]:
        for phi in GRID[::5]:
            assert interference_term(theta, phi) == pytest.approx(
                interference_term(phi, theta), abs=1e-12)


def test_interference_against_basis_rotation():
    """Asking only B amounts to reading qubit 1 in the R_phi basis:
    p(B yes) = |<0| R_{-phi} R_theta |0>|^2 = cos^2(theta - phi)."""
    for theta in GRID[::3]:
        for phi in GRID[::3]:
            rotated = apply(rotation_gate(-phi),
                            apply(rotation_gate(theta), initial_state(1)))
            unmeasured = float(probabilities(rotated)[0])
            summary = order_effect_summary(theta, phi)
            measured = summary.a_then_b.b_yes
            assert interference_term(theta, phi) == pytest.approx(
                unmeasured - measured, abs=1e-12)


def test_magnitude_is_negated_interference():
    for theta in GRID[::7]:
        for phi in GRID[::7]:
            assert order_effect_magnitude(theta, phi) == pytest.approx(
                -interference_term(theta, phi), abs=1e-12)


# ============================================================
# Sequential vs entangled measurement
# ============================================================

def test_sequential_hadamard_pair_gives_quarters():
    dist = sequential_measurement(hadamard(), hadamard())
    assert dist.as_tuple() == pytest.approx((0.25, 0.25, 0.25, 0.25), abs=1e-12)


def test_entangled_hadamard_pair_gives_quarters():
    dist = entangled_circuit(hadamard(), hadamard())
    assert dist.as_tuple() == pytest.approx((0.25, 0.25, 0.25, 0.25), abs=1e-12)


def test_sequential_identity_first_question_certain():
    dist = sequential_measurement(rotation_gate(0.0), hadamard())
    assert dist.as_tuple() == pytest.approx((0.5, 0.5, 0.0, 0.0), abs=1e-12)


def test_sequential_rotation_pair_against_hand_expansion():
    """For rotations the four sequential events are the A-then-B joint."""
    theta, phi = 0.7, 1.2
    dist = sequential_measurement(rotation_gate(theta), rotation_gate(phi))
    assert dist.as_tuple() == pytest.approx(closed_form_a_then_b(theta, phi),
                                            abs=1e-12)


def test_sequential_uses_moduli_of_gate_entries():
    """Events are |a11 b11|^2, |a11 b21|^2, |a21 b12|^2, |a21 b22|^2."""
    rng = np.random.default_rng(42)
    a, b = random_unitary_2x2(rng), random_unitary_2x2(rng)
    am, bm = a.entries, b.entries
    expected = (abs(am[0, 0] * bm[0, 0]) ** 2, abs(am[0, 0] * bm[1, 0]) ** 2,
                abs(am[1, 0] * bm[0, 1]) ** 2, abs(am[1, 0] * bm[1, 1]) ** 2)
    dist = sequential_measurement(a, b)
    assert dist.as_tuple() == pytest.approx(expected, abs=1e-14)


def test_entangled_circuit_amplitudes():
    """cnot(1).(A x B)|00> has events |a11 b11|^2, |a11 b21|^2,
    |a21 b21|^2, |a21 b11|^2."""
    rng = np.random.default_rng(43)
    a, b = random_unitary_2x2(rng), random_unitary_2x2(rng)
    am, bm = a.entries, b.entries
    expected = (abs(am[0, 0] * bm[0, 0]) ** 2, abs(am[0, 0] * bm[1, 0]) ** 2,
                abs(am[1, 0] * bm[1, 0]) ** 2, abs(am[1, 0] * bm[0, 0]) ** 2)
    dist = entangled_circuit(a, b)
    assert dist.as_tuple() == pytest.approx(expected, abs=1e-14)


def test_equivalence_over_seeded_random_pairs():
    """Sequential and entangled protocols agree for 1000 random unitary pairs."""
    rng = np.random.default_rng(20240101)
    worst = 0.0
    for _ in range(1000):
        a, b = random_unitary_2x2(rng), random_unitary_2x2(rng)
        report = equivalence_check(a, b, tol=1e-12)
        assert report.passed
        worst = max(worst, report.max_abs_deviation)
    assert worst <= 1e-12


def test_equivalence_report_contents():
    report = equivalence_check(hadamard(), hadamard(), tol=1e-12)
    assert isinstance(report, EquivalenceReport)
    assert report.passed
    assert report.tol == 1e-12
    assert report.max_abs_deviation <= 1e-15
    assert report.sequential.as_tuple() == pytest.approx(
        report.entangled.as_tuple(), abs=1e-15)


def test_equivalence_accepts_plain_matrices():
    theta, phi = 0.3, 0.9
    report = equivalence_check(rotation_gate(theta).entries,
                               rotation_gate(phi).entries, tol=1e-12)
    assert report.passed


def test_equivalence_rejects_nonunitary_input():
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        equivalence_check(shear, np.eye(2), tol=1e-12)


def test_equivalence_rejects_zero_tolerance():
    with pytest.raises(ValueError):
        equivalence_check(hadamard(), hadamard(), tol=0.0)


@pytest.mark.parametrize("call", [
    lambda tol: is_unitary(hadamard(), tol),
    lambda tol: equivalence_check(hadamard(), hadamard(), tol=tol),
    lambda tol: equivalence_sweep(np.random.default_rng(1), 5, tol),
], ids=["is_unitary", "equivalence_check", "equivalence_sweep"])
def test_a_nan_tolerance_is_refused(call):
    with pytest.raises(ValueError, match="tolerance must be positive"):
        call(math.nan)


H10 = 0.7071067812                     # 1/sqrt(2) typed to ten digits
# Unitary within GATE_UNITARY_TOL (1e-10), but not within EVENT_SUM_TOL.
ADMITTED = {"ten-digit-hadamard": [[H10, H10], [H10, -H10]],
            "diag-1+4e-11": np.diag([1 + 4e-11, 1])}


@pytest.mark.parametrize("entries", ADMITTED.values(), ids=ADMITTED)
def test_an_admitted_gate_gives_its_events(entries):
    """The event tables of a gate admitted within its tolerance are not
    checked again: each event is |product of two entries|^2, bit for bit,
    for the gate and for its raw matrix."""
    a11, a12, a21, a22 = Gate(entries).entries.ravel().tolist()
    p = [z.real * z.real + z.imag * z.imag
         for z in (a11 * a11, a11 * a21, a21 * a12, a21 * a22, a21 * a21, a21 * a11)]
    seq, ent = tuple(p[:4]), (p[0], p[1], p[4], p[5])
    for gate in (Gate(entries), entries):
        assert sequential_measurement(gate, gate).as_tuple() == seq
        assert entangled_circuit(gate, gate).as_tuple() == ent
        report = equivalence_check(gate, gate)
        assert (report.sequential.as_tuple(), report.entangled.as_tuple()) == (seq, ent)


def test_sampled_sequential_matches_exact():
    """1e5 collapse-and-continue trials agree with exact events to 3 SE."""
    trials = 100_000
    theta, phi = math.pi / 6, math.pi / 4
    exact = sequential_measurement(rotation_gate(theta), rotation_gate(phi))
    sampled = sequential_measurement_sampled(rotation_gate(theta),
                                             rotation_gate(phi), trials,
                                             np.random.default_rng(8))
    for p_hat, p in zip(sampled.as_tuple(), exact.as_tuple()):
        margin = 3.0 * math.sqrt(p * (1.0 - p) / trials)
        assert abs(p_hat - p) <= margin


def test_sampled_sequential_rejects_bad_trials():
    with pytest.raises(ValueError):
        sequential_measurement_sampled(hadamard(), hadamard(), 0,
                                       np.random.default_rng(0))


# ============================================================
# Preference reversal
# ============================================================

def test_reversal_threshold_is_strict_at_three():
    assert not preference_reversal_switch(1.0, 1.0).switches
    assert not preference_reversal_switch(1.0, 2.999).switches
    assert not preference_reversal_switch(1.0, 3.0).switches
    assert preference_reversal_switch(1.0, 3.001).switches
    assert preference_reversal_switch(1.0, 4.0).switches


def test_reversal_uses_cost_ratio():
    decision = preference_reversal_switch(2.0, 8.0)
    assert decision.ratio == pytest.approx(4.0)
    assert decision.switches
    assert preference_reversal_switch(20.0, 8.0).ratio == pytest.approx(0.4)


def test_reversal_rejects_nonpositive_costs():
    with pytest.raises(ValueError):
        preference_reversal_switch(0.0, 1.0)
    with pytest.raises(ValueError):
        preference_reversal_switch(1.0, -2.0)
    with pytest.raises(ValueError):
        preference_reversal_switch(math.inf, 1.0)


# ============================================================
# Properties
# ============================================================

angles = st.floats(min_value=-6.3, max_value=6.3, allow_nan=False)


@given(angles, angles)
@settings(max_examples=150, deadline=None)
def test_order_effect_distributions_are_closed(theta, phi):
    """Every simulated joint is a probability distribution."""
    for order in QuestionOrder:
        dist = order_effect_circuit(DecisionScenario(theta, phi, order))
        values = dist.as_tuple()
        assert all(-1e-12 <= v <= 1.0 + 1e-12 for v in values)
        assert sum(values) == pytest.approx(1.0, abs=1e-12)


@given(angles, angles)
@settings(max_examples=150, deadline=None)
def test_interference_is_bounded(theta, phi):
    assert abs(interference_term(theta, phi)) <= 0.5 + 1e-12


@given(angles, angles)
@settings(max_examples=150, deadline=None)
def test_conditional_answers_are_reciprocal(theta, phi):
    """P(B+|A+) with A asked first equals P(A+|B+) with B asked first: both
    are the squared overlap of the two rank-1 yes projectors (Busemeyer and
    Bruza 2012, ch. 4)."""
    summary = order_effect_summary(theta, phi)
    first_a, first_b = summary.a_then_b, summary.b_then_a
    assume(first_a.a_yes > 1e-3 and first_b.b_yes > 1e-3)
    b_given_a = first_a.p_yes_yes / first_a.a_yes
    a_given_b = first_b.p_yes_yes / first_b.b_yes
    assert a_given_b == pytest.approx(b_given_a, rel=0, abs=1e-12)


# ============================================================
# The disjunction effect (Tversky & Shafir 1992, Psychological Science 3(5))
# ============================================================

def conditionals(theta, phi):
    """P(A+), P(B+|A+) and P(B+|A-) of the circuit that asks A first."""
    dist = order_effect_circuit(DecisionScenario(theta, phi, QuestionOrder.A_THEN_B))
    return dist.a_yes, dist.p_yes_yes / dist.a_yes, dist.p_no_yes / dist.a_no


@given(angles, angles)
@settings(max_examples=200, deadline=None)
def test_measured_b_yes_obeys_the_law_of_total_probability(theta, phi):
    """Settling A first makes P(B+) the average of the conditionals
    cos^2(phi) and sin^2(phi), weighted by P(A+) = cos^2(theta); deciding B
    directly differs from it by the interference term."""
    c_t, s_t = math.cos(theta) ** 2, math.sin(theta) ** 2
    c_p, s_p = math.cos(phi) ** 2, math.sin(phi) ** 2
    measured = measured_b_yes(theta, phi)
    assert measured == pytest.approx(c_t * c_p + s_t * s_p, rel=0, abs=1e-12)
    assert unmeasured_b_yes(theta, phi) - measured == interference_term(theta, phi)
    assume(1e-3 < c_t < 1.0 - 1e-3)
    a_yes, b_given_yes, b_given_no = conditionals(theta, phi)
    assert (b_given_yes, b_given_no) == pytest.approx((c_p, s_p), rel=0, abs=1e-12)
    total = a_yes * b_given_yes + (1.0 - a_yes) * b_given_no
    assert measured == pytest.approx(total, rel=0, abs=1e-12)


def disjunction_closed_form(theta, phi):
    """cos^2(theta - phi) - min(cos^2 phi, sin^2 phi): negative where deciding
    B directly is less likely than after either answer to A."""
    return math.cos(theta - phi) ** 2 - min(math.cos(phi) ** 2, math.sin(phi) ** 2)


def test_disjunction_effect_region():
    """The sure-thing principle fails: B is less likely decided directly than
    after either answer to A. The region is not empty, and a scan of the
    model's own probabilities finds it where the closed form puts it."""
    _, b_given_yes, b_given_no = conditionals(3 * math.pi / 4, math.pi / 4)
    assert unmeasured_b_yes(3 * math.pi / 4, math.pi / 4) < min(b_given_yes, b_given_no)
    assert disjunction_closed_form(3 * math.pi / 4, math.pi / 4) == pytest.approx(-0.5)
    inside = 0
    scan = [k * math.pi / 48 for k in range(1, 48) if k != 24]   # A is never certain
    for theta in scan:
        for phi in scan:
            gap = disjunction_closed_form(theta, phi)
            if abs(gap) < 1e-9:
                continue
            _, b_given_yes, b_given_no = conditionals(theta, phi)
            model = unmeasured_b_yes(theta, phi) < min(b_given_yes, b_given_no)
            assert model == (gap < 0), (theta, phi)
            inside += model
    assert 0 < inside < len(scan) ** 2
