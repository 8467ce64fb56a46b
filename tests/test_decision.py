import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from pytest import approx

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

from checkers import refused

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
# Values at fixed inputs
# ============================================================

AB, BA, PI6, PI4 = QuestionOrder.A_THEN_B, QuestionOrder.B_THEN_A, math.pi / 6, math.pi / 4
QUARTERS = approx((0.25, 0.25, 0.25, 0.25), abs=1e-12)


def test_event_labels():
    assert EVENT_LABELS == ("A+B+", "A+B-", "A-B+", "A-B-")


def test_a_then_b_events_at_pi6_pi4():
    events = order_effect_circuit(DecisionScenario(PI6, PI4, AB)).as_tuple()
    assert events == approx((0.375, 0.375, 0.125, 0.125), abs=1e-12)


def test_b_then_a_events_at_pi6_pi4():
    events = order_effect_circuit(DecisionScenario(PI6, PI4, BA)).as_tuple()
    assert events == approx(closed_form_b_then_a(PI6, PI4), abs=1e-12)


def test_event_distribution_marginals():
    dist = EventDistribution(0.4, 0.3, 0.2, 0.1)
    assert (dist.a_yes, dist.a_no, dist.b_yes, dist.b_no) == approx((0.7, 0.3, 0.6, 0.4))


def test_event_distribution_as_dict_order():
    assert list(EventDistribution(0.4, 0.3, 0.2, 0.1).as_dict()) == list(EVENT_LABELS)


def test_order_effect_summary_marginals():
    """b_then_a.b_yes is cos^2(theta - phi) = cos^2(pi/12)."""
    summary = order_effect_summary(PI6, PI4)
    assert summary.a_then_b.a_yes == approx(math.cos(PI6) ** 2, abs=1e-12)
    assert summary.b_then_a.b_yes == approx(math.cos(PI6 - PI4) ** 2, abs=1e-12)
    assert summary.b_then_a.b_yes == approx(0.9330127018922194, abs=1e-12)
    measured = math.cos(PI6) ** 2 * math.cos(PI4) ** 2 + math.sin(PI6) ** 2 * math.sin(PI4) ** 2
    assert summary.a_then_b.b_yes == approx(measured, abs=1e-12)


def test_interference_frozen_values():
    assert interference_term(math.pi / 4, math.pi / 4) == approx(0.5, abs=1e-12)
    assert order_effect_magnitude(math.pi / 4, math.pi / 4) == approx(-0.5, abs=1e-12)
    assert interference_term(math.pi / 8, -math.pi / 8) == approx(-0.25, abs=1e-12)


def test_sequential_hadamard_pair_gives_quarters():
    assert sequential_measurement(hadamard(), hadamard()).as_tuple() == QUARTERS


def test_entangled_hadamard_pair_gives_quarters():
    assert entangled_circuit(hadamard(), hadamard()).as_tuple() == QUARTERS


def test_sequential_identity_first_question_certain():
    events = sequential_measurement(rotation_gate(0.0), hadamard()).as_tuple()
    assert events == approx((0.5, 0.5, 0.0, 0.0), abs=1e-12)


def test_sequential_rotation_pair_against_hand_expansion():
    """For rotations the four sequential events are the A-then-B joint."""
    events = sequential_measurement(rotation_gate(0.7), rotation_gate(1.2)).as_tuple()
    assert events == approx(closed_form_a_then_b(0.7, 1.2), abs=1e-12)


def test_equivalence_fails_beyond_its_tolerance():
    """A gate unitary within 1e-10 whose |b12|^2 and |b21|^2 differ by about
    sin(0.7) * 4e-11: the two routes differ by that much, beyond tol = 1e-12."""
    skewed = [[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7) + 4e-11, math.cos(0.7)]]
    report = equivalence_check(hadamard(), skewed, 1e-12)
    assert not report.passed
    assert report.max_abs_deviation == approx(math.sin(0.7) * 4e-11, rel=1e-6)


def test_equivalence_accepts_plain_matrices():
    a, b = rotation_gate(0.3).entries, rotation_gate(0.9).entries
    assert equivalence_check(a, b, tol=1e-12).passed


def test_reversal_threshold_is_strict_at_three():
    for x2 in (1.0, 2.999, 3.0):
        assert not preference_reversal_switch(1.0, x2).switches
    for x2 in (3.001, 4.0):
        assert preference_reversal_switch(1.0, x2).switches


def test_reversal_uses_cost_ratio():
    result = preference_reversal_switch(2.0, 8.0)
    assert result.ratio == approx(4.0)
    assert result.switches
    assert preference_reversal_switch(20.0, 8.0).ratio == approx(0.4)


# ============================================================
# Refusals
# ============================================================

# A NaN compares false both ways; it must fail the checks, not slip past.
test_event_distribution_rejects_bad_sum = refused(
    (ValueError, "event probabilities must sum to 1", EventDistribution, 0.5, 0.5, 0.5, 0.5),
    *((ValueError, "event probabilities must lie in [0, 1]", EventDistribution, *probs)
      for probs in ((math.nan, 0.0, 0.0, 0.0), (math.nan, 1.0, 0.0, 0.0),
                    (math.nan, 0.0, 0.0, 1.0))), ids=["sum-2", "nan", "nan-beside-1", "nan-then-1"])
# Finite angles whose difference overflows are refused by name, not passed to
# cos as an infinity.
test_circuit_rejects_nonfinite_angles = refused(
    (ValueError, "angles must be finite", DecisionScenario, math.nan, 0.1, AB),
    (ValueError, "angles must be finite", order_effect_summary, 0.1, math.inf),
    *((OverflowError, "theta - phi does not fit in a float", call, *args) for call, *args in (
        (order_effect_summary, 1e308, -1e308), (interference_term, -1e308, 1e308),
        (DecisionScenario, 1e308, -1e308, BA))))
test_equivalence_rejects_nonunitary_input = refused(
    (ValueError, "gate matrix is not unitary within 1e-10", equivalence_check,
     np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2), 1e-12))
test_equivalence_rejects_zero_tolerance = refused(
    (ValueError, "tolerance must be positive", lambda: equivalence_check(hadamard(), hadamard(),
                                                                         0.0)))
test_a_nan_tolerance_is_refused = refused(
    (ValueError, "tolerance must be positive", lambda: is_unitary(hadamard(), math.nan)),
    (ValueError, "tolerance must be positive",
     lambda: equivalence_check(hadamard(), hadamard(), math.nan)),
    (ValueError, "tolerance must be positive", equivalence_sweep, np.random.default_rng(1), 5,
     math.nan),
    ids=["is_unitary", "equivalence_check", "equivalence_sweep"])
test_sampled_sequential_rejects_bad_trials = refused(
    (ValueError, "trials must be at least 1",
     lambda: sequential_measurement_sampled(hadamard(), hadamard(), 0, np.random.default_rng(0))))
test_reversal_rejects_nonpositive_costs = refused(
    (ValueError, "costs must be positive", preference_reversal_switch, 0.0, 1.0),
    (ValueError, "costs must be positive", preference_reversal_switch, 1.0, -2.0),
    (ValueError, "costs must be finite", preference_reversal_switch, math.inf, 1.0))


# ============================================================
# Order-effect circuits
# ============================================================

def test_circuit_matches_closed_form_full_grid():
    """Simulated joints equal the closed forms on a 48x48 angular grid."""
    for theta in GRID:
        for phi in GRID:
            ab = order_effect_circuit(DecisionScenario(theta, phi, AB))
            ba = order_effect_circuit(DecisionScenario(theta, phi, BA))
            assert ab.as_tuple() == approx(closed_form_a_then_b(theta, phi), abs=1e-12)
            assert ba.as_tuple() == approx(closed_form_b_then_a(theta, phi), abs=1e-12)


def test_event_distribution_sums_to_one_on_grid():
    for theta in GRID[::6]:
        for phi in GRID[::6]:
            for order in QuestionOrder:
                dist = order_effect_circuit(DecisionScenario(theta, phi, order))
                assert sum(dist.as_tuple()) == pytest.approx(1.0, abs=1e-12)


def test_orders_agree_when_phi_is_zero():
    """With no second rotation the two question orders coincide."""
    for theta in GRID[::4]:
        ab = order_effect_circuit(DecisionScenario(theta, 0.0, AB))
        ba = order_effect_circuit(DecisionScenario(theta, 0.0, BA))
        assert ab.as_tuple() == approx(ba.as_tuple(), abs=1e-12)


# ============================================================
# Interference
# ============================================================

def test_interference_closed_form_identity():
    """unmeasured minus measured B-yes equals sin(2 theta) sin(2 phi) / 2."""
    for theta in GRID:
        for phi in GRID:
            expected = 0.5 * math.sin(2 * theta) * math.sin(2 * phi)
            assert interference_term(theta, phi) == approx(expected, abs=1e-12)


def test_interference_vanishes_at_right_angles():
    for k in range(5):
        assert abs(interference_term(k * math.pi / 2, 0.3)) <= 1e-12
        assert abs(interference_term(0.3, k * math.pi / 2)) <= 1e-12


def test_interference_symmetric_in_arguments():
    for theta in GRID[::5]:
        for phi in GRID[::5]:
            assert interference_term(theta, phi) == approx(interference_term(phi, theta),
                                                           abs=1e-12)


def test_interference_against_basis_rotation():
    """Asking only B amounts to reading qubit 1 in the R_phi basis:
    p(B yes) = |<0| R_{-phi} R_theta |0>|^2 = cos^2(theta - phi)."""
    for theta in GRID[::3]:
        for phi in GRID[::3]:
            rotated = apply(rotation_gate(-phi), apply(rotation_gate(theta), initial_state(1)))
            unmeasured = float(probabilities(rotated)[0])
            summary = order_effect_summary(theta, phi)
            measured = summary.a_then_b.b_yes
            assert interference_term(theta, phi) == approx(unmeasured - measured, abs=1e-12)


def test_magnitude_is_negated_interference():
    for theta in GRID[::7]:
        for phi in GRID[::7]:
            assert order_effect_magnitude(theta, phi) == approx(-interference_term(theta, phi),
                                                                abs=1e-12)


# ============================================================
# Sequential vs entangled measurement
# ============================================================

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
    assert report.sequential.as_tuple() == approx(report.entangled.as_tuple(), abs=1e-15)


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
    sampled = sequential_measurement_sampled(rotation_gate(theta), rotation_gate(phi), trials,
                                             np.random.default_rng(8))
    for p_hat, p in zip(sampled.as_tuple(), exact.as_tuple()):
        margin = 3.0 * math.sqrt(p * (1.0 - p) / trials)
        assert abs(p_hat - p) <= margin


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
    dist = order_effect_circuit(DecisionScenario(theta, phi, AB))
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
