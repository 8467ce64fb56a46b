"""
Decision circuits built on the two-qubit engine.

Two yes/no questions are modelled as rotated measurement bases: question A
(the context question) lives on qubit 1, question B (the decision) on
qubit 2, and bit 0 means "yes". Asking A first runs
cnot(1) . (R_theta x R_phi) on |00>; asking B first flips the control wire
and substitutes the angles, cnot(2) . (R_phi x R_(theta-phi)). The wire
assignment is the same in both orders, so |00> is always "yes to A, yes to
B".

The entangled circuit agrees event by event with the equivalent one-qubit
protocol, which measures after the first rotation and feeds the collapsed
state through the second, for any unitary pair: unitarity forces
|b12|^2 = |b21|^2 and |b11|^2 = |b22|^2; the intermediate amplitudes
differ, the final probabilities do not.

The circuits are evaluated in closed-form arithmetic, one gate pair at a
time, rather than by building gates and states step by step. Gates, angles,
``trials`` and ``tol`` passed in by the caller are checked once; what is
computed from them, products of unitaries and event tables, is not checked
again. A caller's gate is read once, as its four entries (u11, u12, u21,
u22), Python complex numbers. One event function serves both routes: each
probability is a product of two gate entries, and each modulus square is
re * re + im * im, the rule the sampled protocol also uses for the masses
it draws from. Only a caller's gate needs numpy and the qubit engine,
imported when first called, and the sampled protocol numpy for its draws;
the order-effect, interference and reversal closed forms and the
equivalence sweep run on ``math`` alone.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING

from ._record import record, unchecked

if TYPE_CHECKING:
    from collections.abc import Sequence

    import numpy as np

    from ._draws import PCG64
    from .qubits import Gate

EVENT_LABELS = ("A+B+", "A+B-", "A-B+", "A-B-")
EVENT_SUM_TOL = 1e-12
REVERSAL_COST_RATIO = 3.0
DRAW_BLOCK = 8192            # trials of generator draws taken at a time


class QuestionOrder(Enum):
    A_THEN_B = "ab"
    B_THEN_A = "ba"


@record
class DecisionScenario:
    """Angles of the two measurement bases plus the asking order."""

    theta: float
    phi: float
    order: QuestionOrder = QuestionOrder.A_THEN_B

    def __post_init__(self) -> None:
        _check_angles(self.theta, self.phi)
        if not isinstance(self.order, QuestionOrder):
            raise ValueError("order must be a QuestionOrder")


@record
class EventDistribution:
    """Joint probabilities of the four answer pairs, "yes" outcomes first,
    with the single-question marginals they sum to."""

    p_yes_yes: float
    p_yes_no: float
    p_no_yes: float
    p_no_no: float

    def __post_init__(self) -> None:
        probs = self.as_tuple()
        # Written so that a NaN fails both tests.
        if not all(-EVENT_SUM_TOL <= p <= 1.0 + EVENT_SUM_TOL for p in probs):
            raise ValueError("event probabilities must lie in [0, 1]")
        if not abs(sum(probs) - 1.0) <= EVENT_SUM_TOL:
            raise ValueError("event probabilities must sum to 1")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p_yes_yes, self.p_yes_no, self.p_no_yes, self.p_no_no)

    def as_dict(self) -> dict[str, float]:
        return dict(zip(EVENT_LABELS, self.as_tuple()))

    @property
    def a_yes(self) -> float:
        return self.p_yes_yes + self.p_yes_no

    @property
    def a_no(self) -> float:
        return self.p_no_yes + self.p_no_no

    @property
    def b_yes(self) -> float:
        return self.p_yes_yes + self.p_no_yes

    @property
    def b_no(self) -> float:
        return self.p_yes_no + self.p_no_no


@record
class OrderEffectSummary:
    """The answer events of both asking orders at one (theta, phi); each
    carries its yes/no marginals as properties."""

    theta: float
    phi: float
    a_then_b: EventDistribution
    b_then_a: EventDistribution


@record
class EquivalenceReport:
    """Event-by-event comparison of the sequential and entangled routes."""

    sequential: EventDistribution
    entangled: EventDistribution
    max_abs_deviation: float
    tol: float
    passed: bool


@record
class EquivalenceSweep:
    """The sequential/entangled comparison over a run of random gate pairs.

    ``moduli_identity_max_deviation`` is the largest breach, over every
    gate drawn, of the unitarity identities |u12|^2 = |u21|^2 and
    |u11|^2 = |u22|^2 on which the equivalence rests.
    """

    trials: int
    tol: float
    max_abs_deviation: float
    moduli_identity_max_deviation: float
    failures: int


@record
class ReversalDecision:
    """Outcome of the cost-ratio switching rule."""

    x1: float
    x2: float
    ratio: float
    switches: bool


def _check_angles(theta: float, phi: float) -> None:
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError("angles must be finite")
    if not math.isfinite(theta - phi):    # asking B first rotates by theta - phi
        raise OverflowError("theta - phi does not fit in a float")


def _order_effect_events(theta: float, phi: float,
                         order: QuestionOrder) -> tuple[float, ...]:
    """The four answer probabilities of the circuit for one scenario.

    Both rotations act on |00>, so the state is the product of their first
    columns (cos, sin); the CNOT then swaps two of the four real amplitudes.
    """
    if order is QuestionOrder.A_THEN_B:
        c1, s1, c2, s2 = math.cos(theta), math.sin(theta), math.cos(phi), math.sin(phi)
        amps = (c1 * c2, c1 * s2, s1 * s2, s1 * c2)    # cnot(1) swaps |10>, |11>
    else:
        delta = theta - phi
        c1, s1, c2, s2 = math.cos(phi), math.sin(phi), math.cos(delta), math.sin(delta)
        amps = (c1 * c2, s1 * s2, s1 * c2, c1 * s2)    # cnot(2) swaps |01>, |11>
    return tuple(x * x for x in amps)


def order_effect_circuit(scenario: DecisionScenario) -> EventDistribution:
    """Run the two-question circuit and read off the four answer events."""
    return unchecked(EventDistribution,
                     *_order_effect_events(scenario.theta, scenario.phi, scenario.order))


def order_effect_summary(theta: float, phi: float) -> OrderEffectSummary:
    """Answer events and yes/no marginals of the circuit for both asking
    orders. The marginals meet their closed forms, such as cos^2 theta for A
    asked first, to a few ulps; the tests hold them there, not a run-time
    check."""
    _check_angles(theta, phi)
    return OrderEffectSummary(theta, phi, *(
        unchecked(EventDistribution, *_order_effect_events(theta, phi, order))
        for order in QuestionOrder))


def unmeasured_b_yes(theta: float, phi: float) -> float:
    """P(B yes) when B is decided directly, without settling A first."""
    _check_angles(theta, phi)
    return math.cos(theta - phi) ** 2


def measured_b_yes(theta: float, phi: float) -> float:
    """P(B yes) after A has been answered and the state has collapsed."""
    return (math.cos(theta) ** 2 * math.cos(phi) ** 2
            + math.sin(theta) ** 2 * math.sin(phi) ** 2)


def interference_term(theta: float, phi: float) -> float:
    """Gap between deciding B with and without first settling A.

    Equals sin(2 theta) sin(2 phi) / 2; it vanishes whenever either angle is
    a multiple of pi/2, which is when the two questions are compatible.
    """
    return unmeasured_b_yes(theta, phi) - measured_b_yes(theta, phi)


def order_effect_magnitude(theta: float, phi: float) -> float:
    """P(B yes | A then B) minus P(B yes | B then A).

    The negated interference term: a nonzero value means the asking order
    changes the answer statistics.
    """
    return -interference_term(theta, phi)


def _gate_entries(gate: Gate | np.ndarray) -> list[complex]:
    """The entries (u11, u12, u21, u22) of a caller's single-qubit gate,
    checked for unitarity."""
    from .qubits import Gate

    if not isinstance(gate, Gate):
        gate = Gate(gate)
    if gate.dim != 2:
        raise ValueError("decision circuits take single-qubit gates")
    return gate.entries.ravel().tolist()


def _events(a: Sequence[complex],
            b: Sequence[complex]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Sequential and entangled event probabilities of one gate pair, each
    gate given as its entries (u11, u12, u21, u22).

    Collapsing after gate A leaves a basis state, so the sequential paths are
    |a11 b11|^2, |a11 b21|^2, |a21 b12|^2 and |a21 b22|^2. (A x B)|00> holds
    the products of the first columns, a_i1 b_j1, and cnot(1) swaps the last
    two: |a11 b11|^2, |a11 b21|^2, |a21 b21|^2 and |a21 b11|^2. The routes
    share their first two events; unitarity equates the other two.
    """
    a11, _, a21, _ = a
    b11, b12, b21, b22 = b
    p = [z.real * z.real + z.imag * z.imag
         for z in (a11 * b11, a11 * b21, a21 * b12, a21 * b22, a21 * b21, a21 * b11)]
    return (p[0], p[1], p[2], p[3]), (p[0], p[1], p[4], p[5])


def sequential_measurement(a_gate: Gate | np.ndarray,
                           b_gate: Gate | np.ndarray) -> EventDistribution:
    """Event probabilities of the one-qubit measure-then-continue protocol.

    Collapsing after gate A leaves a basis state, so every path probability
    is a product of squared entries: |a11 b11|^2, |a11 b21|^2, |a21 b12|^2
    and |a21 b22|^2.
    """
    return unchecked(EventDistribution, *_events(_gate_entries(a_gate), _gate_entries(b_gate))[0])


def _sample_indices(probs: list[float], u: np.ndarray) -> np.ndarray:
    """``qubits._sample_index`` of a two-outcome distribution for each draw in
    ``u``: outcome 0 when the draw falls below its mass (never, if it has
    none), otherwise the last outcome with mass."""
    import numpy as np

    return np.where(u < probs[0], 0, 1 if probs[1] > 0.0 else 0)


def sequential_measurement_sampled(a_gate: Gate | np.ndarray,
                                   b_gate: Gate | np.ndarray,
                                   trials: int,
                                   rng: np.random.Generator) -> EventDistribution:
    """Monte Carlo estimate of ``sequential_measurement``.

    Each trial collapses the qubit after gate A and feeds the collapsed
    basis state through gate B; use it to validate the analytic table. A
    trial draws two uniforms, one per measurement, exactly as two calls of
    ``measure_collapse`` do, and trials run DRAW_BLOCK at a time.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    import numpy as np

    (a11, _, a21, _), (b11, b12, b21, b22) = _gate_entries(a_gate), _gate_entries(b_gate)
    # The first measurement reads A's first column; its outcome picks B's column.
    first_probs, *second_probs = ([z.real * z.real + z.imag * z.imag for z in column]
                                  for column in ((a11, a21), (b11, b21), (b12, b22)))
    counts = np.zeros(4, dtype=np.int64)
    for start in range(0, trials, DRAW_BLOCK):
        u = rng.random((min(DRAW_BLOCK, trials - start), 2))
        first = _sample_indices(first_probs, u[:, 0])
        second = np.where(first == 0, _sample_indices(second_probs[0], u[:, 1]),
                          _sample_indices(second_probs[1], u[:, 1]))
        counts += np.bincount(2 * first + second, minlength=4)
    return unchecked(EventDistribution, *(c / trials for c in counts.tolist()))


def entangled_circuit(a_gate: Gate | np.ndarray,
                      b_gate: Gate | np.ndarray) -> EventDistribution:
    """Event probabilities of the two-qubit circuit cnot(1) . (A x B) |00>."""
    return unchecked(EventDistribution, *_events(_gate_entries(a_gate), _gate_entries(b_gate))[1])


def equivalence_check(a_gate: Gate | np.ndarray,
                      b_gate: Gate | np.ndarray,
                      tol: float = 1e-12) -> EquivalenceReport:
    """Compare the sequential and entangled routes event by event.

    The two distributions agree for any unitary pair, so a failure at a sane
    tolerance indicates a bug rather than physics.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    seq, ent = _events(_gate_entries(a_gate), _gate_entries(b_gate))
    dev = max(abs(x - y) for x, y in zip(seq, ent))
    return EquivalenceReport(unchecked(EventDistribution, *seq),
                             unchecked(EventDistribution, *ent), dev, tol, dev <= tol)


def equivalence_sweep(rng: np.random.Generator | PCG64, trials: int,
                      tol: float = 1e-12) -> EquivalenceSweep:
    """``equivalence_check`` over ``trials`` random gate pairs.

    ``rng`` is any object whose ``random()`` returns uniform doubles: a
    numpy ``Generator``, or the standard-library ``_draws.PCG64``, which
    gives the same stream from the same seed. Pair k is the (2k)th and
    (2k+1)th draw of ``random_unitary_2x2``. Pairs are drawn and compared
    one at a time, so memory does not grow with ``trials``.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    from ._draws import unitary

    random = rng.random
    max_dev = moduli_dev = 0.0
    failures = 0
    for _ in range(trials):
        a, b = unitary(random), unitary(random)
        seq, ent = _events(a, b)
        dev = max(abs(seq[2] - ent[2]), abs(seq[3] - ent[3]))    # the first two are shared
        if dev > max_dev:
            max_dev = dev
        if not dev <= tol:
            failures += 1
        m = [z.real * z.real + z.imag * z.imag for z in a + b]
        moduli_dev = max(moduli_dev, abs(m[1] - m[2]), abs(m[0] - m[3]),
                         abs(m[5] - m[6]), abs(m[4] - m[7]))
    return EquivalenceSweep(trials, tol, max_dev, moduli_dev, failures)


def preference_reversal_switch(x1: float, x2: float) -> ReversalDecision:
    """Cost-ratio rule for switching to the initially less attractive option.

    ``x1`` is the cost of the less attractive option, ``x2`` the cost of the
    more attractive one; the switch happens only when x2/x1 strictly exceeds
    3, the ratio whose propensity change costs one quantum of energy.
    """
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError("costs must be finite")
    if x1 <= 0 or x2 <= 0:
        raise ValueError("costs must be positive")
    ratio = x2 / x1
    return ReversalDecision(float(x1), float(x2), ratio, ratio > REVERSAL_COST_RATIO)
