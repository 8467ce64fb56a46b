"""Acceptance gate: one test per shipping criterion.

Each test checks its numbers at the stated tolerance, enforces its runtime
budget, and prints one ``ACCEPTANCE <n> PASS`` line (visible with
``pytest -s tests/test_acceptance.py``).
"""
import contextlib
import io
import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import simpson

from qprop.cli import main
from qprop.decision import (
    DecisionScenario,
    QuestionOrder,
    equivalence_check,
    interference_term,
    order_effect_circuit,
    order_effect_summary,
    preference_reversal_switch,
    sequential_measurement_sampled,
)
from qprop.propensity import (
    EntropicScale,
    GaussianCurve,
    OscillatorParams,
    density,
    entropic_force,
    ground_state_density,
    joint_propensity,
    log_density,
    oscillator_from_curve,
    reversal_energy,
    work,
)
from qprop.qubits import random_unitary_2x2, rotation_gate

from make_goldens import CASES, GOLDEN_DIR, mask_timing

GRID = [k * math.pi / 24 for k in range(24)]


class Budget:
    """Wall-clock guard for one criterion."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.elapsed = None

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._start
        if exc == (None, None, None):
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.2f} s exceeds the "
                f"{self.seconds:g} s budget")
        return False


def report(number, detail, budget):
    print(f"ACCEPTANCE {number} PASS: {detail} ({budget.elapsed:.2f} s)")


def test_criterion_1_joint_probabilities_on_grid():
    """576 grid points: circuit joints match the closed forms within 1e-12."""
    worst = 0.0
    with Budget(1.0) as budget:
        for theta in GRID:
            for phi in GRID:
                dist = order_effect_circuit(
                    DecisionScenario(theta, phi, QuestionOrder.A_THEN_B))
                ct, st = math.cos(theta) ** 2, math.sin(theta) ** 2
                cp, sp = math.cos(phi) ** 2, math.sin(phi) ** 2
                expected = (ct * cp, ct * sp, st * sp, st * cp)
                dev = max(abs(g - e)
                          for g, e in zip(dist.as_tuple(), expected))
                worst = max(worst, dev)
                assert dev <= 1e-12
    report(1, f"576-point joint grid, max deviation {worst:.2e}", budget)


def test_criterion_2_marginals_and_nonzero_order_effect():
    """Eight closed-form marginals within 1e-12; the order effect is real
    (|delta| > 1e-6) whenever sin 2theta sin 2phi is genuinely nonzero."""
    worst = 0.0
    with Budget(1.0) as budget:
        for theta in GRID:
            for phi in GRID:
                summary = order_effect_summary(theta, phi)
                ct, st = math.cos(theta) ** 2, math.sin(theta) ** 2
                cp, sp = math.cos(phi) ** 2, math.sin(phi) ** 2
                cd = math.cos(theta - phi) ** 2
                sd = math.sin(theta - phi) ** 2
                expected = (ct, st, ct * cp + st * sp, ct * sp + st * cp,
                            cd * cp + sd * sp, cd * sp + sd * cp, cd, sd)
                got = (summary.a_then_b.a_yes, summary.a_then_b.a_no,
                       summary.a_then_b.b_yes, summary.a_then_b.b_no,
                       summary.b_then_a.a_yes, summary.b_then_a.a_no,
                       summary.b_then_a.b_yes, summary.b_then_a.b_no)
                dev = max(abs(g - e) for g, e in zip(got, expected))
                worst = max(worst, dev)
                assert dev <= 1e-12
                product = math.sin(2 * theta) * math.sin(2 * phi)
                delta = summary.b_then_a.b_yes - summary.a_then_b.b_yes
                if abs(product) > 1e-9:
                    assert abs(delta) > 1e-6
    report(2, f"both-order marginals on the grid, max deviation {worst:.2e}",
           budget)


def test_criterion_3_sequential_entangled_equivalence():
    """1000 seeded random unitary pairs: the two routes agree within 1e-12
    and each drawn unitary satisfies the moduli identities within 1e-12."""
    rng = np.random.default_rng(20240814)
    worst_event = 0.0
    worst_moduli = 0.0
    with Budget(1.0) as budget:
        for _ in range(1000):
            a, b = random_unitary_2x2(rng), random_unitary_2x2(rng)
            for gate in (a, b):
                m = gate.entries
                worst_moduli = max(
                    worst_moduli,
                    abs(abs(m[0, 1]) ** 2 - abs(m[1, 0]) ** 2),
                    abs(abs(m[0, 0]) ** 2 - abs(m[1, 1]) ** 2))
            reportcard = equivalence_check(a, b, tol=1e-12)
            worst_event = max(worst_event, reportcard.max_abs_deviation)
            assert reportcard.passed
        assert worst_event <= 1e-12
        assert worst_moduli <= 1e-12
    report(3, f"1000 unitary pairs, max event deviation {worst_event:.2e}, "
              f"max moduli deviation {worst_moduli:.2e}", budget)


def test_criterion_4_interference_identity_and_monte_carlo():
    """Interference equals sin(2 theta) sin(2 phi) / 2 on the grid within
    1e-12; a seeded 1e5-trial collapse-and-continue run reproduces the
    measured-protocol B-yes probability within 3 binomial standard errors."""
    worst = 0.0
    with Budget(5.0) as budget:
        for theta in GRID:
            for phi in GRID:
                closed = 0.5 * math.sin(2 * theta) * math.sin(2 * phi)
                dev = abs(interference_term(theta, phi) - closed)
                worst = max(worst, dev)
                assert dev <= 1e-12
        trials = 100_000
        theta, phi = math.pi / 6, math.pi / 4
        sampled = sequential_measurement_sampled(
            rotation_gate(theta), rotation_gate(phi), trials,
            np.random.default_rng(20240814))
        p = (math.cos(theta) ** 2 * math.cos(phi) ** 2
             + math.sin(theta) ** 2 * math.sin(phi) ** 2)
        margin = 3.0 * math.sqrt(p * (1.0 - p) / trials)
        mc_error = abs(sampled.b_yes - p)
        assert mc_error <= margin
    report(4, f"identity max deviation {worst:.2e}; Monte Carlo B-yes off by "
              f"{mc_error:.2e} (3 SE = {margin:.2e})", budget)


def test_criterion_5_entropic_force_against_finite_differences():
    """20 random curves, 61 points each: finite differences of gamma ln P
    match -k (x - mu) to 1e-6 relative error; the joint force equals the
    buyer force plus the seller force within 1e-9 pointwise."""
    rng = np.random.default_rng(55)
    with Budget(1.0) as budget:
        for _ in range(20):
            curve = GaussianCurve(float(rng.uniform(-1.0, 2.0)),
                                  float(rng.uniform(0.05, 1.5)))
            gamma = float(rng.uniform(0.2, 3.0))
            scale = EntropicScale.direct(gamma)
            k = gamma / curve.sigma ** 2
            h = 1e-5 * curve.sigma
            for x in np.linspace(curve.mu - 3 * curve.sigma,
                                 curve.mu + 3 * curve.sigma, 61):
                fd = gamma * (log_density(curve, x + h)
                              - log_density(curve, x - h)) / (2.0 * h)
                f = entropic_force(curve, float(x), scale)
                floor = max(abs(f), 1e-3 * k * curve.sigma)
                assert abs(fd - f) <= 1e-6 * floor
        for _ in range(20):
            buyer = GaussianCurve(float(rng.uniform(-0.5, 1.5)),
                                  float(rng.uniform(0.1, 0.8)))
            seller = GaussianCurve(float(rng.uniform(-0.5, 1.5)),
                                   float(rng.uniform(0.1, 0.8)))
            joint = joint_propensity(buyer, seller)
            scale = EntropicScale.direct(1.0)
            for x in np.linspace(joint.joint.mu - 2 * joint.joint.sigma,
                                 joint.joint.mu + 2 * joint.joint.sigma, 21):
                total = entropic_force(joint.joint, float(x), scale)
                parts = (entropic_force(buyer, float(x), scale)
                         + entropic_force(seller, float(x), scale))
                assert abs(total - parts) <= 1e-9
    report(5, "finite-difference force on 20 curves x 61 points; "
              "joint force additive within 1e-9", budget)


def test_criterion_6_gaussian_product_against_quadrature():
    """20 random curve pairs: closed-form (mu, sigma, scale) of the product
    match quadrature mass, mean, and variance within 1e-8."""
    rng = np.random.default_rng(66)
    worst = 0.0
    with Budget(2.0) as budget:
        for _ in range(20):
            buyer = GaussianCurve(float(rng.uniform(-0.5, 1.5)),
                                  float(rng.uniform(0.1, 0.6)))
            seller = GaussianCurve(float(rng.uniform(-0.5, 1.5)),
                                   float(rng.uniform(0.1, 0.6)))
            joint = joint_propensity(buyer, seller)
            mu_j, sigma_j = joint.joint.mu, joint.joint.sigma
            x = np.linspace(mu_j - 8 * sigma_j, mu_j + 8 * sigma_j, 4001)
            product = density(buyer, x) * density(seller, x)
            mass = simpson(product, x=x)
            mean = simpson(x * product, x=x) / mass
            var = simpson((x - mean) ** 2 * product, x=x) / mass
            devs = (abs(mass - joint.scale), abs(mean - mu_j),
                    abs(var - sigma_j ** 2))
            worst = max(worst, *devs)
            assert all(d <= 1e-8 for d in devs)
    report(6, f"20 product pairs vs quadrature, max deviation {worst:.2e}",
           budget)


def test_criterion_7_oscillator_closure():
    """m = hbar/(2 omega sigma^2), k = gamma/sigma^2, gamma = hbar omega / 2
    hold within 1e-12; the ground state reproduces the source curve within
    1e-12 pointwise; unit inputs give m = 0.5 and gamma = 0.5 exactly."""
    rng = np.random.default_rng(77)
    with Budget(1.0) as budget:
        for _ in range(50):
            omega = float(rng.uniform(0.1, 5.0))
            sigma = float(rng.uniform(0.05, 2.0))
            hbar = float(rng.uniform(0.5, 2.0))
            params = OscillatorParams(omega=omega, sigma=sigma, hbar=hbar)
            assert abs(params.mass
                       - hbar / (2.0 * omega * sigma ** 2)) <= 1e-12
            assert abs(params.gamma - 0.5 * hbar * omega) <= 1e-12
            assert abs(params.force_constant
                       - params.gamma / sigma ** 2) <= 1e-12
        curve = GaussianCurve(0.4, 0.7)
        params = oscillator_from_curve(curve, omega=1.9, hbar=1.3)
        x = np.linspace(curve.mu - 5 * curve.sigma,
                        curve.mu + 5 * curve.sigma, 1001)
        dev = float(np.max(np.abs(ground_state_density(params, curve.mu, x)
                                  - density(curve, x))))
        assert dev <= 1e-12
        unit = OscillatorParams(omega=1.0, sigma=1.0, hbar=1.0)
        assert unit.mass == 0.5
        assert unit.gamma == 0.5
    report(7, f"closure identities and ground state, max density deviation "
              f"{dev:.2e}; unit oscillator m = 0.5, gamma = 0.5 exact", budget)


def test_criterion_8_reversal_energy_and_threshold():
    """Exact reversal energy is (1/2) ln 3 within 1e-12 with base energy
    0.5; work across a factor-3 density change at gamma = 1 is ln 3 within
    1e-12; the switching rule flips strictly above cost ratio 3."""
    with Budget(1.0) as budget:
        energy = reversal_energy(omega=1.0, hbar=1.0)
        assert abs(energy.exact - 0.5493061443340549) <= 1e-12
        assert abs(energy.exact - 0.5 * math.log(3.0)) <= 1e-12
        assert energy.base_energy == 0.5
        curve = GaussianCurve(0.0, 1.0)
        x1 = math.sqrt(2.0 * math.log(3.0))
        moved = work(curve, x1, 0.0, EntropicScale.direct(1.0))
        assert abs(moved - math.log(3.0)) <= 1e-12
        outcomes = [preference_reversal_switch(1.0, x2).switches
                    for x2 in (1.0, 2.999, 3.0, 3.001)]
        assert outcomes == [False, False, False, True]
    report(8, "reversal energy (1/2) ln 3, factor-3 work ln 3, switch flips "
              "only above ratio 3", budget)


def test_criterion_9_cli_outputs_are_reproducible():
    """Every golden command re-run twice produces byte-identical output
    (JSON compared with the wall-clock field normalized) that matches the
    stored golden file byte for byte."""
    with Budget(10.0) as budget:
        for name, argv in CASES.items():
            golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
            runs = []
            for _ in range(2):
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    code = main(list(argv))
                assert code == 0, f"{name}: exit code {code}"
                runs.append(buffer.getvalue())
            if name.endswith(".json"):
                normalized = {mask_timing(text) for text in
                              (golden, *runs)}
                assert len(normalized) == 1, f"{name}: output drifted"
                assert json.loads(runs[0]) is not None
            else:
                assert runs[0] == runs[1] == golden, f"{name}: output drifted"
    report(9, f"{len(CASES)} golden commands byte-stable across re-runs",
           budget)
