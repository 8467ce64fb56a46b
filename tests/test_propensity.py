import math
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.stats import norm

from qprop.propensity import (
    DENSITY_FLOOR,
    EntropicScale,
    GaussianCurve,
    JointPropensity,
    OscillatorParams,
    PointMassCurve,
    PointMassError,
    density,
    entropic_force,
    fixed_price_joint,
    ground_state_density,
    joint_propensity,
    log_density,
    oscillator_from_curve,
    reversal_energy,
    sample_prices,
    transaction_force,
    work,
)

STANDARD = GaussianCurve(0.0, 1.0)
UNIT_SCALE = EntropicScale.direct(1.0)
OMEGA_HBAR = "^omega and hbar must be positive and finite$"


def linspace_window(curve, points=4001, width=8.0):
    return np.linspace(curve.mu - width * curve.sigma,
                       curve.mu + width * curve.sigma, points)


# ============================================================
# Curves and densities
# ============================================================

def test_density_peak_value():
    assert density(STANDARD, 0.0) == pytest.approx(0.3989422804014327, abs=1e-15)


def test_density_matches_reference_implementation():
    """Cross-check against scipy.stats.norm over a wide grid."""
    rng = np.random.default_rng(1)
    for _ in range(10):
        mu = float(rng.uniform(-2, 2))
        sigma = float(rng.uniform(0.05, 3.0))
        curve = GaussianCurve(mu, sigma)
        x = linspace_window(curve, points=201)
        assert np.allclose(density(curve, x), norm.pdf(x, mu, sigma),
                           rtol=0, atol=1e-14)
        assert np.allclose(log_density(curve, x), norm.logpdf(x, mu, sigma),
                           rtol=0, atol=1e-11)


def test_density_integrates_to_one():
    curve = GaussianCurve(0.7, 0.3)
    x = linspace_window(curve)
    assert simpson(density(curve, x), x=x) == pytest.approx(1.0, abs=1e-9)


def test_density_scalar_and_array_agree():
    x = np.array([-1.0, 0.0, 2.5])
    vec = density(STANDARD, x)
    assert isinstance(density(STANDARD, 0.0), float)
    assert np.allclose(vec, [density(STANDARD, v) for v in x], atol=1e-15)


def test_log_density_consistent_with_density():
    x = np.linspace(-5, 5, 101)
    assert np.allclose(np.exp(log_density(STANDARD, x)), density(STANDARD, x),
                       rtol=1e-12, atol=0)


def test_log_density_finite_in_deep_tail():
    assert log_density(STANDARD, 100.0) == pytest.approx(
        -5000.0 - 0.5 * math.log(2.0 * math.pi), rel=1e-12)


def test_curve_validation():
    with pytest.raises(ValueError):
        GaussianCurve(0.0, 0.0)
    with pytest.raises(ValueError):
        GaussianCurve(0.0, -1.0)
    with pytest.raises(ValueError):
        GaussianCurve(math.inf, 1.0)
    with pytest.raises(ValueError):
        PointMassCurve(math.nan)


def test_point_mass_has_no_density():
    point = PointMassCurve(1.0)
    with pytest.raises(PointMassError):
        density(point, 1.0)
    with pytest.raises(PointMassError):
        log_density(point, 1.0)


# ============================================================
# Entropic force
# ============================================================

def test_force_zero_at_mean():
    assert entropic_force(STANDARD, 0.0, UNIT_SCALE) == 0.0


def test_force_frozen_value():
    assert entropic_force(STANDARD, 0.5, UNIT_SCALE) == pytest.approx(-0.5,
                                                                      abs=1e-15)


def test_force_matches_log_density_gradient():
    """Finite differences of gamma * ln P reproduce the closed-form force."""
    rng = np.random.default_rng(2)
    for _ in range(20):
        curve = GaussianCurve(float(rng.uniform(-1, 2)),
                              float(rng.uniform(0.05, 2.0)))
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


def test_force_is_linear_restoring():
    curve = GaussianCurve(1.0, 0.5)
    scale = EntropicScale.direct(2.0)
    k = 2.0 / 0.25
    x = np.linspace(-0.5, 2.5, 31)
    assert np.allclose(entropic_force(curve, x, scale), -k * (x - 1.0),
                       atol=1e-12)


def test_force_additivity_of_joint():
    """The joint curve's force is the sum of the two parties' forces."""
    buyer = GaussianCurve(1.05, 0.12)
    seller = GaussianCurve(0.95, 0.2)
    joint = joint_propensity(buyer, seller)
    scale = EntropicScale.direct(0.7)
    for x in np.linspace(0.7, 1.3, 13):
        total = entropic_force(joint.joint, float(x), scale)
        parts = (entropic_force(buyer, float(x), scale)
                 + entropic_force(seller, float(x), scale))
        assert abs(total - parts) <= 1e-9


def test_force_point_mass_raises():
    with pytest.raises(PointMassError):
        entropic_force(PointMassCurve(0.0), 0.0, UNIT_SCALE)


def test_force_underflow_raises():
    with pytest.raises(ValueError, match="underflow"):
        entropic_force(STANDARD, 45.0, UNIT_SCALE)


def test_scale_constructors():
    assert UNIT_SCALE.gamma == 1.0
    osc = EntropicScale.from_oscillator(omega=3.0, hbar=2.0)
    assert osc.gamma == pytest.approx(3.0)
    with pytest.raises(ValueError):
        EntropicScale.direct(0.0)
    with pytest.raises(ValueError, match=OMEGA_HBAR):
        EntropicScale.from_oscillator(omega=-1.0)


# ============================================================
# Oscillator mapping
# ============================================================

def test_oscillator_unit_parameters():
    params = oscillator_from_curve(GaussianCurve(0.0, 1.0), omega=1.0, hbar=1.0)
    assert params.mass == pytest.approx(0.5, abs=1e-15)
    assert params.gamma == pytest.approx(0.5, abs=1e-15)
    assert params.force_constant == pytest.approx(0.5, abs=1e-15)


def test_oscillator_closure_invariants():
    """sigma^2 = hbar/(2 m omega) and k = m omega^2 hold to 1e-12."""
    rng = np.random.default_rng(3)
    for _ in range(50):
        omega = float(rng.uniform(0.1, 5.0))
        sigma = float(rng.uniform(0.05, 2.0))
        hbar = float(rng.uniform(0.5, 2.0))
        params = OscillatorParams(omega=omega, sigma=sigma, hbar=hbar)
        assert abs(params.hbar / (2.0 * params.mass * params.omega)
                   - sigma ** 2) <= 1e-12
        assert abs(params.force_constant
                   - params.mass * params.omega ** 2) <= 1e-12
        assert params.scale().gamma == pytest.approx(0.5 * hbar * omega,
                                                     abs=1e-15)


def test_oscillator_mass_scales_inversely_with_variance():
    base = oscillator_from_curve(GaussianCurve(0.0, 0.4))
    halved = oscillator_from_curve(GaussianCurve(0.0, 0.2))
    assert halved.mass == pytest.approx(4.0 * base.mass, rel=1e-12)


def test_ground_state_reproduces_curve():
    curve = GaussianCurve(1.3, 0.37)
    params = oscillator_from_curve(curve, omega=2.2, hbar=0.9)
    x = np.linspace(curve.mu - 5 * curve.sigma, curve.mu + 5 * curve.sigma, 1001)
    assert np.allclose(ground_state_density(params, curve.mu, x),
                       density(curve, x), atol=1e-12)


def test_ground_state_is_normalized():
    params = OscillatorParams(omega=1.7, sigma=0.6, hbar=1.0)
    x = np.linspace(-8 * 0.6, 8 * 0.6, 4001)
    mass = simpson(ground_state_density(params, 0.0, x), x=x)
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_oscillator_rejects_point_mass():
    with pytest.raises(PointMassError):
        oscillator_from_curve(PointMassCurve(0.0))


@pytest.mark.parametrize("sigma", [1e-200, 1e200, 1e-160])
def test_oscillator_quantities_beyond_float_range_name_themselves(sigma):
    """sigma ** 2 underflows to 0, to a subnormal, or overflows: the error
    names the quotient."""
    params = OscillatorParams(omega=1.0, sigma=sigma)
    with pytest.raises(OverflowError, match="^mass does not fit in a float$"):
        params.mass  # noqa: B018
    with pytest.raises(OverflowError, match="^force_constant does not fit in a float$"):
        params.force_constant  # noqa: B018


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_oscillator_gamma_beyond_float_range_names_itself(scale):
    """hbar * omega / 2 overflows or underflows to 0 on every route to gamma."""
    params = OscillatorParams(omega=scale, sigma=1.0, hbar=scale)
    for route in (lambda: params.gamma, params.scale,
                  lambda: EntropicScale.from_oscillator(scale, scale),
                  lambda: reversal_energy(scale, scale)):
        with pytest.raises(OverflowError, match="^gamma does not fit in a float$"):
            route()
    assert params.mass == 0.5


def test_oscillator_params_validation():
    with pytest.raises(ValueError):
        OscillatorParams(omega=0.0, sigma=1.0)
    with pytest.raises(ValueError):
        OscillatorParams(omega=1.0, sigma=-0.1)


# ============================================================
# Joint propensity
# ============================================================

def test_joint_equal_variances():
    joint = joint_propensity(GaussianCurve(1.1, 0.1), GaussianCurve(0.9, 0.1))
    assert joint.joint.mu == pytest.approx(1.0, abs=1e-12)
    assert joint.joint.sigma == pytest.approx(0.1 / math.sqrt(2.0), abs=1e-12)
    assert joint.scale == pytest.approx(1.0377687435514862, abs=1e-12)


def test_joint_identical_curves_scale():
    """Overlap of a curve with itself is 1 / (2 sigma sqrt(pi))."""
    sigma = 0.25
    joint = joint_propensity(GaussianCurve(0.4, sigma), GaussianCurve(0.4, sigma))
    assert joint.scale == pytest.approx(1.0 / (2.0 * sigma * math.sqrt(math.pi)),
                                        rel=1e-12)


def test_joint_disjoint_curves_have_tiny_scale():
    joint = joint_propensity(GaussianCurve(0.0, 0.05), GaussianCurve(2.0, 0.05))
    assert joint.scale < 1e-10


def test_joint_against_quadrature():
    """scale, mean, and variance of the raw product match direct integration."""
    rng = np.random.default_rng(4)
    for _ in range(20):
        buyer = GaussianCurve(float(rng.uniform(-0.5, 1.5)),
                              float(rng.uniform(0.1, 0.6)))
        seller = GaussianCurve(float(rng.uniform(-0.5, 1.5)),
                               float(rng.uniform(0.1, 0.6)))
        joint = joint_propensity(buyer, seller)
        x = linspace_window(joint.joint)
        product = density(buyer, x) * density(seller, x)
        mass = simpson(product, x=x)
        mean = simpson(x * product, x=x) / mass
        var = simpson((x - mean) ** 2 * product, x=x) / mass
        assert abs(mass - joint.scale) <= 1e-8 * max(joint.scale, 1e-12)
        assert abs(mean - joint.joint.mu) <= 1e-8
        assert abs(var - joint.joint.sigma ** 2) <= 1e-8


def test_joint_normalized_product_is_the_joint_curve():
    buyer = GaussianCurve(1.05, 0.1)
    seller = GaussianCurve(0.95, 0.15)
    joint = joint_propensity(buyer, seller)
    x = linspace_window(joint.joint, points=101)
    raw = density(buyer, x) * density(seller, x)
    assert np.allclose(raw / joint.scale, density(joint.joint, x),
                       rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("narrow, wide", [(1e-160, 1e-160), (5e-324, 4.0),
                                          (1e-268, 1e224), (0.1, 1e200)])
@pytest.mark.parametrize("narrow_side", ["buyer", "seller"])
def test_joint_of_extreme_widths_is_a_gaussian_curve(narrow, wide, narrow_side):
    """Widths whose precisions 1/sigma^2 leave the float range still give the
    joint: equal widths meet halfway, and a far narrower side dominates."""
    narrow_curve, wide_curve = GaussianCurve(0.0, narrow), GaussianCurve(0.1, wide)
    joint = (joint_propensity(narrow_curve, wide_curve) if narrow_side == "buyer"
             else joint_propensity(wide_curve, narrow_curve)).joint
    if narrow == wide:
        assert joint.mu == pytest.approx(0.05, rel=1e-15)
        assert joint.sigma == pytest.approx(narrow / math.sqrt(2.0), rel=1e-15)
    else:
        assert (joint.mu, joint.sigma) == (0.0, narrow)


def test_joint_rejects_point_mass_inputs():
    with pytest.raises(PointMassError):
        joint_propensity(PointMassCurve(1.0), STANDARD)


def test_fixed_price_joint_at_counterparty_mean():
    joint = fixed_price_joint(STANDARD, 0.0)
    assert isinstance(joint.joint, PointMassCurve)
    assert joint.joint.point == 0.0
    assert joint.scale == pytest.approx(0.3989422804014327, abs=1e-15)


def test_fixed_price_joint_far_from_mean():
    joint = fixed_price_joint(STANDARD, 5.0)
    assert joint.scale == pytest.approx(1.4867195147342979e-06, rel=1e-12)
    assert joint.scale == pytest.approx(float(norm.pdf(5.0)), rel=1e-12)


def test_fixed_price_joint_side_placement():
    curve = GaussianCurve(1.0, 0.2)
    seller_fixed = fixed_price_joint(curve, 1.1, fixed_side="seller")
    assert isinstance(seller_fixed.seller, PointMassCurve)
    assert seller_fixed.buyer is curve
    buyer_fixed = fixed_price_joint(curve, 1.1, fixed_side="buyer")
    assert isinstance(buyer_fixed.buyer, PointMassCurve)
    assert buyer_fixed.seller is curve
    with pytest.raises(ValueError):
        fixed_price_joint(curve, 1.1, fixed_side="house")
    with pytest.raises(PointMassError):
        fixed_price_joint(PointMassCurve(0.0), 1.0)


def test_transaction_force_gaussian_joint():
    buyer = GaussianCurve(1.05, 0.1)
    seller = GaussianCurve(0.95, 0.15)
    joint = joint_propensity(buyer, seller)
    scale = EntropicScale.direct(1.0)
    x = 1.02
    assert transaction_force(joint, x, scale) == pytest.approx(
        entropic_force(joint.joint, x, scale), abs=1e-15)


def test_transaction_force_with_fixed_price():
    """Only the flexible side pulls when the other fixes its price."""
    curve = GaussianCurve(1.0, 0.2)
    scale = EntropicScale.direct(0.5)
    joint = fixed_price_joint(curve, 1.1, fixed_side="seller")
    assert transaction_force(joint, 1.1, scale) == pytest.approx(
        entropic_force(curve, 1.1, scale), abs=1e-15)


# ============================================================
# Work and reversal energy
# ============================================================

def test_work_zero_for_null_move():
    assert work(STANDARD, 0.3, 0.3, UNIT_SCALE) == pytest.approx(0.0, abs=1e-15)


def test_work_frozen_values():
    assert work(STANDARD, 0.0, 1.0, UNIT_SCALE) == pytest.approx(-0.5, abs=1e-12)
    x1 = math.sqrt(2.0 * math.log(3.0))
    assert work(STANDARD, x1, 0.0, UNIT_SCALE) == pytest.approx(
        math.log(3.0), abs=1e-12)


def test_work_matches_integrated_force():
    """work equals the line integral of the entropic force."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        curve = GaussianCurve(float(rng.uniform(-1, 1)),
                              float(rng.uniform(0.2, 1.5)))
        scale = EntropicScale.direct(float(rng.uniform(0.3, 2.0)))
        x1 = float(rng.uniform(curve.mu - 2 * curve.sigma, curve.mu))
        x2 = float(rng.uniform(curve.mu, curve.mu + 2 * curve.sigma))
        x = np.linspace(x1, x2, 2001)
        integral = simpson(entropic_force(curve, x, scale), x=x)
        assert abs(work(curve, x1, x2, scale) - integral) <= 1e-8


def test_work_path_independence():
    curve = GaussianCurve(0.2, 0.8)
    scale = EntropicScale.direct(1.3)
    direct = work(curve, -1.0, 1.5, scale)
    via = work(curve, -1.0, 0.6, scale) + work(curve, 0.6, 1.5, scale)
    assert abs(direct - via) <= 1e-12


def test_work_underflow_raises():
    with pytest.raises(ValueError, match="underflow"):
        work(STANDARD, 0.0, 45.0, UNIT_SCALE)


def test_work_point_mass_raises():
    with pytest.raises(PointMassError):
        work(PointMassCurve(0.0), 0.0, 1.0, UNIT_SCALE)


def test_reversal_energy_unit_values():
    energy = reversal_energy(omega=1.0, hbar=1.0)
    assert energy.exact == pytest.approx(0.5493061443340549, abs=1e-15)
    assert energy.base_energy == pytest.approx(0.5, abs=1e-15)
    assert energy.relative_gap == pytest.approx(math.log(3.0) - 1.0, abs=1e-12)


def test_reversal_energy_scales_with_omega():
    energy = reversal_energy(omega=4.0, hbar=0.5)
    assert energy.exact == pytest.approx(math.log(3.0), abs=1e-12)
    assert energy.base_energy == pytest.approx(1.0, abs=1e-15)


def test_reversal_energy_equals_factor_three_work():
    """The reversal cost is the work of a factor-3 density change."""
    scale = EntropicScale.from_oscillator(omega=1.0, hbar=1.0)
    x1 = math.sqrt(2.0 * math.log(3.0))
    moved = abs(work(STANDARD, x1, 0.0, scale))
    assert moved == pytest.approx(reversal_energy(1.0, 1.0).exact, abs=1e-12)


def test_reversal_energy_rejects_bad_inputs():
    with pytest.raises(ValueError, match=OMEGA_HBAR):
        reversal_energy(omega=0.0)
    with pytest.raises(ValueError, match=OMEGA_HBAR):
        reversal_energy(hbar=-1.0)


# ============================================================
# Sampling
# ============================================================

def test_sample_prices_moments():
    joint = joint_propensity(GaussianCurve(1.05, 0.1), GaussianCurve(0.95, 0.1))
    n = 100_000
    draws = sample_prices(joint, n, np.random.default_rng(6))
    mu, sigma = joint.joint.mu, joint.joint.sigma
    assert abs(draws.mean() - mu) <= 3.0 * sigma / math.sqrt(n)
    assert abs(draws.var() - sigma ** 2) <= 3.0 * sigma ** 2 * math.sqrt(2.0 / n)


def test_sample_prices_deterministic_given_seed():
    joint = joint_propensity(GaussianCurve(1.0, 0.2), GaussianCurve(0.8, 0.3))
    a = sample_prices(joint, 32, np.random.default_rng(9))
    b = sample_prices(joint, 32, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_sample_prices_point_mass_constant():
    joint = fixed_price_joint(STANDARD, 0.25)
    draws = sample_prices(joint, 11, np.random.default_rng(0))
    assert np.array_equal(draws, np.full(11, 0.25))


def test_sample_prices_rejects_bad_count():
    joint = fixed_price_joint(STANDARD, 0.25)
    with pytest.raises(ValueError):
        sample_prices(joint, 0, np.random.default_rng(0))


# ============================================================
# Properties
# ============================================================

curve_params = st.tuples(st.floats(-3.0, 3.0, allow_nan=False),
                         st.floats(0.05, 3.0, allow_nan=False))


offsets = st.floats(-5.0, 5.0, allow_nan=False)


@given(curve_params, offsets, offsets, offsets)
@settings(max_examples=100, deadline=None)
def test_work_is_additive_along_any_split(params, a, b, c):
    """Offsets are in units of sigma so the densities stay healthy."""
    curve = GaussianCurve(*params)
    scale = EntropicScale.direct(1.0)
    pa, pb, pc = (curve.mu + t * curve.sigma for t in (a, b, c))
    direct = work(curve, pa, pc, scale)
    split = work(curve, pa, pb, scale) + work(curve, pb, pc, scale)
    assert abs(direct - split) <= 1e-10


@given(curve_params, offsets)
@settings(max_examples=100, deadline=None)
def test_force_sign_restores_toward_mean(params, offset):
    curve = GaussianCurve(*params)
    x = curve.mu + offset * curve.sigma
    f = entropic_force(curve, x, UNIT_SCALE)
    if offset > 0:
        assert f <= 0
    elif offset < 0:
        assert f >= 0
    else:
        assert f == 0


def bits(value) -> bytes:
    """The eight bytes of a float, so that -0.0 and 0.0 differ and nan equals nan."""
    return array("d", [value]).tobytes()


@given(st.tuples(st.floats(-3.0, 3.0), st.floats(0.05, 3.0)),
       st.one_of(st.floats(-150.0, 150.0), st.integers(-150, 150)))
@settings(max_examples=250, deadline=None)
def test_scalar_and_one_point_array_routes_agree(params, x):
    """A Python number and a one-element numpy array take the same math
    expression: values agree bit for bit, and both routes accept or refuse
    the same points at the density floor."""
    curve = GaussianCurve(*params)
    point = np.array([x], dtype=np.float64)
    for f in (density, log_density):
        assert bits(f(curve, x)) == bits(f(curve, point)[0])
    forces = []
    for where in (x, point):
        try:
            forces.append(float(np.ravel(entropic_force(curve, where, UNIT_SCALE))[0]))
        except ValueError as exc:
            assert str(exc).startswith("density underflow")
            forces.append(None)
    assert (forces[0] is None) == (forces[1] is None) == (density(curve, x) < DENSITY_FLOOR)
    if forces[0] is not None:
        assert bits(forces[0]) == bits(forces[1])


def refuses(call):
    """True where call raises the density-underflow ValueError."""
    try:
        call()
    except ValueError as exc:
        assert str(exc).startswith("density underflow")
        return True
    return False


@given(st.tuples(st.floats(-3.0, 3.0), st.floats(0.05, 3.0)),
       st.lists(st.one_of(st.floats(-200.0, 200.0),
                          st.sampled_from([math.nan, math.inf, -math.inf, -0.0])),
                max_size=12))
@settings(max_examples=100, deadline=None)
@example((0.0, 1.0), [math.nan, 100.0, 0.5])
@example((0.0, 1.0), [0.5, 100.0, -1.0])
def test_array_d_route_is_the_one_point_route(params, points):
    """An array('d') is evaluated point by point with the one-point
    expression, bit for bit, and its force is refused exactly where the
    one-point route refuses a point, in any order and among nan points.

    Any other input (a list, a 0-d, 1-D, 2-D or empty numpy array, a numpy
    int64 or float32 scalar) is read into an array('d') in C order: it gives
    the array('d') route's bytes as a writable float64 ndarray of its shape,
    or a float where it is 0-d, and is refused exactly where that route is.
    """
    curve = GaussianCurve(*params)
    x = array("d", points)
    for f in (density, log_density):
        out = f(curve, x)
        assert isinstance(out, array)
        assert out.tobytes() == array("d", [f(curve, v) for v in points]).tobytes()
    refused = refuses(lambda: entropic_force(curve, x, UNIT_SCALE))
    assert refused == any(refuses(lambda: entropic_force(curve, v, UNIT_SCALE))
                          for v in points)
    if not refused:
        assert entropic_force(curve, x, UNIT_SCALE).tobytes() == array(
            "d", [entropic_force(curve, v, UNIT_SCALE) for v in points]).tobytes()

    one = points[0] if points else 0.5
    others = [points, np.array(points), np.array(one), np.array([points, points[::-1]]).T,
              np.empty((0, 3)), np.int64(one if math.isfinite(one) else -7),
              np.float32(one)]
    for given_x in others:
        reference = np.asarray(given_x, dtype=np.float64)
        x = array("d", reference.ravel())
        functions = [density, log_density]
        if refuses(lambda: entropic_force(curve, x, UNIT_SCALE)):
            assert refuses(lambda: entropic_force(curve, given_x, UNIT_SCALE))
        else:
            functions.append(lambda c, v: entropic_force(c, v, UNIT_SCALE))
        for f in functions:
            out, want = f(curve, given_x), f(curve, x)
            if reference.ndim == 0:
                assert type(out) is float and bits(out) == want.tobytes()
            else:
                assert type(out) is np.ndarray and out.dtype == np.float64
                assert out.shape == reference.shape and out.flags.writeable
                assert out.tobytes() == want.tobytes()
