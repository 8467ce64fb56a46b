import math
from array import array
from fractions import Fraction
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy.integrate import simpson
from scipy.stats import norm

from qprop.propensity import (
    _BLOCK,
    DENSITY_FLOOR,
    EntropicScale,
    GaussianCurve,
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

from checkers import raises, refused

STANDARD = GaussianCurve(0.0, 1.0)
UNIT_SCALE = EntropicScale.direct(1.0)
OMEGA_HBAR = "omega and hbar must be positive and finite"
UNDERFLOW = "density underflow: the point lies too far from the curve to carry meaning"
NO_DENSITY = "a point mass has no finite density"


def linspace_window(curve, points=4001, width=8.0):
    return np.linspace(curve.mu - width * curve.sigma,
                       curve.mu + width * curve.sigma, points)


def refuses(call):
    """True where call raises the density-underflow ValueError."""
    return raises(ValueError, UNDERFLOW, call)


# ============================================================
# Values at fixed inputs
# ============================================================

X1 = math.sqrt(2.0 * math.log(3.0))      # where the standard density is a third of its peak


def test_density_peak_value():
    assert density(STANDARD, 0.0) == approx(0.3989422804014327, abs=1e-15)


def test_log_density_finite_in_deep_tail():
    want = -5000.0 - 0.5 * math.log(2.0 * math.pi)
    assert log_density(STANDARD, 100.0) == approx(want, rel=1e-12)


def test_force_zero_at_mean():
    assert entropic_force(STANDARD, 0.0, UNIT_SCALE) == 0.0


def test_force_frozen_value():
    assert entropic_force(STANDARD, 0.5, UNIT_SCALE) == approx(-0.5, abs=1e-15)


def test_scale_constructors():
    assert UNIT_SCALE.gamma == 1.0
    assert EntropicScale.from_oscillator(omega=3.0, hbar=2.0).gamma == approx(3.0)
    assert raises(ValueError, "gamma must be positive and finite", EntropicScale.direct, 0.0)
    assert raises(ValueError, OMEGA_HBAR, EntropicScale.from_oscillator, -1.0)


def test_oscillator_unit_parameters():
    params = oscillator_from_curve(GaussianCurve(0.0, 1.0), omega=1.0, hbar=1.0)
    assert params.mass == approx(0.5, abs=1e-15)
    assert params.gamma == approx(0.5, abs=1e-15)
    assert params.force_constant == approx(0.5, abs=1e-15)


def test_oscillator_mass_scales_inversely_with_variance():
    wide = oscillator_from_curve(GaussianCurve(0.0, 0.4)).mass
    assert oscillator_from_curve(GaussianCurve(0.0, 0.2)).mass == approx(4.0 * wide, rel=1e-12)


def test_joint_equal_variances():
    joint = joint_propensity(GaussianCurve(1.1, 0.1), GaussianCurve(0.9, 0.1))
    assert joint.joint.mu == approx(1.0, abs=1e-12)
    assert joint.joint.sigma == approx(0.1 / math.sqrt(2.0), abs=1e-12)
    assert joint.scale == approx(1.0377687435514862, abs=1e-12)


def test_joint_identical_curves_scale():
    """The overlap of a curve with itself is 1 / (2 sigma sqrt(pi))."""
    joint = joint_propensity(GaussianCurve(0.4, 0.25), GaussianCurve(0.4, 0.25))
    assert joint.scale == approx(1.0 / (2.0 * 0.25 * math.sqrt(math.pi)), rel=1e-12)


def test_joint_of_equal_means_keeps_the_mean():
    """The weighted mean w mu + (1 - w) mu can round one ulp off mu; the joint
    mean stays between the two means."""
    mu = math.log(2.0)
    assert joint_propensity(GaussianCurve(mu, 0.5), GaussianCurve(mu, 1e-8)).joint.mu == mu


def test_joint_disjoint_curves_have_tiny_scale():
    assert joint_propensity(GaussianCurve(0.0, 0.05), GaussianCurve(2.0, 0.05)).scale < 1e-10


def test_fixed_price_joint_at_counterparty_mean():
    joint = fixed_price_joint(STANDARD, 0.0)
    assert joint.joint == PointMassCurve(0.0)
    assert joint.scale == approx(0.3989422804014327, abs=1e-15)


def test_fixed_price_joint_far_from_mean():
    joint = fixed_price_joint(STANDARD, 5.0)
    assert joint.scale == approx(1.4867195147342979e-06, rel=1e-12)
    assert joint.scale == approx(float(norm.pdf(5.0)), rel=1e-12)


def test_transaction_force_gaussian_joint():
    joint = joint_propensity(GaussianCurve(1.05, 0.1), GaussianCurve(0.95, 0.15))
    want = entropic_force(joint.joint, 1.02, UNIT_SCALE)
    assert transaction_force(joint, 1.02, UNIT_SCALE) == approx(want, abs=1e-15)


def test_transaction_force_with_fixed_price():
    """Only the flexible side pulls when the other fixes its price."""
    curve, scale = GaussianCurve(1.0, 0.2), EntropicScale.direct(0.5)
    joint = fixed_price_joint(curve, 1.1, fixed_side="seller")
    assert transaction_force(joint, 1.1, scale) == approx(entropic_force(curve, 1.1, scale),
                                                          abs=1e-15)


def test_work_zero_for_null_move():
    assert work(STANDARD, 0.3, 0.3, UNIT_SCALE) == approx(0.0, abs=1e-15)


def test_work_frozen_values():
    assert work(STANDARD, 0.0, 1.0, UNIT_SCALE) == approx(-0.5, abs=1e-12)
    assert work(STANDARD, X1, 0.0, UNIT_SCALE) == approx(math.log(3.0), abs=1e-12)


def test_reversal_energy_unit_values():
    energy = reversal_energy(omega=1.0, hbar=1.0)
    assert energy.exact == approx(0.5493061443340549, abs=1e-15)
    assert energy.base_energy == approx(0.5, abs=1e-15)
    assert energy.relative_gap == approx(math.log(3.0) - 1.0, abs=1e-12)


def test_reversal_energy_scales_with_omega():
    energy = reversal_energy(omega=4.0, hbar=0.5)
    assert energy.exact == approx(math.log(3.0), abs=1e-12)
    assert energy.base_energy == approx(1.0, abs=1e-15)


def test_reversal_energy_equals_factor_three_work():
    """The reversal cost is the work of a factor-3 density change."""
    scale = EntropicScale.from_oscillator(omega=1.0, hbar=1.0)
    assert abs(work(STANDARD, X1, 0.0, scale)) == approx(reversal_energy(1.0, 1.0).exact,
                                                         abs=1e-12)


def test_sample_prices_point_mass_constant():
    draws = sample_prices(fixed_price_joint(STANDARD, 0.25), 11, np.random.default_rng(0))
    assert draws.tolist() == [0.25] * 11


# ============================================================
# Refusals
# ============================================================

test_curve_validation = refused(
    (ValueError, "sigma must be positive", GaussianCurve, 0.0, 0.0),
    (ValueError, "sigma must be positive", GaussianCurve, 0.0, -1.0),
    (ValueError, "curve parameters must be finite", GaussianCurve, math.inf, 1.0),
    (ValueError, "point must be finite", PointMassCurve, math.nan))
test_point_mass_has_no_density = refused(
    (PointMassError, NO_DENSITY, lambda: density(PointMassCurve(1.0), 1.0)),
    (PointMassError, NO_DENSITY, lambda: log_density(PointMassCurve(1.0), 1.0)))
test_force_point_mass_raises = refused(
    (PointMassError, "a point mass exerts no entropic force; use fixed_price_joint",
     lambda: entropic_force(PointMassCurve(0.0), 0.0, UNIT_SCALE)))
test_force_underflow_raises = refused((ValueError, UNDERFLOW, entropic_force, STANDARD, 45.0,
                                       UNIT_SCALE))
test_oscillator_rejects_point_mass = refused(
    (PointMassError, "only a Gaussian curve defines an oscillator",
     lambda: oscillator_from_curve(PointMassCurve(0.0))))
test_oscillator_params_validation = refused(
    (ValueError, "omega must be positive and finite", OscillatorParams, 0.0, 1.0),
    (ValueError, "sigma must be positive and finite", OscillatorParams, 1.0, -0.1))
test_joint_rejects_point_mass_inputs = refused(
    (PointMassError, "fixed prices go through fixed_price_joint",
     lambda: joint_propensity(PointMassCurve(1.0), STANDARD)))
test_work_underflow_raises = refused((ValueError, UNDERFLOW, work, STANDARD, 0.0, 45.0, UNIT_SCALE))
test_work_point_mass_raises = refused(
    (PointMassError, "work along a point mass is undefined",
     lambda: work(PointMassCurve(0.0), 0.0, 1.0, UNIT_SCALE)))
test_reversal_energy_rejects_bad_inputs = refused((ValueError, OMEGA_HBAR, reversal_energy, 0.0),
                                                  (ValueError, OMEGA_HBAR, reversal_energy, 1.0,
                                                   -1.0))
test_sample_prices_rejects_bad_count = refused(
    (ValueError, "need at least one draw",
     lambda: sample_prices(fixed_price_joint(STANDARD, 0.25), 0, np.random.default_rng(0))))


# ============================================================
# Curves and densities
# ============================================================

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


# ============================================================
# Entropic force
# ============================================================

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


# ============================================================
# Oscillator mapping
# ============================================================

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
        assert params.scale().gamma == approx(0.5 * hbar * omega, abs=1e-15)


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


@pytest.mark.parametrize("lead", [0.5, math.nan])
def test_force_guard_reaches_the_second_block(lead):
    """A point whose density underflows is refused where it lies past the
    first _BLOCK points, and also after a nan that opens its block."""
    points = array("d", [0.5]) * (_BLOCK + 5)
    points[_BLOCK], points[_BLOCK + 3] = lead, 100.0
    assert not refuses(lambda: entropic_force(STANDARD, points[:_BLOCK], UNIT_SCALE))
    assert refuses(lambda: entropic_force(STANDARD, points, UNIT_SCALE))


def test_nan_opening_the_second_block_is_the_one_point_route():
    points = array("d", [0.5 - i % 3 for i in range(_BLOCK + 5)])
    points[_BLOCK] = math.nan
    assert entropic_force(STANDARD, points, UNIT_SCALE).tobytes() == array(
        "d", [entropic_force(STANDARD, v, UNIT_SCALE) for v in points]).tobytes()


def test_force_of_no_points_needs_no_force_constant():
    """The force constant is worked out per block, after the density check:
    an empty input returns empty even where k overflows, a far point is
    refused for its density first, and any other point for k."""
    curve, scale = GaussianCurve(0.0, 1e-160), EntropicScale.direct(1.0)
    assert entropic_force(curve, array("d"), scale) == array("d")
    out = entropic_force(curve, np.empty((0, 3)), scale)
    assert type(out) is np.ndarray and out.shape == (0, 3)
    assert refuses(lambda: entropic_force(curve, array("d", [0.0, 1.0]), scale))
    for x in (0.0, array("d", [0.0]), np.zeros(2)):
        assert raises(OverflowError, "force_constant does not fit in a float", entropic_force,
                      curve, x, scale)


@pytest.mark.parametrize("sigma", [1e-200, 1e200, 1e-160])
def test_oscillator_quantities_beyond_float_range_name_themselves(sigma):
    """sigma ** 2 underflows to 0, to a subnormal, or overflows: the error
    names the quotient."""
    params = OscillatorParams(omega=1.0, sigma=sigma)
    for name in ("mass", "force_constant"):
        assert raises(OverflowError, f"{name} does not fit in a float", getattr, params, name)


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_oscillator_gamma_beyond_float_range_names_itself(scale):
    """hbar * omega / 2 overflows or underflows to 0 on every route to gamma."""
    params = OscillatorParams(omega=scale, sigma=1.0, hbar=scale)
    for route in (lambda: params.gamma, params.scale,
                  lambda: EntropicScale.from_oscillator(scale, scale),
                  lambda: reversal_energy(scale, scale)):
        assert raises(OverflowError, "gamma does not fit in a float", route)
    assert params.mass == 0.5


# ============================================================
# Joint propensity
# ============================================================

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


PARTIES = st.one_of(st.tuples(st.floats(-5.0, 5.0), st.floats(1e-3, 10.0)),
                    st.tuples(st.floats(-1e300, 1e300), st.floats(1e-150, 1e150)))


def exact_joint_mean(one, other):
    """The precision-weighted mean of two parties (mean, width), as a Fraction."""
    (a, s), (b, t) = ([Fraction(v) for v in party] for party in (one, other))
    return (t * t * a + s * s * b) / (s * s + t * t)


@given(PARTIES, PARTIES)
@settings(max_examples=200, deadline=None)
def test_the_joint_is_symmetric_in_its_two_parties(one, other):
    """Swapping buyer and seller gives the same joint width, overlap mass and
    log mass, bit for bit. The joint mean is rounded in another order, so each
    order is held to the error bound of its arithmetic around the exact mean
    W a + (1 - W) b, with u = 2^-53 and M = max(|a|, |b|): w = 1 / (1 + t * t)
    is W(1 + d), |d| <= (2 + 3(1 - W))u, so Wd(a - b) adds 2W|d|M, and 1 - w,
    the products and their sum (3 - W)uM, at most 6.375uM in all (W = 3/4).
    7uM covers the second-order terms, 2^-1073 the products that underflow."""
    forward, backward = (joint_propensity(GaussianCurve(*a), GaussianCurve(*b))
                         for a, b in ((one, other), (other, one)))
    fields = attrgetter("joint.sigma", "scale", "log_scale")
    assert [bits(v) for v in fields(forward)] == [bits(v) for v in fields(backward)]
    bound = 7 * Fraction(max(abs(one[0]), abs(other[0]))) / 2**53 + Fraction(1, 2**1073)
    for joint in (forward, backward):
        assert abs(Fraction(joint.joint.mu) - exact_joint_mean(one, other)) <= bound


def test_fixed_price_joint_side_placement():
    curve = GaussianCurve(1.0, 0.2)
    seller_fixed = fixed_price_joint(curve, 1.1, fixed_side="seller")
    assert isinstance(seller_fixed.seller, PointMassCurve)
    assert seller_fixed.buyer is curve
    buyer_fixed = fixed_price_joint(curve, 1.1, fixed_side="buyer")
    assert isinstance(buyer_fixed.buyer, PointMassCurve)
    assert buyer_fixed.seller is curve
    assert raises(ValueError, "fixed_side must be 'buyer' or 'seller'", fixed_price_joint, curve,
                  1.1, "house")
    assert raises(PointMassError, "both sides fixed leaves nothing to negotiate",
                  fixed_price_joint, PointMassCurve(0.0), 1.0)


# ============================================================
# Work and reversal energy
# ============================================================

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
    forces = [None if refuses(lambda: entropic_force(curve, where, UNIT_SCALE))
              else float(np.ravel(entropic_force(curve, where, UNIT_SCALE))[0])
              for where in (x, point)]
    assert (forces[0] is None) == (forces[1] is None) == (density(curve, x) < DENSITY_FLOOR)
    if forces[0] is not None:
        assert bits(forces[0]) == bits(forces[1])


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
