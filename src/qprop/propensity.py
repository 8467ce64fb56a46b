"""
Propensity curves over log-price and their transaction dynamics.

A curve is a probability density over x = ln(price): either a Gaussian or
the degenerate point mass of a take-it-or-leave-it price. A Gaussian curve
feels the linear entropic force

    F(x) = gamma * P'(x) / P(x) = -k (x - mu),   k = gamma / sigma^2,

and maps onto a harmonic oscillator whose ground state reproduces it, with
mass m = hbar / (2 omega sigma^2) and energy scale gamma = hbar omega / 2.
Moving a mental price state from x1 to x2 against the force costs
gamma * ln(P(x2)/P(x1)).

The product of a buyer and a seller curve is again Gaussian up to a scale
factor (the overlap mass), and its force is the sum of the two parties'
forces. When one side fixes its price the joint collapses to a point mass
and the transaction force is the flexible party's alone.

Densities and forces are evaluated with ``math`` by one evaluator, each
point with the one-point expression, whatever the input: a Python float or
int gives a float, an ``array('d')`` an ``array('d')``, and any other
array-like (a numpy array of any shape, a list, a numpy scalar) a float64
ndarray of its shape, or a float where it is 0-d. The force checks each
block of points for an underflowed density, then works out its constant k,
then takes the products; so an empty input returns empty, whatever k is.
numpy is imported, when first needed, only to read such an input and to
draw prices. The curve types, joint curves, work and oscillator quantities
need only ``math``.

A value is checked once, where a caller hands it in: by the constructor of
a curve, a scale or an oscillator, or by ``from_oscillator`` and
``reversal_energy`` for their omega and hbar. A quantity derived from
checked values, such as an oscillator's mass and gamma, is only fitted to
the float range, and the ``EntropicScale`` that ``from_oscillator`` and
``OscillatorParams.scale`` build from such a gamma is not checked again.
"""
from __future__ import annotations

import math
import sys
from array import array
from itertools import chain
from typing import TYPE_CHECKING, Union

from ._record import record, unchecked

if TYPE_CHECKING:
    import numpy as np

DENSITY_FLOOR = 1e-300
# The log of an overlap mass whose log is beyond the float range too (curves
# narrower than about 1e-154 of the distance between them): the lowest float.
_LOG_SCALE_FLOOR = -sys.float_info.max
_ROOT_2PI = math.sqrt(2.0 * math.pi)
_LOG_ROOT_2PI = 0.5 * math.log(2.0 * math.pi)


_BLOCK = 8192     # points per list, so no list holds a whole large grid


def _on_math(x, values):
    """values at every point of x, where values maps a tuple or an
    array('d') of points to a list of floats. A number gives a float; an
    array('d') an array('d'), computed _BLOCK points at a time; any other
    array-like is read into an array('d') in C order and comes back as a
    writable float64 ndarray of its shape, or as a float where it is 0-d."""
    if isinstance(x, (int, float)):
        return values((x,))[0]
    shape = None
    if not isinstance(x, array):
        import numpy as np

        x = np.asarray(x, dtype=np.float64)
        shape, x = x.shape, array("d", x.tobytes())
    out = array("d")
    for i in range(0, len(x), _BLOCK):
        out.fromlist(values(x[i:i + _BLOCK]))
    if shape is None:
        return out
    return np.frombuffer(out).reshape(shape) if shape else out[0]


def _fit(quantity: str, numerator: float, denominator: float = 1.0) -> float:
    """numerator / denominator, a quantity derived from positive finite floats.

    Where a step leaves the float range the quantity comes out inf or 0 (a
    zero denominator counts as inf); that raises an OverflowError naming it.
    """
    value = numerator / denominator if denominator else math.inf
    if value == 0.0 or not math.isfinite(value):
        raise OverflowError(f"{quantity} does not fit in a float")
    return value


def _oscillator_gamma(omega: float, hbar: float) -> float:
    """gamma = hbar * omega / 2, the energy scale of an oscillator."""
    if not (0 < omega < math.inf and 0 < hbar < math.inf):
        raise ValueError("omega and hbar must be positive and finite")
    return _fit("gamma", 0.5 * hbar * omega)


class PointMassError(ValueError):
    """An operation that needs a finite density met a point-mass curve."""


@record
class GaussianCurve:
    """Normal propensity over log-price."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError("curve parameters must be finite")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


@record
class PointMassCurve:
    """Infinitely thin propensity pinned at one log-price."""

    point: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.point):
            raise ValueError("point must be finite")


PropensityCurve = Union[GaussianCurve, PointMassCurve]


@record
class EntropicScale:
    """Energy scale gamma multiplying P'(x)/P(x)."""

    gamma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError("gamma must be positive and finite")

    @classmethod
    def direct(cls, gamma: float) -> "EntropicScale":
        return cls(float(gamma))

    @classmethod
    def from_oscillator(cls, omega: float = 1.0, hbar: float = 1.0) -> "EntropicScale":
        """The oscillator scale gamma = hbar * omega / 2."""
        return unchecked(cls, _oscillator_gamma(omega, hbar))


@record
class OscillatorParams:
    """Oscillator (hbar, omega, sigma) with its derived spring quantities."""

    omega: float
    sigma: float
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("omega", "sigma", "hbar"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")

    @property
    def mass(self) -> float:
        return _fit("mass", self.hbar, 2.0 * self.omega * (self.sigma * self.sigma))

    @property
    def gamma(self) -> float:
        return _fit("gamma", 0.5 * self.hbar * self.omega)

    @property
    def force_constant(self) -> float:
        return force_constant(self.sigma, self.gamma)

    def scale(self) -> EntropicScale:
        return unchecked(EntropicScale, self.gamma)


@record
class JointPropensity:
    """Two parties' curves with their normalized product, its overlap mass
    and the mass's natural log, finite where the mass underflows to 0."""

    buyer: PropensityCurve
    seller: PropensityCurve
    joint: PropensityCurve
    scale: float
    log_scale: float


@record
class ReversalEnergy:
    """Energy of a preference reversal, the factor-3 propensity change."""

    exact: float
    base_energy: float

    @property
    def relative_gap(self) -> float:
        return self.exact / self.base_energy - 1.0


def density(curve: PropensityCurve, x):
    """Density of ``curve`` at log-price ``x``: a number, an array('d') or
    any array-like, returned as the module docstring says."""
    if isinstance(curve, PointMassCurve):
        raise PointMassError("a point mass has no finite density")
    # Far tails overflow z * z to inf and the density to 0, which is the
    # right value; callers that need a positive density check for it.
    mu, sigma, norm, exp = curve.mu, curve.sigma, curve.sigma * _ROOT_2PI, math.exp
    return _on_math(x, lambda points: [exp(-0.5 * (z := (v - mu) / sigma) * z) / norm
                                       for v in points])


def log_density(curve: PropensityCurve, x):
    """Natural log of ``density``; stays finite far into the tails."""
    if isinstance(curve, PointMassCurve):
        raise PointMassError("a point mass has no finite density")
    mu, sigma, log_sigma = curve.mu, curve.sigma, math.log(curve.sigma)
    return _on_math(x, lambda points: [-0.5 * (z := (v - mu) / sigma) * z - log_sigma
                                       - _LOG_ROOT_2PI for v in points])


def _require_positive_density(curve: GaussianCurve, points) -> None:
    """Refuse points (an array('d') or a tuple of numbers) where the density
    at any of them has underflowed below DENSITY_FLOOR."""
    # The density falls with |x - mu|: its lowest lies at the least or the
    # greatest point. nan points are passed over, as a lone nan is.
    lo, hi = min(chain((math.inf,), points)), max(chain((-math.inf,), points))
    if lo <= hi and min(density(curve, lo), density(curve, hi)) < DENSITY_FLOOR:
        raise ValueError(
            "density underflow: the point lies too far from the curve to carry meaning")


def force_constant(sigma: float, gamma: float) -> float:
    """k = gamma / sigma^2, the spring constant of a curve's force."""
    return _fit("force_constant", gamma, sigma * sigma)


def entropic_force(curve: PropensityCurve, x, scale: EntropicScale):
    """gamma * P'(x)/P(x); for a Gaussian curve exactly -k (x - mu).

    Raises PointMassError for fixed-price curves (see ``fixed_price_joint``),
    ValueError where the density has underflowed to zero, and OverflowError
    where k does not fit in a float.
    """
    if isinstance(curve, PointMassCurve):
        raise PointMassError(
            "a point mass exerts no entropic force; use fixed_price_joint")
    mu = curve.mu

    def forces(points):
        _require_positive_density(curve, points)
        minus_k = -force_constant(curve.sigma, scale.gamma)
        # A product beyond the float range is inf; the caller sees the inf.
        return [minus_k * (v - mu) for v in points]

    return _on_math(x, forces)


def oscillator_from_curve(curve: GaussianCurve, omega: float = 1.0,
                          hbar: float = 1.0) -> OscillatorParams:
    """The oscillator whose ground state reproduces ``curve``."""
    if isinstance(curve, PointMassCurve):
        raise PointMassError("only a Gaussian curve defines an oscillator")
    return OscillatorParams(omega=float(omega), sigma=curve.sigma, hbar=float(hbar))


def ground_state_density(params: OscillatorParams, mu: float, x):
    """|psi_0|^2 of the oscillator: a Gaussian with sigma^2 = hbar/(2 m omega)."""
    sigma = math.sqrt(params.hbar / (2.0 * params.mass * params.omega))
    return density(GaussianCurve(float(mu), sigma), x)


def joint_propensity(buyer: GaussianCurve, seller: GaussianCurve) -> JointPropensity:
    """Product of two Gaussian propensities: a scaled normal curve.

    ``joint`` is the normalized product, with precision the sum of the input
    precisions and mean their precision-weighted average; ``scale`` is the
    raw product's mass, the Gaussian overlap of the two curves, and
    ``log_scale`` its log, which stays finite where the mass underflows and
    is the lowest float where the log itself is below the float range.

    Both come from the width ratio t = sigma_b / sigma_s and from
    h = hypot(sigma_b, sigma_s) rather than from precisions 1/sigma^2, so
    no step leaves the float range for widths that are floats themselves.
    """
    if isinstance(buyer, PointMassCurve) or isinstance(seller, PointMassCurve):
        raise PointMassError("fixed prices go through fixed_price_joint")
    t = buyer.sigma / seller.sigma
    w = 1.0 / (1.0 + t * t)               # the buyer's weight, 0 where t * t is inf
    lo, hi = sorted((buyer.mu, seller.mu))    # the weighted mean may round outside
    mu = min(max(w * buyer.mu + (1.0 - w) * seller.mu, lo), hi)
    overlap_sigma = math.hypot(buyer.sigma, seller.sigma)
    narrow, wide = sorted((buyer.sigma, seller.sigma))
    sigma = narrow * (wide / overlap_sigma)   # wide / h lies in [1/sqrt(2), 1]
    overlap = GaussianCurve(seller.mu, overlap_sigma)
    return JointPropensity(buyer, seller, GaussianCurve(mu, sigma), density(overlap, buyer.mu),
                           max(log_density(overlap, buyer.mu), _LOG_SCALE_FLOOR))


def fixed_price_joint(counterparty: GaussianCurve, price: float,
                      fixed_side: str = "seller") -> JointPropensity:
    """Joint propensity when one party fixes the price and will not move.

    The joint curve is the point mass at the fixed log-price and the overlap
    mass is the counterparty's density there, its log the log density (at
    least the lowest float, as in ``joint_propensity``). The fixed party
    defaults to the seller slot, the usual price-setting side.
    """
    if isinstance(counterparty, PointMassCurve):
        raise PointMassError("both sides fixed leaves nothing to negotiate")
    if fixed_side not in ("buyer", "seller"):
        raise ValueError("fixed_side must be 'buyer' or 'seller'")
    if not math.isfinite(price):
        raise ValueError("price must be finite")
    point = PointMassCurve(float(price))
    buyer, seller = ((point, counterparty) if fixed_side == "buyer"
                     else (counterparty, point))
    return JointPropensity(buyer, seller, point, float(density(counterparty, price)),
                           max(float(log_density(counterparty, price)), _LOG_SCALE_FLOOR))


def transaction_force(joint: JointPropensity, x, scale: EntropicScale):
    """Entropic force driving the transaction price.

    For two Gaussians this is the joint curve's force, the sum of the buyer
    and seller forces; with a fixed price only the flexible party pulls.
    """
    if isinstance(joint.joint, GaussianCurve):
        return entropic_force(joint.joint, x, scale)
    flexible = joint.buyer if isinstance(joint.buyer, GaussianCurve) else joint.seller
    return entropic_force(flexible, x, scale)


def work(curve: GaussianCurve, x1: float, x2: float, scale: EntropicScale) -> float:
    """Energy to move a mental price state from x1 to x2.

    Equal to gamma * ln(P(x2)/P(x1)): path independent, positive toward the
    mean, and dependent only on the density ratio between the endpoints.
    """
    if isinstance(curve, PointMassCurve):
        raise PointMassError("work along a point mass is undefined")
    _require_positive_density(curve, (x1, x2))
    return scale.gamma * (log_density(curve, x2) - log_density(curve, x1))


def reversal_energy(omega: float = 1.0, hbar: float = 1.0) -> ReversalEnergy:
    """Energy to flip a preference between two options.

    A reversal needs a factor-3 propensity change, so the exact cost is
    (hbar omega / 2) ln 3. Because ln 3 is close to ln e = 1 this is nearly
    the oscillator base energy hbar omega / 2, reported as ``base_energy``;
    the relative gap is ln 3 - 1, about 9.9 percent.
    """
    base = _oscillator_gamma(omega, hbar)
    return ReversalEnergy(base * math.log(3.0), base)


def sample_prices(joint: JointPropensity, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` independent log-prices from the joint curve."""
    if n < 1:
        raise ValueError("need at least one draw")
    import numpy as np

    curve = joint.joint
    if isinstance(curve, PointMassCurve):
        return np.full(n, curve.point)
    return rng.normal(curve.mu, curve.sigma, size=n)
