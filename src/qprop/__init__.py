"""Quantum propensity toolkit.

Two-qubit decision circuits for question-order and interference effects,
and entropic propensity curves over log-price for transaction dynamics.

The exported names are resolved on first use (PEP 562), so importing the
package loads neither numpy nor a model module; ``from qprop import X``
imports only X's home module.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "decision": (
        "DecisionScenario",
        "EquivalenceReport",
        "EquivalenceSweep",
        "EventDistribution",
        "OrderEffectSummary",
        "QuestionOrder",
        "ReversalDecision",
        "entangled_circuit",
        "equivalence_check",
        "equivalence_sweep",
        "interference_term",
        "order_effect_circuit",
        "order_effect_magnitude",
        "order_effect_summary",
        "preference_reversal_switch",
        "sequential_measurement",
        "sequential_measurement_sampled",
    ),
    "propensity": (
        "EntropicScale",
        "GaussianCurve",
        "JointPropensity",
        "OscillatorParams",
        "PointMassCurve",
        "PointMassError",
        "ReversalEnergy",
        "density",
        "entropic_force",
        "fixed_price_joint",
        "force_constant",
        "ground_state_density",
        "joint_propensity",
        "log_density",
        "oscillator_from_curve",
        "reversal_energy",
        "sample_prices",
        "transaction_force",
        "work",
    ),
    "qubits": (
        "Gate",
        "StateVector",
        "apply",
        "basis_labels",
        "cnot",
        "hadamard",
        "initial_state",
        "is_unitary",
        "measure_collapse",
        "probabilities",
        "random_unitaries",
        "random_unitary_2x2",
        "rotation_gate",
        "tensor",
    ),
}

# Home module of every exported name.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({"cli", *_EXPORTS})

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
