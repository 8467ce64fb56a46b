"""
Exact statevector engine for one- and two-qubit registers.

Amplitudes are complex doubles and outcome probabilities follow the 2-norm
rule p_i = |a_i|^2. Two-qubit basis states are ordered by
index = 2 * (bit of qubit 1) + (bit of qubit 2), with qubit 1 the top wire,
so the entangling gate ``cnot(control=1)`` swaps the |10> and |11>
amplitudes and ``cnot(control=2)`` swaps |01> and |11>.

States and gates are immutable values: one that a caller builds is checked
there, a state for its norm within STATE_NORM_TOL and a gate for unitarity
within GATE_UNITARY_TOL; what the engine computes from them is not checked
again and carries their tolerance plus rounding. ``probabilities`` returns
the read-only array of |a_i|^2 in basis order, labelled by ``basis_labels``;
for a state a caller built, each lies between 0 and their sum, and the sum
within STATE_NORM_TOL of 1. The only mutable object in the module is the
caller-owned numpy ``Generator`` consumed by ``measure_collapse`` and
``random_unitary_2x2``, so thread safety reduces to one generator per thread.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from ._draws import unitary
from ._record import record, unchecked

STATE_NORM_TOL = 1e-12
GATE_UNITARY_TOL = 1e-10


def _as_complex_array(values, name: str, shapes: tuple) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if arr.shape not in shapes:
        raise ValueError(f"{name} must have shape in {shapes}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite (no NaN or Inf entries)")
    arr.setflags(write=False)
    return arr


def _computed(cls, arr: np.ndarray):
    """A StateVector or Gate of a computed complex128 array that owns its data."""
    arr.setflags(write=False)
    return unchecked(cls, arr)


@record(eq=False)
class StateVector:
    """Normalized amplitudes over the computational basis of 1 or 2 qubits."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_complex_array(self.amplitudes, "amplitudes", ((2,), (4,)))
        norm_sq = float(np.sum(arr.real * arr.real + arr.imag * arr.imag))
        if abs(norm_sq - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"state is not normalized: sum of |a_i|^2 is {norm_sq!r}")
        object.__setattr__(self, "amplitudes", arr)

    @property
    def n_qubits(self) -> int:
        return 1 if self.amplitudes.shape[0] == 2 else 2

    @property
    def labels(self) -> tuple[str, ...]:
        return basis_labels(self.n_qubits)


@record(eq=False)
class Gate:
    """Unitary transformation on one or two qubits."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_complex_array(self.entries, "entries", ((2, 2), (4, 4)))
        if not is_unitary(arr, GATE_UNITARY_TOL):
            raise ValueError(
                f"gate matrix is not unitary within {GATE_UNITARY_TOL:g}")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __matmul__(self, other: "Gate") -> "Gate":
        if not isinstance(other, Gate):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("cannot compose gates of different dimension")
        return _computed(Gate, self.entries @ other.entries)


def basis_labels(n_qubits: int) -> tuple[str, ...]:
    """Bitstring labels in basis order, e.g. ("00", "01", "10", "11")."""
    if n_qubits not in (1, 2):
        raise ValueError("supported register sizes are 1 or 2 qubits")
    return tuple(format(i, f"0{n_qubits}b") for i in range(2 ** n_qubits))


def initial_state(n_qubits: int) -> StateVector:
    """The all-zeros register |0> or |00>."""
    if n_qubits not in (1, 2):
        raise ValueError(f"supported register sizes are 1 or 2 qubits, got {n_qubits!r}")
    return _basis_outcomes(n_qubits)[0][1]


def rotation_gate(angle: float) -> Gate:
    """Real rotation with rows (cos, -sin; sin, cos)."""
    angle = float(angle)
    if not math.isfinite(angle):
        raise ValueError("rotation angle must be finite")
    c, s = math.cos(angle), math.sin(angle)
    return _computed(Gate, np.array([[c, -s], [s, c]], dtype=np.complex128))


def hadamard() -> Gate:
    """Self-inverse balanced-superposition gate (1, 1; 1, -1)/sqrt(2)."""
    inv = 1.0 / math.sqrt(2.0)
    return _computed(Gate, np.array([[inv, inv], [inv, -inv]], dtype=np.complex128))


def cnot(control: int) -> Gate:
    """Controlled flip on two qubits.

    ``control=1`` flips qubit 2 when qubit 1 is set, permuting basis indices
    2 and 3; ``control=2`` flips qubit 1 when qubit 2 is set, permuting
    indices 1 and 3.
    """
    if control == 1:
        perm = (0, 1, 3, 2)
    elif control == 2:
        perm = (0, 3, 2, 1)
    else:
        raise ValueError("control qubit must be 1 or 2")
    m = np.zeros((4, 4), dtype=np.complex128)
    m[np.arange(4), perm] = 1.0
    return _computed(Gate, m)


def tensor(g1: Gate, g2: Gate) -> Gate:
    """Kronecker product, with g1 acting on qubit 1 (the top wire)."""
    if g1.dim != 2 or g2.dim != 2:
        raise ValueError("tensor expects two single-qubit gates")
    return _computed(Gate, np.kron(g1.entries, g2.entries).copy())    # kron gives a view


def apply(gate: Gate, state: StateVector) -> StateVector:
    """Left-multiply ``state`` by ``gate``; unitarity preserves the norm."""
    if gate.dim != state.amplitudes.shape[0]:
        raise ValueError(
            f"gate of dimension {gate.dim} does not fit a {state.n_qubits}-qubit state")
    return _computed(StateVector, gate.entries @ state.amplitudes)


def probabilities(state: StateVector) -> np.ndarray:
    """Read-only |a_i|^2 of ``state`` in basis order (labels: ``state.labels``)."""
    amps = state.amplitudes
    probs = amps.real * amps.real + amps.imag * amps.imag
    probs.setflags(write=False)
    return probs


@functools.lru_cache(maxsize=None)
def _basis_outcomes(n_qubits: int) -> tuple[tuple[str, StateVector], ...]:
    out = []
    for i in range(2 ** n_qubits):
        amps = np.zeros(2 ** n_qubits, dtype=np.complex128)
        amps[i] = 1.0
        out.append((format(i, f"0{n_qubits}b"), _computed(StateVector, amps)))
    return tuple(out)


def _sample_index(probs, rng: np.random.Generator) -> int:
    u = rng.random()
    acc = 0.0
    last_positive = 0
    for i, p in enumerate(probs):
        if p > 0.0:
            last_positive = i
            acc += p
            if u < acc:
                return i
    return last_positive


def measure_collapse(state: StateVector, rng: np.random.Generator,
                     qubit: int | None = None) -> tuple[str, StateVector]:
    """Sample one computational-basis measurement and collapse the state.

    With ``qubit=None`` the whole register is read out: the label is the
    sampled basis state and the returned state has amplitude 1 on it. With
    ``qubit`` given (1-based, two-qubit states only) only that wire is read;
    the label is its bit and the returned state is the renormalized
    one-qubit remainder on the other wire. Both reads weigh the outcomes by
    ``probabilities(state)``; a wire's branch mass is the sum of two of them.
    """
    probs = probabilities(state)
    if qubit is None:
        idx = _sample_index(probs, rng)
        return _basis_outcomes(state.n_qubits)[idx]
    if state.n_qubits != 2:
        raise ValueError("partial measurement needs a two-qubit state")
    if qubit not in (1, 2):
        raise ValueError("qubit index must be 1 or 2")
    groups = ((0, 1), (2, 3)) if qubit == 1 else ((0, 2), (1, 3))
    branch = [probs[i] + probs[j] for i, j in groups]
    bit = _sample_index(branch, rng)
    remainder = state.amplitudes[list(groups[bit])] / math.sqrt(branch[bit])
    return str(bit), _computed(StateVector, remainder)


def is_unitary(gate: Gate | np.ndarray, tol: float) -> bool:
    """True iff U†U deviates from the identity by at most ``tol`` entrywise.

    Accepts a Gate or a raw matrix so that candidates can be screened before
    construction.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    m = gate.entries if isinstance(gate, Gate) else np.asarray(gate, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    dev = m.conj().T @ m - np.eye(m.shape[0])
    return float(np.max(np.abs(dev))) <= tol


def random_unitary_2x2(rng: np.random.Generator) -> Gate:
    """Seeded random single-qubit unitary: one gate of ``random_unitaries``."""
    return _computed(Gate, random_unitaries(rng, 1)[0].copy())


def random_unitaries(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` seeded random single-qubit unitaries as an (n, 2, 2) array.

    Each is exp(i d) * diag(exp(i a), 1) @ R_theta @ diag(exp(i b), 1) with
    theta = arcsin(sqrt(u)), u uniform on [0, 1) and phases uniform on
    [0, 2 pi), built by ``_draws.unitary`` from scalar ``rng.random()``
    draws (u, a, b, d) in that order. So one generator state maps to exactly
    one stack, n gates drawn one at a time equal one stack of n, and a
    stack holds the gates that ``decision.equivalence_sweep`` draws from the
    same generator.
    """
    if n < 0:
        raise ValueError("number of unitaries must not be negative")
    random = rng.random
    return np.array([unitary(random) for _ in range(n)], dtype=np.complex128).reshape(n, 2, 2)
