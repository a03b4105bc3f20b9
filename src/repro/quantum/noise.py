"""Noise channels and device noise models.

The simulated IBM-Q and IonQ backends (paper Section 5.4) are built from the
channels defined here: depolarising error after every gate, amplitude/phase
damping approximating T1/T2 relaxation over the gate duration, and classical
readout error at measurement time.  A :class:`NoiseModel` bundles per-gate
channels plus readout error probabilities the way device calibration data
would on a real provider.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays import COMPLEX_DTYPE

from repro.exceptions import NoiseError, SimulationError
from repro.utils.rng import RandomState, ensure_rng

# --------------------------------------------------------------------------- #
# Kraus-operator factories
# --------------------------------------------------------------------------- #


def depolarizing_kraus(probability: float, num_qubits: int = 1) -> List[np.ndarray]:
    """Kraus operators of the ``num_qubits``-qubit depolarising channel.

    With probability ``probability`` the state is replaced by the maximally
    mixed state; otherwise it is untouched.
    """
    if not 0.0 <= probability <= 1.0:
        raise SimulationError(f"probability must be in [0, 1], got {probability}")
    from repro.quantum import gates

    paulis_1q = [gates.I2, gates.PAULI_X, gates.PAULI_Y, gates.PAULI_Z]
    paulis: List[np.ndarray] = paulis_1q
    for _ in range(num_qubits - 1):
        paulis = [np.kron(a, b) for a in paulis for b in paulis_1q]
    dim_sq = len(paulis)
    kraus = []
    for index, pauli in enumerate(paulis):
        if index == 0:
            weight = math.sqrt(1.0 - probability + probability / dim_sq)
        else:
            weight = math.sqrt(probability / dim_sq)
        kraus.append(weight * pauli)
    return kraus


def amplitude_damping_kraus(gamma: float) -> List[np.ndarray]:
    """Kraus operators of the single-qubit amplitude-damping channel.

    ``gamma`` is the probability of decaying from ``|1>`` to ``|0>``,
    approximating T1 relaxation over a gate duration.
    """
    if not 0.0 <= gamma <= 1.0:
        raise SimulationError(f"gamma must be in [0, 1], got {gamma}")
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=COMPLEX_DTYPE)
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=COMPLEX_DTYPE)
    return [k0, k1]


def phase_damping_kraus(gamma: float) -> List[np.ndarray]:
    """Kraus operators of the single-qubit phase-damping (dephasing) channel.

    Approximates T2 dephasing over a gate duration.
    """
    if not 0.0 <= gamma <= 1.0:
        raise SimulationError(f"gamma must be in [0, 1], got {gamma}")
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=COMPLEX_DTYPE)
    k1 = np.array([[0.0, 0.0], [0.0, math.sqrt(gamma)]], dtype=COMPLEX_DTYPE)
    return [k0, k1]


def bit_flip_kraus(probability: float) -> List[np.ndarray]:
    """Kraus operators of the single-qubit bit-flip channel."""
    if not 0.0 <= probability <= 1.0:
        raise SimulationError(f"probability must be in [0, 1], got {probability}")
    from repro.quantum import gates

    return [
        math.sqrt(1.0 - probability) * gates.I2,
        math.sqrt(probability) * gates.PAULI_X,
    ]


def phase_flip_kraus(probability: float) -> List[np.ndarray]:
    """Kraus operators of the single-qubit phase-flip channel."""
    if not 0.0 <= probability <= 1.0:
        raise SimulationError(f"probability must be in [0, 1], got {probability}")
    from repro.quantum import gates

    return [
        math.sqrt(1.0 - probability) * gates.I2,
        math.sqrt(probability) * gates.PAULI_Z,
    ]


def thermal_relaxation_kraus(t1: float, t2: float, gate_time: float) -> List[np.ndarray]:
    """Approximate thermal relaxation over ``gate_time`` via damping channels.

    Composes amplitude damping with ``gamma = 1 - exp(-t/T1)`` and extra pure
    dephasing so the total dephasing rate matches ``1/T2``.  Requires
    ``T2 <= 2 * T1`` as for physical devices.
    """
    if t1 <= 0 or t2 <= 0 or gate_time < 0:
        raise SimulationError("T1, T2 must be positive and gate_time non-negative")
    if t2 > 2 * t1 + 1e-12:
        raise SimulationError(f"unphysical relaxation times: T2={t2} > 2*T1={2 * t1}")
    gamma_amp = 1.0 - math.exp(-gate_time / t1)
    # Pure-dephasing rate: 1/T_phi = 1/T2 - 1/(2 T1).
    rate_phi = max(1.0 / t2 - 1.0 / (2.0 * t1), 0.0)
    gamma_phase = 1.0 - math.exp(-gate_time * rate_phi)
    amp = amplitude_damping_kraus(gamma_amp)
    phase = phase_damping_kraus(gamma_phase)
    return [p @ a for a in amp for p in phase]


def is_valid_channel(kraus_operators: Sequence[np.ndarray], atol: float = 1e-8) -> bool:
    """Check the completeness relation ``sum_k K_k† K_k = I``."""
    kraus_operators = [np.asarray(k, dtype=COMPLEX_DTYPE) for k in kraus_operators]
    if not kraus_operators:
        return False
    dim = kraus_operators[0].shape[1]
    total = np.zeros((dim, dim), dtype=COMPLEX_DTYPE)
    for kraus in kraus_operators:
        total += kraus.conj().T @ kraus
    return bool(np.allclose(total, np.eye(dim), atol=atol))


# --------------------------------------------------------------------------- #
# Readout error
# --------------------------------------------------------------------------- #


@dataclasses.dataclass(frozen=True)
class ReadoutError:
    """Classical measurement assignment error.

    Attributes
    ----------
    prob_flip_0_to_1:
        Probability of reporting ``1`` when the true outcome is ``0``.
    prob_flip_1_to_0:
        Probability of reporting ``0`` when the true outcome is ``1``.
    """

    prob_flip_0_to_1: float = 0.0
    prob_flip_1_to_0: float = 0.0

    def __post_init__(self) -> None:
        for name, value in (
            ("prob_flip_0_to_1", self.prob_flip_0_to_1),
            ("prob_flip_1_to_0", self.prob_flip_1_to_0),
        ):
            if not 0.0 <= value <= 1.0:
                raise SimulationError(f"{name} must be in [0, 1], got {value}")

    def apply(self, outcome: int, rng: RandomState = None) -> int:
        """Flip a single measured bit according to the assignment error."""
        generator = ensure_rng(rng)
        if outcome == 0:
            return 1 if generator.random() < self.prob_flip_0_to_1 else 0
        return 0 if generator.random() < self.prob_flip_1_to_0 else 1

    def confusion_matrix(self) -> np.ndarray:
        """Return the 2x2 assignment matrix ``A[j, i] = P(report j | true i)``."""
        return np.array(
            [
                [1.0 - self.prob_flip_0_to_1, self.prob_flip_1_to_0],
                [self.prob_flip_0_to_1, 1.0 - self.prob_flip_1_to_0],
            ]
        )


# --------------------------------------------------------------------------- #
# Noise model
# --------------------------------------------------------------------------- #


@dataclasses.dataclass
class GateError:
    """Noise attached to one gate name: a list of Kraus channels per qubit count."""

    kraus_operators: List[np.ndarray]

    def __post_init__(self) -> None:
        if not is_valid_channel(self.kraus_operators):
            raise SimulationError("Kraus operators do not satisfy the completeness relation")


class NoiseModel:
    """Collection of gate errors and readout errors for a simulated device.

    The model distinguishes single-qubit and two-qubit gate error channels
    (two-qubit gates dominate infidelity on superconducting hardware, which is
    what makes the routed-CNOT count of IBM-Q Cairo matter in the paper's
    IonQ comparison).
    """

    def __init__(self) -> None:
        self._gate_errors: Dict[str, List[List[np.ndarray]]] = {}
        self._default_errors: Dict[int, List[List[np.ndarray]]] = {}
        self._readout_errors: Dict[int, ReadoutError] = {}
        self._default_readout: Optional[ReadoutError] = None
        self._version = 0

    @property
    def version(self) -> int:
        """Mutation counter, bumped by every ``add_*`` call.

        Consumers that precompute derived artefacts from the model — the
        compiled-program density engine precomposes per-gate superoperator
        plans — key their caches on this counter so an in-place mutation of
        a model that is already attached to a simulator invalidates them.
        """
        return self._version

    # Construction ------------------------------------------------------- #
    @staticmethod
    def _check_channel(kraus_operators: Sequence[np.ndarray], name: str) -> List[np.ndarray]:
        """Run the static verifier's CPTP checks on a channel being registered.

        Registration is the only mutation point (``version`` bumps here), so
        rejecting bad channels now guarantees every precomposed superoperator
        derived from this model later is built from valid Kraus families.
        """
        from repro.analysis.verify import verify_channel

        kraus = [np.asarray(k) for k in kraus_operators]
        findings = verify_channel(kraus, name=name)
        if findings:
            detail = "; ".join(diag.message for diag in findings)
            raise NoiseError(f"invalid noise channel for {name}: {detail}")
        return kraus

    def add_gate_error(self, gate_name: str, kraus_operators: Sequence[np.ndarray]) -> "NoiseModel":
        """Attach a Kraus channel applied after every occurrence of ``gate_name``.

        Raises :class:`~repro.exceptions.NoiseError` naming the gate when the
        channel fails the CPTP checks.
        """
        kraus = self._check_channel(kraus_operators, f"gate error for '{gate_name}'")
        self._gate_errors.setdefault(gate_name, []).append(kraus)
        self._version += 1
        return self

    def add_all_qubit_error(self, kraus_operators: Sequence[np.ndarray], num_qubits: int) -> "NoiseModel":
        """Attach a channel applied after every gate acting on ``num_qubits`` qubits.

        Raises :class:`~repro.exceptions.NoiseError` naming the channel when it
        fails the CPTP checks.
        """
        kraus = self._check_channel(
            kraus_operators, f"all-qubit error on {num_qubits}-qubit gates"
        )
        self._default_errors.setdefault(num_qubits, []).append(kraus)
        self._version += 1
        return self

    def add_readout_error(self, error: ReadoutError, qubit: Optional[int] = None) -> "NoiseModel":
        """Attach a readout error to ``qubit`` (or to every qubit when omitted)."""
        if qubit is None:
            self._default_readout = error
        else:
            self._readout_errors[int(qubit)] = error
        self._version += 1
        return self

    # Lookup ------------------------------------------------------------- #
    def gate_channels(self, gate_name: str, num_qubits: int) -> List[List[np.ndarray]]:
        """Channels to apply after a gate of ``gate_name`` on ``num_qubits`` qubits."""
        channels = list(self._gate_errors.get(gate_name, []))
        channels.extend(self._default_errors.get(num_qubits, []))
        return channels

    def readout_error(self, qubit: int) -> Optional[ReadoutError]:
        """Readout error for ``qubit`` (``None`` if the model has none)."""
        if qubit in self._readout_errors:
            return self._readout_errors[qubit]
        return self._default_readout

    @property
    def is_ideal(self) -> bool:
        """Whether the model contains no errors at all."""
        return not (
            self._gate_errors or self._default_errors or self._readout_errors or self._default_readout
        )

    # Factories ----------------------------------------------------------- #
    @classmethod
    def ideal(cls) -> "NoiseModel":
        """A noise model with no errors."""
        return cls()

    @classmethod
    def from_error_rates(
        cls,
        single_qubit_error: float,
        two_qubit_error: float,
        readout_error: float = 0.0,
        t1: Optional[float] = None,
        t2: Optional[float] = None,
        gate_time: float = 0.0,
    ) -> "NoiseModel":
        """Build a homogeneous device model from summary error rates.

        Parameters
        ----------
        single_qubit_error:
            Depolarising probability after each single-qubit gate.
        two_qubit_error:
            Depolarising probability after each two-or-more-qubit gate.
        readout_error:
            Symmetric measurement assignment error probability.
        t1, t2, gate_time:
            Optional thermal-relaxation parameters (same time units); when
            provided, relaxation is applied after single-qubit gates as well.
            Either all three are given (with a positive ``gate_time``) or
            none — a partial specification raises instead of silently
            producing a relaxation-free model.

        Raises
        ------
        SimulationError
            If any error rate lies outside ``[0, 1]`` (negative rates used to
            be silently dropped, producing an ideal channel from invalid
            input) or the relaxation parameters are only partially specified.
        """
        for name, rate in (
            ("single_qubit_error", single_qubit_error),
            ("two_qubit_error", two_qubit_error),
            ("readout_error", readout_error),
        ):
            if not 0.0 <= rate <= 1.0:
                raise SimulationError(f"{name} must be in [0, 1], got {rate}")
        if gate_time < 0:
            raise SimulationError(f"gate_time must be non-negative, got {gate_time}")
        relaxation = {
            "t1": t1,
            "t2": t2,
            "gate_time": gate_time if gate_time > 0 else None,
        }
        missing = [name for name, value in relaxation.items() if value is None]
        if missing and len(missing) != len(relaxation):
            raise SimulationError(
                "thermal relaxation requires t1, t2 and a positive gate_time "
                f"together; missing {missing} would silently drop relaxation"
            )
        model = cls()
        if single_qubit_error > 0:
            model.add_all_qubit_error(depolarizing_kraus(single_qubit_error, 1), 1)
        if two_qubit_error > 0:
            model.add_all_qubit_error(depolarizing_kraus(two_qubit_error, 2), 2)
            model.add_all_qubit_error(depolarizing_kraus(two_qubit_error, 3), 3)
        if not missing:
            model.add_all_qubit_error(thermal_relaxation_kraus(t1, t2, gate_time), 1)
        if readout_error > 0:
            model.add_readout_error(ReadoutError(readout_error, readout_error))
        return model


def apply_readout_error(
    joint: np.ndarray, measured_qubits: Sequence[int], noise_model: "NoiseModel"
) -> np.ndarray:
    """Convolve outcome distributions with the model's per-qubit readout error.

    Accepts a single ``(2**w,)`` distribution or a stacked ``(batch, 2**w)``
    array over ``measured_qubits`` (in that order); the confusion matrices
    contract over the outcome axes only, so the batched convolution applies
    every element's error in one broadcast step per measured qubit.  The
    step is elementwise (each outcome is ``c[i, 0] * p0 + c[i, 1] * p1``),
    so an element's result does not depend on the batch extent, as a BLAS
    contraction's would for a batch of one.  The read-out of the
    compiled-program density engine, which both
    :class:`~repro.quantum.simulator.DensityMatrixSimulator` routes share.
    """
    joint = np.asarray(joint, dtype=float)
    single = joint.ndim == 1
    width = len(measured_qubits)
    batch = 1 if single else joint.shape[0]
    tensor = joint.reshape((batch,) + (2,) * width)
    for axis, qubit in enumerate(measured_qubits):
        error = noise_model.readout_error(qubit)
        if error is None:
            continue
        confusion = error.confusion_matrix()
        moved = np.moveaxis(tensor, axis + 1, 0)
        shape = (2,) + (1,) * (moved.ndim - 1)
        tensor = np.moveaxis(
            confusion[:, 0].reshape(shape) * moved[0]
            + confusion[:, 1].reshape(shape) * moved[1],
            0,
            axis + 1,
        )
    flattened = tensor.reshape(batch, -1)
    return flattened[0] if single else flattened
