"""Simulated IBM-Q superconducting backends.

The paper evaluates QuClassi on several IBM Quantum sites (London, New York,
Melbourne for Iris training — Fig. 11; Rome for 4-dimensional MNIST —
Fig. 12; Cairo for the IonQ comparison).  :class:`IBMQBackend` reproduces the
relevant behaviour offline: circuits are decomposed to the native basis,
routed onto the site's coupling map (inserting SWAPs where the topology
requires them), executed on a density-matrix simulator with the site's
calibrated noise model, and read out through per-qubit assignment error.
"""

from __future__ import annotations

from repro.hardware.calibration import CalibrationProfile, get_calibration
from repro.hardware.job import JobLedger
from repro.quantum.backend import DeviceProperties, NoisyBackend
from repro.quantum.simulator import SimulationResult
from repro.utils.rng import RandomState


class IBMQBackend(NoisyBackend):
    """One simulated IBM-Q site.

    Parameters
    ----------
    device:
        Site name (e.g. ``"ibmq_london"``); see
        :func:`repro.hardware.calibration.available_devices`.
    seed:
        Seed for shot sampling.
    """

    def __init__(self, device: str = "ibmq_london", seed: RandomState = None) -> None:
        profile = get_calibration(device)
        if not profile.name.startswith("ibmq"):
            raise ValueError(f"{device!r} is not an IBM-Q device profile")
        self.calibration: CalibrationProfile = profile
        properties = DeviceProperties(
            name=profile.name,
            num_qubits=profile.num_qubits,
            coupling_map=profile.coupling_map(),
            noise_model=profile.noise_model(),
            max_shots=8192,
            queue_latency_seconds=profile.queue_latency_seconds,
        )
        super().__init__(properties, seed=seed)
        #: Ledger of every job executed on this backend instance.
        self.ledger = JobLedger()

    def _record_job(self, result: SimulationResult) -> None:
        """Ledger every executed circuit, single runs and batches alike."""
        self.ledger.record(self.name, result, self.properties.queue_latency_seconds)


def ibmq_london(seed: RandomState = None) -> IBMQBackend:
    """5-qubit T-topology site used for the paper's Iris hardware run."""
    return IBMQBackend("ibmq_london", seed=seed)


def ibmq_new_york(seed: RandomState = None) -> IBMQBackend:
    """5-qubit bow-tie-topology site (the paper's 'IBM New York')."""
    return IBMQBackend("ibmq_new_york", seed=seed)


def ibmq_melbourne(seed: RandomState = None) -> IBMQBackend:
    """15-qubit ladder-topology site, the noisiest of the Iris runs."""
    return IBMQBackend("ibmq_melbourne", seed=seed)


def ibmq_rome(seed: RandomState = None) -> IBMQBackend:
    """5-qubit site used for the paper's 4-dimensional MNIST hardware run."""
    return IBMQBackend("ibmq_rome", seed=seed)


def ibmq_cairo(seed: RandomState = None) -> IBMQBackend:
    """27-qubit heavy-hexagon site used in the IonQ routing comparison."""
    return IBMQBackend("ibmq_cairo", seed=seed)
