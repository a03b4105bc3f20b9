"""Simulated IonQ trapped-ion backend.

IonQ's machine (accessed through Azure Quantum in the paper) differs from the
IBM-Q superconducting sites in two ways that matter for QuClassi:

* **full connectivity** — any qubit pair supports a two-qubit gate, so the
  SWAP-test circuit needs zero routing SWAPs, whereas IBM-Q Cairo's
  heavy-hexagon topology forces ~21 extra CNOTs for the (3, 6) classifier;
* **gate fidelities** — two-qubit error is lower and readout error much
  lower, but gates are slower (irrelevant here since latency is only
  book-kept).

Those two effects are exactly what the paper credits for IonQ's ≈80 % vs
Cairo's ≈72 % accuracy on the (3, 6) task.
"""

from __future__ import annotations

from repro.hardware.calibration import CalibrationProfile, get_calibration
from repro.hardware.job import JobLedger
from repro.quantum.backend import DeviceProperties, NoisyBackend
from repro.quantum.simulator import SimulationResult
from repro.utils.rng import RandomState


class IonQBackend(NoisyBackend):
    """Simulated IonQ trapped-ion device (fully connected)."""

    def __init__(self, seed: RandomState = None) -> None:
        profile = get_calibration("ionq_trapped_ion")
        self.calibration: CalibrationProfile = profile
        properties = DeviceProperties(
            name=profile.name,
            num_qubits=profile.num_qubits,
            coupling_map=profile.coupling_map(),
            noise_model=profile.noise_model(),
            max_shots=10_000,
            queue_latency_seconds=profile.queue_latency_seconds,
        )
        super().__init__(properties, seed=seed)
        #: Ledger of every job executed on this backend instance.
        self.ledger = JobLedger()

    def _record_job(self, result: SimulationResult) -> None:
        """Ledger every executed circuit, single runs and batches alike."""
        self.ledger.record(self.name, result, self.properties.queue_latency_seconds)


def ionq(seed: RandomState = None) -> IonQBackend:
    """Factory matching the :mod:`repro.hardware.ibmq` helpers."""
    return IonQBackend(seed=seed)
