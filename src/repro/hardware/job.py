"""Job accounting for the simulated providers.

Real IBM-Q / IonQ runs go through a shared public queue; the paper remarks on
the overhead this adds.  The simulated providers do not sleep, but they track
per-job records — circuit statistics, shots, simulated queue latency — so
experiments can report the same cost accounting a real run would.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Optional

from repro.quantum.simulator import SimulationResult


@dataclasses.dataclass
class JobRecord:
    """Bookkeeping for one executed circuit."""

    job_id: int
    backend_name: str
    circuit_name: str
    shots: Optional[int]
    cx_count: int
    inserted_swaps: int
    depth: int
    queue_latency_seconds: float

    @property
    def total_two_qubit_gates(self) -> int:
        """Post-routing CNOT count (the dominant error source)."""
        return self.cx_count


class JobLedger:
    """Accumulates :class:`JobRecord` entries for a provider session."""

    def __init__(self) -> None:
        self._records: List[JobRecord] = []
        self._counter = itertools.count()

    def record(self, backend_name: str, result: SimulationResult, queue_latency_seconds: float) -> JobRecord:
        """Append a record extracted from a backend's simulation result."""
        transpile_stats: Dict[str, int] = result.metadata.get("transpile", {})  # type: ignore[assignment]
        record = JobRecord(
            job_id=next(self._counter),
            backend_name=backend_name,
            circuit_name=result.circuit_name,
            shots=result.shots,
            cx_count=int(transpile_stats.get("cx_count", 0)),
            inserted_swaps=int(transpile_stats.get("inserted_swaps", 0)),
            depth=int(transpile_stats.get("depth", 0)),
            queue_latency_seconds=float(queue_latency_seconds),
        )
        self._records.append(record)
        return record

    # ------------------------------------------------------------------ #
    @property
    def records(self) -> List[JobRecord]:
        """Every recorded job, oldest first."""
        return list(self._records)

    @property
    def num_jobs(self) -> int:
        """Number of executed circuits."""
        return len(self._records)

    @property
    def total_shots(self) -> int:
        """Total shots across every job."""
        return sum(record.shots or 0 for record in self._records)

    @property
    def total_queue_latency_seconds(self) -> float:
        """Accumulated simulated queue latency."""
        return sum(record.queue_latency_seconds for record in self._records)

    def summary(self) -> Dict[str, float]:
        """Aggregate statistics suitable for experiment reports."""
        if not self._records:
            return {"num_jobs": 0, "total_shots": 0, "mean_cx": 0.0, "mean_depth": 0.0,
                    "total_queue_latency_seconds": 0.0}
        return {
            "num_jobs": self.num_jobs,
            "total_shots": self.total_shots,
            "mean_cx": sum(r.cx_count for r in self._records) / self.num_jobs,
            "mean_depth": sum(r.depth for r in self._records) / self.num_jobs,
            "total_queue_latency_seconds": self.total_queue_latency_seconds,
        }

    def clear(self) -> None:
        """Drop every record (e.g. between experiments)."""
        self._records.clear()
