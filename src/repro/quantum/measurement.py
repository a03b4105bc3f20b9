"""Measurement-result containers and histogram utilities."""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional

import numpy as np

from repro import arrays
from repro.exceptions import SimulationError

#: Default seed used when :func:`counts_from_probabilities` is called without
#: an ``rng``.  Sampling used to fall back to a *seedless*
#: ``np.random.default_rng()`` — a silent OS-entropy draw that made
#: rng-less calls irreproducible (the REP001 contract violation the static
#: analyser now flags).  Callers on the library's hot paths always inject a
#: generator; this documented constant only covers ad-hoc interactive use,
#: which is now deterministic run over run.
DEFAULT_SAMPLING_SEED = 2022


@dataclasses.dataclass
class Counts:
    """Histogram of measurement outcomes.

    Keys are bit strings ordered with classical bit 0 as the leftmost
    character (matching the circuit's classical-register order).
    """

    data: Dict[str, int]

    def __post_init__(self) -> None:
        if not self.data:
            raise SimulationError("counts must contain at least one outcome")
        widths = {len(key) for key in self.data}
        if len(widths) != 1:
            raise SimulationError(f"inconsistent bit-string widths in counts: {widths}")
        if any(value < 0 for value in self.data.values()):
            raise SimulationError("counts must be non-negative")

    @property
    def shots(self) -> int:
        """Total number of shots."""
        return int(sum(self.data.values()))

    @property
    def num_bits(self) -> int:
        """Width of each outcome bit string."""
        return len(next(iter(self.data)))

    def probability(self, bitstring: str) -> float:
        """Empirical probability of ``bitstring``."""
        return self.data.get(bitstring, 0) / self.shots

    def probabilities(self) -> Dict[str, float]:
        """Empirical probabilities of every observed outcome."""
        total = self.shots
        return {key: value / total for key, value in self.data.items()}

    def marginal_probability(self, bit_index: int, value: int = 1) -> float:
        """Empirical probability that classical bit ``bit_index`` equals ``value``."""
        if bit_index < 0 or bit_index >= self.num_bits:
            raise SimulationError(
                f"bit index {bit_index} out of range for {self.num_bits}-bit outcomes"
            )
        matched = sum(
            count for key, count in self.data.items() if int(key[bit_index]) == value
        )
        return matched / self.shots

    def expectation_z(self, bit_index: int = 0) -> float:
        """Empirical <Z> of classical bit ``bit_index`` (+1 for 0, -1 for 1)."""
        p1 = self.marginal_probability(bit_index, 1)
        return 1.0 - 2.0 * p1

    def most_frequent(self) -> str:
        """The most frequent outcome (ties broken lexicographically)."""
        best = max(sorted(self.data), key=lambda key: self.data[key])
        return best

    def merged_with(self, other: "Counts") -> "Counts":
        """Combine two histograms (e.g. repeated jobs on the same circuit)."""
        if other.num_bits != self.num_bits:
            raise SimulationError("cannot merge counts with different bit widths")
        merged = dict(self.data)
        for key, value in other.data.items():
            merged[key] = merged.get(key, 0) + value
        return Counts(merged)

    def to_array(self) -> np.ndarray:
        """Dense probability vector over all ``2**num_bits`` outcomes."""
        size = 2**self.num_bits
        array = np.zeros(size)
        for key, value in self.data.items():
            array[int(key, 2)] = value
        return array / self.shots


def normalize_outcome_probabilities(probabilities: np.ndarray) -> np.ndarray:
    """Clip negatives and normalise outcome probabilities along the last axis.

    Shared by the per-circuit sampler (:func:`counts_from_probabilities`) and
    the batched sampler used by both simulator engines
    (``repro.quantum.simulator._sample_counts_batch``) so every path feeds
    *identical* probability vectors to the RNG — the draw-for-draw
    batched-vs-loop equivalence depends on this being a single code path.
    Rows whose total is zero or non-finite raise :class:`SimulationError`.
    """
    probs = np.clip(np.asarray(probabilities, dtype=float), 0.0, None)
    totals = probs.sum(axis=-1)
    if not np.all(np.isfinite(totals)) or np.any(totals <= 0.0):
        raise SimulationError(
            "cannot sample counts: probabilities are all zero or not finite"
        )
    return probs / totals[..., None]


def counts_from_probabilities(
    probabilities: Mapping[str, float] | np.ndarray,
    shots: int,
    rng: Optional[np.random.Generator] = None,
    num_bits: Optional[int] = None,
) -> Counts:
    """Sample a :class:`Counts` histogram from exact outcome probabilities.

    ``rng`` should be injected by the caller (every simulator/backend path
    does); when omitted, a generator seeded with the documented
    :data:`DEFAULT_SAMPLING_SEED` is used so results stay reproducible —
    never a fresh OS-entropy stream.
    """
    generator = (
        rng if rng is not None else np.random.default_rng(DEFAULT_SAMPLING_SEED)
    )
    if isinstance(probabilities, np.ndarray):
        probs = np.asarray(probabilities, dtype=float)
        if probs.size == 0:
            raise SimulationError("cannot sample counts from an empty probability vector")
        if num_bits is None:
            num_bits = int(np.round(np.log2(probs.size)))
        keys = [format(i, f"0{num_bits}b") for i in range(probs.size)]
    else:
        keys = list(probabilities.keys())
        if not keys:
            raise SimulationError("cannot sample counts from an empty probability mapping")
        probs = np.array([probabilities[key] for key in keys], dtype=float)
        if num_bits is None:
            num_bits = len(keys[0])
    probs = normalize_outcome_probabilities(probs)
    samples = arrays.multinomial(generator, shots, probs)
    data = {key: int(count) for key, count in zip(keys, samples) if count > 0}
    return Counts(data)


def exact_clbit_probabilities(
    probabilities: np.ndarray,
    measured_qubits,
    clbits,
    num_clbits: int,
) -> Dict[str, float]:
    """Re-index qubit-ordered probabilities into classical-bit-ordered strings.

    ``probabilities`` is the joint distribution over ``measured_qubits`` (in
    that qubit order); the result maps full classical-register bit strings
    (bit 0 leftmost) to probabilities, with zero-probability outcomes dropped
    exactly as the sampling helpers expect.  Shared by the per-circuit
    simulators and the compiled :class:`~repro.quantum.program.SweepProgram`
    executor so both read-out routes produce identical outcome dictionaries.
    """
    width = len(measured_qubits)
    out: Dict[str, float] = {}
    for index, prob in enumerate(probabilities):
        if prob <= 0.0:
            continue
        bits_by_qubit = format(index, f"0{width}b")
        clbit_string = ["0"] * num_clbits
        for position, clbit in enumerate(clbits):
            clbit_string[clbit] = bits_by_qubit[position]
        key = "".join(clbit_string)
        out[key] = out.get(key, 0.0) + float(prob)
    return out
