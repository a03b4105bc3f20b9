"""Measurement-result containers and histogram utilities."""

from __future__ import annotations

import dataclasses
from typing import Dict, Sequence, Tuple

import numpy as np

from repro import arrays
from repro.exceptions import SimulationError

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

    The one normalisation in front of every read-out draw
    (:func:`sample_counts`, which both simulators' ``run`` and grid sweeps
    call, and :meth:`~repro.quantum.density_matrix.DensityMatrix.sample_counts`),
    so every path feeds *identical* probability vectors to the RNG.  Rows
    whose total is zero or non-finite raise :class:`SimulationError`.
    """
    probs = np.clip(np.asarray(probabilities, dtype=float), 0.0, None)
    totals = probs.sum(axis=-1)
    if not np.all(np.isfinite(totals)) or np.any(totals <= 0.0):
        raise SimulationError(
            "cannot sample counts: probabilities are all zero or not finite"
        )
    return probs / totals[..., None]


def sample_counts(
    rng: np.random.Generator, probabilities: np.ndarray, shots: int
) -> np.ndarray:
    """``(N, K)`` counts of ``shots`` draws per row of outcome probabilities.

    One stacked multinomial: NumPy draws it row by row, so it equals a loop
    of one-row calls however the rows were batched or tiled.  Zero columns
    are drawn too, since dropping an exactly-zero *trailing* column moves
    the bit generator's stream (an interior one does not).
    """
    return arrays.multinomial(rng, shots, normalize_outcome_probabilities(probabilities))


def clbit_probabilities(
    joint: np.ndarray, clbits: Sequence[int]
) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Re-index ``(N, 2**k)`` read-out probabilities into classical-bit order.

    Column ``j`` of ``joint`` is the outcome whose bits, in measurement
    order (first most significant), spell ``j``; measurement ``i`` writes
    classical bit ``clbits[i]``, a later write overwriting an earlier one.
    Returns ``(probabilities, written)``: the ``m`` written bits, ascending,
    and an ``(N, 2**m)`` float64 array whose column ``c`` is the outcome in
    which bit ``written[i]`` reads bit ``m - 1 - i`` of ``c``, negative
    rounding residue clipped to zero.  The column map is built once per
    call.
    """
    written = tuple(sorted(set(clbits)))
    k, m = len(clbits), len(written)
    outcomes = np.arange(2**k)
    columns = np.zeros(2**k, dtype=np.intp)
    for position, clbit in enumerate(clbits):
        shift = m - 1 - written.index(clbit)
        bit = (outcomes >> (k - 1 - position)) & 1
        columns = (columns & ~(1 << shift)) | (bit << shift)
    probabilities = np.zeros((joint.shape[0], 2**m))
    np.add.at(probabilities, (slice(None), columns), np.clip(joint, 0.0, None))
    return probabilities, written


def clbit_key(column: int, written: Sequence[int], num_clbits: int) -> str:
    """The bit string (classical bit 0 leftmost, unwritten bits ``0``) of a column."""
    bits = ["0"] * num_clbits
    for position, clbit in enumerate(written):
        bits[clbit] = str((column >> (len(written) - 1 - position)) & 1)
    return "".join(bits)
