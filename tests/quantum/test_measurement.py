"""Tests for measurement-result containers."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.quantum.measurement import (
    Counts,
    clbit_key,
    clbit_probabilities,
    sample_counts,
)


class TestCounts:
    def test_shots_and_width(self):
        counts = Counts({"00": 600, "11": 400})
        assert counts.shots == 1000
        assert counts.num_bits == 2

    def test_probability(self):
        counts = Counts({"0": 750, "1": 250})
        assert counts.probability("0") == pytest.approx(0.75)
        assert counts.probability("1") == pytest.approx(0.25)

    def test_probability_of_unseen_outcome_is_zero(self):
        assert Counts({"0": 10}).probability("1") == 0.0

    def test_probabilities_sum_to_one(self):
        counts = Counts({"00": 1, "01": 2, "10": 3, "11": 4})
        assert sum(counts.probabilities().values()) == pytest.approx(1.0)

    def test_marginal_probability(self):
        counts = Counts({"00": 50, "01": 25, "10": 20, "11": 5})
        assert counts.marginal_probability(0, 1) == pytest.approx(0.25)
        assert counts.marginal_probability(1, 1) == pytest.approx(0.30)

    def test_marginal_out_of_range(self):
        with pytest.raises(SimulationError):
            Counts({"0": 1}).marginal_probability(1)

    def test_expectation_z(self):
        counts = Counts({"0": 75, "1": 25})
        assert counts.expectation_z(0) == pytest.approx(0.5)

    def test_most_frequent(self):
        assert Counts({"01": 3, "10": 7}).most_frequent() == "10"

    def test_merged_with(self):
        merged = Counts({"0": 10}).merged_with(Counts({"0": 5, "1": 5}))
        assert merged.data == {"0": 15, "1": 5}

    def test_merge_width_mismatch(self):
        with pytest.raises(SimulationError):
            Counts({"0": 1}).merged_with(Counts({"00": 1}))

    def test_to_array(self):
        array = Counts({"00": 1, "11": 3}).to_array()
        np.testing.assert_allclose(array, [0.25, 0, 0, 0.75])

    def test_empty_counts_rejected(self):
        with pytest.raises(SimulationError):
            Counts({})

    def test_inconsistent_widths_rejected(self):
        with pytest.raises(SimulationError):
            Counts({"0": 1, "00": 1})

    def test_negative_counts_rejected(self):
        with pytest.raises(SimulationError):
            Counts({"0": -1})


class TestSampleCounts:
    def test_rows_draw_their_shots(self):
        counts = sample_counts(np.random.default_rng(0), np.array([[0.25, 0.75]]), 400)
        assert counts.shape == (1, 2)
        assert counts.sum() == 400

    def test_deterministic_distribution(self):
        counts = sample_counts(np.random.default_rng(0), np.array([[1.0, 0.0]]), 100)
        assert counts.tolist() == [[100, 0]]

    def test_unnormalised_input_is_renormalised(self):
        counts = sample_counts(np.random.default_rng(0), np.array([[2.0, 2.0]]), 100)
        assert counts.sum() == 100

    def test_all_zero_probabilities_rejected(self):
        """Regression: used to divide by zero and build a NaN histogram."""
        with pytest.raises(SimulationError, match="all zero"):
            sample_counts(np.random.default_rng(0), np.array([[0.0, 0.0]]), 10)

    def test_non_finite_probabilities_rejected(self):
        with pytest.raises(SimulationError):
            sample_counts(np.random.default_rng(0), np.array([[np.nan, 1.0]]), 10)

    def test_stacked_rows_draw_like_a_loop_of_rows(self):
        rows = np.array([[0.2, 0.8], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        stacked = sample_counts(np.random.default_rng(3), rows, 50)
        rng = np.random.default_rng(3)
        looped = np.concatenate([sample_counts(rng, row[None, :], 50) for row in rows])
        np.testing.assert_array_equal(stacked, looped)


class TestClbitProbabilities:
    def test_single_measurement_is_unchanged(self):
        joint = np.array([[0.3, 0.7]])
        probabilities, written = clbit_probabilities(joint, (0,))
        assert written == (0,)
        np.testing.assert_array_equal(probabilities, joint)

    def test_columns_follow_classical_bit_order(self):
        # Measurement 0 writes clbit 2, measurement 1 writes clbit 0: the
        # qubit-order outcome "ab" is the classical-order outcome "ba".
        joint = np.array([[0.1, 0.2, 0.3, 0.4]])
        probabilities, written = clbit_probabilities(joint, (2, 0))
        assert written == (0, 2)
        np.testing.assert_array_equal(probabilities, [[0.1, 0.3, 0.2, 0.4]])
        assert [clbit_key(c, written, 3) for c in range(4)] == [
            "000", "001", "100", "101"
        ]

    def test_a_later_measurement_overwrites_the_clbit(self):
        joint = np.array([[0.1, 0.2, 0.3, 0.4]])
        probabilities, written = clbit_probabilities(joint, (0, 0))
        assert written == (0,)
        np.testing.assert_allclose(probabilities, [[0.4, 0.6]])

    def test_negative_residue_is_clipped(self):
        probabilities, _ = clbit_probabilities(np.array([[1.0, -1e-18]]), (0,))
        assert probabilities.tolist() == [[1.0, 0.0]]


class TestNormalizeOutcomeProbabilities:
    def test_vector_is_clipped_and_normalised(self):
        from repro.quantum.measurement import normalize_outcome_probabilities

        out = normalize_outcome_probabilities([0.2, -1e-18, 0.2])
        assert out.sum() == pytest.approx(1.0)
        assert out[1] == 0.0

    def test_matrix_normalises_each_row(self):
        from repro.quantum.measurement import normalize_outcome_probabilities

        out = normalize_outcome_probabilities([[0.5, 0.5], [0.2, 0.6]])
        np.testing.assert_allclose(out.sum(axis=1), [1.0, 1.0])

    def test_zero_row_rejected(self):
        from repro.quantum.measurement import normalize_outcome_probabilities

        with pytest.raises(SimulationError):
            normalize_outcome_probabilities([[0.5, 0.5], [0.0, 0.0]])
