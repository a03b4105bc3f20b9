"""Shared helpers for the core tests."""

import numpy as np
import pytest

from repro.quantum.fidelity import fidelities_from_swap_test_probabilities


def run_reference_fidelities(builder, backend, shots, parameter_matrix, feature_matrix):
    """Reference fidelity matrix: one ``Backend.run`` per (row, sample), row-major.

    Every SWAP-test route must agree with this loop — within ``atol=1e-12``
    for exact readouts, draw for draw for sampled ones on a same-seeded
    backend.
    """
    zeros = [
        backend.run(
            builder.build(features, parameter_values=row), shots=shots
        ).marginal_probability(0, value=0)
        for row in parameter_matrix
        for features in feature_matrix
    ]
    return fidelities_from_swap_test_probabilities(np.array(zeros)).reshape(
        len(parameter_matrix), len(feature_matrix)
    )


@pytest.fixture()
def run_reference():
    """The :func:`run_reference_fidelities` helper."""
    return run_reference_fidelities
