"""Fixtures shared across the test packages."""

import pytest


@pytest.fixture(scope="session")
def london_template():
    """``(program, noise_model)`` of the Iris QC-S grid template on ``ibmq_london``.

    The transpiled whole-grid program the emulated London backend runs for
    every Iris sweep (the ``iris-noisy-train`` benchmark workload), built
    through the backend's own transpile cache and chip region.
    """
    from repro.core.model import QuClassi
    from repro.hardware.ibmq import IBMQBackend

    backend = IBMQBackend("ibmq_london", seed=0)
    builder = QuClassi(
        num_features=4, num_classes=3, architecture="s", seed=0, backend=backend
    ).builder
    entry = backend._transpile_cache.symbolic_template(
        builder.symbolic_discriminator(),
        builder.grid_parameters,
        backend._local_coupling_map(builder.layout.total_qubits),
    )
    return entry.ensure_program(), backend._simulator.noise_model
