"""QuClassi reproduction library.

Reimplements the MLSys 2022 paper *"QuClassi: A Hybrid Deep Neural Network
Architecture based on Quantum State Fidelity"* from scratch on a pure-Python
(NumPy/SciPy) quantum-simulation substrate.

Top-level convenience imports expose the main user-facing objects; see the
subpackages for the full API:

* :mod:`repro.quantum`   — circuits, simulators, noise, transpiler, backends.
* :mod:`repro.encoding`  — classical-to-quantum data encodings.
* :mod:`repro.datasets`  — Iris, synthetic MNIST, PCA, preprocessing.
* :mod:`repro.core`      — the QuClassi model, layers, cost, gradient, trainer.
* :mod:`repro.baselines` — classical DNN, TFQ-like and QuantumFlow-like models.
* :mod:`repro.hardware`  — simulated IBM-Q and IonQ devices.
* :mod:`repro.experiments` — the per-figure experiment harness.

Execution is serial
-------------------
QuClassi trains one independent state per class, and every figure sweep
repeats training across backends, encodings, and shot counts.  Both loops
run serially: every class draws from its own ``SeedSequence.spawn`` stream,
so the class order cannot change a result, and every figure-sweep cell
builds its own seeded backend.  Simulated hardware queue latency is
recorded in job metadata and ledgers, never slept.
"""

from repro.version import __version__

__all__ = ["__version__"]


def __getattr__(name):
    """Lazily expose the heavyweight user-facing classes.

    Keeps ``import repro`` cheap while still allowing ``repro.QuClassi`` and
    ``repro.QuantumCircuit`` shortcuts in examples and notebooks.
    """
    lazy = {
        "QuClassi": ("repro.core.model", "QuClassi"),
        "QuantumCircuit": ("repro.quantum.circuit", "QuantumCircuit"),
        "Statevector": ("repro.quantum.statevector", "Statevector"),
        "IdealBackend": ("repro.quantum.backend", "IdealBackend"),
    }
    if name in lazy:
        import importlib

        module_name, attr = lazy[name]
        module = importlib.import_module(module_name)
        return getattr(module, attr)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
