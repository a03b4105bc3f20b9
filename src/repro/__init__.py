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
* :mod:`repro.parallel`  — sharded multi-backend execution of sweeps.

Parallel execution
------------------
QuClassi trains one independent state per class, and every figure sweep
repeats training across backends, encodings, and shot counts.
:mod:`repro.parallel` shards that outer loop across worker threads
without changing a single number::

    from repro.parallel import ShardExecutor
    from repro.experiments import fig11_hardware_iris_loss

    executor = ShardExecutor("thread", max_workers=4)
    model.fit(x, y, executor=executor)            # per-class training shards
    fig11_hardware_iris_loss(executor=executor)   # per-backend sweep cells

Serial and thread executor runs are bit-identical to each other (and, when
training draws no shot-sampling randomness, to the plain non-executor fit):
every class/cell draws from its own ``SeedSequence.spawn`` stream keyed by
shard index, every shard builds its own backend from a spec instead of
sharing a live one, and hardware-style job ledgers merge back in shard
order.
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
