"""The benchmark's workloads: inputs from a seed, set-up, one operation, checks.

Every workload is a closed loop with one caller: :meth:`Workload.operation`
runs one user-visible operation (a fixed-budget ``QuClassi.fit``, or one
``predict``), and the next starts only when it returns.  Data, splits,
initial parameters, the backend's shot seed and the trainer's shuffle seed
all derive from the run's ``--seed``.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from repro.core.model import QuClassi
from repro.core.swap_test import AnalyticFidelityEstimator, SwapTestFidelityEstimator
from repro.datasets import generate_synthetic_mnist, load_iris, prepare_task
from repro.hardware import IBMQBackend
from repro.quantum.backend import SampledBackend

SHOTS = 1024
MINIBATCH = 8
#: A sampled fidelity may differ from the exact one by this many standard
#: deviations of its shot-noise estimate before the check fails.
SHOT_NOISE_SIGMAS = 6.0
#: Slack on the [0, 1] range check of a fidelity.
RANGE_TOLERANCE = 1e-9


@dataclasses.dataclass(frozen=True)
class Seeds:
    """Independent seeds of one run, all derived from ``--seed``."""

    data: int
    model: int
    backend: int
    fit: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        data, model, backend, fit = np.random.SeedSequence(seed).generate_state(4)
        return cls(int(data), int(model), int(backend), int(fit))


class SweepRecorder:
    """Times and checks every ``fidelity_matrix`` call of one estimator.

    Installed as an instance attribute, so it sees the estimator's sweeps from
    the trainer, the gradient rule, scoring and ``predict`` alike, and calls
    through the *class* attribute at call time so the traced run's wrappers
    stay in the path.  Costs two clock reads and one range check per sweep.
    A latency excludes the host-speed probes the ``clock`` ran inside it.
    """

    def __init__(self, estimator, clock) -> None:
        self.latencies: List[float] = []
        self.elements = 0
        self.invalid = 0
        self.last: Optional[np.ndarray] = None

        def recorded(parameter_matrix, feature_matrix):
            overhead, start = clock.overhead, perf_counter()
            result = type(estimator).fidelity_matrix(estimator, parameter_matrix, feature_matrix)
            self.latencies.append(perf_counter() - start - (clock.overhead - overhead))
            self.elements += result.size
            if not (
                np.all(np.isfinite(result))
                and result.min(initial=0.0) >= -RANGE_TOLERANCE
                and result.max(initial=0.0) <= 1.0 + RANGE_TOLERANCE
            ):
                self.invalid += 1
            self.last = result
            return result

        estimator.fidelity_matrix = recorded

    def take(self) -> Dict:
        """The sweeps recorded since the previous call, then reset."""
        taken = {
            "latencies": self.latencies,
            "elements": self.elements,
            "invalid": self.invalid,
            "last": self.last,
        }
        self.latencies, self.elements, self.invalid = [], 0, 0
        return taken


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.asarray(predictions) == np.asarray(labels)))


def shot_noise_violations(sampled: np.ndarray, exact: np.ndarray, shots: int) -> int:
    """Elements whose sampled SWAP-test fidelity strays beyond the bound.

    A SWAP test reads ``P(0) = (1 + F) / 2`` and the estimator inverts
    ``F = 2 P(0) - 1`` from ``shots`` Bernoulli draws, so the estimate's
    standard deviation is ``2 sqrt(p (1 - p) / shots)`` with ``p`` the exact
    ``P(0)``; the bound is :data:`SHOT_NOISE_SIGMAS` of those, floored at one
    count's resolution so exact-0/1 probabilities do not demand equality.
    """
    p_zero = (1.0 + np.asarray(exact)) / 2.0
    sigma = 2.0 * np.sqrt(np.maximum(p_zero * (1.0 - p_zero), 1.0 / shots) / shots)
    return int(np.count_nonzero(np.abs(np.asarray(sampled) - exact) > SHOT_NOISE_SIGMAS * sigma))


class Workload:
    """One benchmark workload; subclasses fill in the hooks."""

    name: str = ""
    why: str = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int = 5

    def setup(self, seeds: Seeds):
        """Data preparation, model construction and one warm-up sweep."""
        raise NotImplementedError

    def operation(self, state) -> None:
        """One closed-loop operation."""
        raise NotImplementedError

    def check_operation(self, state, sweeps: Dict) -> List[str]:
        """Failures of the operation that just ran (empty when correct)."""
        return []

    def final_check(self, state, recorder: SweepRecorder) -> Optional[List[str]]:
        """An evaluation after the timed phase, or ``None`` when there is none."""
        return None

    def report(self, state) -> Dict:
        """Workload facts for the run report."""
        return {}

    def cost_model(self, state) -> Optional[Dict]:
        """VER2xx cost-model prediction beside measurement (traced runs)."""
        return None


@dataclasses.dataclass
class TrainState:
    data: object
    model: QuClassi
    initial: np.ndarray
    seeds: Seeds
    train_x: np.ndarray
    train_y: np.ndarray
    test_accuracy: Optional[float] = None


class TrainWorkload(Workload):
    """Operation: a fixed-budget ``fit`` from the same initial parameters
    with the same shuffle seed.  After the timed phase, one ``predict`` on the
    test split must clear :attr:`accuracy_floor`."""

    epochs = 1
    learning_rate = 0.5
    #: Training samples the fit uses (``None``: the whole training split).
    train_samples: Optional[int] = None
    accuracy_floor = 0.0

    def build(self, seeds: Seeds):
        """Return ``(prepared data, model)``."""
        raise NotImplementedError

    def setup(self, seeds: Seeds) -> TrainState:
        data, model = self.build(seeds)
        model.predict(data.x_test[:MINIBATCH])
        limit = self.train_samples
        return TrainState(
            data=data,
            model=model,
            initial=model.get_weights(),
            seeds=seeds,
            train_x=data.x_train[:limit],
            train_y=data.y_train[:limit],
        )

    def operation(self, state: TrainState) -> None:
        state.model.set_weights(state.initial)
        state.model.fit(
            state.train_x,
            state.train_y,
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            batch_size=MINIBATCH,
            rng=state.seeds.fit,
        )

    def final_check(self, state: TrainState, recorder: SweepRecorder) -> List[str]:
        predictions = state.model.predict(state.data.x_test)
        failures = []
        score = state.test_accuracy = accuracy(predictions, state.data.y_test)
        if score < self.accuracy_floor:
            failures.append(f"test accuracy {score:.3f} below floor {self.accuracy_floor}")
        return failures

    def report(self, state: TrainState) -> Dict:
        return {
            "train_samples": int(state.train_x.shape[0]),
            "test_samples": int(state.data.x_test.shape[0]),
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "minibatch": MINIBATCH,
            "parameters_per_class": int(state.model.parameters_per_class),
            "discriminator_qubits": int(state.model.num_qubits),
            "accuracy_floor": self.accuracy_floor,
            "test_accuracy": state.test_accuracy,
        }


class IrisTrain(TrainWorkload):
    """QC-S on the three Iris classes through a SWAP-test backend."""

    def backend(self, seeds: Seeds):
        raise NotImplementedError

    def build(self, seeds: Seeds):
        data = prepare_task(load_iris(), n_components=None, rng=seeds.data)
        model = QuClassi(
            num_features=4,
            num_classes=3,
            architecture="s",
            estimator="swap_test",
            backend=self.backend(seeds),
            shots=SHOTS,
            seed=seeds.model,
        )
        return data, model


class IrisSampledTrain(IrisTrain):
    name = "iris-sampled-train"
    why = (
        "many tiny 8x8 SWAP-test sweeps on SampledBackend: per-sweep Python "
        "work (bindings, VER403 prefix checks, per-element readout) dominates"
    )
    setups = 25
    epochs = 2
    accuracy_floor = 0.6

    def backend(self, seeds: Seeds):
        return SampledBackend(shots=SHOTS, seed=seeds.backend)

    def final_check(self, state: TrainState, recorder: SweepRecorder) -> List[str]:
        failures = super().final_check(state, recorder)
        exact = AnalyticFidelityEstimator(state.model.builder).fidelity_matrix(
            state.model.parameters_, state.data.x_test
        )
        outliers = shot_noise_violations(recorder.last, exact, SHOTS)
        if outliers:
            failures.append(f"{outliers} fidelities outside the shot-noise bound")
        return failures


class IrisNoisyTrain(IrisTrain):
    name = "iris-noisy-train"
    why = (
        "the same Iris task on the emulated ibmq_london: density-matrix "
        "superoperator kernels dominate and every grid element is ledgered"
    )
    setups = 9
    accuracy_floor = 0.6

    def backend(self, seeds: Seeds):
        return IBMQBackend("ibmq_london", seed=seeds.backend)

    def setup(self, seeds: Seeds) -> TrainState:
        state = super().setup(seeds)
        state.model.estimator.backend.ledger.clear()
        return state

    def check_operation(self, state: TrainState, sweeps: Dict) -> List[str]:
        ledger = state.model.estimator.backend.ledger
        records = ledger.num_jobs
        # Each operation is one provider session: dropping its records keeps
        # memory independent of how many operations a run fits in.
        ledger.clear()
        if records != sweeps["elements"]:
            return [f"ledger recorded {records} jobs for {sweeps['elements']} elements"]
        return []


class MnistAnalyticTrain(TrainWorkload):
    name = "mnist-10class-analytic-train"
    why = (
        "10-class synthetic MNIST, QC-SDE, default analytic estimator: many "
        "small 8-qubit statevector kernels and the data-state caches"
    )
    setups = 9
    epochs = 2
    learning_rate = 2.0
    train_samples = 32
    #: Chance on the stratified ten-class test split: eight updates per class
    #: leave a wide spread (lowest of 60 seeds 0.167, median 0.45).
    accuracy_floor = 0.1

    def build(self, seeds: Seeds):
        data = prepare_task(
            generate_synthetic_mnist(samples_per_digit=20, rng=seeds.data),
            n_components=16,
            rng=seeds.data,
        )
        model = QuClassi(num_features=16, num_classes=10, architecture="sde", seed=seeds.model)
        return data, model


@dataclasses.dataclass
class InferState:
    model: QuClassi
    test_x: np.ndarray
    test_y: np.ndarray
    exact: Optional[np.ndarray] = None
    predictions: Optional[np.ndarray] = None
    accuracies: List[float] = dataclasses.field(default_factory=list)


class Mnist17qInfer(Workload):
    """Operation: one ``predict`` of a fixed test slice with fixed parameters."""

    name = "mnist-17q-infer"
    why = (
        "17-qubit SWAP test of 16-feature MNIST (3 vs 6) on SampledBackend: "
        "two 16 x 2**17 tiles where 3-qubit cswap and 1-qubit kernels and tiling matter"
    )
    setups = 3
    #: Amplitude budget of one sweep tile: 16 elements of 2**17 amplitudes.
    max_batch_amplitudes = 2**21
    test_samples = 16
    pretrain_epochs = 5
    pretrain_learning_rate = 0.5
    accuracy_floor = 0.75

    def setup(self, seeds: Seeds) -> InferState:
        data = prepare_task(
            generate_synthetic_mnist(digits=(3, 6), samples_per_digit=40, rng=seeds.data),
            classes=(3, 6),
            n_components=16,
            rng=seeds.data,
        )
        model = QuClassi(num_features=16, num_classes=2, architecture="s", seed=seeds.model)
        # The fixed parameters come from a short analytic training run.
        model.fit(
            data.x_train,
            data.y_train,
            epochs=self.pretrain_epochs,
            learning_rate=self.pretrain_learning_rate,
            rng=seeds.fit,
        )
        model.estimator = SwapTestFidelityEstimator(
            model.builder,
            backend=SampledBackend(shots=SHOTS, seed=seeds.backend),
            shots=SHOTS,
            max_batch_amplitudes=self.max_batch_amplitudes,
        )
        model.predict(data.x_test[:2])
        return InferState(
            model=model,
            test_x=data.x_test[: self.test_samples],
            test_y=data.y_test[: self.test_samples],
        )

    def operation(self, state: InferState) -> None:
        state.predictions = state.model.predict(state.test_x)

    def check_operation(self, state: InferState, sweeps: Dict) -> List[str]:
        if state.exact is None:
            state.exact = AnalyticFidelityEstimator(state.model.builder).fidelity_matrix(
                state.model.parameters_, state.test_x
            )
        failures = []
        score = accuracy(state.predictions, state.test_y)
        state.accuracies.append(score)
        if score < self.accuracy_floor:
            failures.append(f"accuracy {score:.3f} below floor {self.accuracy_floor}")
        outliers = shot_noise_violations(sweeps["last"], state.exact, SHOTS)
        if outliers:
            failures.append(f"{outliers} fidelities outside the shot-noise bound")
        return failures

    def report(self, state: InferState) -> Dict:
        return {
            "test_samples": int(state.test_x.shape[0]),
            "discriminator_qubits": int(state.model.num_qubits),
            "max_batch_amplitudes": self.max_batch_amplitudes,
            "pretrain_epochs": self.pretrain_epochs,
            "accuracy_floor": self.accuracy_floor,
            "accuracy_min": min(state.accuracies, default=None),
        }

    def cost_model(self, state: InferState) -> Dict:
        """VER2xx prediction beside a tracemalloc peak of one predict."""
        import tracemalloc

        from repro.analysis.cost import estimate_cost
        from repro.analysis.equiv import shared_prefix_length
        from repro.quantum.program import SweepProgram, TilePlan

        builder = state.model.builder
        program = SweepProgram.compile(
            builder.symbolic_discriminator(),
            bind_floats=False,
            parameters=builder.grid_parameters,
            name="mnist-17q:grid",
        )
        rows, samples = state.model.num_classes, state.test_x.shape[0]
        plan = TilePlan.for_grid_sweep(rows, samples, 2**program.num_qubits, self.max_batch_amplitudes)
        bindings = builder.grid_bindings(state.model.parameters_, state.test_x)
        prefix = shared_prefix_length(program, bindings[:samples])
        predicted = estimate_cost(program, plan, shared_prefix_steps=prefix)
        tracemalloc.start()
        try:
            state.model.predict(state.test_x)
            _, measured_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return {
            "program_steps": len(program.steps),
            "shared_prefix_steps": int(prefix),
            "num_tiles": int(predicted.num_tiles),
            "predicted_peak_bytes": int(predicted.peak_bytes),
            "measured_peak_bytes": int(measured_peak),
            "predicted_vs_measured": predicted.peak_bytes / measured_peak,
            "predicted_contractions": int(predicted.contractions),
            "predicted_element_contractions": int(predicted.element_contractions),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (IrisSampledTrain(), IrisNoisyTrain(), Mnist17qInfer(), MnistAnalyticTrain())
}
