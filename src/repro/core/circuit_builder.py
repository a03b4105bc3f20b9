"""QuClassi discriminator-circuit construction (paper Fig. 7).

One discriminator circuit compares the learned state of a single class
against one encoded data point:

* qubit 0 — SWAP-test ancilla (control qubit),
* qubits ``1 .. n`` — trained-state register prepared by the layer stack,
* qubits ``n+1 .. 2n`` — data register prepared by the data encoder,
* classical bit 0 — the ancilla measurement.

The builder produces circuits at three binding levels: fully symbolic
(trainable parameters *and* data angles), data-bound (used per sample during
training), and fully bound (ready for a backend).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.layers import LayerStack
from repro.encoding.base import DataEncoder
from repro.exceptions import ValidationError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.operations import Parameter
from repro.quantum.register import ClassicalRegister, QuantumRegister
from repro.utils.cache import LRUCache


@dataclasses.dataclass(frozen=True)
class DiscriminatorLayout:
    """Qubit layout of a QuClassi discriminator circuit.

    Attributes
    ----------
    state_width:
        Number of qubits in each of the trained-state and data registers.
    ancilla:
        Index of the SWAP-test control qubit.
    trained_qubits, data_qubits:
        Global indices of the two registers.
    """

    state_width: int

    @property
    def ancilla(self) -> int:
        return 0

    @property
    def trained_qubits(self) -> tuple:
        return tuple(range(1, self.state_width + 1))

    @property
    def data_qubits(self) -> tuple:
        return tuple(range(self.state_width + 1, 2 * self.state_width + 1))

    @property
    def total_qubits(self) -> int:
        return 2 * self.state_width + 1


class DiscriminatorCircuitBuilder:
    """Builds the per-class discriminator circuit.

    Parameters
    ----------
    layer_stack:
        Trained-state layer stack (defines the trainable parameters).
    encoder:
        Classical-to-quantum encoder for the data register.
    num_features:
        Dimensionality of the (already reduced/normalised) input vectors.
    """

    #: Default bound on the memoised per-sample discriminator-circuit cache.
    DEFAULT_DATA_CIRCUIT_CACHE_SIZE = 4096

    def __init__(
        self,
        layer_stack: LayerStack,
        encoder: DataEncoder,
        num_features: int,
        data_circuit_cache_size: int = DEFAULT_DATA_CIRCUIT_CACHE_SIZE,
    ) -> None:
        if num_features <= 0:
            raise ValidationError(f"num_features must be positive, got {num_features}")
        if data_circuit_cache_size <= 0:
            raise ValidationError(
                f"data_circuit_cache_size must be positive, got {data_circuit_cache_size}"
            )
        expected_width = encoder.num_qubits(num_features)
        if layer_stack.num_qubits != expected_width:
            raise ValidationError(
                f"layer stack is configured for {layer_stack.num_qubits} qubits but the "
                f"encoder needs {expected_width} qubits for {num_features} features"
            )
        self.layer_stack = layer_stack
        self.encoder = encoder
        self.num_features = int(num_features)
        self.layout = DiscriminatorLayout(state_width=expected_width)
        # The symbolic trained-state circuit never changes; cache it so the
        # trainer's many parameter-shift evaluations only pay for binding.
        self._symbolic_trained_circuit: Optional[QuantumCircuit] = None
        # Fully symbolic discriminator (trained parameters *and* data
        # angles): one circuit per builder, compiled once into a whole-grid
        # SweepProgram by the estimator's grid path.
        self._symbolic_discriminator: Optional[QuantumCircuit] = None
        self._data_parameters: Optional[list] = None
        # Data-bound (trained-state-symbolic) discriminators depend only on
        # the feature vector, so they are memoised (bounded LRU): a sweep of
        # hundreds of parameter shifts over the same samples re-binds the
        # cached circuits instead of rebuilding layer stack, encoder and
        # SWAP-test skeleton each time.
        self._data_bound_cache: LRUCache = LRUCache(data_circuit_cache_size)

    # ------------------------------------------------------------------ #
    # Parameter bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def parameters(self) -> list:
        """Symbolic trainable parameters in flat order."""
        return self.layer_stack.parameters()

    @property
    def num_parameters(self) -> int:
        """Number of trainable parameters per class."""
        return self.layer_stack.num_parameters

    def parameter_binding(self, values: Sequence[float]) -> Dict[Parameter, float]:
        """Map a flat value vector onto the symbolic parameters."""
        params = self.parameters
        values = np.asarray(values, dtype=float)
        if values.shape != (len(params),):
            raise ValidationError(
                f"expected {len(params)} parameter values, got shape {values.shape}"
            )
        return dict(zip(params, values.tolist()))

    # ------------------------------------------------------------------ #
    # Whole-grid (fully symbolic) compilation support
    # ------------------------------------------------------------------ #
    @property
    def supports_grid_compile(self) -> bool:
        """Whether the encoder can compile its angles as bind-site columns."""
        return bool(getattr(self.encoder, "supports_angle_columns", False))

    @property
    def data_parameters(self) -> list:
        """Symbolic data-angle parameters, one per feature, in angle order."""
        if self._data_parameters is None:
            self._data_parameters = [
                Parameter(f"__data_angle_{index}")
                for index in range(self.num_features)
            ]
        return list(self._data_parameters)

    @property
    def grid_parameters(self) -> list:
        """Column order of the whole-grid program: trained then data angles."""
        return self.parameters + self.data_parameters

    def symbolic_discriminator(self) -> QuantumCircuit:
        """Fully symbolic discriminator: trained *and* data angles unbound.

        Same instruction skeleton as :meth:`_construct_discriminator` — the
        compiled whole-grid program is structure-identical to every bound
        per-sample discriminator — with a barrier marking the
        trained/encoder seam (the compiled program records no barriers; the
        executor finds the row-constant trained-state prefix from the bind
        columns).  Cached: the circuit depends
        only on the model structure.  Callers must not mutate it.
        """
        if not self.supports_grid_compile:
            raise ValidationError(
                f"{type(self.encoder).__name__} does not support symbolic "
                "angle columns; the whole-grid discriminator is unavailable"
            )
        if self._symbolic_discriminator is None:
            layout = self.layout
            qreg = QuantumRegister(layout.total_qubits, "q")
            creg = ClassicalRegister(1, "c")
            circuit = QuantumCircuit(qreg, creg, name="quclassi_discriminator")
            circuit.h(layout.ancilla)
            trained = self.layer_stack.build_circuit(
                qubits=layout.trained_qubits,
                total_qubits=layout.total_qubits,
                name="trained_state",
            )
            circuit = circuit.compose(trained)
            circuit.barrier(*layout.trained_qubits)
            data = self.encoder.symbolic_encoding_circuit(
                self.num_features,
                self.data_parameters,
                offset=layout.data_qubits[0],
                total_qubits=layout.total_qubits,
            )
            circuit = circuit.compose(data)
            for trained_qubit, data_qubit in zip(
                layout.trained_qubits, layout.data_qubits
            ):
                circuit.cswap(layout.ancilla, trained_qubit, data_qubit)
            circuit.h(layout.ancilla)
            circuit.measure(layout.ancilla, 0)
            self._symbolic_discriminator = circuit
        return self._symbolic_discriminator

    def grid_bindings(
        self, parameter_matrix, feature_matrix
    ) -> np.ndarray:
        """The ``(rows x samples, columns)`` bindings of a whole-grid sweep.

        Row-major grid order — row ``r * samples + s`` binds parameter-shift
        row ``r`` and data sample ``s`` — matching the estimator's
        per-sample circuit stream exactly.  Columns follow
        :attr:`grid_parameters`: trained values repeated per sample, then
        the encoder's angle matrix tiled per shift row.
        """
        parameter_matrix = np.asarray(parameter_matrix, dtype=float)
        if parameter_matrix.ndim != 2 or parameter_matrix.shape[1] != self.num_parameters:
            raise ValidationError(
                f"expected a (rows, {self.num_parameters}) parameter matrix, "
                f"got shape {parameter_matrix.shape}"
            )
        angles = self.encoder.angle_matrix(feature_matrix)
        if angles.shape[1] != self.num_features:
            raise ValidationError(
                f"expected {self.num_features} angle column(s) per sample, "
                f"got {angles.shape[1]}"
            )
        rows, samples = parameter_matrix.shape[0], angles.shape[0]
        return np.hstack(
            [
                np.repeat(parameter_matrix, samples, axis=0),
                np.tile(angles, (rows, 1)),
            ]
        )

    # ------------------------------------------------------------------ #
    # Sub-circuits
    # ------------------------------------------------------------------ #
    def trained_state_circuit(self, parameter_values: Optional[Sequence[float]] = None) -> QuantumCircuit:
        """Trained-state preparation on a standalone ``state_width``-qubit register.

        Used by the analytic fidelity path (no ancilla or data register).
        """
        if self._symbolic_trained_circuit is None:
            self._symbolic_trained_circuit = self.layer_stack.build_circuit(
                qubits=range(self.layout.state_width),
                total_qubits=self.layout.state_width,
                name="trained_state",
            )
        circuit = self._symbolic_trained_circuit
        if parameter_values is None:
            return circuit.copy()
        return circuit.bind_parameters(self.parameter_binding(parameter_values))

    def _check_features(self, features: Sequence[float]) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        if features.shape != (self.num_features,):
            raise ValidationError(
                f"expected {self.num_features} features, got shape {features.shape}"
            )
        return features

    def data_state_circuit(self, features: Sequence[float]) -> QuantumCircuit:
        """Data-state preparation on a standalone ``state_width``-qubit register."""
        return self.encoder.encoding_circuit(
            self._check_features(features), offset=0, total_qubits=self.layout.state_width
        )

    # ------------------------------------------------------------------ #
    # Full discriminator
    # ------------------------------------------------------------------ #
    def _construct_discriminator(self, features: np.ndarray) -> QuantumCircuit:
        """Assemble the data-bound, trained-state-symbolic discriminator."""
        layout = self.layout
        qreg = QuantumRegister(layout.total_qubits, "q")
        creg = ClassicalRegister(1, "c")
        circuit = QuantumCircuit(qreg, creg, name="quclassi_discriminator")

        # Ancilla into superposition.
        circuit.h(layout.ancilla)

        # Trained state on qubits 1..n (symbolic parameters).
        trained = self.layer_stack.build_circuit(
            qubits=layout.trained_qubits,
            total_qubits=layout.total_qubits,
            name="trained_state",
        )
        circuit = circuit.compose(trained)

        # Data point on qubits n+1..2n (bound angles).
        data = self.encoder.encoding_circuit(
            features,
            offset=layout.data_qubits[0],
            total_qubits=layout.total_qubits,
        )
        circuit = circuit.compose(data)

        # SWAP test.
        for trained_qubit, data_qubit in zip(layout.trained_qubits, layout.data_qubits):
            circuit.cswap(layout.ancilla, trained_qubit, data_qubit)
        circuit.h(layout.ancilla)
        circuit.measure(layout.ancilla, 0)
        return circuit

    def _cached_data_bound_discriminator(self, features: Sequence[float]) -> QuantumCircuit:
        """The memoised data-bound discriminator — the *shared* cached instance.

        Internal: callers must not mutate the result (they bind or copy it
        immediately).  The public :meth:`data_bound_discriminator` returns an
        independent copy instead.
        """
        features = self._check_features(features)
        key = tuple(np.round(features, 12))
        cached = self._data_bound_cache.get(key)
        if cached is None:
            cached = self._construct_discriminator(features)
            self._data_bound_cache.put(key, cached)
        return cached

    def data_bound_discriminator(self, features: Sequence[float]) -> QuantumCircuit:
        """Discriminator with data angles bound and trained angles symbolic.

        Memoised per feature vector (bounded LRU): the expensive part of a
        discriminator — layer-stack construction, data encoding, composition —
        depends only on the sample, so every parameter-shift variant of a
        sweep re-binds the cached circuit.  Returns an independent copy, so
        caller mutations cannot poison the cache.
        """
        return self._cached_data_bound_discriminator(features).copy()

    def clear_cache(self) -> None:
        """Drop memoised discriminator circuits (e.g. when switching datasets)."""
        self._data_bound_cache.clear()

    def build(
        self,
        features: Sequence[float],
        parameter_values: Optional[Sequence[float]] = None,
        name: Optional[str] = None,
    ) -> QuantumCircuit:
        """Full SWAP-test discriminator circuit for one data point.

        The returned circuit measures the ancilla into classical bit 0; the
        probability of reading ``0`` is ``(1 + F) / 2`` where ``F`` is the
        fidelity between the trained state and the encoded data point.
        Construction is memoised per sample via
        :meth:`data_bound_discriminator`, so repeated builds (a training
        sweep) only pay for parameter binding.
        """
        circuit = self._cached_data_bound_discriminator(features)
        if parameter_values is not None:
            circuit = circuit.bind_parameters(self.parameter_binding(parameter_values))
        else:
            circuit = circuit.copy()
        if name is not None:
            circuit.name = name
        return circuit
