"""QuClassi discriminator-circuit construction (paper Fig. 7).

One discriminator circuit compares the learned state of a single class
against one encoded data point:

* qubit 0 — SWAP-test ancilla (control qubit),
* qubits ``1 .. n`` — trained-state register prepared by the layer stack,
* qubits ``n+1 .. 2n`` — data register prepared by the data encoder,
* classical bit 0 — the ancilla measurement.

The builder holds one discriminator skeleton,
:meth:`DiscriminatorCircuitBuilder.symbolic_discriminator`, with the
trainable parameters *and* the encoder's angle sites unbound.  Whole-grid
sweeps compile it once; :meth:`DiscriminatorCircuitBuilder.build` binds one
feature row's angles (and optionally the trained values) into it.
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

    def __init__(
        self,
        layer_stack: LayerStack,
        encoder: DataEncoder,
        num_features: int,
    ) -> None:
        if num_features <= 0:
            raise ValidationError(f"num_features must be positive, got {num_features}")
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
        # The discriminator skeleton (trained parameters *and* data angles
        # unbound): one circuit per builder, compiled once into a whole-grid
        # SweepProgram and bound by :meth:`build`.
        self._symbolic_discriminator: Optional[QuantumCircuit] = None
        self._data_parameters: Optional[list] = None

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
    # The discriminator skeleton
    # ------------------------------------------------------------------ #
    @property
    def data_parameters(self) -> list:
        """Symbolic data-angle parameters, one per encoder angle site, in angle order."""
        if self._data_parameters is None:
            self._data_parameters = [
                Parameter(f"__data_angle_{index}")
                for index in range(self.encoder.num_angle_sites(self.num_features))
            ]
        return list(self._data_parameters)

    @property
    def grid_parameters(self) -> list:
        """Column order of the whole-grid program: trained then data angles."""
        return self.parameters + self.data_parameters

    def symbolic_discriminator(self) -> QuantumCircuit:
        """The discriminator skeleton: trained *and* data angles unbound.

        The one discriminator circuit: the whole-grid program compiles it
        and :meth:`build` binds it, so every bound discriminator is
        structure-identical to the compiled program.  A barrier marks the
        trained/encoder seam (the compiled program records no barriers; the
        executor finds the row-constant trained-state prefix from the bind
        columns).  Cached: the circuit depends only on the model structure.
        Callers must not mutate it.
        """
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
        row ``r`` and data sample ``s`` — the order of a loop of
        :meth:`build` circuits.  Columns follow
        :attr:`grid_parameters`: trained values repeated per sample, then
        the encoder's angle matrix tiled per shift row.
        """
        parameter_matrix = np.asarray(parameter_matrix, dtype=float)
        if parameter_matrix.ndim != 2 or parameter_matrix.shape[1] != self.num_parameters:
            raise ValidationError(
                f"expected a (rows, {self.num_parameters}) parameter matrix, "
                f"got shape {parameter_matrix.shape}"
            )
        angles = self.encoder.angle_matrix(self._check_feature_matrix(feature_matrix))
        rows, samples = parameter_matrix.shape[0], angles.shape[0]
        return np.hstack(
            [
                np.repeat(parameter_matrix, samples, axis=0),
                np.tile(angles, (rows, 1)),
            ]
        )

    def grid_sweep(self, parameter_matrix, feature_matrix) -> tuple:
        """``(circuit, parameters, bindings)`` of one whole-grid sweep.

        The leading arguments of
        :meth:`~repro.quantum.backend.Backend.sweep_grid_zero_probabilities`:
        the :meth:`symbolic_discriminator`, :attr:`grid_parameters` and the
        :meth:`grid_bindings` of the grid.
        """
        return (
            self.symbolic_discriminator(),
            self.grid_parameters,
            self.grid_bindings(parameter_matrix, feature_matrix),
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

    def _check_feature_matrix(self, feature_matrix) -> np.ndarray:
        """A ``(samples, num_features)`` matrix; other ranks go to the encoder's check."""
        feature_matrix = np.asarray(feature_matrix, dtype=float)
        if feature_matrix.ndim == 2 and feature_matrix.shape[1] != self.num_features:
            raise ValidationError(
                f"expected {self.num_features} feature column(s) per sample, "
                f"got {feature_matrix.shape[1]}"
            )
        return feature_matrix

    def data_state_circuit(self, features: Sequence[float]) -> QuantumCircuit:
        """Data-state preparation on a standalone ``state_width``-qubit register."""
        return self.encoder.encoding_circuit(
            self._check_features(features), offset=0, total_qubits=self.layout.state_width
        )

    # ------------------------------------------------------------------ #
    # Full discriminator
    # ------------------------------------------------------------------ #
    def build(
        self,
        features: Sequence[float],
        parameter_values: Optional[Sequence[float]] = None,
        name: Optional[str] = None,
    ) -> QuantumCircuit:
        """Full SWAP-test discriminator circuit for one data point.

        The returned circuit measures the ancilla into classical bit 0; the
        probability of reading ``0`` is ``(1 + F) / 2`` where ``F`` is the
        fidelity between the trained state and the encoded data point.  The
        circuit is :meth:`symbolic_discriminator` with the sample's encoder
        angles bound, and the trained values too when given (otherwise the
        trained parameters stay symbolic).
        """
        angles = self.encoder.angles(self._check_features(features))
        binding = dict(zip(self.data_parameters, angles.tolist()))
        if parameter_values is not None:
            binding.update(self.parameter_binding(parameter_values))
        circuit = self.symbolic_discriminator().bind_parameters(binding)
        if name is not None:
            circuit.name = name
        return circuit
