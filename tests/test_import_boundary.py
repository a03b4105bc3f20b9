"""The runtime loads only the analysis certificates, never the tooling.

``repro.analysis`` has two layers: the certificate modules the runtime
runs fail-closed (``diagnostics``, ``verify``, ``equiv``; ``cost`` is
available but unused at run time) and the developer tooling (linter,
report, CLI).  A fresh interpreter imports the runtime
packages, runs a sampled SWAP-test grid sweep whose kernel-class plans are
certified and a noisy sweep whose density schedule composes a run of fixed
steps, and must end with nothing but the certificate modules of
``repro.analysis`` loaded.
"""

import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RUNTIME_SCRIPT = r"""
import json
import sys

import numpy as np

import repro.core
import repro.experiments
import repro.hardware
import repro.quantum
from repro.core.model import QuClassi
from repro.core.swap_test import SwapTestFidelityEstimator
from repro.hardware.calibration import get_calibration
from repro.quantum.backend import SampledBackend
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.operations import Parameter
from repro.quantum.simulator import DensityMatrixSimulator

rng = np.random.default_rng(7)

# A sampled grid sweep: 2 trained-parameter rows x 3 samples in one tile
# whose trained-state prefix evolves once per row; its statevector
# kernel-class plans are certified (VER405).
builder = QuClassi(num_features=4, num_classes=2, architecture="s", seed=0).builder
estimator = SwapTestFidelityEstimator(
    builder, backend=SampledBackend(shots=64, seed=1), shots=64
)
fidelities = estimator.fidelity_matrix(
    rng.uniform(0.0, np.pi, (2, builder.num_parameters)),
    rng.uniform(0.05, 0.95, (3, 4)),
)
assert fidelities.shape == (2, 3)
kernels_certified = "repro.analysis.equiv" in sys.modules

# A noisy sweep on the emulated ibmq_london whose schedule folds t(0) and
# cx(1, 0) into the cx(0, 1) before them.
params = [Parameter(name) for name in "ab"]
circuit = QuantumCircuit(3, 1, name="composed")
circuit.h(0).cx(0, 1).t(0).cx(1, 0).ry(params[0], 1).rz(params[1], 2).h(0).measure(0, 0)
simulator = DensityMatrixSimulator(
    noise_model=get_calibration("ibmq_london").noise_model(), seed=3
)
program = simulator._grid_program(circuit, params)
readout = simulator.run_sweep_program(
    program, rng.uniform(0.0, np.pi, (4, 2)), shots=64
)
assert readout.counts.shape == (4, 2)

print(json.dumps({
    "kernels_certified": kernels_certified,
    "composed": None in simulator._program_engine().step_plans(program),
    "analysis_modules": sorted(
        name for name in sys.modules if name.startswith("repro.analysis")
    ),
}))
"""


def test_runtime_loads_only_the_certificate_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-c", RUNTIME_SCRIPT],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # Both sweeps really took the certified routes.
    assert result["kernels_certified"]
    assert result["composed"]
    assert result["analysis_modules"] == [
        "repro.analysis",
        "repro.analysis.diagnostics",
        "repro.analysis.equiv",
        "repro.analysis.verify",
    ]


CERTIFICATES = {
    "repro.analysis",
    "repro.analysis.cost",
    "repro.analysis.diagnostics",
    "repro.analysis.equiv",
    "repro.analysis.verify",
}


@pytest.mark.parametrize("module", ["diagnostics", "verify", "equiv", "cost"])
def test_certificate_module_imports_no_tooling(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    script = (
        "import json, sys\n"
        f"import repro.analysis.{module}\n"
        "print(json.dumps(sorted(\n"
        "    name for name in sys.modules if name.startswith('repro.analysis')\n"
        ")))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    loaded = set(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert f"repro.analysis.{module}" in loaded
    assert loaded <= CERTIFICATES, sorted(loaded - CERTIFICATES)
