"""The repro layers the traced run wraps, and the per-layer metrics they give.

Each layer is wrapped at its public entry point (or the module attribute the
layer calls through), named after the repro module it lives in:

=====================  ===================================================
span / counter prefix  wrapped entry point
=====================  ===================================================
``trainer.fit``        ``core.trainer.Trainer.fit``
``gradient``           ``core.gradient.GradientRule.gradient_batched``
``model.predict``      ``core.model.QuClassi.predict``
``estimator``          ``core.swap_test.*FidelityEstimator.fidelity_matrix``
``analytic.*``         ``AnalyticFidelityEstimator.trained_statevectors`` /
                       ``.data_state_matrix``
``builder``            ``core.circuit_builder.DiscriminatorCircuitBuilder.grid_bindings``
``encoding``           ``encoding.angle.*AngleEncoder.angle_matrix``
``backend``            ``quantum.backend.*Backend.sweep_grid_zero_probabilities``
``readout``            ``quantum.simulator.*Simulator.run_sweep_program`` and
                       ``SweepReadout.marginal_probabilities``
``program.*``          ``quantum.program.SweepProgram.compile`` / ``.execute``
                       / ``.evolve``, ``DensitySuperoperatorEngine.step_plans``
``engine.<c>``         ``StatevectorEngine.apply_step`` (``sv``) and
                       ``DensitySuperoperatorEngine.apply_step`` (``dm``)
``arrays``             ``repro.arrays.einsum`` / ``.matmul`` (counts only)
``certify``            ``analysis.equiv.shared_prefix_length`` /
                       ``verify_shared_prefix`` (VER403)
``ledger``             ``hardware.job.JobLedger.record``
``transpile``          ``quantum.transpiler.transpile`` plus the backend's
                       public ``transpile_cache_stats``
=====================  ===================================================

Engine bytes are *computed*, not measured: each step reads and writes the
whole state, so it is charged ``2 * batch * 2**n`` (statevector) or
``2 * batch * 4**n`` (density) amplitudes at the configured itemsize.
"""

from __future__ import annotations

from typing import Dict

from spans import KERNEL_CLASSES, Tracer, kernel_class


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry point so it records into ``tracer``."""
    from repro import arrays
    from repro.analysis import equiv
    from repro.core import circuit_builder, gradient, model, swap_test, trainer
    from repro.encoding import angle
    from repro.hardware import job
    from repro.quantum import backend, program, simulator, transpiler

    counters = tracer.counters
    itemsize = arrays.complex_itemsize()

    def bump(name: str):
        def after(token, result, args, kwargs):
            counters[name] += 1
        return after

    # -- trainer, gradient, model -------------------------------------------
    tracer.span(trainer.Trainer, "fit", "trainer.fit")
    tracer.span(gradient.GradientRule, "gradient_batched", "gradient")
    tracer.span(model.QuClassi, "predict", "model.predict")

    # -- estimators -----------------------------------------------------------
    def sweep_done(token, result, args, kwargs):
        counters["estimator.sweeps"] += 1
        counters["estimator.elements"] += result.size

    for cls in (swap_test.SwapTestFidelityEstimator, swap_test.AnalyticFidelityEstimator):
        tracer.span(cls, "fidelity_matrix", "estimator", after=sweep_done)
    analytic = swap_test.AnalyticFidelityEstimator
    tracer.span(analytic, "trained_statevectors", "analytic.trained_states")
    tracer.span(
        analytic, "data_state_matrix", "analytic.data_states",
        after=bump("analytic.data_state_calls"),
    )

    # -- builder and encoder --------------------------------------------------
    tracer.span(circuit_builder.DiscriminatorCircuitBuilder, "grid_bindings", "builder.grid_bindings")
    for cls in (angle.DualAngleEncoder, angle.SingleAngleEncoder):
        tracer.span(cls, "angle_matrix", "encoding.angle_matrix")

    # -- backend: program and transpile caches judged from outside -----------
    def backend_before(args):
        stats = getattr(args[0], "transpile_cache_stats", None)
        return counters["program.compiles"], stats

    def backend_after(token, result, args, kwargs):
        compiles, stats = token
        counters["backend.sweeps"] += 1
        missed = counters["program.compiles"] > compiles
        counters["program.cache_misses" if missed else "program.cache_hits"] += 1
        if stats is not None:
            now = args[0].transpile_cache_stats
            counters["transpile.cache_hits"] += now["hits"] - stats["hits"]
            counters["transpile.cache_misses"] += now["misses"] - stats["misses"]

    for cls in (backend.IdealBackend, backend.SampledBackend, backend.NoisyBackend):
        tracer.span(
            cls, "sweep_grid_zero_probabilities", "backend",
            before=backend_before, after=backend_after,
        )
    tracer.span(transpiler, "transpile", "transpile")

    # -- readout --------------------------------------------------------------
    def readout_done(token, result, args, kwargs):
        counters["readout.elements"] += len(result.probabilities)

    for cls in (simulator.StatevectorSimulator, simulator.DensityMatrixSimulator):
        tracer.span(cls, "run_sweep_program", "readout", after=readout_done)
    tracer.span(simulator.SweepReadout, "marginal_probabilities", "readout.marginals")

    # -- program: compile, execute, evolve, noise plans -----------------------
    sweep_program = program.SweepProgram
    tracer.span(sweep_program, "compile", "program.compile", after=bump("program.compiles"))

    def execute_done(token, result, args, kwargs):
        plan = kwargs.get("tile_plan")
        counters["program.tiles"] += plan.num_tiles if plan is not None else 1

    tracer.span(sweep_program, "execute", "program.execute", after=execute_done)

    def evolve_done(token, result, args, kwargs):
        if args[0].name == "data_state":
            counters["analytic.data_state_evolves"] += 1

    tracer.span(sweep_program, "evolve", "program.evolve", after=evolve_done)

    density_engine = program.DensitySuperoperatorEngine

    def plans_done(token, result, args, kwargs):
        counters["program.noise_plans_compiled"] += args[0].plans_compiled - token

    tracer.span(
        density_engine, "step_plans", "program.step_plans",
        before=lambda args: args[0].plans_compiled, after=plans_done,
    )

    # -- engine kernels, one class per (engine, step width) -------------------
    def engine_hooks(engine: str, per_element: int):
        def label(self, state, step, plan, matrix):
            return "engine." + kernel_class(engine, step.qubits)

        def after(token, result, args, kwargs):
            state, step = args[1], args[2]
            prefix = "engine." + kernel_class(engine, step.qubits)
            counters[prefix + ".calls"] += 1
            counters[prefix + ".bytes"] += (
                2 * state.batch_size * per_element**state.num_qubits * itemsize
            )
            counters[f"engine.{engine}.element_steps"] += state.batch_size

        return label, after

    for cls, engine, per_element in (
        (program.StatevectorEngine, "sv", 2),
        (density_engine, "dm", 4),
    ):
        label, after = engine_hooks(engine, per_element)
        tracer.span(cls, "apply_step", label, after=after)
    tracer.count(arrays, "einsum", "arrays.einsum_calls")
    tracer.count(arrays, "matmul", "arrays.matmul_calls")

    # -- runtime certification (VER403) ---------------------------------------
    tracer.span(equiv, "shared_prefix_length", "certify")
    tracer.span(equiv, "verify_shared_prefix", "certify", after=bump("certify.prefix_checks"))

    # -- hardware ledger ------------------------------------------------------
    tracer.span(job.JobLedger, "record", "ledger", after=bump("ledger.records"))


#: Span names whose call count is a per-layer metric, and the metric name.
CALL_METRICS = {
    "gradient": "gradient.evals",
    "model.predict": "model.predict_calls",
}

#: Per-layer time metrics: metric name -> (span name, "total_s" or "self_s").
TIME_METRICS = {
    "trainer.fit_s": ("trainer.fit", "total_s"),
    "gradient.self_s": ("gradient", "self_s"),
    "model.predict_s": ("model.predict", "total_s"),
    "estimator.self_s": ("estimator", "self_s"),
    "analytic.trained_states_s": ("analytic.trained_states", "total_s"),
    "analytic.data_states_s": ("analytic.data_states", "total_s"),
    "builder.grid_bindings_s": ("builder.grid_bindings", "total_s"),
    "encoding.angle_matrix_s": ("encoding.angle_matrix", "total_s"),
    "backend.self_s": ("backend", "self_s"),
    "readout.s": ("readout", "self_s"),
    "readout.marginals_s": ("readout.marginals", "total_s"),
    "program.compile_s": ("program.compile", "total_s"),
    "program.execute_self_s": ("program.execute", "self_s"),
    "transpile.s": ("transpile", "total_s"),
    "certify.s": ("certify", "self_s"),
    "ledger.s": ("ledger", "total_s"),
}
TIME_METRICS.update(
    {f"engine.{c}.s": (f"engine.{c}", "total_s") for c in KERNEL_CLASSES}
)

#: Per-layer counters reported as they were counted.
COUNT_METRICS = (
    "arrays.einsum_calls",
    "arrays.matmul_calls",
    "readout.elements",
    "estimator.sweeps",
    "estimator.elements",
    "certify.prefix_checks",
    "backend.sweeps",
    "ledger.records",
    "transpile.cache_hits",
    "transpile.cache_misses",
    "program.compiles",
    "program.cache_hits",
    "program.cache_misses",
    "program.noise_plans_compiled",
    "program.tiles",
) + tuple(f"engine.{c}.calls" for c in KERNEL_CLASSES)


def per_layer_metrics(table: Dict, counters: Dict, ops: int, traced_s: float, untraced_s: float) -> Dict:
    """Every per-layer metric of the traced phase, per operation.

    ``table`` is :meth:`Tracer.layer_table` over the traced phase and
    ``counters`` its counter totals; both are divided by ``ops``.  The
    overhead ratio compares the median traced and untraced operations.
    """
    metrics: Dict[str, tuple] = {}

    def span_value(span: str, column: str) -> float:
        row = table.get(span)
        return row[column] / ops if row else 0.0

    for metric, (span, column) in TIME_METRICS.items():
        metrics[metric] = (span_value(span, column), "s")
    for span, metric in CALL_METRICS.items():
        metrics[metric] = (span_value(span, "calls"), "count")
    for name in COUNT_METRICS:
        metrics[name] = (counters.get(name, 0) / ops, "count")
    for c in KERNEL_CLASSES:
        seconds = span_value(f"engine.{c}", "total_s")
        gbytes = counters.get(f"engine.{c}.bytes", 0) / ops / 1e9
        metrics[f"engine.{c}.gbytes"] = (gbytes, "GB-computed")
        metrics[f"engine.{c}.gbps"] = (gbytes / seconds if seconds else 0.0, "GB/s-computed")
    calls = counters.get("analytic.data_state_calls", 0)
    evolves = counters.get("analytic.data_state_evolves", 0)
    metrics["analytic.data_cache_hit_ratio"] = (
        1.0 - evolves / calls if calls else 0.0,
        "ratio",
    )
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return metrics
