"""Run one QuClassi benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload iris-sampled-train --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: the median of
several set-ups, then a closed loop of operations for ``--seconds``.  Every
time is in seconds at the host's quiet speed, sampled while the program runs
(``hostclock.py``); the report also gives the unscaled wall times.
``--trace 1`` runs half the time untraced and half with every layer wrapped
(``layers.py``), prints the per-layer self-time table and writes the spans as
Chrome trace-event JSON under ``perfbench/out/``.  Either way the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; a full report goes to ``perfbench/out/<workload>-trace<N>.json``.

The process pins its own environment before importing NumPy: one BLAS thread
(at most the CPUs it may run on), and the ``REPRO_*`` knobs removed so fusion,
verification, precision and tracing are at their defaults.  The program is
imported from ``src/`` of the checkout this file sits in, and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

REPRO_KNOBS = ("REPRO_OPTIMIZE_PROGRAMS", "REPRO_VERIFY", "REPRO_PRECISION", "REPRO_TRACE")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Sweep latencies needed before a p90 is reported (ten beyond it).
P90_MIN_SWEEPS = 100


def pin_environment() -> dict:
    """Default ``REPRO_*`` knobs and one BLAS thread; returns what was inherited.

    One thread, not ``nproc``: the benchmark is a single caller and the
    engine kernels are single-threaded einsums, while an idle OpenBLAS worker
    spins between the small matmuls and keeps a second CPU busy.  That
    doubles the CPU the process takes and makes its timings depend on
    whatever else the machine runs.
    """
    inherited = {name: os.environ.get(name) for name in REPRO_KNOBS + BLAS_THREAD_VARS}
    for name in REPRO_KNOBS:
        os.environ.pop(name, None)
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    return {"nproc": len(os.sched_getaffinity(0)), "inherited": inherited}


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and import ``repro`` from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")


def environment_record(pinned: dict) -> dict:
    import numpy

    from repro import arrays
    from repro.analysis.verify import full_verification_enabled
    from repro.quantum.program import optimization_enabled

    effective = {
        "optimize_programs": optimization_enabled(),
        "full_verification": full_verification_enabled(),
        "precision": arrays.get_precision(),
        "trace": os.environ.get("REPRO_TRACE"),
    }
    if effective != {"optimize_programs": False, "full_verification": False, "precision": "double", "trace": None}:
        raise SystemExit(f"error: repro knobs are not at their defaults: {effective}")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": pinned["nproc"],
        "blas_threads": {name: os.environ[name] for name in BLAS_THREAD_VARS},
        "repro_knobs": effective,
        "inherited": pinned["inherited"],
    }


class Operation:
    """One timed closed-loop operation and what its sweeps recorded."""

    def __init__(self, interval, sweeps: dict, failures: list) -> None:
        self.seconds = interval.wall_s
        self.scaled_s = interval.scaled_s
        self.speed = interval.speed
        #: Sweep latencies at the quiet speed, scaled by the operation's speed.
        self.latencies = [latency * interval.speed for latency in sweeps["latencies"]]
        self.elements = sweeps["elements"]
        self.failures = failures


def timed_phase(workload, state, recorder, clock, seconds: float, after_op=None) -> list:
    """Run operations back to back until ``seconds`` have passed (at least one)."""
    ops = []
    deadline = perf_counter() + seconds
    while not ops or perf_counter() < deadline:
        failures = []
        mark = clock.mark()
        try:
            workload.operation(state)
        except Exception as error:  # a failing operation is counted, not fatal
            traceback.print_exc()
            failures.append(f"raised {error!r}")
        interval = clock.since(mark)
        sweeps = recorder.take()
        if not failures:
            if sweeps["invalid"]:
                failures.append(f"{sweeps['invalid']} sweeps returned fidelities outside [0, 1]")
            failures.extend(workload.check_operation(state, sweeps))
        ops.append(Operation(interval, sweeps, failures))
        if after_op is not None:
            after_op(len(ops))
    return ops


def spread(values: list) -> dict:
    """Median, quartiles and count of a sample (quartiles need two values)."""
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


def peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(setup_times: list, ops: list) -> dict:
    """The end-to-end metrics of an untraced run.

    Every time is in seconds at the host's quiet speed (``hostclock.py``)
    and is a median over the run: of the set-ups, of the operations, of each
    operation's grid elements over its time, and of all sweep latencies.
    """
    return {
        "setup_s": (median(setup_times), "s"),
        "op_s": (median(op.scaled_s for op in ops), "s"),
        "elements_per_s": (median(op.elements / op.scaled_s for op in ops), "1/s"),
        "sweep_ms_p50": (median(latency for op in ops for latency in op.latencies) * 1e3, "ms"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    pinned = pin_environment()
    import_program()
    env = environment_record(pinned)

    from hostclock import HostClock
    from workloads import WORKLOADS, Seeds, SweepRecorder

    if workload_name not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload_name!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[workload_name]
    seeds = Seeds.derive(seed)

    with HostClock() as clock:
        setups = []
        for _ in range(workload.setups):
            mark = clock.mark()
            state = workload.setup(seeds)
            setups.append(clock.since(mark))
        recorder = SweepRecorder(state.model.estimator, clock)
        if trace:
            ops, metrics, traced_report = traced_run(workload, state, recorder, clock, seconds, seed)
        else:
            ops = timed_phase(workload, state, recorder, clock, seconds)
    setup_times = [interval.scaled_s for interval in setups]

    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "setup_s": dict(spread(setup_times), all=setup_times),
        "setup_wall_s": spread([interval.wall_s for interval in setups]),
        "host_speed": host_speed_record(clock, ops),
    }
    if trace:
        report.update(traced_report)
        measured = workload.cost_model(state)
        recorder.take()
        if measured is not None:
            counters = report["counters"]
            measured["counted_sv_kernel_calls"] = sum(
                counters.get(f"engine.sv.{width}.calls", 0) for width in ("1q", "2q", "3q")
            )
            measured["counted_sv_element_steps"] = counters.get("engine.sv.element_steps", 0)
            report["cost_model"] = measured
    else:
        metrics = end_to_end_metrics(setup_times, ops)
        latencies = [latency for op in ops for latency in op.latencies]
        report["op_s"] = spread([op.scaled_s for op in ops])
        report["op_wall_s"] = spread([op.seconds for op in ops])
        report["sweeps"] = {"count": len(latencies), "p50_ms": median(latencies) * 1e3}
        if len(latencies) >= P90_MIN_SWEEPS:
            report["sweeps"]["p90_ms"] = quantiles(latencies, n=10)[-1] * 1e3

    failures = [failure for op in ops for failure in op.failures]
    attempted = len(ops)
    failed = sum(1 for op in ops if op.failures)
    final = workload.final_check(state, recorder)
    recorder.take()
    if final is not None:
        attempted += 1
        failed += bool(final)
        failures.extend(final)
    report.update(
        {
            "parameters": workload.report(state),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            "attempted": attempted,
            "failed": failed,
            "failures": failures,
        }
    )
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload.name}-trace{int(trace)}.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, default=float)

    print_summary(report)
    for failure in failures:
        print(f"FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0


def traced_run(workload, state, recorder, clock, seconds: float, seed: int):
    """Half the time untraced, half traced; per-layer metrics per operation.

    Returns the operations, the per-layer metrics and the report sections
    (counters, layer table, op spreads, Chrome trace path)."""
    from layers import COUNT_METRICS, install, per_layer_metrics
    from spans import Tracer

    untraced = timed_phase(workload, state, recorder, clock, seconds / 2)
    tracer = Tracer()
    first_op = {}

    def snapshot(done: int) -> None:
        if done == 1:
            first_op["counters"] = {name: int(value) for name, value in tracer.counters.items()}
            first_op["spans"] = len(tracer.spans)

    origin = perf_counter()
    with tracer:
        install(tracer)
        traced = timed_phase(workload, state, recorder, clock, seconds / 2, after_op=snapshot)

    # Medians of host-speed-scaled times, like op_s.
    untraced_s = median(op.scaled_s for op in untraced)
    traced_s = median(op.scaled_s for op in traced)
    traced_mean = sum(op.seconds for op in traced) / len(traced)
    table = tracer.layer_table()
    metrics = per_layer_metrics(table, tracer.counters, len(traced), traced_s, untraced_s)
    counters = dict.fromkeys(COUNT_METRICS, 0)
    counters.update(first_op["counters"])
    for name, row in tracer.layer_table(first_op["spans"]).items():
        counters.setdefault(f"{name}.calls", row["calls"])
    report = {"counters": dict(sorted(counters.items()))}
    report["layers"] = {
        name: {
            "calls_per_op": row["calls"] / len(traced),
            "total_s_per_op": row["total_s"] / len(traced),
            "self_s_per_op": row["self_s"] / len(traced),
            "self_share": row["self_s"] / len(traced) / traced_mean,
        }
        for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"])
    }
    report["op_s"] = {
        "untraced": spread([op.scaled_s for op in untraced]),
        "traced": spread([op.scaled_s for op in traced]),
    }
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}.json"
    tracer.write_chrome_trace(str(trace_path), origin, {"workload": workload.name, "seed": seed})
    report["chrome_trace"] = str(trace_path.relative_to(ROOT))
    return untraced + traced, metrics, report


def host_speed_record(clock, ops: list) -> dict:
    """How fast the host ran during the run, for the report."""
    from hostclock import INTERVAL_S, QUIET_PROBE_S

    return {
        "quiet_probe_ms": QUIET_PROBE_S * 1e3,
        "interval_ms": INTERVAL_S * 1e3,
        "samples": clock.samples,
        "probe_ms": {name: value * 1e3 for name, value in spread(clock.probe_times).items() if name != "n"},
        "probe_share": clock.overhead / sum(op.seconds for op in ops) if ops else None,
        "op_speed": spread([op.speed for op in ops]),
    }


def print_summary(report: dict) -> None:
    env = report["environment"]
    print(
        f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
        f"numpy {env['numpy']}  nproc {env['nproc']}  blas threads "
        f"{env['blas_threads']['OPENBLAS_NUM_THREADS']}  repro knobs {env['repro_knobs']}"
    )
    setup = report["setup_s"]
    print(f"setup_s median of {setup['n']} set-ups: {setup['median']:.4f} s")
    host = report["host_speed"]
    print(
        f"host speed over {host['samples']} probes: median probe {host['probe_ms']['median']:.3f} ms "
        f"(quiet {host['quiet_probe_ms']:.3f} ms), operation speed median {host['op_speed']['median']:.3f}"
    )
    if "layers" in report:
        print(f"{'layer span':28s} {'calls/op':>10s} {'self s/op':>11s} {'self share':>10s}")
        for name, row in report["layers"].items():
            print(
                f"{name:28s} {row['calls_per_op']:10.1f} {row['self_s_per_op']:11.5f} "
                f"{row['self_share']:10.1%}"
            )
        print("counters of the first traced operation:")
        for name, value in report["counters"].items():
            print(f"  {name} = {value}")
        if "cost_model" in report:
            print(f"cost model vs measured: {report['cost_model']}")
        print(f"chrome trace: {report['chrome_trace']}")
    else:
        op, wall = report["op_s"], report["op_wall_s"]
        print(
            f"op_s median of {op['n']} operations: {op['median']:.4f} s "
            f"(q1 {op['q1']:.4f}, q3 {op['q3']:.4f}); unscaled wall median {wall['median']:.4f} s"
        )
        sweeps = report["sweeps"]
        line = f"sweeps: {sweeps['count']}, p50 {sweeps['p50_ms']:.3f} ms"
        if "p90_ms" in sweeps:
            line += f", p90 {sweeps['p90_ms']:.3f} ms"
        print(line)
    for name, metric in report["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"checks: {report['failed']} failed of {report['attempted']} attempted")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
