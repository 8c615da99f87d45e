"""Benchmark for the featurespace library: end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in ``workloads.WORKLOADS`` and described in
``perfbench/README.md``. The library is imported from ``src/`` of the
checkout; without it the benchmark exits with code 2 and prints no result.

The run generates its inputs from ``--seed``, then runs a warm-up round and
measured rounds of the workload until another round would overrun
``--seconds``. Every round's outputs are checked. Timings are scaled to the
host's unloaded speed by a probe loop around each phase (see
``workloads.probe``). With ``--trace 0`` the last line of standard output is
the end-to-end result; with ``--trace 1`` rounds alternate between untraced
and traced, and the last line holds the per-layer metrics of the traced
rounds. Human-readable detail goes to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, SELF_TIME_LAYERS

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def max_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_rounds(workload, seconds: float, trace: bool, tracer, null_tracer):
    """A warm-up round, then rounds until another one would overrun
    ``seconds``. When tracing, odd rounds run with the tracer installed and
    even rounds without it. Returns the warm-up round and the measured ones."""
    from workloads import install_tracing

    # The first round in a process is markedly slower (the heap grows to its
    # working size), so it is checked but not measured.
    warmup = workload.round(null_tracer)
    gc.collect()
    rounds, traced_flags, durations = [], [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        began = time.perf_counter()
        if traced:
            install_tracing(tracer)
            try:
                rnd = workload.round(tracer)
            finally:
                tracer.uninstall()
        else:
            rnd = workload.round(null_tracer)
        rounds.append(rnd)
        traced_flags.append(traced)
        gc.collect()
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(rounds) >= (2 if trace else 1) and elapsed + max(durations) > seconds:
            return warmup, rounds, traced_flags


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile, ``pct`` in 1..100."""
    ordered = sorted(values)
    return ordered[max(0, -(-pct * len(ordered) // 100) - 1)]


def median_of(values) -> float:
    return statistics.median(values) if values else 0.0


def nominal_s(rnd) -> float:
    """The round's timed phases, scaled to the nominal host speed."""
    return (rnd.fit_s * rnd.scale(0) + sum(rnd.setup_samples) * rnd.scale(1)
            + rnd.main_s * rnd.scale(2))


def end_to_end_metrics(rounds, rss_growth_kib: int) -> dict[str, float]:
    """Each timing is computed per round and scaled to the nominal host speed
    by the probes around its phase; the run reports the median over rounds.
    Latency percentiles are over the operations of one round: one transform
    on the bulk workloads, one 8-row batch, or one mapped and checked vector.

    Other tenants of a shared host slow the process by up to 2x for seconds
    to minutes at a time. Over eight runs per workload on a 2-vCPU VM, the
    median round spread 15-41% (interquartile range over median) from run
    to run unscaled, and 2-16% scaled.
    """
    done = [r for r in rounds if len(r.probes) == 4 and r.main_s > 0 and r.fit_s > 0]
    return {
        "setup_s": median_of([median_of(r.setup_samples) * r.scale(1) for r in done]),
        "fit_rows_per_s": median_of([r.fit_rows / (r.fit_s * r.scale(0)) for r in done]),
        "items_per_s": median_of([r.items / (r.main_s * r.scale(2)) for r in done]),
        "op_p50_ms": 1e3 * median_of([percentile(r.latencies, 50) * r.scale(2)
                                      for r in done]),
        "op_p99_ms": 1e3 * median_of([percentile(r.latencies, 99) * r.scale(2)
                                      for r in done]),
        "peak_rss_mib": rss_growth_kib / 1024,
    }


def per_layer_metrics(tracer, rounds, traced_flags) -> dict[str, float]:
    """Totals per traced round. Times are scaled to the nominal host speed by
    the traced rounds' overall factor, as the end-to-end timings are."""
    traced = [r for r, t in zip(rounds, traced_flags) if t and len(r.probes) == 4]
    untraced = [r for r, t in zip(rounds, traced_flags) if not t and len(r.probes) == 4]
    n = len(traced)
    wall_s = sum(r.timed_s for r in traced)
    scale_per_round = sum(nominal_s(r) for r in traced) / wall_s / n
    metrics = {name: tracer.self_s.get(name, 0.0) * scale_per_round
               for name in SELF_TIME_LAYERS}
    setups = sum(len(r.setup_samples) for r in traced)
    rows_run = sum(r.rows_run for r in traced)
    metrics.update({
        "pipeline.load_s": (tracer.self_s.get("pipeline.load_s", 0.0)
                            * scale_per_round * n / setups),
        "table.tables_built": tracer.calls.get("table.validate_s", 0) / n,
        "transforms.cells_out": tracer.counts.get("transforms.cells_out", 0) / n,
        "lineage.records_per_row": (sum(r.lineage_records for r in traced) / rows_run
                                    if rows_run else 0.0),
        "explain.max_conservation_delta": max(r.max_delta for r in rounds),
        "runtime.gc_s": tracer.gc_s * scale_per_round,
        "runtime.gc_gen2_collections": tracer.gc_gen2 / n,
        "runtime.tracing_overhead_ratio": (
            median_of([nominal_s(r) for r in traced])
            / median_of([nominal_s(r) for r in untraced])),
        "runtime.span_coverage_ratio": tracer.self_time_total() / wall_s,
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "featurespace" / "__init__.py").is_file():
        print(f"perfbench: no featurespace sources under {ROOT / 'src'}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import NullTracer, TraceError, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        gc.collect()
        baseline_kib = max_rss_kib()
        tracer = Tracer()
        try:
            warmup, rounds, traced_flags = run_rounds(
                workload, args.seconds, bool(args.trace), tracer, NullTracer())
            if args.trace:
                tracer.require(workload.expected_spans)
        except TraceError as exc:
            print(f"perfbench: tracing failed: {exc}", file=sys.stderr)
            return 3
        rss_growth = max_rss_kib() - baseline_kib
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = warmup.attempted + sum(r.attempted for r in rounds)
    failed = warmup.failed + sum(r.failed for r in rounds)
    if args.trace:
        values = per_layer_metrics(tracer, rounds, traced_flags)
        units = dict(PER_LAYER)
    else:
        values = end_to_end_metrics(rounds, rss_growth)
        units = dict(END_TO_END)
    report_detail(args, warmup, rounds, traced_flags, attempted, failed, values, units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def report_detail(args, warmup, rounds, traced_flags, attempted, failed,
                  values, units) -> None:
    from workloads import PROBE_NOMINAL_S

    err = sys.stderr
    samples = sum(len(r.latencies) for r in rounds)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} measured rounds "
          f"({sum(traced_flags)} traced), {samples} latency samples, "
          f"failed_ops_ratio {failed / max(attempted, 1):.6g} ({failed}/{attempted})",
          file=err)
    labels = ["warm-up"] + ["traced" if t else "measured" for t in traced_flags]
    for label, r in zip(labels, [warmup, *rounds]):
        speed = "".join(f" {PROBE_NOMINAL_S / p:.2f}" for p in r.probes)
        print(f"  {label} round: fit {r.fit_s:.3f} s, set-up {sum(r.setup_samples):.3f} s, "
              f"main {r.main_s:.3f} s (unscaled); host speed{speed}", file=err)
        for message in r.failures[:5]:
            print(f"  FAILED: {message}", file=err)
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:14.6g} {unit}", file=err)

if __name__ == "__main__":
    sys.exit(main())
