"""Benchmark of the mrilqr pipeline, end to end and per layer.

    python3 perfbench/run.py --workload sweep_souza|design_mixed|verify \\
        --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports mrilqr from its ``src``,
single-threaded with every BLAS pool pinned to one thread. A closed loop
of one caller runs the workload's units back to back for a fixed number
of passes, as many as take S seconds of operation time on the reference
machine; so the same seed and S always give the same work, the same
``attempted`` and the same ``failed``. Every output is checked by the
oracles in ``oracles.py`` outside the timed region.

--trace 0 prints the end-to-end metrics: setup_s (median wall time of
several fresh interpreters doing import + input generation + one warm-up
op), throughput_ops_s, latency_p50_ms and peak_rss_mb, and prints
latency_p90_ms in the report lines only.

--trace 1 alternates untraced and traced runs of a fixed block of units,
a number of times sized from S the same way, and prints the per-layer
metrics: counts per block (which repeat exactly for a seed), each
function's share of the traced operation time, and the tracing overhead.
Spans are written to .bench_build/perfbench/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Human-readable lines, the
environment and failure reasons come before it; the same record is
written to .bench_build/perfbench/result-<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path

import common

SETUP_PROBES = 7
MIN_BEYOND_TAIL = 10
MIN_PASSES = 2
MIN_TRACED_BLOCKS = 2
#: Operation time of a traced plus an untraced block, in nominal times of
#: the block.
TRACED_PAIR_PASSES = 3.0

#: Functions reported per layer, with the metrics taken for each.
LAYER_FUNCTIONS = {
    "riccati.solve_dare": ("calls", "self_frac", "distinct_ratio"),
    "riccati.dare_residual": ("calls", "self_frac"),
    "numkernel.solve_pd": ("calls", "self_frac"),
    "numkernel.expm_block_integrals": ("calls", "self_frac"),
    "numkernel.expm_gram_integral": ("calls", "self_frac"),
    "discretize.sample_plant": ("calls", "self_frac", "distinct_ratio"),
    "discretize.cost_matrices": ("calls", "self_frac", "distinct_ratio"),
    "preview.closed_loop_G": ("calls", "self_frac"),
    "preview.gamma_and_cost": ("calls", "self_frac"),
    "preview.feedforward_sequence": ("calls", "self_frac"),
    "preview.preview_plan": ("calls", "self_frac"),
    "simulate.simulate_closed_loop": ("calls", "self_frac"),
    "cli.main": ("calls", "self_frac"),
    "cli.load_scenario": ("calls", "self_frac"),
    "cli.cmd_sweep": ("self_frac",),
    "cli.cmd_simulate": ("self_frac",),
    "controllability.candidate_pathological_periods": ("calls", "self_frac"),
    "controllability.reduced_hautus_mri": ("calls", "self_frac"),
    "controllability.is_pathological": ("calls", "self_frac"),
    "controllability.kalman_controllable": ("calls", "self_frac"),
}
LAYER_COUNTERS = {
    "riccati.iterations": "count",
    "riccati.iterations_max": "count",
    "riccati.not_converged": "count",
    "riccati.diverged": "count",
    "simulate.dense_rows": "count",
    "cli.output_bytes": "bytes",
}
METRIC_UNITS = {"calls": "count", "self_frac": "frac", "distinct_ratio": "ratio"}


def per_layer_metric_units() -> dict[str, str]:
    """Name -> unit of every metric printed with --trace 1."""
    out = {}
    for fn, kinds in LAYER_FUNCTIONS.items():
        for kind in kinds:
            out[f"{fn}.{kind}"] = METRIC_UNITS[kind]
    out.update(LAYER_COUNTERS)
    out.update({"failed_frac": "frac", "trace.overhead_frac": "frac", "trace.block_s": "s"})
    return out


END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class Tally:
    """Operations, failures and unit latencies of a run.

    Latencies are kept per unit (``wl.key(unit)``). Every pass repeats the
    same units, and a unit's latency is the fastest of its repeats: on a
    shared machine the same work slows by up to ~80% while other tenants
    load the host, and the fastest repeat of a short unit is the time least
    inflated by them.
    """

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.wrong = 0
        self.time = 0.0
        self.latencies: dict[object, list[float]] = {}
        self.unit_ops: dict[object, int] = {}
        self.reasons: Counter = Counter()

    def add(self, key, outcome, seconds: float) -> None:
        self.ops += outcome.ops
        self.failed += outcome.failed
        self.wrong += outcome.wrong
        self.time += seconds
        self.latencies.setdefault(key, []).append(seconds)
        self.unit_ops[key] = outcome.ops
        self.reasons.update(outcome.reasons)

    def best(self) -> dict[object, float]:
        """Each unit's fastest latency."""
        return {key: min(times) for key, times in self.latencies.items()}


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) at the nearest-rank 90th percentile, or, when
    fewer than ten samples lie beyond it, at the highest rank that has ten
    samples beyond it, but never below the median."""
    xs = sorted(samples)
    n = len(xs)
    idx = -(-9 * n // 10) - 1
    if n - 1 - idx < MIN_BEYOND_TAIL:
        idx = max(n - 1 - MIN_BEYOND_TAIL, n // 2)
    return xs[idx], 100.0 * (idx + 1) / n


def measure_setup(workload: str, seed: int) -> list[float]:
    probe = Path(__file__).resolve().parent / "probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(probe), "--workload", workload, "--seed", str(seed)],
            cwd=common.ROOT, capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-4000:]}")
    return times


def planned_passes(wl, seconds: float, per_pass: float = 1.0, minimum: int = MIN_PASSES) -> int:
    """Passes (of ``per_pass`` nominal passes each) that take ``seconds``
    of operation time on the reference machine. The count depends only on
    ``seconds``, never on the clock, so that a seed always gets the same
    work and the same failures."""
    return max(minimum, round(seconds / (per_pass * wl.nominal_pass_s)))


def run_timed(wl, passes: int) -> Tally:
    tally = Tally()
    for unit in islice(wl.units(), passes * wl.pass_units):
        t0 = time.perf_counter()
        raw = wl.run(unit)
        dt = time.perf_counter() - t0
        tally.add(wl.key(unit), wl.check(unit, raw), dt)
    return tally


def run_block(wl, block, tally: Tally, tracer) -> float:
    """One pass over ``block``; traced when a tracer is given."""
    start = tally.time
    for unit in block:
        if tracer is None:
            t0 = time.perf_counter()
            raw = wl.run(unit)
            dt = time.perf_counter() - t0
        else:
            with tracer.active(), tracer.span():
                t0 = time.perf_counter()
                raw = wl.run(unit)
                dt = time.perf_counter() - t0
        outcome = wl.check(unit, raw)
        tally.add(wl.key(unit), outcome, dt)
        if tracer is not None:
            tracer.counts["cli.output_bytes"] += outcome.output_bytes
            tracer.counts["bench.ops"] += outcome.ops
            tracer.counts["bench.failed"] += outcome.failed
    return tally.time - start


def end_to_end(wl, args) -> tuple[Tally, dict, list[str]]:
    setup = measure_setup(args.workload, args.seed)
    passes = planned_passes(wl, args.seconds)
    tally = run_timed(wl, passes)
    best = tally.best()
    p90, pct = tail_latency(list(best.values()))
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_ops_s": sum(tally.unit_ops.values()) / sum(best.values()),
        "latency_p50_ms": 1e3 * statistics.median(best.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n = len(best)
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters: " + ", ".join(f"{t:.3f}" for t in setup),
        "throughput_ops_s": f"ops of the {n} distinct {wl.unit_name}s over the sum of their fastest "
                            f"latencies of {passes} runs each; "
                            f"{tally.ops} ops in {tally.time:.3f} s of operation time in all",
        "latency_p50_ms": f"median over n={n} {wl.unit_name}s of each one's fastest of {passes} runs",
        "peak_rss_mb": "maximum resident set of the benchmark process",
    }
    lines = [f"{name} = {value:.6g} {END_TO_END_UNITS[name]}  [{notes[name]}]" for name, value in metrics.items()]
    # Not a result metric: on design_mixed the tail of a seed's plants
    # spreads by up to a quarter between seeds, and elsewhere it is the p50.
    lines.append(f"latency_p90_ms = {1e3 * p90:.6g} ms  [p{pct:.1f} over n={n} {wl.unit_name}s of each one's "
                 f"fastest of {passes} runs" + ("" if pct >= 90 else "; fewer than 10 samples beyond p90") + "]")
    return tally, metrics, lines


def per_layer(wl, args) -> tuple[Tally, dict, list[str]]:
    import tracer as tracing

    modules = tracing.package_modules()
    block = wl.block()
    tally = Tally()
    untraced, traced, tracers = [], [], []
    pair_passes = TRACED_PAIR_PASSES * len(block) / wl.pass_units
    for _ in range(planned_passes(wl, args.seconds, pair_passes, MIN_TRACED_BLOCKS)):
        untraced.append(run_block(wl, block, tally, None))
        tr = tracing.Tracer(modules)
        traced.append(run_block(wl, block, tally, tr))
        tracers.append(tr)

    first = tracers[0]
    counts = first.deterministic_counts()
    lines = []
    repeats = all(tr.deterministic_counts() == counts for tr in tracers[1:])
    if not repeats:
        lines.append("WARNING: counts differ between traced blocks of identical work")

    self_ns: Counter = Counter()
    for tr in tracers:
        self_ns.update(tr.self_times())
    root_ns = sum(tr.root_time_ns() for tr in tracers)

    metrics = {}
    for fn, kinds in LAYER_FUNCTIONS.items():
        for kind in kinds:
            if kind == "calls":
                value = first.counts[f"{fn}.calls"]
            elif kind == "self_frac":
                value = self_ns.get(fn, 0) / root_ns
            else:
                value = first.distinct_ratio(fn)
            metrics[f"{fn}.{kind}"] = value
    for name in LAYER_COUNTERS:
        metrics[name] = counts.get(name, 0)
    metrics["failed_frac"] = first.counts["bench.failed"] / first.counts["bench.ops"]
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.block_s"] = statistics.median(traced)

    units = per_layer_metric_units()
    lines.append(f"block = {len(block)} {wl.unit_name}s, {first.counts['bench.ops']} ops; "
                 f"{len(tracers)} traced and {len(untraced)} untraced blocks; counts repeat: {repeats}")
    lines += [f"{name} = {value:.6g} {units[name]}" for name, value in metrics.items()]
    spans_path = common.WORK / f"spans-{args.workload}-seed{args.seed}.csv"
    tracing.write_spans(spans_path, tracers)
    lines.append(f"spans: {sum(len(tr.spans) for tr in tracers)} written to {spans_path.relative_to(common.ROOT)}")
    return tally, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.pin_threads()
    try:
        common.use_checkout_source()
    except common.CheckoutError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    import workloads  # needs the pinned threads and the checkout's src

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2

    outdir = common.WORK / f"out-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload, args.seed, outdir)
        wl.warmup()
        tally, metrics, lines = (per_layer if args.trace else end_to_end)(wl, args)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    units = per_layer_metric_units() if args.trace else END_TO_END_UNITS
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    env = common.environment(args.seed)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    print(f"failed_frac = {tally.failed / tally.ops:.6g} ({tally.failed} of {tally.ops} ops; "
          f"{tally.wrong} claimed success)")
    for reason, count in tally.reasons.most_common():
        print(f"  failure: {reason} x{count}")
    record = dict(result, env=env, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  failure_reasons=dict(tally.reasons), report=lines,
                  latencies_s={str(key): times for key, times in tally.latencies.items()})
    (common.WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
