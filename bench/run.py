"""Benchmark of the gentorsion library and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a checkout, importing the library from
its ``src``.  One client sends requests in a closed loop, one at a time;
every answer is checked by the oracle.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced pass, and the spans go to ``.bench_out``.
Lines before it give the metrics in words and the run's metadata.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
from functools import partial

import clirun
import elements
import oracle
import search
import structure
from common import (
    OUT,
    SetupError,
    SpeedClock,
    cycle_stream,
    git_sha,
    latency_metrics,
    nproc,
    peak_rss_mb,
    pin_to_one_cpu,
    run_cycles,
    timed_setup,
    warm_bytecode,
)
from tracing import PER_LAYER, Tracer

WORKLOADS = {wl.NAME: wl for wl in (elements, structure, search, clirun)}

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)


def run_untraced(wl, seed, seconds):
    with SpeedClock() as clock:
        gt, state, setups = timed_setup(wl.build, clock)
        try:
            tamper = oracle.tamper_self_check(gt)
            loop = run_cycles(
                clock, cycle_stream(wl.make_cycle, random.Random(seed)),
                partial(wl.execute, state), partial(wl.check, state), seconds=seconds,
                scale=getattr(wl, "reference_scale", None),
            )
            extra = getattr(wl, "describe", lambda state, loop: {})(state, loop)
        finally:
            getattr(wl, "close", lambda state: None)(state)
    metrics = {
        "setup_s": statistics.median(clock.scaled(a, b) for a, b in setups),
        **latency_metrics(loop.latencies(clock)),
        "success_rate": 1 - loop.failed / loop.attempted,
        "peak_rss_mb": peak_rss_mb(children=getattr(wl, "SUBPROCESSES", False)),
    }
    extra["as_measured"] = {
        "setup_s": statistics.median(b - a for a, b in setups),
        **latency_metrics(loop.latencies()),
    }
    extra["reference_work_ms"] = clock.reference_work_s * 1e3
    return metrics, (loop,), tamper, extra


def run_traced(wl, seed):
    """One untraced and one traced pass over the same fixed cycles; their
    throughputs give the tracing overhead.  Workloads served by
    subprocesses run their commands in-process here."""
    execute = getattr(wl, "execute_in_process", wl.execute)
    rng = random.Random(seed)
    cycles = [wl.make_cycle(rng, i) for i in range(wl.TRACE_CYCLES)]
    with SpeedClock() as clock:
        gt, state, _ = timed_setup(wl.build, clock, seconds=0, min_repeats=1)
        tracer = Tracer(clock)
        try:
            tamper = oracle.tamper_self_check(gt)
            plain = run_cycles(clock, cycles, partial(execute, state), partial(wl.check, state))
            probes = getattr(wl, "probe", lambda state, clock: {})(state, clock)
            tracer.install()
            try:
                traced_state = wl.build(gt)
                traced = run_cycles(
                    clock, cycles, partial(execute, traced_state),
                    partial(wl.check, traced_state),
                    on_request=tracer.set_request, pause=tracer.paused,
                )
            finally:
                tracer.uninstall()
            extra = getattr(wl, "describe", lambda state, loop: {})(state, traced)
        finally:
            getattr(wl, "close", lambda state: None)(state)
    metrics = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
    metrics.update(tracer.metrics())
    metrics.update(probes)
    plain_latencies = plain.latencies(clock)
    if execute is not wl.execute:
        metrics["cli.run_ms"] = statistics.median(plain_latencies) * 1e3
    untraced_rps = plain.attempted / sum(plain_latencies)
    traced_rps = traced.attempted / sum(traced.latencies(clock))
    metrics["trace.untraced_rps"] = untraced_rps
    metrics["trace.traced_rps"] = traced_rps
    metrics["trace.overhead_pct"] = (untraced_rps - traced_rps) / untraced_rps * 100
    spans_path = OUT / f"spans-{wl.NAME}-seed{seed}.jsonl"
    tracer.write(spans_path, {"workload": wl.NAME, "seed": seed})
    extra["spans_file"] = str(spans_path.relative_to(OUT.parent))
    return metrics, (plain, traced), tamper, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    cpus = nproc()
    pin_to_one_cpu()
    try:
        warm_bytecode()
        if args.trace:
            metrics, loops, tamper, extra = run_traced(wl, args.seed)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics, loops, tamper, extra = run_untraced(wl, args.seed, args.seconds)
            units = dict(END_TO_END)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    unexpected = sum(loop.unexpected for loop in loops)
    for loop in loops:
        for report in loop.reports:
            print(f"FAILED {report}", file=sys.stderr)
    if tamper is not None:
        print(f"oracle self-check: {tamper}", file=sys.stderr)

    raw = extra.get("as_measured", {})
    for name, value in metrics.items():
        measured = f"  (as measured {raw[name]:.6g})" if name in raw else ""
        print(f"{wl.NAME} {name} = {value:.6g} {units[name]}{measured}")
    if not args.trace:
        print(f"{wl.NAME} error_rate = {failed / attempted:.6g} ratio")
    meta = {
        "workload": wl.NAME,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": cpus,
        "requests": attempted,
        "cycles": sum(loop.cycles for loop in loops),
        "latency_samples": loops[0].attempted,
        "error_rate": failed / attempted,
        "unexpected_failures": unexpected,
        **extra,
    }
    print(json.dumps({"meta": meta}))
    result = {
        "correct": unexpected == 0 and tamper is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
