"""Steadiness report: run every workload with seeds 1 to 10 and print, for
every end-to-end metric, the median, the quartiles and the spread (the
interquartile range as a share of the median) next to the bound that
BENCHMARK.json fixes, and the spread of the times as measured, before
scaling to the reference speed.

    python3 bench/steady.py

Runs are sequential, one process each, with the command BENCHMARK.json
names.  Every spread must stay below a third of its bound.  Results also go
to ``.bench_out/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

from common import OUT, ROOT

SEEDS = range(1, 11)


def run_once(command, workload, seed, seconds):
    start = time.monotonic()
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    *_, meta_line, result_line = proc.stdout.strip().splitlines()
    meta = json.loads(meta_line)["meta"]
    meta["wall_s"] = time.monotonic() - start
    return json.loads(result_line), meta


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    command = [sys.executable if part == "python3" else part for part in spec["command"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    steady = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        measured = {}
        walls = []
        for seed in SEEDS:
            result, meta = run_once(command, workload, seed, spec["run_seconds"])
            walls.append(meta["wall_s"])
            for name, value in meta.get("as_measured", {}).items():
                measured.setdefault(name, []).append(value)
            if not result["correct"]:
                steady = False
                print(f"{workload} seed {seed}: incorrect answers", file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        report[workload] = {"wall_s": walls}
        print(f"{workload:16} wall time per run {min(walls):.1f} to {max(walls):.1f} s")
        for name, bound in bounds.items():
            q1, median, q3, share = spread(values[name])
            ok = share < bound / 3
            steady = steady and ok
            report[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": share,
                                      "bound": bound, "values": values[name],
                                      "as_measured": measured.get(name)}
            raw = f" (as measured {spread(measured[name])[3]:.4f})" if name in measured else ""
            print(f"{workload:16} {name:15} median={median:<12.6g} q1={q1:<12.6g} "
                  f"q3={q3:<12.6g} spread={share:.4f}{raw} bound={bound} "
                  f"{'ok' if ok else 'SPREAD ABOVE BOUND/3'}", flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / "steady.json").write_text(json.dumps(report, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
