"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload untraced and traced, in-process and shrunk (small
groups only, no minimum sample count), and fails if a result line is
malformed, an answer is wrong, or any end-to-end or per-layer metric named
in BENCHMARK.json is missing.  It also checks that the oracle rejects a
tampered certificate and that the benchmark refuses to run, without a
result line, in a directory holding only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import common
import oracle
import run
import search
import structure
from common import OUT, ROOT


def shrink() -> None:
    common.MIN_SAMPLES = 1
    structure.SIZES = ((2, 1, 1, 2), (2, 1, 2, 1))
    search.TABLE = tuple(row for row in search.TABLE if row[0] != "K:3,1,1")


def check_result(workload, trace, names) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.1",
                         "--trace", str(trace)])
    problems = []
    if code != 0:
        return [f"{workload} trace={trace}: exit {code}"]
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{workload} trace={trace}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"{workload} trace={trace}: correct={result.get('correct')} "
                        f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    missing = sorted(set(names) - set(metrics))
    extra = sorted(set(metrics) - set(names))
    if missing or extra:
        problems.append(f"{workload} trace={trace}: missing {missing}, unexpected {extra}")
    for name, entry in metrics.items():
        if sorted(entry) != ["unit", "value"] or not isinstance(entry["value"], (int, float)):
            problems.append(f"{workload} trace={trace}: bad metric {name}: {entry}")
    return problems


def check_bare_directory() -> list:
    """Only BENCHMARK.json and the benchmark: no sources to benchmark."""
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable if p == "python3" else p for p in spec["command"]]
    try:
        proc = subprocess.run(
            [*command, "--workload", spec["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    shrink()
    problems = []
    tamper = oracle.tamper_self_check(common.load_library())
    if tamper is not None:
        problems.append(f"oracle self-check: {tamper}")
    for workload in (w["name"] for w in spec["workloads"]):
        problems += check_result(workload, 0, end_to_end)
        problems += check_result(workload, 1, per_layer)
    problems += check_bare_directory()
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
