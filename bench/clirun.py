"""Workload ``cli``: whole ``gentorsion`` command-line runs.

Each request is one ``python -m gentorsion.cli`` subprocess, one at a time,
so interpreter start, import, argument parsing and a fresh group build
(with ``validate_extension`` for file addresses) are paid on every call.
Stdout and the exit code of every command are checked.

``identity gamma`` stays in the mix although it exits 2 today (the gamma
backend lacks ``holonomy_exponent``): it counts as one failed request per
cycle of 25, so fixing it shows as fewer failures.  That failure, and no
other, leaves the result correct.  The odd command count puts p50 and p90
inside one command's block of samples.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

from common import CHILD_ENV, OK, OUT, Request, fail, known_failure, probes_held
from oracle import C3_TABLE

NAME = "cli"
TRACE_CYCLES = 1
SUBPROCESSES = True
TIMEOUT_S = 120
PROBES = 5
# Latencies are reported at the speed at which a bare interpreter starts in
# START_REF_S.  Process start does not follow the pure-Python reference
# speed on a shared machine, so each command is scaled by a bare start timed
# just before it; without this the latencies spread about 10% over seeds.
START_REF_S = 0.1
# (label, exit code, stderr text) of the one failure known at the baseline
KNOWN_FAILURE = ("identity-gamma", 2, "holonomy_exponent")

CATALOG = ("dinf", "klein", "promislow", "K:p,n,m", "wreath:", "freeabext:", "spec:", "gamma")


def _lines(*expected):
    return ("lines", expected)


def _witness(group, length):
    return ("witness", (group, length))


# (label, argv, expected exit code, expected output); file arguments name
# the inputs written at set-up, and SEED is drawn per cycle.
COMMANDS = (
    ("catalog", ["catalog", "list"], 0, ("catalog", CATALOG)),
    ("info-promislow", ["info", "promislow"], 0, _lines(
        "abelianization=C4 x C4", "torsion_free=true", "center_rank=0",
        "exponent_lower=4 exponent_upper=4 exact=true")),
    ("info-K311", ["info", "K:3,1,1"], 0, _lines(
        "abelianization=C9 x C9", "torsion_free=true", "center_trivial=true",
        "exponent_lower=9 exponent_upper=9 exact=true")),
    ("info-klein", ["info", "klein"], 0, _lines(
        "abelianization=C2 x Z", "exponent_bounds=n/a (infinite abelianization)")),
    ("decide-klein", ["decide", "klein", "y"], 0, _lines(
        "generalized_torsion=false", "pi_order=infinite")),
    ("decide-promislow", ["decide", "promislow", "[x,y]"], 0, _lines(
        "generalized_torsion=true", "pi_order=1")),
    ("decide-dinf", ["decide", "dinf", "a*b"], 0, _lines(
        "generalized_torsion=true", "pi_order=2")),
    ("decide-K311", ["decide", "K:3,1,1", "x*y^-1"], 0, _lines(
        "generalized_torsion=true", "pi_order=9")),
    ("witness-promislow", ["witness", "promislow", "x"], 0, _witness("promislow", 4)),
    ("search-promislow", ["witness", "promislow", "x", "--search", "--max-k", "8",
                          "--radius", "3"], 0, _witness("promislow", 4)),
    ("witness-K211", ["witness", "K:2,1,1", "x*y"], 0, _witness("K:2,1,1", 4)),
    ("search-dinf", ["witness", "dinf", "a", "--search", "--max-k", "4", "--radius", "2"],
     0, _witness("dinf", 2)),
    ("exponent-promislow", ["exponent", "promislow"], 0, _lines("lower=4 upper=4 exact=true")),
    ("exponent-K211", ["exponent", "K:2,1,1"], 0, _lines("lower=4 upper=4 exact=true")),
    ("identity-promislow", ["identity", "promislow"], 0, _lines("mode=universal", "verified=true")),
    ("identity-dinf", ["identity", "dinf"], 0, _lines("mode=universal", "verified=true")),
    ("identity-K211", ["identity", "K:2,1,1", "--samples", "30", "--seed", "SEED"], 0,
     _lines("mode=sampled samples=30 seed=SEED", "verified=true")),
    ("identity-gamma", ["identity", "gamma"], 0, _lines("verified=true")),
    ("validate-product", ["validate", "PRODUCT"], 0, _lines("valid=true")),
    ("validate-broken", ["validate", "BROKEN"], 2, _lines(
        "valid=false", "failure: cocycle identity fails at (1,1,1)")),
    ("info-wreath", ["info", "wreath:WREATH"], 0, _lines(
        "abelianization=C3 x Z", "torsion_free=false")),
    ("decide-freeabext", ["decide", "freeabext:FREEABEXT", "f1*f2^-1"], 0, _lines(
        "generalized_torsion=false", "pi_order=infinite")),
    ("witness-freeabext", ["witness", "freeabext:FREEABEXT", "[f1,f2]"], 0,
     _witness("freeabext", 3)),
    ("info-spec", ["info", "spec:PRODUCT"], 0, _lines(
        "abelianization=C2 x C4 x C4 x Z", "center_rank=1")),
    ("decide-spec", ["decide", "spec:PRODUCT", "y2"], 0, _lines(
        "generalized_torsion=false", "pi_order=infinite")),
)


def build(gt):
    """Write the input files, import the CLI module (the traced run drives
    it in-process) and build the groups the oracle multiplies in."""
    cli = importlib.import_module("gentorsion.cli")
    workdir = OUT / f"cli-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    product = gt.direct_product(gt.build_promislow(), gt.build_klein_bottle())
    broken = gt.spec_to_dict(gt.build_klein_bottle())
    broken["coc"][1][1] = [1, 1]  # not fixed by phi(1): the cocycle identity fails
    freeabext = {"rank": 2, "q_table": [list(r) for r in C3_TABLE], "images": [1, 1]}
    files = {
        "PRODUCT": ("product.json", gt.spec_to_dict(product)),
        "BROKEN": ("broken.json", broken),
        "WREATH": ("wreath_c3.json", [list(r) for r in C3_TABLE]),
        "FREEABEXT": ("freeabext_c3.json", freeabext),
    }
    paths = {}
    for key, (filename, data) in files.items():
        path = workdir / filename
        path.write_text(json.dumps(data))
        paths[key] = str(path)
    EG = gt.ExtensionGroup
    groups = {
        "promislow": EG(gt.build_promislow(), name="promislow"),
        "dinf": EG(gt.build_dihedral_infinite(), name="dinf"),
        "K:2,1,1": gt.build_K_group(2, 1, 1),
        "freeabext": EG(gt.build_free_abelianized_extension(
            gt.FreeAbelExtInput.build(2, C3_TABLE, [1, 1])), name="freeabext"),
    }
    return {"gt": gt, "cli": cli, "workdir": workdir, "paths": paths, "groups": groups}


def close(state):
    shutil.rmtree(state["workdir"], ignore_errors=True)


def make_cycle(rng, index):
    seed = str(rng.randrange(1 << 20))
    requests = []
    for label, argv, code, expect in COMMANDS:
        argv = tuple(a.replace("SEED", seed) for a in argv)
        kind, data = expect
        if kind == "lines":
            data = tuple(line.replace("SEED", seed) for line in data)
        requests.append(Request("", label, "", argv, (code, kind, data)))
    rng.shuffle(requests)
    return [replace(r, rid=f"c{index}.{i}:{r.kind}") for i, r in enumerate(requests)]


def _argv(state, request):
    """The request's argv with input-file placeholders replaced by paths."""
    out = []
    for arg in request.args:
        prefix, sep, key = arg.rpartition(":")
        out.append(prefix + sep + state["paths"][key] if key in state["paths"] else arg)
    return out


def execute(state, request):
    with probes_held():
        proc = subprocess.run(
            [sys.executable, "-m", "gentorsion.cli", *_argv(state, request)],
            env=CHILD_ENV, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    return proc.returncode, proc.stdout, proc.stderr


def _timed_run(argv) -> float:
    """Seconds a subprocess without output takes.  No timeout: with one,
    ``wait`` polls at intervals of up to 50 ms, which would quantize the
    time."""
    with probes_held():
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], env=CHILD_ENV, check=True)
        return time.perf_counter() - start


def reference_scale():
    """Time a bare interpreter start; return the factor that brings it, and
    so the command that follows, to START_REF_S."""
    return START_REF_S / _timed_run(["-c", "pass"])


def execute_in_process(state, request):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = state["cli"].run(_argv(state, request))
    return code, out.getvalue(), err.getvalue()


def check(state, request, answer):
    code, stdout, stderr = answer
    want_code, kind, data = request.expect
    if code != want_code:
        last = stderr.strip().splitlines()[-1:] or [""]
        reason = f"exit {code}, expected {want_code}: {last[0]}"
        label, known_code, known_text = KNOWN_FAILURE
        if (request.kind, code) == (label, known_code) and known_text in stderr:
            return known_failure(reason)
        return fail(reason)
    lines = stdout.splitlines()
    if kind == "catalog":
        missing = [a for a in data if not any(line.startswith(a) for line in lines)]
        return fail(f"catalog misses {missing}") if missing else OK
    if kind == "lines":
        missing = [line for line in data if line not in lines]
        return fail(f"output misses {missing}") if missing else OK
    return _check_witness(state, stdout, *data)


def _check_witness(state, stdout, group, length):
    """Re-multiply the printed certificate from its words."""
    try:
        payload = json.loads(stdout)
        words = payload["conjugator_words"]
        base = payload["base_word"]
    except (ValueError, KeyError, TypeError) as exc:
        return fail(f"unreadable certificate: {exc!r}")
    if payload.get("length") != len(words) or len(words) != length:
        return fail(f"certificate length {payload.get('length')}, expected {length}")
    gt = state["gt"]
    G = state["groups"][group]
    g = gt.eval_word(G, gt.parse_word(base))
    product = G.identity()
    for word in words:
        product = G.mul(product, G.conj(g, gt.eval_word(G, gt.parse_word(word))))
    return OK if product == G.identity() else fail("printed certificate does not multiply to 1")


def probe(state, clock):
    """Interpreter start (the floor) and CLI import beyond it, each the
    median of a few fresh subprocesses, at the reference speed."""

    def median_ms(argv):
        intervals = []
        for _ in range(PROBES):
            start = clock.stamp()
            _timed_run(argv)
            intervals.append((start, clock.stamp()))
        clock.sync()
        return statistics.median(clock.scaled(a, b) for a, b in intervals) * 1e3

    floor = median_ms(["-c", "pass"])
    return {"cli.interp_start_ms": floor,
            "cli.import_ms": median_ms(["-c", "import gentorsion.cli"]) - floor}
