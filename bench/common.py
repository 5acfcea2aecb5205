"""Shared pieces of the benchmark: paths, library loading, the request loop
and the statistics every workload reports."""

from __future__ import annotations

import bisect
import compileall
import contextlib
import gc
import importlib
import os
import resource
import signal
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# set-up is repeated until it has taken this much time, and at least
# SETUP_MIN_REPEATS times; short set-ups need many repeats for a steady median
SETUP_SECONDS = 2.0
SETUP_MIN_REPEATS = 5
# a timed run keeps going until it has this many latency samples, so at
# least ten lie beyond its p90
MIN_SAMPLES = 110


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (for example, no sources)."""


def library_package() -> Path:
    package = SRC / "gentorsion"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no gentorsion sources under {SRC}")
    return package


def warm_bytecode() -> None:
    """Write the library's bytecode before anything is timed.

    Every import, here and in CLI subprocesses, then loads bytecode rather
    than compiling, whether or not an earlier run or the environment
    (``PYTHONDONTWRITEBYTECODE``) left any behind.
    """
    if not compileall.compile_dir(library_package(), quiet=2):
        raise SetupError(f"cannot compile the sources under {SRC}")


# environment for subprocesses that import the library from this checkout
CHILD_ENV = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "GENTOR_SEED")}
CHILD_ENV["PYTHONPATH"] = str(SRC)


def load_library():
    """Import ``gentorsion`` from this checkout's ``src``, discarding any
    earlier import so that every call pays the full import again."""
    package = library_package()
    for name in [n for n in sys.modules if n == "gentorsion" or n.startswith("gentorsion.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    gt = importlib.import_module("gentorsion")
    if Path(gt.__file__).resolve().parent != package.resolve():
        raise SetupError(f"imported gentorsion from {gt.__file__}, not from {package}")
    return gt


def timed_setup(build, clock, seconds=SETUP_SECONDS, min_repeats=SETUP_MIN_REPEATS):
    """Import plus ``build(gt)``, repeated for ``seconds`` and at least
    ``min_repeats`` times; returns the last library, the last state and the
    (start, end) stamps of each set-up."""
    intervals = []
    gt = state = None
    while len(intervals) < min_repeats or sum(b - a for a, b in intervals) < seconds:
        gt = state = None
        gc.collect()
        clock.sync()
        start = clock.stamp()
        gt = load_library()
        state = build(gt)
        intervals.append((start, clock.stamp()))
        clock.sync()
    return gt, state, intervals


# On a shared machine the CPU speed can drift by a third within minutes, and
# all Python code slows or speeds alike, so a fixed piece of reference work
# timed every PROBE_EVERY_S tracks it.  Timings are reported at the
# reference speed, at which the reference work takes REF_S.
REF_S = 1.2e-3
PROBE_EVERY_S = 0.25


def _reference_step(a, b):
    return a * b + (a ^ b)


def reference_work():
    """Fixed pure-Python work: calls, tuples, dict lookups, integer arithmetic."""
    table = {}
    acc = 0
    for i in range(2000):
        key = (i % 97, i * 7 % 31)
        acc = (acc + _reference_step(*key)) % 1000003
        table[key] = table.get(key, 0) + acc
    return acc


class SpeedClock:
    """Wall-clock stamps that can be turned into time at the reference speed.

    Inside ``with``, SIGALRM times the reference work every PROBE_EVERY_S;
    Python runs the handler in the main thread between bytecodes, so probes
    also land inside long library calls.  Stamps exclude the time spent in
    probes.  Between two probes the speed is taken as the mean of theirs,
    so ``scaled(start, end)`` needs a probe at or after ``end``: call
    ``sync()`` first.  The benchmark runs on one CPU (see ``pin_to_one_cpu``),
    so probes measure the CPU that served the request, subprocesses included
    (probes wait while a subprocess runs, see ``probes_held``).
    """

    def __init__(self):
        self._times = []  # stamp of each probe
        self._cumulative = []  # reference-speed time up to each probe
        self._rates = []  # reference-speed seconds per second after each probe
        self._last_ref = None
        self._excluded = 0.0
        self._probing = False
        self._previous = None

    def __enter__(self):
        self.sync()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sync()
        return False

    def _on_alarm(self, signum, frame):
        self.sync()

    def sync(self) -> None:
        """Probe now."""
        if self._probing:
            return
        self._probing = True
        try:
            start = time.perf_counter()
            ref = min(_timed(reference_work) for _ in range(3))
            at = start - self._excluded
            self._excluded += time.perf_counter() - start
            if self._last_ref is None:
                self._cumulative.append(0.0)
            else:
                rate = 2 * REF_S / (self._last_ref + ref)
                self._rates.append(rate)
                self._cumulative.append(
                    self._cumulative[-1] + (at - self._times[-1]) * rate)
            self._times.append(at)
            self._last_ref = ref
        finally:
            self._probing = False

    def stamp(self) -> float:
        """Wall-clock seconds, probes excluded."""
        while True:
            excluded = self._excluded
            now = time.perf_counter()
            if excluded == self._excluded:  # no probe ran in between
                return now - excluded

    def _at_reference(self, t: float) -> float:
        k = max(0, bisect.bisect_right(self._times, t) - 1)
        rate = self._rates[min(k, len(self._rates) - 1)] if self._rates else 1.0
        return self._cumulative[k] + (t - self._times[k]) * rate

    def scaled(self, start: float, end: float) -> float:
        """Seconds between two stamps, at the reference speed."""
        return self._at_reference(end) - self._at_reference(start)

    @property
    def reference_work_s(self) -> float:
        return REF_S / statistics.median(self._rates) if self._rates else REF_S


@contextlib.contextmanager
def probes_held():
    """Hold probes back while a subprocess runs: on the one CPU they would
    compete with it.  A probe due meanwhile runs when the block ends."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def pin_to_one_cpu() -> None:
    """Run this process, and the subprocesses it starts, on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclass
class Verdict:
    """Outcome of one checked request.  An unexpected failure makes the
    run's result incorrect; only a failure known at the benchmark's
    baseline does not."""

    failed: bool = False
    unexpected: bool = False
    reason: str = ""


OK = Verdict()


def fail(reason: str) -> Verdict:
    """The request raised, exited with an unexpected code, or gave a wrong
    or unverifiable answer."""
    return Verdict(failed=True, unexpected=True, reason=reason)


def known_failure(reason: str) -> Verdict:
    """The request failed in the way it already failed at the baseline."""
    return Verdict(failed=True, reason=reason)


@dataclass
class LoopResult:
    # request (start, end) stamps, compact so the sample count barely
    # moves the peak RSS
    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    # per-request factors to the reference speed, when the workload measures
    # its own reference before each request (see run_cycles)
    scales: array = field(default_factory=lambda: array("d"))
    cycles: int = 0
    failed: int = 0
    unexpected: int = 0
    reports: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.starts)

    def latencies(self, clock=None) -> list:
        """Seconds per request, at the reference speed when given a synced
        clock, else as measured."""
        pairs = zip(self.starts, self.ends)
        if clock is None:
            return [end - start for start, end in pairs]
        if self.scales:
            return [(end - start) * f for (start, end), f in zip(pairs, self.scales)]
        return [clock.scaled(start, end) for start, end in pairs]


MAX_REPORTED = 20


def run_cycles(clock, cycles, execute, check, seconds=None, on_request=None, pause=None,
               scale=None):
    """Closed loop with one client: send each request after the previous one
    has answered.

    ``cycles`` yields lists of requests.  The answers of a cycle are checked
    after it, outside the timed requests.  With ``seconds`` the loop stops at
    the cycle boundary nearest to that much busy time, once it has
    MIN_SAMPLES requests; otherwise it runs every cycle given.  ``scale``,
    if given, measures a reference just before each request and returns the
    factor that brings the request's latency to the reference speed; its
    time counts as busy.
    """
    out = LoopResult()
    busy = 0.0
    for requests in cycles:
        answers = []
        for request in requests:
            if on_request is not None:
                on_request(request)
            before = clock.stamp()
            if scale is not None:
                out.scales.append(scale())
            start = clock.stamp()
            try:
                answer, raised = execute(request), None
            except Exception as exc:  # a failing request must not stop the run
                answer, raised = None, f"{type(exc).__name__}: {exc}"
            end = clock.stamp()
            out.starts.append(start)
            out.ends.append(end)
            busy += end - before
            answers.append((answer, raised))
        out.cycles += 1
        with pause() if pause is not None else contextlib.nullcontext():
            for request, (answer, raised) in zip(requests, answers):
                verdict = fail(raised) if raised is not None else check(request, answer)
                if verdict.failed:
                    out.failed += 1
                    out.unexpected += verdict.unexpected
                    if len(out.reports) < MAX_REPORTED:
                        out.reports.append(f"{request.rid}: {verdict.reason}")
        if (seconds is not None and out.attempted >= MIN_SAMPLES
                and busy + busy / out.cycles / 2 >= seconds):
            break
    return out


def latency_metrics(latencies) -> dict:
    """Throughput over busy time, and p50 and p90 latency."""
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) >= 2 else latencies[0]
    return {
        "throughput_rps": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": p90 * 1e3,
    }


@dataclass(frozen=True)
class Request:
    """One benchmark request; ``rid`` names it in failure reports and spans."""

    rid: str
    kind: str
    group: str
    args: tuple = ()
    expect: object = None


def cycle_stream(make_cycle, rng):
    """Endless sequence of request cycles drawn from one seeded generator."""
    index = 0
    while True:
        yield make_cycle(rng, index)
        index += 1
