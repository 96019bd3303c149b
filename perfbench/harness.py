"""Closed-loop measurement of one workload: set-up, timed operations, trace.

One caller in one process sends the next operation only after the previous
one has completed and been checked.  ``measure`` gives the end-to-end
figures with tracing off; ``measure_traced`` alternates untraced and traced
passes over a fixed list of operations, so per-operation counts repeat
exactly for a seed and the tracing overhead is measured on the same inputs.
"""

from __future__ import annotations

import collections
import os
import platform
import resource
import statistics
import traceback
from time import perf_counter

import numpy as np

import cgfusion as cg
from tracing import Tracer

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5
#: After each operation, and between the steps of one, the host reference
#: kernel runs in a burst once this many seconds have passed since the last
#: burst: once per elapsed interval, at least ``_REFERENCE_MIN_BURST`` and at
#: most ``_REFERENCE_MAX_BURST`` times, so slow and fast workloads sample the
#: host equally densely.
REFERENCE_INTERVAL_S = 0.25
_REFERENCE_MIN_BURST = 3
_REFERENCE_MAX_BURST = 64
_REFERENCE_LOOP = 20_000
_REFERENCE_MATRIX = (lambda g: g + g.T)(np.random.default_rng(0).standard_normal((64, 64)))
#: Tail percentiles tried, highest first; the reported one leaves at least
#: ten samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def host_reference_ms() -> float:
    """Fixed kernel timing the host itself: a pure-Python loop and a 64x64 eigvalsh."""
    start = perf_counter()
    acc = 0
    for i in range(_REFERENCE_LOOP):
        acc += i * i % 7
    np.linalg.eigvalsh(_REFERENCE_MATRIX)
    return (perf_counter() - start) * 1e3


#: The CPUs this process was allowed to run on when the harness was imported.
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))


def pin_to_one_cpu() -> None:
    """Run this process, and every command it starts, on one allowed CPU.

    On a shared host the CPUs differ in speed from moment to moment, so the
    reference kernel can track the speed the operations see only when both
    run on the same CPU.
    """
    os.sched_setaffinity(0, {ALLOWED_CPUS[0]})


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(ALLOWED_CPUS),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cgfusion": cg.__file__,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def tail(samples: list[float]):
    """(percentile, value, samples beyond) for the highest percentile with
    at least ten samples beyond it, or None when there are too few samples."""
    for p in TAIL_PERCENTILES:
        value = float(np.percentile(samples, p))
        beyond = sum(1 for x in samples if x > value)
        if beyond >= 10:
            return p, value, beyond
    return None


class Tally:
    """Operations, failures by reason, latencies and problem sizes.

    An operation is one distinct input (a key of the workload); a run may
    execute it several times.  It fails when any of its executions fails, so
    ``attempted`` and ``failed`` depend on the seed alone, not on how many
    executions fit in the run's time.
    """

    def __init__(self):
        self.executions = 0
        self.outcomes: dict = {}  # key -> set of failure reasons over its executions
        self.unstable = set()  # keys whose executions did not all fail for the same reasons
        self.latencies: list[float] = []
        self.tracebacks: list[str] = []
        self.sizes = collections.Counter()
        self.commands = collections.defaultdict(list)
        self.reference_ms: list[float] = []
        self.bursts: list[float] = []  # median of each burst of the reference kernel
        # Per latency: its steps as (seconds, index of the last burst before the step).
        self._steps: list[list[tuple[float, int]]] = []
        self._open_steps: list[tuple[float, int]] = []
        self._step_start = self._last_reference = perf_counter()
        self._reference_burst(_REFERENCE_MIN_BURST)

    def _reference_burst(self, count: int) -> None:
        burst = [host_reference_ms() for _ in range(count)]
        self.reference_ms += burst
        self.bursts.append(statistics.median(burst))
        self._last_reference = perf_counter()

    def _burst_if_due(self) -> None:
        due = int((perf_counter() - self._last_reference) / REFERENCE_INTERVAL_S)
        if due:
            self._reference_burst(min(max(due, _REFERENCE_MIN_BURST), _REFERENCE_MAX_BURST))

    def _close_step(self) -> None:
        self._open_steps.append((perf_counter() - self._step_start, len(self.bursts) - 1))

    def _between_steps(self, _label) -> None:
        """Called by a workload between the steps of an untraced operation:
        runs a due burst of the reference kernel, outside the timed steps."""
        if perf_counter() - self._last_reference >= REFERENCE_INTERVAL_S:
            self._close_step()
            self._burst_if_due()
            self._step_start = perf_counter()

    def run(self, workload, key, time_op=None):
        """Run, time and check one execution of the operation ``key``."""
        self.executions += 1
        if key not in self.outcomes:
            for name, value in workload.sizes(key).items():
                self.sizes[name] += value
        reasons = []
        self._open_steps = []
        self._step_start = perf_counter()
        try:
            out = time_op(key) if time_op else workload.run(key, mark=self._between_steps)
        except Exception as err:  # keep measuring; the failure is reported
            reasons.append(("raised", type(err).__name__))
            self.tracebacks.append(traceback.format_exc())
            out = None
        self._close_step()
        elapsed = sum(seconds for seconds, _ in self._open_steps)
        if out is not None:
            self.latencies.append(elapsed)
            self._steps.append(self._open_steps)
            try:
                reasons += workload.check(key, out)
            except Exception as err:  # an unreadable output is a rejected output
                reasons.append(("check", f"unreadable_{type(err).__name__}"))
                self.tracebacks.append(traceback.format_exc())
            if hasattr(workload, "command_seconds"):
                for kind, seconds in workload.command_seconds(out).items():
                    self.commands[kind] += seconds
        if key in self.outcomes and self.outcomes[key] != set(reasons):
            self.unstable.add(key)
        self.outcomes.setdefault(key, set()).update(reasons)
        self._burst_if_due()
        return elapsed

    def relative_latencies(self) -> list[float]:
        """Each latency in units of the reference kernel timed around it: the
        sum over its steps of the step's time divided by the mean of the
        medians of the bursts just before and just after the step."""
        if self._steps and self._steps[-1][-1][1] == len(self.bursts) - 1:
            self._reference_burst(_REFERENCE_MIN_BURST)  # a burst after the last operation
        return [
            sum(seconds * 1e3 / (0.5 * (self.bursts[i] + self.bursts[i + 1])) for seconds, i in steps)
            for steps in self._steps
        ]

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for reasons in self.outcomes.values() if reasons)

    @property
    def rejected(self) -> int:
        """Operations the benchmark's own checks rejected, or that raised."""
        return sum(
            1 for reasons in self.outcomes.values()
            if any(kind in ("check", "raised", "exit") for kind, _ in reasons)
        )

    @property
    def correct(self) -> bool:
        """No output rejected by the benchmark's checks, nothing raised."""
        return self.rejected == 0

    def summary(self) -> dict:
        by_reason = collections.Counter()
        for reasons in self.outcomes.values():
            by_reason.update(reasons)
        by_report = collections.Counter()
        for (kind, name), count in by_reason.items():
            if kind == "report":
                by_report[name] += count
        ref = self.reference_ms
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "executions": self.executions,
            "unstable": len(self.unstable),
            "failed_keys": sorted(key for key, reasons in self.outcomes.items() if reasons),
            "rejected_by_check": self.rejected,
            "failures_by_reason": {f"{k}:{n}": c for (k, n), c in sorted(by_reason.items())},
            "failures_by_report": dict(sorted(by_report.items())),
            "sizes_mean": {k: v / max(self.attempted, 1) for k, v in sorted(self.sizes.items())},
            "host_ref_ms": {
                "median": statistics.median(ref),
                "min": min(ref),
                "max": max(ref),
                "samples": len(ref),
            } if ref else None,
            "host_ref_samples_ms": ref,
            "tracebacks": self.tracebacks[:5],
        }


def _timed_setup(workload) -> float:
    start = perf_counter()
    workload.setup()
    return perf_counter() - start


def _warm_up(workload) -> None:
    keys = list(workload.keys())
    for i in range(workload.warmup_ops):
        workload.run(keys[i % len(keys)])


def measure(workload, seconds: float) -> dict:
    """End-to-end figures of a closed loop over the workload's operations.

    The loop cycles through the operations until ``seconds`` have passed,
    and always completes at least one cycle, so every operation is run and
    checked in every run.  Set-up runs once before the loop and again at
    evenly spaced times within it (outside any operation), so its median
    samples the host's speed across the run, not only at its start.
    """
    setup_times = [_timed_setup(workload)]
    _warm_up(workload)
    keys = list(workload.keys())
    tally = Tally()
    start = perf_counter()
    index = 0
    while True:
        tally.run(workload, keys[index % len(keys)])
        index += 1
        now = perf_counter()
        if len(setup_times) < SETUP_REPEATS and now >= start + seconds * len(setup_times) / SETUP_REPEATS:
            setup_times.append(_timed_setup(workload))
        if index >= len(keys) and now >= start + seconds:
            break
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(_timed_setup(workload))
    latencies = tally.latencies
    relative = tally.relative_latencies()
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(latencies) / sum(latencies) if latencies else 0.0,
        "op_p50_ms": statistics.median(latencies) * 1e3 if latencies else 0.0,
        "op_p50_ref": statistics.median(relative) if relative else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "error_rate": tally.failed / tally.attempted,
    }
    tail_ms = tail(latencies) if latencies else None
    if tail_ms is not None:
        metrics["op_tail_ms"] = tail_ms[1] * 1e3
    for kind, samples in tally.commands.items():
        metrics[f"cmd_{kind}_p50_ms"] = statistics.median(samples) * 1e3
    return {
        "metrics": metrics,
        "tail": None if tail_ms is None else {
            "percentile": tail_ms[0], "beyond": tail_ms[2], "samples": len(latencies),
        },
        "setup_times_s": setup_times,
        "latencies_s": latencies,
        "latencies_ref": relative,
        "correct": tally.correct,
        **tally.summary(),
    }


def measure_traced(workload, seconds: float, spans_path) -> dict:
    """Per-layer figures: untraced and traced passes over ``trace_keys``.

    Values are per operation.  ``trace.overhead_s`` is the mean traced
    operation time minus the mean untraced one; ``trace.coverage`` is the
    time inside top-level spans over the traced operations' wall time.
    """
    setup_times = [_timed_setup(workload)]  # set-up time is reported by untraced runs
    _warm_up(workload)
    tracer = Tracer(cg, np.linalg)
    keys = list(workload.trace_keys())
    tally = Tally()
    untraced = traced = 0.0
    passes = 0

    def traced_run(key):
        with tracer.recording(f"op{key}"):
            return workload.run(key, mark=tracer.label)

    for key in keys:  # first-touch costs land in neither side
        workload.run(key)
    deadline = perf_counter() + seconds
    while True:
        # Alternate which side runs first, so drift within a pair cancels.
        for tracing in ((False, True) if passes % 2 == 0 else (True, False)):
            for key in keys:
                if tracing:
                    traced += tally.run(workload, key, time_op=traced_run)
                else:
                    untraced += tally.run(workload, key)
        passes += 1
        if perf_counter() >= deadline:
            break
    operations = passes * len(keys)
    metrics = tracer.layer_metrics(operations)
    metrics["trace.coverage"] = tracer.top_level_seconds() / traced
    metrics["trace.overhead_s"] = (traced - untraced) / operations
    summary = tally.summary()
    metrics["host.ref_ms"] = summary["host_ref_ms"]["median"]
    tracer.write(spans_path)
    return {
        "metrics": metrics,
        "passes": passes,
        "operations_per_pass": len(keys),
        "spans": tracer.span_count,
        "setup_times_s": setup_times,
        "correct": tally.correct,
        **summary,
    }
