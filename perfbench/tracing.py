"""Span tracing of cgfusion calls, installed from outside the library.

A :class:`Tracer` wraps every public function of the ``cgfusion`` modules,
the constructor of ``GFusionSystem`` and a handful of ``numpy.linalg``
calls.  It rebinds each wrapped function under every name any ``cgfusion``
module holds it by, so a call from one library function into another
(``frame_bounds`` into ``assemble_frame_operator``, say) opens a child
span.  Wrappers are installed only while an operation is being traced;
untraced operations run the library exactly as users do.

A span records name, start, end, parent span and operation id.  Spans stay
in memory until the run ends; :meth:`Tracer.layer_metrics` turns them into
per-layer counts, busy time and self time (busy time minus the time the
span's direct children cover).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import pkgutil
import time

#: numpy.linalg calls traced as the ``linalg`` layer.
LINALG_FUNCTIONS = ("eigvalsh", "eigh", "svd", "inv", "qr")

#: Public helpers called once per serialized number; a span each would
#: cost more than the work it measures.
SKIPPED = {"report.format_float"}

#: Modules left untraced: ``random_systems`` is not used by the benchmark.
SKIPPED_MODULES = {"random_systems"}

#: Byte counters attached to spans: span name -> (counter, measure).
COUNTERS = {
    "sysio.load_document": ("sysio.bytes_read", lambda args, result: os.path.getsize(args[0])),
    "report.dumps_canonical": ("report.bytes_written", lambda args, result: len(result)),
}


def _library_modules(package):
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if info.name.startswith("_") or info.name in SKIPPED_MODULES:
            continue
        modules.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return modules


class Tracer:
    """Records spans of wrapped calls while :meth:`recording` is active."""

    def __init__(self, package, linalg_module):
        self._spans: list[tuple[int, int, int, int, int]] = []
        self._names: list[str] = []
        self._ops: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._counters: dict[str, float] = {}
        self._bindings = []  # (namespace, attribute, original, wrapper)
        originals = {}
        for module in _library_modules(package):
            if module is package:
                continue
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in SKIPPED
                ):
                    originals[id(value)] = (value, self._wrap(name, value))
        for module in _library_modules(package):
            for attr, value in vars(module).items():
                if id(value) in originals:
                    self._bindings.append((module, attr, value, originals[id(value)][1]))
        system_cls = package.GFusionSystem
        post_init = system_cls.__post_init__
        self._bindings.append(
            (system_cls, "__post_init__", post_init, self._wrap("systems.GFusionSystem", post_init))
        )
        for attr in LINALG_FUNCTIONS:
            original = getattr(linalg_module, attr)
            self._bindings.append(
                (linalg_module, attr, original, self._wrap(f"linalg.{attr}", original))
            )

    def _wrap(self, name: str, fn):
        name_id = len(self._names)
        self._names.append(name)
        spans = self._spans
        stack = self._stack
        clock = time.perf_counter_ns
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self._op)
            if counter is not None:
                key, measure = counter
                self._counters[key] = self._counters.get(key, 0) + measure(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def recording(self, label: str):
        """Install the wrappers and attribute spans to operation ``label``."""
        self._ops.append(label)
        self._op = len(self._ops) - 1
        for namespace, attr, _, wrapper in self._bindings:
            setattr(namespace, attr, wrapper)
        try:
            yield
        finally:
            for namespace, attr, original, _ in self._bindings:
                setattr(namespace, attr, original)
            self._op = -1

    def label(self, label: str) -> None:
        """Attribute the following spans to a new operation ``label``."""
        self._ops.append(label)
        self._op = len(self._ops) - 1

    @property
    def span_count(self) -> int:
        return len(self._spans)

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self._spans if parent < 0) / 1e9

    def layer_metrics(self, operations: int) -> dict[str, float]:
        """Per-operation calls, busy and self time of every traced name.

        Also gives ``linalg.busy_s``, ``cli.main.<command>.busy_s`` (the
        command is the operation label) and the byte counters.
        """
        per_op = 1.0 / max(operations, 1)
        child = [0] * len(self._spans)
        for _, start, end, parent, _ in self._spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(self._names)
        busy = [0] * len(self._names)
        own = [0] * len(self._names)
        cli_main = {}
        for index, (name_id, start, end, _, op) in enumerate(self._spans):
            duration = end - start
            calls[name_id] += 1
            busy[name_id] += duration
            own[name_id] += duration - child[index]
            if self._names[name_id] == "cli.main":
                command = self._ops[op]
                cli_main[command] = cli_main.get(command, 0) + duration
        metrics = {}
        linalg_busy = 0
        for name_id, name in enumerate(self._names):
            metrics[f"{name}.calls"] = calls[name_id] * per_op
            metrics[f"{name}.busy_s"] = busy[name_id] / 1e9 * per_op
            metrics[f"{name}.self_s"] = own[name_id] / 1e9 * per_op
            if name.startswith("linalg."):
                linalg_busy += busy[name_id]
        metrics["linalg.busy_s"] = linalg_busy / 1e9 * per_op
        for command, duration in cli_main.items():
            metrics[f"cli.main.{command}.busy_s"] = duration / 1e9 * per_op
        for key, value in self._counters.items():
            metrics[key] = value * per_op
        return metrics

    def write(self, path) -> None:
        """Write every span as a row of ``columns``, times in ns from the first span."""
        origin = min((s[1] for s in self._spans), default=0)
        doc = {
            "names": self._names,
            "operations": self._ops,
            "columns": ["name", "start_ns", "end_ns", "parent", "operation"],
            "spans": [
                [name_id, start - origin, end - origin, parent, op]
                for name_id, start, end, parent, op in self._spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
