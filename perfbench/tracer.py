"""Span wrappers around the public functions of qprop's four layers.

Each traced function is replaced, wherever it is looked up by name, with a
thin wrapper that records one span: (operation, name, start, end, parent).
Only functions are wrapped, never classes, so ``isinstance`` checks in the
program still hold. Spans stay in memory; self time, a span's duration
minus the time its child spans cover, is summed per function as the spans
close.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np


def _points(args, kwargs) -> int:
    return int(np.size(args[1] if len(args) > 1 else kwargs["x"]))


def _draws(args, kwargs) -> int:
    return int(args[1] if len(args) > 1 else kwargs["n"])


# (home module, function, modules that look the function up by name, work counter)
TRACED = (
    ("qubits", "random_unitary_2x2", ("qubits", "cli"), None),
    ("qubits", "apply", ("qubits", "decision"), None),
    ("qubits", "tensor", ("qubits", "decision"), None),
    ("qubits", "rotation_gate", ("qubits", "decision"), None),
    ("qubits", "probabilities", ("qubits", "decision"), None),
    ("qubits", "measure_collapse", ("qubits", "decision"), None),
    ("decision", "equivalence_check", ("decision",), None),
    ("decision", "entangled_circuit", ("decision",), None),
    ("decision", "sequential_measurement", ("decision",), None),
    ("decision", "order_effect_circuit", ("decision",), None),
    ("decision", "order_effect_summary", ("decision",), None),
    ("decision", "sequential_measurement_sampled", ("decision",), None),
    ("decision", "interference_term", ("decision",), None),
    ("propensity", "density", ("propensity",), _points),
    ("propensity", "entropic_force", ("propensity",), None),
    ("propensity", "sample_prices", ("propensity",), _draws),
    ("propensity", "joint_propensity", ("propensity",), None),
    ("cli", "main", ("cli",), None),
    ("cli", "build_parser", ("cli",), None),
    ("cli", "load_config", ("cli",), None),
)


class Tracer:
    """Installs the wrappers and owns the spans they record."""

    def __init__(self):
        self.op = -1
        self._patches = []
        self.reset()

    def reset(self) -> None:
        self.spans = []
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.work = defaultdict(int)
        self._stack = []

    def install(self) -> None:
        for home, name, lookups, counter in TRACED:
            original = getattr(importlib.import_module(f"qprop.{home}"), name)
            wrapper = self._wrap(f"{home}.{name}", original, counter)
            for module_name in lookups:
                module = importlib.import_module(f"qprop.{module_name}")
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapper)
                    self._patches.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def _wrap(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            if counter is not None:
                tracer.work[name] += counter(args, kwargs)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans[index] = (tracer.op, name, start, end, parent)
                tracer.calls[name] += 1
                tracer.self_ns[name] += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start

        return span

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("op\tname\tstart_ns\tend_ns\tparent\n")
            for op, name, start, end, parent in self.spans:
                handle.write(f"{op}\t{name}\t{start}\t{end}\t{parent}\n")
