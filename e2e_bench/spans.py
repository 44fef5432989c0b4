"""Spans recorded from outside the compiler, around its public functions.

:class:`Tracer` wraps a fixed set of public callables (module functions,
methods and the registered pass callables) so each call records a span
``[name, start, end, parent, request id]``.  Wrapping replaces the name
in every already-imported ``repro`` module that bound it, so call sites
that did ``from x import f`` are traced too; later lazy imports bind
the wrapper from the patched module.  Spans are kept in memory; a
layer's self time is its span's duration minus the durations of its
direct children (one thread, so children never overlap).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

#: (span name, module, attribute) for module-level functions.
FUNCTIONS = [
    ("pipeline", "repro.pipeline.driver", "compile_payload"),
    ("frontend", "repro.frontend", "compile_program"),
    ("ir.parse", "repro.ir.parser", "parse_module"),
    ("ir.parse", "repro.ir.parser", "parse_function"),
    ("ir.print", "repro.ir.printer", "print_module"),
    ("ir.print", "repro.ir.printer", "print_function"),
    ("ssa.to_ssa", "repro.ssa.construction", "to_ssa"),
    ("ssa.destroy_ssa", "repro.ssa.destruction", "destroy_ssa"),
    ("dataflow", "repro.dataflow.framework", "solve"),
    ("dataflow", "repro.dataflow.bitset", "solve_masks"),
    ("verify.validate", "repro.ir.validate", "validate_module"),
    ("verify.validate", "repro.ir.validate", "validate_function"),
]

#: (span name, module, class, method) for methods.
METHODS = [
    ("pm.run_function", "repro.pm.manager", "PassManager", "run_function"),
    ("ir.predecessor_map", "repro.ir.function", "Function", "predecessor_map"),
    ("cfg.dominators", "repro.cfg.dominators", "DominatorTree", "__init__"),
]

#: The distribution sequence's passes, traced through the registry.
PASSES = [
    "reassociate", "gvn", "pre", "constprop", "peephole", "dce", "coalesce",
    "clean",
]


def _instructions(func) -> int:
    return sum(len(blk.instructions) for blk in func.blocks)


def _rebind(attr: str, old, new) -> None:
    """Point every loaded ``repro`` module's ``attr`` that is ``old`` at ``new``."""
    for module in list(sys.modules.values()):
        if (
            getattr(module, "__name__", "").startswith("repro")
            and getattr(module, attr, None) is old
        ):
            setattr(module, attr, new)


class Tracer:
    """Installs span-recording wrappers; :meth:`uninstall` restores all."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = None
        self.instrs_delta: dict[str, int] = defaultdict(int)
        self.frontend_bytes = 0
        self._stack: list[int] = []
        self._undo: list = []

    # -- spans -----------------------------------------------------------------

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name; call after the workload's imports."""
        from repro.pm import registry

        for name, module_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapped = self.span(name, self._probe(name, original))
            _rebind(attr, original, wrapped)
            # rebinding again also reaches modules imported after install()
            self._undo.append(functools.partial(_rebind, attr, wrapped, original))
        for name, module_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self.span(name, original))
            self._undo.append(functools.partial(setattr, cls, attr, original))
        # the registry holds the pass callables PassManager resolves
        for pass_name in PASSES:
            info = registry.get_pass(pass_name)
            wrapped = self.span(
                f"passes.{pass_name}", self._measure_pass(pass_name, info.fn)
            )
            registry._PASSES[pass_name] = dataclasses.replace(info, fn=wrapped)
            self._undo.append(
                functools.partial(registry._PASSES.__setitem__, pass_name, info)
            )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _probe(self, name: str, fn):
        """Counters a span alone cannot give: frontend input bytes."""
        if name == "frontend":

            def frontend(source, *args, **kwargs):
                self.frontend_bytes += len(source.encode())
                return fn(source, *args, **kwargs)

            return frontend
        return fn

    def _measure_pass(self, pass_name: str, fn):
        def run(func, *args, **kwargs):
            before = _instructions(func)
            try:
                return fn(func, *args, **kwargs)
            finally:
                self.instrs_delta[pass_name] += _instructions(func) - before

        return run

    # -- results ---------------------------------------------------------------

    def rollup(self) -> dict[str, dict]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        rollup: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = rollup[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return dict(rollup)

    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"request": request, "parent": parent},
            }
            for name, start, end, parent, request in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
