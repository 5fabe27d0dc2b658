"""Span recorder for the traced pass.

Public functions of ``gpchannel`` modules are wrapped by rebinding every
module-namespace name that refers to them (``gpchannel.cli.gp_capacity_dm``,
``gpchannel.region.minimize``, ...) and restored afterwards; no source
under ``src/`` changes. Spans (name, start, end, parent, job) are kept
in compact in-memory arrays and written once, at the end. Self time is
accumulated as each span closes: its duration minus the time covered by
its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

PACKAGE = "gpchannel"


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per closed span, in closing order; ``span_id`` is the
        # opening order and ``parent`` refers to it
        self.span_id = array("i")
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self._self_time: list[float] = []
        self._calls: list[int] = []
        self.counters: dict[str, float] = {}
        # per-job results the hooks keep for the output checks
        self.per_job: dict[int, dict] = {}
        self.current_job = -1
        self._opened = 0
        # open spans: [span id, time covered by children]
        self._stack: list[list] = []
        self._bindings: list[tuple] = []

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._self_time.append(0.0)
            self._calls.append(0)
        return self._ids[name]

    @property
    def self_time(self) -> dict[str, float]:
        return dict(zip(self.names, self._self_time))

    @property
    def calls(self) -> dict[str, int]:
        return dict(zip(self.names, self._calls))

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _timed(self, i: int, fn, args, kwargs):
        """Call fn(*args, **kwargs) inside one span of name id ``i``."""
        stack = self._stack
        frame = [self._opened, 0.0]
        self._opened += 1
        parent = stack[-1][0] if stack else -1
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            duration = t1 - t0
            self._self_time[i] += duration - frame[1]
            self._calls[i] += 1
            if stack:
                stack[-1][1] += duration
            self.span_id.append(frame[0])
            self.name_id.append(i)
            self.start.append(t0)
            self.end.append(t1)
            self.parent.append(parent)
            self.job.append(self.current_job)

    def run(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` recorded as one span named ``name``."""
        return self._timed(self._name(name), fn, args, kwargs)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording a span per call; ``on_result(rec, args, kwargs, result)``
        adds counters from the call."""
        i = self._name(name)
        timed = self._timed

        def traced(*args, **kwargs):
            result = timed(i, fn, args, kwargs)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets) -> None:
        """Rebind each target function in every ``gpchannel`` module namespace.

        ``targets`` holds (span name, module, attribute, on_result). Every
        name bound to the same function object in any loaded module of the
        package is replaced, so calls through ``from .x import f`` copies
        are traced as well as attribute calls.
        """
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for span_name, module, attr, on_result in targets:
            original = getattr(module, attr)
            wrapper = self.wrap(span_name, original, on_result)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._bindings.append((mod, key, original))

    def restore(self) -> None:
        while self._bindings:
            mod, key, original = self._bindings.pop()
            setattr(mod, key, original)

    @contextmanager
    def installed(self, targets):
        try:
            self.install(targets)
            yield self
        finally:
            self.restore()

    def write(self, path: Path) -> None:
        """All spans in one compressed file: times relative to the first span."""
        t0 = min(self.start, default=0.0)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            span_id=np.frombuffer(self.span_id, dtype=np.int32),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64) - t0,
            end=np.frombuffer(self.end, dtype=np.float64) - t0,
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
        )
