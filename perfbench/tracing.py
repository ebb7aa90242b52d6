"""Spans recorded from the benchmark's own files, and what they add up to.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (``-1`` for none) and ``op`` the id of the operation it
belongs to.  Spans stay in memory and are written out once, at the end of
a run.  Operator spans are recorded by wrapping each operator function
before compilation (:func:`wrap_registry`), so a fused chain or a batch
form still reports its member calls; bodies that run in a worker process
are not recorded there, and reach the master only as the worker-side
durations of :class:`~repro.obs.events.ResultReceived` events.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
from typing import Any

from repro import OperatorRegistry
from repro.obs.events import CheckpointWritten, EventBus, ResultReceived

#: Operator spans kept for the span file, over the whole run.  Spans past
#: the budget still count in every metric; only their records are dropped.
SPAN_BUDGET = 50_000


class Tracer:
    """In-memory span recorder shared by every layer the benchmark calls."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.op = -1
        self.parent = -1
        self.dropped = 0
        #: Disabled in forked workers: their spans would never reach here.
        self.enabled = True
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def add(
        self, name: str, start: float, end: float, parent: int = -2, op: int = -2
    ) -> None:
        """Record a finished span; ``-2`` means the current op and op span."""
        self.spans.append(
            (
                name,
                start,
                end,
                self.parent if parent == -2 else parent,
                self.op if op == -2 else op,
            )
        )

    def begin(
        self, name: str, op: int, parent: int = -1, at: float | None = None
    ) -> int:
        """Start a span (now, or at ``at``); returns its index for :meth:`end`."""
        start = time.perf_counter() if at is None else at
        self.spans.append((name, start, 0.0, parent, op))
        return len(self.spans) - 1

    def end(self, index: int, at: float | None = None) -> float:
        """End the span at ``index`` (now, or at ``at``); returns the end."""
        end = time.perf_counter() if at is None else at
        name, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, end, parent, op)
        return end

    def open_op(self, name: str, op: int) -> int:
        """Start an op's span; spans recorded until it closes are children."""
        self.op = op
        self.parent = self.begin(name, op)
        return self.parent

    def close_op(self, index: int, at: float | None = None) -> list[tuple]:
        """End the op span at ``index``; returns its child spans."""
        self.end(index, at)
        self.parent = -1
        self.op = -1
        return [s for s in self.spans[index + 1 :] if s[3] == index]

    def trim(self, index: int) -> None:
        """Past the budget, drop the operator spans of op span ``index``."""
        if len(self.spans) <= SPAN_BUDGET:
            return
        tail = self.spans[index + 1 :]
        kept = [s for s in tail if not s[0].startswith("operators.")]
        self.dropped += len(tail) - len(kept)
        del self.spans[index + 1 :]
        self.spans.extend(kept)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "dropped_operator_spans": self.dropped,
                    "spans": self.spans,
                },
                fh,
            )


def _timed(fn: Any, label: str, tracer: Tracer) -> Any:
    @functools.wraps(fn)
    def timed(*args: Any, **kwargs: Any) -> Any:
        if not tracer.enabled:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add(label, t0, time.perf_counter())

    return timed


def wrap_registry(registry: OperatorRegistry, tracer: Tracer) -> OperatorRegistry:
    """A copy of ``registry`` whose operator bodies record spans.

    Every spec field (purity, ``modifies``, cost hint, arity, batch form)
    is kept, so the compiler and the dispatch policy see the same program.
    """
    specs = []
    for spec in registry:
        label = f"operators.{spec.name}"
        specs.append(
            dataclasses.replace(
                spec,
                fn=_timed(spec.fn, label, tracer),
                batch_fn=(
                    None
                    if spec.batch_fn is None
                    else _timed(spec.batch_fn, label, tracer)
                ),
            )
        )
    return OperatorRegistry(specs)


def layer_bus(tracer: Tracer, checkpoints: list) -> EventBus:
    """A bus turning worker results and checkpoint writes into spans.

    Worker-side operator time arrives as a duration ending at the commit;
    checkpoint writes arrive with their wall seconds and size.
    """
    bus = EventBus()

    def on_event(event: Any) -> None:
        now = time.perf_counter()
        if isinstance(event, ResultReceived):
            tracer.add("workers.remote", now - event.duration, now)
        else:
            tracer.add("checkpoint.write", now - event.seconds, now)
            checkpoints.append((event.seconds, event.nbytes))

    bus.subscribe(on_event, (ResultReceived, CheckpointWritten))
    return bus


class TimedSink:
    """Wraps a stream sink; ``append`` and ``flush`` record spans."""

    def __init__(self, sink: Any, tracer: Tracer) -> None:
        self._sink = sink
        self._tracer = tracer

    def append(self, item: Any) -> None:
        t0 = time.perf_counter()
        self._sink.append(item)
        self._tracer.add("stream.sink.append", t0, time.perf_counter())

    def flush(self) -> None:
        t0 = time.perf_counter()
        self._sink.flush()
        self._tracer.add("stream.sink.flush", t0, time.perf_counter())

    def __getattr__(self, name: str) -> Any:
        return getattr(self._sink, name)


def covered(spans: list[tuple], start: float, end: float) -> float:
    """Seconds of ``[start, end]`` covered by the union of ``spans``."""
    total = 0.0
    reach = start
    for _, s0, s1, _, _ in sorted(spans, key=lambda s: s[1]):
        s0 = max(s0, reach)
        s1 = min(s1, end)
        if s1 > s0:
            total += s1 - s0
            reach = s1
    return total
