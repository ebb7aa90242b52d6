"""The benchmark's four workloads, driven through the library's public API.

Every workload runs the configuration the ``delirium`` CLI runs by
default: the full pass set (:data:`FULL_PASS_ORDER`, imported so that a
pass added or deleted later is measured without editing this file),
batched firing, ``data`` affinity on the process executor, and static
operator costs with no calibration table and no compile cache.

One operation ("op") is timed next to an engine-free plain-Python
reference on the same input.  The two alternate which goes first, and
each op's output must equal the reference's.  All four workloads are
closed loops with one client in one process.

* ``queens`` -- paper section 3, n=7, on the sequential executor.  One op
  is one solve: 28,240 firings of trivial operators, so the engine,
  scheduler and activation layers do nearly all the work.  No seed.
* ``retina`` -- paper section 5, V2 at 256x256, kernel 13, 4 iterations,
  on a persistent two-worker process executor.  The data-movement
  workload: encode, shared memory, IPC and batching dominate.  The seed
  places the targets.
* ``montecarlo`` -- pi from 16 batches of 200k samples on two threads.
  Coarse NumPy batches that release the GIL; engine, IPC and stream are
  idle.  The seed feeds the samples.
* ``logstream`` -- the log-analytics carry-mode stream on the sequential
  executor: 64-record batches into a JSON-lines sink, a checkpoint every
  300 firings (50 items).  One op is one item, timed from the source's
  ``next()`` return to its next call, so sink appends and checkpoint
  writes count and batch generation does not.  The seed feeds the
  batches.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

from repro import (
    ProcessExecutor,
    SequentialExecutor,
    ThreadedExecutor,
    compile_source,
)
from repro.apps import loganalytics, montecarlo, queens
from repro.apps.loganalytics import model as logmodel
from repro.compiler.passes.pipeline import FULL_PASS_ORDER
from repro.runtime.stream import END, JsonlSink

from tracing import TimedSink, Tracer, covered

#: Worker count for the threaded and process executors (a 2-CPU host).
N_WORKERS = 2

QUEENS_N = 7
RETINA_SIZE = dict(height=256, width=256, kernel_size=13, num_iter=4)
MC_BATCHES = 16
MC_BATCH_SIZE = 200_000
LOG_BATCH_SIZE = 64
CHECKPOINT_EVERY = 300

#: A program with one trivial operator: what a run costs with no work.
EMPTY_PROGRAM = "main(x) add(x, 1)"


@dataclass
class Budget:
    """When a segment of ops stops: a wall-clock deadline or an op count."""

    seconds: float | None = None
    max_ops: int | None = None
    deadline: float = 0.0

    def start(self) -> "Budget":
        if self.seconds is not None:
            self.deadline = time.perf_counter() + self.seconds
        return self

    def done(self, n_ops: int) -> bool:
        if self.max_ops is not None and n_ops >= self.max_ops:
            return True
        return self.seconds is not None and time.perf_counter() >= self.deadline


@dataclass
class OpRecord:
    """One op: its wall seconds, its reference's, and whether they agree.

    ``layers`` holds the traced op's per-layer seconds and counts.
    """

    wall: float
    ref: float
    ok: bool
    layers: dict[str, Any] | None = None


@dataclass
class Segment:
    """The ops of one uninterrupted stretch, plus summed engine counters."""

    records: list[OpRecord] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    source_us: list[float] = field(default_factory=list)
    #: Ops that raised before their window closed (a failed stream run).
    errors: int = 0


@dataclass
class SetupRecord:
    """One setup: compile, executor start and first (cold) op, timed."""

    total_s: float
    compile_s: float
    first_op_s: float
    pass_seconds: dict[str, float]
    graph_nodes: int
    fused_nodes: int
    ok: bool


@dataclass
class Session:
    """A compiled program and the warm executor (or stream runner) for it."""

    compiled: Any
    executor: Any

    def close(self) -> None:
        close = getattr(self.executor, "close", None)
        if close is not None:
            close()


def add_counters(into: dict[str, float], stats: Any) -> None:
    """Sum a run's numeric engine counters into ``into``."""
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, (int, float)):
            into[f.name] = into.get(f.name, 0) + value


def op_layers(children: list[tuple], start: float, end: float) -> dict[str, Any]:
    """Per-layer seconds and counts of one traced op from its child spans."""
    body = [s[2] - s[1] for s in children if s[0].startswith("operators.")]
    remote = [s[2] - s[1] for s in children if s[0] == "workers.remote"]
    return {
        "body": sum(body),
        "calls": len(body),
        "remote": sum(remote),
        "self": (end - start) - covered(children, start, end),
        "append": [s[2] - s[1] for s in children if s[0] == "stream.sink.append"],
    }


_FAILED = object()


def _fail(what: str) -> None:
    print(f"perfbench: {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Workload:
    """One workload: its program, executor, reference and equality check."""

    name = ""
    #: The executor ships operator bodies to worker processes.
    remote = False
    #: One op is one stream item rather than one program run.
    stream = False
    #: Modules holding the reference; their source is hashed into results.
    reference_modules: tuple[str, ...] = ()
    #: Reference calls per op.  A reference far shorter than its op is
    #: repeated, so that it samples the host's speed over a window
    #: comparable to the op's rather than over a few milliseconds.
    ref_repeats = 1

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    # -- per-workload parts ---------------------------------------------
    def program(self) -> tuple[str, Any, dict[str, Any]]:
        """Source, operator registry and extra ``compile_source`` options."""
        raise NotImplementedError

    def make_executor(self, bus: Any = None) -> Any:
        raise NotImplementedError

    def args(self) -> tuple:
        return ()

    def reference(self) -> Any:
        raise NotImplementedError

    def same(self, got: Any, want: Any) -> bool:
        return got == want

    def reference_source(self) -> str:
        return "".join(
            inspect.getsource(importlib.import_module(m))
            for m in self.reference_modules
        )

    # -- shared ----------------------------------------------------------
    def compile(
        self, passes: tuple[str, ...] = FULL_PASS_ORDER, wrap: Any = None
    ) -> Any:
        source, registry, options = self.program()
        if wrap is not None:
            registry = wrap(registry)
        return compile_source(
            source, registry=registry, optimize_passes=passes, **options
        )

    def start(self, compiled: Any, bus: Any = None) -> Session:
        return Session(compiled, self.make_executor(bus))

    def first_op(self, session: Session) -> Any:
        """Run the first op; returns its value."""
        graph, registry = session.compiled.graph, session.compiled.registry
        return session.executor.run(graph, self.args(), registry).value

    def setup(
        self,
        passes: tuple[str, ...] = FULL_PASS_ORDER,
        tracer: Tracer | None = None,
        wrap: Any = None,
        bus: Any = None,
    ) -> tuple[Session, SetupRecord]:
        """Compile, start the executor, run the first (cold) op."""
        span = tracer.open_op("setup", -1) if tracer is not None else -1
        t0 = time.perf_counter()
        compiled = self.compile(passes, wrap)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.add("compiler.compile", t0, t1)
        session = self.start(compiled, bus)
        try:
            value = self.first_op(session)
        except Exception:
            _fail(f"{self.name} first op")
            value = _FAILED
        t2 = time.perf_counter()
        if tracer is not None:
            tracer.close_op(span, t2)
            tracer.trim(span)
        ok = value is not _FAILED and self.same(value, self.reference())
        report = compiled.optimization
        return session, SetupRecord(
            total_s=t2 - t0,
            compile_s=t1 - t0,
            first_op_s=t2 - t1,
            pass_seconds=dict(compiled.pass_seconds),
            graph_nodes=compiled.graph.total_nodes(),
            fused_nodes=report.stats.get("fuse.chains_fused", 0) if report else 0,
            ok=ok,
        )

    def _timed_reference(self, tracer: Tracer | None, op: int) -> tuple[Any, float]:
        """The reference's value and its mean seconds per call."""
        t0 = time.perf_counter()
        for _ in range(self.ref_repeats):
            want = self.reference()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.add("plain.ref", t0, t1, parent=-1, op=op)
        return want, (t1 - t0) / self.ref_repeats

    def segment(
        self,
        session: Session,
        budget: Budget,
        tracer: Tracer | None = None,
        first: int = 0,
    ) -> Segment:
        """Run ops, each paired with its reference, until the budget ends.

        ``first`` numbers the ops, and so sets which of each pair goes
        first: the reference on odd ops, the op on even ones.
        """
        seg = Segment()
        budget.start()
        graph, registry = session.compiled.graph, session.compiled.registry
        args = self.args()
        run = session.executor.run
        i = first
        while not budget.done(i - first):
            ref_first = i % 2 == 1
            if ref_first:
                want, ref_s = self._timed_reference(tracer, i)
            span = tracer.open_op("executors.run", i) if tracer is not None else -1
            t0 = time.perf_counter()
            try:
                result = run(graph, args, registry)
            except Exception:
                _fail(f"{self.name} op {i}")
                result = None
            t1 = time.perf_counter()
            layers = None
            if tracer is not None:
                layers = op_layers(tracer.close_op(span, t1), t0, t1)
                tracer.trim(span)
            if not ref_first:
                want, ref_s = self._timed_reference(tracer, i)
            ok = result is not None and self.same(result.value, want)
            if result is not None:
                add_counters(seg.counters, result.stats)
            seg.records.append(OpRecord(t1 - t0, ref_s, ok, layers))
            i += 1
        return seg

    def empty_run(self) -> tuple[float, float]:
        """Seconds of the first and the median warm run of a trivial program.

        Runs on a fresh executor configured like the workload's own.
        """
        compiled = compile_source(EMPTY_PROGRAM, optimize_passes=FULL_PASS_ORDER)
        graph, registry = compiled.graph, compiled.registry
        executor = self.make_executor()
        try:
            t0 = time.perf_counter()
            executor.run(graph, (1,), registry)
            first = time.perf_counter() - t0
            for _ in range(20):
                executor.run(graph, (1,), registry)
            times = []
            for _ in range(200):
                t0 = time.perf_counter()
                executor.run(graph, (1,), registry)
                times.append(time.perf_counter() - t0)
        finally:
            close = getattr(executor, "close", None)
            if close is not None:
                close()
        times.sort()
        return first, times[len(times) // 2]


class Queens(Workload):
    name = "queens"
    ref_repeats = 16
    reference_modules = ("repro.apps.queens.sequential",)

    def program(self):
        return queens.queens_source(QUEENS_N), queens.make_registry(QUEENS_N), {}

    def make_executor(self, bus=None):
        return SequentialExecutor(batch=True, bus=bus)

    def reference(self):
        return queens.solve_sequential(QUEENS_N)


class Retina(Workload):
    name = "retina"
    remote = True
    reference_modules = ("repro.apps.retina.sequential", "repro.apps.retina.model")

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        # Imported here, not at the top: SciPy doubles the objects every
        # full garbage collection walks, which would lengthen the GC
        # pauses of the workloads that never use it.
        from repro.apps import retina

        self.app = retina
        self.config = retina.RetinaConfig(seed=seed, **RETINA_SIZE)

    def program(self):
        cfg = self.config
        defines = {
            "NUM_ITER": cfg.num_iter,
            "START_SLAB": cfg.start_slab,
            "FINAL_SLAB": cfg.final_slab,
        }
        return self.app.RETINA_V2, self.app.make_registry(cfg), {"defines": defines}

    def make_executor(self, bus=None):
        return ProcessExecutor(
            N_WORKERS, persistent=True, batch=True, affinity="data", bus=bus
        )

    def reference(self):
        return self.app.run_sequential(self.config)

    def same(self, got, want):
        return got.signature() == want.signature()


class MonteCarlo(Workload):
    name = "montecarlo"
    reference_modules = ("repro.apps.montecarlo.model",)

    def program(self):
        registry = montecarlo.make_registry(seed=self.seed, batch_size=MC_BATCH_SIZE)
        return montecarlo.PI_PROGRAM, registry, {"prelude": True}

    def make_executor(self, bus=None):
        return ThreadedExecutor(N_WORKERS, batch=True, bus=bus)

    def args(self):
        return (MC_BATCHES,)

    def reference(self):
        return montecarlo.pi_sequential(self.seed, MC_BATCHES, MC_BATCH_SIZE)


def log_fold(agg: dict, batch: list) -> tuple[dict, dict]:
    """The reference for one stream item: shard, aggregate, merge, emit.

    The same shard decomposition and merge order as the program, so the
    emitted row and the carried aggregate must be equal, not close.
    """
    shards = logmodel.shard_batch(batch)
    partial = logmodel.shard_stats(shards[0])
    for shard in shards[1:]:
        partial = logmodel.merge_stats(partial, logmodel.shard_stats(shard))
    partial["batches"] = 1
    agg = logmodel.merge_stats(agg, partial)
    return agg, logmodel.stats_row(agg)


class LogSource:
    """The benchmark-owned stream source; it also times each item.

    An item's window runs from this source's ``next()`` return to its next
    call.  The reference fold runs inside ``next()``: before the item on
    even items, after it (at the following call) on odd ones.
    """

    def __init__(self, seed: int, budget: Budget, tracer: Tracer | None) -> None:
        self.seed = seed
        self.budget = budget
        self.tracer = tracer
        self.offset = 0
        self.agg = logmodel.empty_stats()
        self.rows: list[dict] = []
        self.ref_s: list[float] = []
        self.walls: list[float] = []
        self.layers: list[dict] = []
        self.source_us: list[float] = []
        self._opened: float | None = None
        self._item_span = -1
        self._deferred: list | None = None

    def _fold(self, batch: list, parent: int, op: int) -> float:
        t0 = time.perf_counter()
        self.agg, row = log_fold(self.agg, batch)
        t1 = time.perf_counter()
        self.rows.append(row)
        self.ref_s.append(t1 - t0)
        if self.tracer is not None:
            self.tracer.add("plain.ref", t0, t1, parent=parent, op=op)
        return t1 - t0

    def next(self) -> Any:
        t_call = time.perf_counter()
        tracer = self.tracer
        if self._opened is not None:
            self.walls.append(t_call - self._opened)
            if tracer is not None:
                children = tracer.close_op(self._item_span, t_call)
                self.layers.append(op_layers(children, self._opened, t_call))
                tracer.trim(self._item_span)
            self._opened = None
        span = (
            tracer.begin("stream.source.next", self.offset, at=t_call)
            if tracer is not None
            else -1
        )
        ref_s = 0.0
        if self._deferred is not None:
            ref_s += self._fold(self._deferred, span, self.offset - 1)
            self._deferred = None
        if self.budget.done(len(self.walls)):
            if tracer is not None:
                tracer.end(span)
            return END
        batch = logmodel.make_batch(self.seed, self.offset, LOG_BATCH_SIZE)
        if self.offset % 2 == 0:
            ref_s += self._fold(batch, span, self.offset)
        else:
            self._deferred = batch
        self.offset += 1
        if tracer is not None:
            end = tracer.end(span)
            self.source_us.append((end - t_call - ref_s) * 1e6)
            self._item_span = tracer.open_op("stream.item", self.offset - 1)
        self._opened = time.perf_counter()
        return batch


class LogStream(Workload):
    name = "logstream"
    stream = True
    reference_modules = ("repro.apps.loganalytics.model",)

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self._segments = 0

    def program(self):
        return loganalytics.LOG_PROGRAM, loganalytics.make_registry(), {}

    def make_executor(self, bus=None):
        return SequentialExecutor(batch=True, bus=bus)

    def reference_source(self):
        return super().reference_source() + inspect.getsource(log_fold)

    def start(self, compiled, bus=None):
        runner = loganalytics.make_stream_runner(
            compiled=compiled,
            checkpoint_path=os.path.join(self.workdir, "stream.ckpt"),
            checkpoint_every=CHECKPOINT_EVERY,
            executor_options={"batch": True},
            bus=bus,
        )
        return Session(compiled, runner)

    def first_op(self, session):
        batch = logmodel.make_batch(self.seed, 0, LOG_BATCH_SIZE)
        compiled = session.compiled
        return session.executor.executor.run(
            compiled.graph, (logmodel.empty_stats(), batch), compiled.registry
        ).value

    def reference(self):
        """The carry after item 0 (the first op); stream items check rows."""
        batch = logmodel.make_batch(self.seed, 0, LOG_BATCH_SIZE)
        return log_fold(logmodel.empty_stats(), batch)[0]

    def segment(self, session, budget, tracer=None, first=0):
        """One stream run from item 0 until the budget ends.

        Items are numbered from 0 in every run, so ``first`` is unused.
        """
        self._segments += 1
        path = os.path.join(self.workdir, f"rows-{self._segments}.jsonl")
        source = LogSource(self.seed, budget.start(), tracer)
        sink: Any = JsonlSink(path)
        if tracer is not None:
            sink = TimedSink(sink, tracer)
        result = None
        try:
            result = session.executor.run(source, sink)
        except Exception:
            _fail(f"{self.name} stream")
        finally:
            sink.close()
        with open(path, encoding="utf-8") as fh:
            emitted = [json.loads(line) for line in fh]
        os.unlink(path)
        seg = Segment(
            counters=dict(result.stats) if result else {},
            source_us=source.source_us,
            errors=0 if result else 1,
        )
        for i, wall in enumerate(source.walls):
            ok = i < len(emitted) and emitted[i] == source.rows[i]
            layers = source.layers[i] if tracer is not None else None
            seg.records.append(OpRecord(wall, source.ref_s[i], ok, layers))
        if seg.records and (result is None or result.value != source.agg):
            seg.records[-1].ok = False
        return seg


WORKLOADS = {w.name: w for w in (Queens, Retina, MonteCarlo, LogStream)}
