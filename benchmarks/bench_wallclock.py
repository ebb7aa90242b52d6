"""Real wall-clock speedup: retina + montecarlo on the real executors.

Every other benchmark in this directory reproduces the paper's *simulated*
evaluation; this one is the real entry in the perf trajectory.  Two
workloads:

**Retina** (v2, the balanced decomposition of section 5.2) at a
production-ish size:

* sequential, unfused — the PR 2 configuration, for continuity;
* sequential, fused — the operator-fusion + fast-path configuration;
* sequential, fused + donated — the zero-copy memory path (last-use
  donation + buffer pooling), which must avoid copies without changing a
  bit of the result, and must keep the master-overhead fraction below
  the 0.10 target;
* ProcessExecutor at 1/2/4 workers on the fused+donated graph,
  with the dispatch policy calibrated from measured per-operator wall
  costs (:func:`repro.machine.calibrate_dispatch_cached`, served from
  the persisted per-machine table when one exists) so sub-IPC-cost
  operators never cross the process boundary.  The calibration decision
  is committed alongside the timings.

**Monte-Carlo π** (section 9.2 prelude, ``par_reduce``): the
coarse-grained counterpart — a few hundred-millisecond batches whose
static cost hints clear the dispatch bar, the shape the process executor
exists for.  The process rows run with batched execution on (the
default) plus one explicit unbatched 1-worker row, and each row records
its IPC accounting (``ipc_messages``, ``ipc_per_fire``) — the batching
PR is judged on the 1-worker pair: wall clock down >= 25% on the
committed baseline and IPC messages per dispatched fire down >= 4x.
Parallel *speedup* expectations are gated on ``cpu_count > 1``; the IPC
drop needs no second CPU and is asserted everywhere, as is batched <=
unbatched.  The absolute >= 25% gate is additionally regime-checked: the
shared host throttles in phases (exactly 2x on the pure NumPy kernel),
so it only fires when the run's own sequential time is within
``MC_REGIME_TOLERANCE`` of the committed sequential baseline.

For each sequential configuration an instrumented pass (the engine's
``profile_ops`` probe — two bare clock reads per operator firing) splits
the wall clock into *operator body time* and *master overhead* (engine
dispatch: readiness bookkeeping, queue traffic, value wrapping), and a
separate memory pass (``BlockAllocated`` subscriber under
``observe_blocks``) counts allocations and copies — the per-phase
breakdown that shows what fusion, the fast path, and donation actually
buy.

Results always go to ``BENCH_wallclock.json`` next to the repository root
(the committed perf record, one top-level key per workload, with host CPU
count so entries from different machines stay interpretable), and
additionally to ``--bench-json FILE`` when given.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.apps.montecarlo.coordination import compile_pi
from repro.apps.retina import RetinaConfig, compile_retina
from repro.machine import calibrate_dispatch_cached
from repro.obs import (
    BlockAllocated,
    EventBus,
    RunContext,
    observe_blocks,
)
from repro.obs.critpath import RECONCILIATION_TOLERANCE
from repro.runtime import ProcessExecutor, SequentialExecutor

#: >= the 128x128 floor from the acceptance criteria; kernel and
#: iteration count sized so operator compute dominates dispatch overhead.
CONFIG = RetinaConfig(height=256, width=256, kernel_size=13, num_iter=4)
WORKER_COUNTS = (1, 2, 4)
REPEATS = 2

#: The phase split divides a ~4 ms overhead by a ~40 ms wall clock, so a
#: single noisy repeat moves the fraction by whole points; the
#: instrumented probe is cheap (sequential, no subscribers), so it earns
#: a deeper best-of than the headline timings.
PROBE_REPEATS = 9

#: Monte-Carlo shape: batches big enough that one batch (~10 ms) dwarfs
#: an IPC round trip, few enough that the benchmark stays quick.
MC_BATCHES = 16
MC_BATCH_SIZE = 200_000

#: The batching PR's baselines: the previously committed process
#: 1-worker wall clock for this workload, which the batched path must
#: beat by >= MC_BATCH_IMPROVEMENT, and the minimum factor by which IPC
#: messages per dispatched fire must drop.
MC_BASELINE_PROCESS1_SECONDS = 0.05075
MC_BATCH_IMPROVEMENT = 0.25
MC_IPC_DROP_FACTOR = 4.0

#: The committed *sequential* seconds for the same workload, used as a
#: host-regime probe: the absolute wall-clock assertion compares this
#: run's numbers against a baseline recorded on the same host in its
#: normal regime, and the shared CI host visibly throttles in phases
#: (the pure NumPy kernel slows by exactly 2x with load average ~0).  A
#: throttled run can still prove the *relative* wins — the IPC drop and
#: batched <= unbatched — so those are asserted unconditionally, and the
#: absolute >= 25% gate is skipped when the run's own sequential time
#: shows the host outside MC_REGIME_TOLERANCE of the committed regime.
MC_BASELINE_SEQUENTIAL_SECONDS = 0.03558
MC_REGIME_TOLERANCE = 1.25

#: The headline batched row earns a deeper best-of than the survey rows:
#: it carries the acceptance assertion, and a 1-CPU host's scheduler can
#: inflate (never deflate) any single repeat.
MC_HEADLINE_REPEATS = 7

#: PR 2's committed sequential seconds for this workload; the fused
#: configuration must beat it by >= 20% (ISSUE 3 acceptance).
PR2_SEQUENTIAL_SECONDS = 0.3596

#: PR 3's committed master-overhead fraction for the fused sequential
#: retina; the zero-copy path must land strictly below it.
PR3_OVERHEAD_FRACTION = 0.211

#: The fused+donated configuration's target: the master-overhead share of
#: the instrumented wall clock must land strictly below one tenth.
OVERHEAD_TARGET = 0.10

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_wallclock.json"


@pytest.fixture(scope="module")
def compiled():
    return compile_retina(2, CONFIG)


@pytest.fixture(scope="module")
def compiled_fused():
    return compile_retina(2, CONFIG, fuse=True)


@pytest.fixture(scope="module")
def compiled_donated():
    return compile_retina(2, CONFIG, fuse=True, donate=True)


def _best_of(fn, repeats=REPEATS):
    best = None
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, value


def _record(key: str, entry) -> None:
    """Merge one workload's entry into the committed result file."""
    data = {}
    if RESULT_PATH.exists():
        try:
            data = json.loads(RESULT_PATH.read_text(encoding="utf-8"))
        except ValueError:
            data = {}
    data[key] = entry
    RESULT_PATH.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _sequential_entry(compiled, args=()):
    """Best-of wall clock plus instrumented phase + memory breakdowns."""
    graph, registry = compiled.graph, compiled.registry
    seconds, result = _best_of(
        lambda: SequentialExecutor().run(graph, args=args, registry=registry)
    )

    # Phase split: best-of instrumented runs, keeping the split from the
    # fastest one so a scheduler hiccup cannot inflate the overhead share.
    # Uses the engine's native probe (``profile_ops``: two bare clock
    # reads around each operator body, accumulated in
    # ``stats.op_body_seconds``) rather than an ``OpFinished`` subscriber:
    # per-firing event objects cost microseconds each, which the split
    # would misattribute to master overhead — the same reasoning that
    # keeps the block hook out of the timed pass below.
    instrumented = None
    body = 0.0
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        probe = SequentialExecutor(profile_ops=True).run(
            graph, args=args, registry=registry
        )
        elapsed = time.perf_counter() - t0
        if instrumented is None or elapsed < instrumented:
            instrumented = elapsed
            body = probe.stats.op_body_seconds

    # Allocation census: a separate untimed pass, because the block hook
    # also streams retain/release traffic the timed split must not pay.
    allocated = 0
    allocated_bytes = 0

    def on_allocated(e):
        nonlocal allocated, allocated_bytes
        allocated += 1
        allocated_bytes += e.nbytes

    alloc_bus = EventBus()
    alloc_bus.subscribe(on_allocated, (BlockAllocated,))
    with observe_blocks(alloc_bus):
        SequentialExecutor(bus=alloc_bus).run(
            graph, args=args, registry=registry
        )

    overhead = max(instrumented - body, 0.0)
    stats = result.stats
    entry = {
        "seconds": seconds,
        "tasks_fired": stats.tasks_fired,
        "ops_executed": stats.ops_executed,
        "fused_fires": stats.fused_fires,
        "fused_ops_saved": stats.fused_ops_saved,
        "phase": {
            "instrumented_seconds": instrumented,
            "operator_body_seconds": body,
            "master_overhead_seconds": overhead,
            "master_overhead_fraction": overhead / instrumented,
        },
        "memory": {
            "blocks_allocated": allocated,
            "blocks_allocated_bytes": allocated_bytes,
            "cow_copies": stats.cow_copies,
            "in_place_writes": stats.in_place_writes,
            "copies_avoided": stats.copies_avoided,
            "bytes_copy_avoided": stats.bytes_copy_avoided,
            "donation_misses": stats.donation_misses,
            "buffers_recycled": stats.buffers_recycled,
            "buffer_bytes_recycled": stats.buffer_bytes_recycled,
        },
    }
    return entry, result


def _policy_entry(calibration, extra_dispatch=()):
    """The dispatch decision the calibrated policy implies, for the record."""
    return {
        "source": "measured per-operator wall seconds (calibrate_dispatch)",
        "min_dispatch_seconds": calibration.min_dispatch_seconds,
        "dispatch": sorted(
            set(calibration.dispatch) | set(extra_dispatch)
        ),
        "keep_local": calibration.keep_local,
    }


def test_wallclock_speedup(
    compiled, compiled_fused, compiled_donated, report, bench_json,
):
    unfused_entry, unfused_result = _sequential_entry(compiled)
    fused_entry, fused_result = _sequential_entry(compiled_fused)
    donated_entry, donated_result = _sequential_entry(compiled_donated)
    reference = unfused_result.value.signature()
    assert fused_result.value.signature() == reference, (
        "fused sequential run diverged from unfused"
    )
    assert donated_result.value.signature() == reference, (
        "fused+donated sequential run diverged from unfused"
    )
    assert fused_entry["tasks_fired"] < unfused_entry["tasks_fired"], (
        "fusion must fire strictly fewer engine tasks"
    )
    assert donated_entry["memory"]["copies_avoided"] > 0, (
        "donation must discharge at least one copy on the retina pipeline"
    )
    assert donated_entry["memory"]["donation_misses"] == 0, (
        "every donated retina edge should be unique at fire time"
    )

    def phase_row(label, e):
        p = e["phase"]
        m = e["memory"]
        return (
            f"{label:<22} {e['seconds']:>9.3f} "
            f"{p['operator_body_seconds']:>9.3f} "
            f"{p['master_overhead_seconds']:>9.3f} "
            f"{e['tasks_fired']:>7d} {m['blocks_allocated']:>7d} "
            f"{m['copies_avoided']:>7d}"
        )

    rows = [
        f"retina v2 {CONFIG.height}x{CONFIG.width}, "
        f"kernel {CONFIG.kernel_size}, {CONFIG.num_iter} iteration(s); "
        f"host cpus: {os.cpu_count()}",
        "",
        f"{'configuration':<22} {'seconds':>9} {'op body':>9} "
        f"{'overhead':>9} {'fires':>7} {'allocs':>7} {'avoided':>7}",
        phase_row("sequential unfused", unfused_entry),
        phase_row("sequential fused", fused_entry),
        phase_row("fused + donated", donated_entry),
    ]
    entry = {
        "workload": {
            "app": "retina-v2",
            "height": CONFIG.height,
            "width": CONFIG.width,
            "kernel_size": CONFIG.kernel_size,
            "num_iter": CONFIG.num_iter,
        },
        "cpu_count": os.cpu_count(),
        "repeats": REPEATS,
        "baseline_pr2_sequential_seconds": PR2_SEQUENTIAL_SECONDS,
        "baseline_pr3_overhead_fraction": PR3_OVERHEAD_FRACTION,
        "overhead_target": OVERHEAD_TARGET,
        "sequential_seconds": donated_entry["seconds"],
        "unfused": unfused_entry,
        "fused": fused_entry,
        "donated": donated_entry,
        "process": {},
    }

    graph, registry = compiled_donated.graph, compiled_donated.registry
    calibration = calibrate_dispatch_cached(graph, registry)
    entry["process"]["policy"] = _policy_entry(calibration)
    donated_seconds = donated_entry["seconds"]
    for workers in WORKER_COUNTS:
        seconds, result = _best_of(
            lambda w=workers: ProcessExecutor(
                w, measured_costs=calibration.seconds_by_operator
            ).run(graph, registry=registry)
        )
        assert result.value.signature() == reference, (
            f"ProcessExecutor({workers}) diverged from sequential"
        )
        speedup = donated_seconds / seconds
        entry["process"][str(workers)] = {
            "seconds": seconds,
            "speedup": speedup,
        }
        rows.append(
            f"{f'process workers={workers}':<22} {seconds:>9.3f} "
            f"{'':>9} {'':>9} {'':>7} {'':>7} {'':>7}  {speedup:>6.2f}x"
        )

    # Causal profile: one fully-recorded pass over the donated graph.
    # The critical-path report must explain the wall clock it was
    # measured against (attribution reconciles within the tolerance) —
    # the cross-check that keeps the profiler honest on a real workload.
    ctx = RunContext(
        "bench-retina", record_events=True, flight_recorder=False,
        metrics=False,
    )
    t0 = time.perf_counter()
    SequentialExecutor(run_ctx=ctx).run(graph, registry=registry)
    profiled_wall = time.perf_counter() - t0
    critpath = ctx.critical_path(profiled_wall)
    entry["critical_path"] = critpath.to_dict()
    rows.append("")
    rows.append(
        f"critical path: {len(critpath.path)} of {critpath.n_firings} "
        f"firings, {critpath.path_seconds:.4f}s busy of "
        f"{profiled_wall:.4f}s wall (profiled pass)"
    )
    rows.append(
        f"attribution reconciles within "
        f"{critpath.reconciliation_error:.2%} of wallclock "
        f"(tolerance {RECONCILIATION_TOLERANCE:.0%})"
    )

    _record("retina_wallclock", entry)
    bench_json("retina_wallclock", entry)
    gain = 1.0 - donated_seconds / PR2_SEQUENTIAL_SECONDS
    fraction = donated_entry["phase"]["master_overhead_fraction"]
    rows.append("")
    rows.append(
        f"fused+donated sequential vs PR 2 baseline "
        f"({PR2_SEQUENTIAL_SECONDS:.4f}s): {gain:+.1%}"
    )
    rows.append(
        f"master overhead fraction: {fraction:.4f} fused+donated "
        f"(PR 3 committed: {PR3_OVERHEAD_FRACTION}, "
        f"target: {OVERHEAD_TARGET})"
    )
    rows.append(
        f"dispatch policy: {len(calibration.keep_local)} operator(s) "
        f"kept local, {len(calibration.dispatch)} dispatched"
    )
    rows.append(f"wrote {RESULT_PATH.name} (bit-identical across executors)")
    report(
        "Wall-clock — retina, unfused/fused/donated", "\n".join(rows)
    )

    assert donated_seconds <= 0.8 * PR2_SEQUENTIAL_SECONDS, (
        f"fused+donated sequential must improve >= 20% on the PR 2 "
        f"baseline ({PR2_SEQUENTIAL_SECONDS}s); got {donated_seconds:.4f}s"
    )
    assert fraction < PR3_OVERHEAD_FRACTION, (
        f"fused+donated master overhead fraction must land strictly below "
        f"the PR 3 record ({PR3_OVERHEAD_FRACTION}); got {fraction:.4f}"
    )
    assert fraction < OVERHEAD_TARGET, (
        f"fused+donated master overhead fraction must land strictly below "
        f"{OVERHEAD_TARGET}; got {fraction:.4f}"
    )
    assert critpath.reconciliation_error <= RECONCILIATION_TOLERANCE, (
        f"critical-path attribution must reconcile with wallclock within "
        f"{RECONCILIATION_TOLERANCE:.0%}; "
        f"got {critpath.reconciliation_error:.2%}"
    )

    cpus = os.cpu_count() or 1
    if cpus < 4:
        pytest.skip(
            f"host has {cpus} CPU(s); >= 1x-at-4-workers assertion needs "
            ">= 4 (results still recorded)"
        )
    assert entry["process"]["4"]["speedup"] >= 1.0, (
        "calibrated dispatch must not lose to sequential at 4 workers on "
        f"a >= 4-CPU host, got {entry['process']['4']['speedup']:.2f}x"
    )


def test_wallclock_montecarlo(report, bench_json):
    prog = compile_pi(batch_size=MC_BATCH_SIZE)
    graph, registry = prog.graph, prog.registry
    args = (MC_BATCHES,)
    seq_entry, seq_result = _sequential_entry(prog, args=args)
    reference = seq_result.value

    # The batch leaves are applied through first-class function values, so
    # the tracer cannot see them; their static cost hints
    # (batch_size x ticks_per_sample >> cost_threshold) carry the dispatch
    # decision instead, and the policy record says so.
    calibration = calibrate_dispatch_cached(graph, registry, args=args)
    policy = _policy_entry(calibration, extra_dispatch=("pi_batch",))
    policy["note"] = (
        "pi_batch dispatches on its static cost hint; prelude glue is "
        "measured and kept local"
    )

    entry = {
        "workload": {
            "app": "montecarlo-pi",
            "n_batches": MC_BATCHES,
            "batch_size": MC_BATCH_SIZE,
        },
        "cpu_count": os.cpu_count(),
        "repeats": REPEATS,
        "sequential_seconds": seq_entry["seconds"],
        "sequential": seq_entry,
        "process": {"policy": policy},
    }
    rows = [
        f"montecarlo pi, {MC_BATCHES} batches x {MC_BATCH_SIZE} samples; "
        f"host cpus: {os.cpu_count()}",
        "",
        f"{'configuration':<26} {'seconds':>9} {'ipc msgs':>9} "
        f"{'ipc/fire':>9}",
        f"{'sequential':<26} {seq_entry['seconds']:>9.3f}",
    ]

    def process_row(workers, batch, repeats=REPEATS):
        seconds, result = _best_of(
            lambda: ProcessExecutor(
                workers,
                batch=batch,
                measured_costs=calibration.seconds_by_operator,
            ).run(graph, args=args, registry=registry),
            repeats=repeats,
        )
        assert result.value == reference, (
            f"ProcessExecutor({workers}, batch={batch}) montecarlo "
            "diverged from sequential"
        )
        stats = result.stats
        messages = stats.ipc_messages_sent + stats.ipc_messages_received
        fires = max(stats.dispatched_fires, 1)
        row = {
            "seconds": seconds,
            "speedup": seq_entry["seconds"] / seconds,
            "batch": batch,
            "ipc_messages": messages,
            "ipc_messages_sent": stats.ipc_messages_sent,
            "ipc_messages_received": stats.ipc_messages_received,
            "ipc_per_fire": messages / fires,
            "dispatched_fires": stats.dispatched_fires,
            "fire_batches": stats.fire_batches,
            "batched_fires": stats.batched_fires,
        }
        label = f"process workers={workers}" + ("" if batch else " no-batch")
        rows.append(
            f"{label:<26} {seconds:>9.3f} {messages:>9d} "
            f"{row['ipc_per_fire']:>9.3f}  {row['speedup']:>6.2f}x"
        )
        return row

    # The headline pair: 1 worker with and without batching, the
    # configuration the batching acceptance is judged on (IPC savings
    # need no second CPU, so this holds on any host).
    unbatched_1 = process_row(1, batch=False, repeats=MC_HEADLINE_REPEATS)
    batched_1 = process_row(1, batch=True, repeats=MC_HEADLINE_REPEATS)
    entry["process"]["1"] = batched_1
    entry["process"]["1_unbatched"] = unbatched_1
    for workers in WORKER_COUNTS[1:]:
        entry["process"][str(workers)] = process_row(workers, batch=True)

    # The committed improvement number is subject to the same gates as
    # the assertion that enforces it: a throttled host (regime probe) or
    # a 1-CPU host measures a number the target was never about, and
    # committing it ungated reads as a regression that is not one.  The
    # raw measurement is still recorded, explicitly labelled.
    regime = seq_entry["seconds"] / MC_BASELINE_SEQUENTIAL_SECONDS
    raw_improvement = (
        1.0 - batched_1["seconds"] / MC_BASELINE_PROCESS1_SECONDS
    )
    gated = regime <= MC_REGIME_TOLERANCE
    entry["batching"] = {
        "baseline_process1_seconds": MC_BASELINE_PROCESS1_SECONDS,
        "improvement_target": MC_BATCH_IMPROVEMENT,
        "ipc_drop_factor_target": MC_IPC_DROP_FACTOR,
        "ipc_drop_factor": (
            unbatched_1["ipc_per_fire"] / batched_1["ipc_per_fire"]
        ),
        "improvement_vs_baseline": raw_improvement if gated else None,
        "improvement_vs_baseline_raw": raw_improvement,
        "improvement_gate": (
            "in-regime"
            if gated
            else (
                f"host {regime:.2f}x slower than the committed "
                f"sequential baseline (tolerance "
                f"{MC_REGIME_TOLERANCE}); absolute improvement not "
                "comparable"
            )
        ),
        "host_regime": regime,
    }
    rows.append("")
    rows.append(
        f"batched 1-worker vs committed baseline "
        f"({MC_BASELINE_PROCESS1_SECONDS:.4f}s): "
        f"{raw_improvement:+.1%} "
        f"(target >= {MC_BATCH_IMPROVEMENT:.0%}"
        + ("" if gated else f"; ungated: host regime {regime:.2f}x")
        + ")"
    )
    rows.append(
        f"ipc per dispatched fire: {unbatched_1['ipc_per_fire']:.3f} -> "
        f"{batched_1['ipc_per_fire']:.3f} "
        f"({entry['batching']['ipc_drop_factor']:.1f}x drop, "
        f"target >= {MC_IPC_DROP_FACTOR:.0f}x)"
    )

    _record("montecarlo_wallclock", entry)
    bench_json("montecarlo_wallclock", entry)
    report("Wall-clock — montecarlo pi (par_reduce)", "\n".join(rows))

    assert entry["batching"]["ipc_drop_factor"] >= MC_IPC_DROP_FACTOR, (
        "batching must cut IPC messages per dispatched fire by >= "
        f"{MC_IPC_DROP_FACTOR:.0f}x; got "
        f"{entry['batching']['ipc_drop_factor']:.1f}x"
    )
    assert batched_1["seconds"] <= 1.05 * unbatched_1["seconds"], (
        "batched 1-worker must not lose to unbatched on the same host "
        f"(it strictly does less work); got {batched_1['seconds']:.4f}s "
        f"vs {unbatched_1['seconds']:.4f}s"
    )

    # The absolute gate needs the host in the regime the baseline was
    # recorded in; the run's own sequential time is the probe.
    regime = entry["batching"]["host_regime"]
    if regime > MC_REGIME_TOLERANCE:
        pytest.skip(
            f"host is running {regime:.2f}x slower than the committed "
            f"sequential baseline ({MC_BASELINE_SEQUENTIAL_SECONDS}s) — "
            "throttled phase; absolute wall-clock gate skipped, relative "
            "wins asserted above (results still recorded)"
        )
    assert batched_1["seconds"] <= (
        (1.0 - MC_BATCH_IMPROVEMENT) * MC_BASELINE_PROCESS1_SECONDS
    ), (
        f"batched 1-worker wall clock must improve >= "
        f"{MC_BATCH_IMPROVEMENT:.0%} on the committed "
        f"{MC_BASELINE_PROCESS1_SECONDS}s; got {batched_1['seconds']:.4f}s"
    )

    # Parallel-speedup expectations need real parallel hardware: one CPU
    # can only interleave the workers, so only the IPC accounting above
    # is asserted there and the timings are recorded as-is.
    cpus = os.cpu_count() or 1
    if cpus <= 1:
        pytest.skip(
            "host has 1 CPU; parallel speedup expectations need > 1 "
            "(results still recorded)"
        )
    if cpus < 4:
        pytest.skip(
            f"host has {cpus} CPU(s); >= 1x-at-4-workers assertion needs "
            ">= 4 (results still recorded)"
        )
    assert entry["process"]["4"]["speedup"] >= 1.0, (
        "coarse-grained montecarlo batches must not lose to sequential "
        f"at 4 workers, got {entry['process']['4']['speedup']:.2f}x"
    )


# ---------------------------------------------------------------------------
# Affinity: locality-aware dispatch on a production-size fan-out
# ---------------------------------------------------------------------------

#: Fan-out shape for the locality rows: one block, read by AF_FAN
#: dispatched consumers.  Sized so each avoided ship is megabytes.
AF_FAN = 8
AF_BLOCK_ELEMS = 500_000  # 4 MB of float64
AF_COSTS = {"af_produce": 0.05, "af_stage": 0.05}


def _affinity_workload():
    import numpy as np

    from repro import compile_source
    from repro.runtime import default_registry

    reg = default_registry()

    @reg.register(name="af_produce", pure=True)
    def af_produce(seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(AF_BLOCK_ELEMS)

    @reg.register(name="af_stage", pure=True)
    def af_stage(a, k):
        return float((a * k).sum())

    stages = "\n".join(
        f"      s{i} = af_stage(blk, {i})" for i in range(1, AF_FAN + 1)
    )
    acc = "s1"
    for i in range(2, AF_FAN + 1):
        acc = f"add({acc}, s{i})"
    src = (
        f"main(seed)\n  let blk = af_produce(seed)\n{stages}\n  in {acc}\n"
    )
    return compile_source(src, registry=reg), reg


def test_wallclock_affinity(report, bench_json):
    compiled, registry = _affinity_workload()
    graph = compiled.graph
    args = (31,)
    reference = SequentialExecutor().run(
        graph, args=args, registry=registry
    ).value

    def affinity_row(affinity, workers=2):
        seconds, result = _best_of(
            lambda: ProcessExecutor(
                workers,
                measured_costs=AF_COSTS,
                shm_threshold=1 << 30,  # measure the pickle wire path
                affinity=affinity,
            ).run(graph, args=args, registry=registry)
        )
        assert result.value == reference, (
            f"affinity={affinity!r} diverged from sequential"
        )
        stats = result.stats
        return {
            "seconds": seconds,
            "encode_bytes": stats.encode_bytes,
            "encode_bytes_avoided": stats.encode_bytes_avoided,
            "blocks_ref_shipped": stats.blocks_ref_shipped,
            "blocks_cached": stats.blocks_cached,
            "affinity_misses": stats.affinity_misses,
        }

    none_row = affinity_row("none")
    data_row = affinity_row("data")
    reduction = none_row["encode_bytes"] / max(data_row["encode_bytes"], 1)

    entry = {
        "workload": {
            "app": "affinity-fanout",
            "fan": AF_FAN,
            "block_bytes": AF_BLOCK_ELEMS * 8,
        },
        "cpu_count": os.cpu_count(),
        "repeats": REPEATS,
        "none": none_row,
        "data": data_row,
        "encode_reduction_factor": reduction,
    }
    _record("affinity_fanout", entry)
    bench_json("affinity_fanout", entry)

    rows = [
        f"fan-out: 1 x {AF_BLOCK_ELEMS * 8 / 1e6:.0f} MB block -> "
        f"{AF_FAN} dispatched reads; host cpus: {os.cpu_count()}",
        "",
        f"{'configuration':<18} {'seconds':>9} {'enc bytes':>12} "
        f"{'avoided':>12} {'refs':>5}",
        f"{'affinity=none':<18} {none_row['seconds']:>9.3f} "
        f"{none_row['encode_bytes']:>12d} "
        f"{none_row['encode_bytes_avoided']:>12d} "
        f"{none_row['blocks_ref_shipped']:>5d}",
        f"{'affinity=data':<18} {data_row['seconds']:>9.3f} "
        f"{data_row['encode_bytes']:>12d} "
        f"{data_row['encode_bytes_avoided']:>12d} "
        f"{data_row['blocks_ref_shipped']:>5d}",
        "",
        f"encoded wire bytes: {reduction:.1f}x fewer with affinity=data "
        f"(target >= 2x, bit-identical results)",
    ]
    report("Wall-clock — affinity fan-out (locality)", "\n".join(rows))

    assert data_row["blocks_ref_shipped"] >= AF_FAN - 1
    assert none_row["encode_bytes"] >= 2 * data_row["encode_bytes"], (
        f"affinity=data must halve the encoded wire bytes on the "
        f"fan-out: {data_row['encode_bytes']} vs "
        f"{none_row['encode_bytes']}"
    )
