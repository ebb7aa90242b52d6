"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload queens --seed 1 --seconds 28 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end
metrics; ``--trace 1`` alternates traced and untraced ops and reports the
per-layer metrics.  The metric names, units and directions are those
listed in ``BENCHMARK.json``; ``setup_s`` is scaled to the host speed
recorded in ``perfbench/host.json`` (see :func:`measure`).  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The whole run record (every metric computed,
the host fingerprint, the reference-source hash) is also written under
``.perfbench-out/`` in the checkout, where ``perfbench/compare.py`` reads
it; a traced run writes its spans there too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Setup slots per run; each is followed by a stretch of timed ops.
N_SETUPS = 5

#: Seconds of setups per slot at least: a setup cheaper than this repeats,
#: so that ``setup_s`` is the median of enough samples to be steady.
SETUP_MIN_S = 0.25

#: Table 1 pass names as ``compiler.pass_ms.<slug>`` metric suffixes.
PASS_SLUGS = {
    "Macro Expansion": "macro_expansion",
    "Lexing": "lexing",
    "Parsing": "parsing",
    "Env Analysis": "env_analysis",
    "Optimization": "optimization",
    "Graph Conversion": "graph_conversion",
}


def require_source() -> Path:
    """Put the checkout's ``src`` first on the path; exit if it is missing."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")
    return ROOT


def start_resource_tracker() -> None:
    """Start multiprocessing's resource tracker before any worker forks.

    Forked workers then share this process's tracker.  Otherwise each
    worker that touches shared memory starts one of its own, a process
    that outlives the worker and so cannot be waited for here.
    """
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()


def stop_processes() -> None:
    """Stop every process the run started and wait until each has ended.

    Closed executors have joined their workers already; what is left is
    the resource tracker, which would otherwise exit only after this
    process does.  ``_stop`` closes its pipe and waits for it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def host_fingerprint(workload: str, ref_ms: float, recorded: dict) -> dict:
    """Versions and CPUs, plus whether the reference ran at its usual speed.

    ``host.json`` records the spread of each workload's reference time on
    the host the bounds were set on; a run outside it comes from another
    host regime and its figures do not compare with the recorded ones.
    """
    lo, hi = recorded["plain_ref_ms"][workload]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "plain_ref_ms": ref_ms,
        "recorded_ref_ms": [lo, hi],
        "ref_in_recorded_spread": lo <= ref_ms <= hi,
    }


def measure(
    name: str, seed: int, seconds: float, workdir: str, recorded_ref_ms: float
) -> dict:
    """The untraced run: N setup slots, each followed by a stretch of ops.

    Spreading the setups over the run makes their median sample the host
    over the whole run, not only its first seconds.  ``setup_s`` is that
    median scaled to the host speed ``host.json`` records: times the
    recorded median reference time over this run's.  Raw seconds on a
    shared host swing with its load, by more than the bound; their ratio
    to the reference does not.  The raw median is ``run.setup_wall_s``.
    """
    from workloads import WORKLOADS, Budget

    workload = WORKLOADS[name](seed, workdir)
    setups = []
    segments = []
    elapsed = 0.0
    for _ in range(N_SETUPS):
        session, spent = None, 0.0
        while session is None or spent < SETUP_MIN_S:
            if session is not None:
                session.close()
            session, record = workload.setup()
            setups.append(record)
            spent += record.total_s
        try:
            began = time.perf_counter()
            segments.append(
                workload.segment(
                    session,
                    Budget(seconds=seconds / N_SETUPS),
                    first=sum(len(seg.records) for seg in segments),
                )
            )
            elapsed += time.perf_counter() - began
        finally:
            session.close()
    records = [r for seg in segments for r in seg.records]
    errors = sum(seg.errors for seg in segments)
    attempted = len(records) + len(setups) + errors
    failed = sum(not r.ok for r in records) + errors
    failed += sum(not s.ok for s in setups)
    ratios = [r.wall / r.ref for r in records]
    walls = [r.wall for r in records]
    setup_wall = median([s.total_s for s in setups])
    ref_ms = median([r.ref for r in records]) * 1e3
    metrics = {
        "setup_s": setup_wall * recorded_ref_ms / ref_ms,
        "run.setup_wall_s": setup_wall,
        "slowdown_p50": median(ratios),
        "slowdown_p90": p90(ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_rate": 1 - failed / attempted,
        "error_rate": failed / attempted,
        "run.op_ms_p50": median(walls) * 1e3,
        "run.op_ms_p90": p90(walls) * 1e3,
        "run.ops": len(records),
        "run.ops_per_s": len(records) / elapsed,
        "plain.ref_ms": ref_ms,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def measure_traced(
    name: str, seed: int, seconds: float, workdir: str, spans_path: Path
) -> dict:
    """The traced run: per-layer metrics from spans and engine counters.

    Traced and untraced ops alternate, the order flipping every pair
    (whole stream runs, for the stream), so ``obs.trace_overhead``
    compares ops of the same run.
    """
    from tracing import Tracer, layer_bus, wrap_registry
    from workloads import WORKLOADS, Budget

    workload = WORKLOADS[name](seed, workdir)
    tracer = Tracer()
    checkpoints: list[tuple[float, int]] = []
    bus = None
    if workload.remote or workload.stream:
        bus = layer_bus(tracer, checkpoints)

    def wrap(registry):
        return wrap_registry(registry, tracer)

    setups = []
    traced = None
    for _ in range(N_SETUPS):
        if traced is not None:
            traced.close()
        traced, record = workload.setup(tracer=tracer, wrap=wrap, bus=bus)
        setups.append(record)
    plain, plain_setup = workload.setup()
    segments: dict[bool, list] = {True: [], False: []}
    try:
        began = time.perf_counter()
        if workload.stream:
            # A stream cannot switch registries between items: alternate
            # whole stream runs instead.
            for is_traced in (False, True, True, False) * 2:
                session = traced if is_traced else plain
                segments[is_traced].append(
                    workload.segment(
                        session,
                        Budget(seconds=seconds / 8),
                        tracer if is_traced else None,
                    )
                )
        else:
            deadline = began + seconds
            op = 0
            while time.perf_counter() < deadline:
                is_traced = op % 4 in (1, 2)
                segments[is_traced].append(
                    workload.segment(
                        traced if is_traced else plain,
                        Budget(max_ops=1),
                        tracer if is_traced else None,
                        first=op,
                    )
                )
                op += 1
        elapsed = time.perf_counter() - began
    finally:
        traced.close()
        plain.close()
    empty_first, empty_warm = workload.empty_run()
    children_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    tracer.write(str(spans_path))

    all_segments = segments[True] + segments[False]
    records = [r for seg in all_segments for r in seg.records]
    errors = sum(seg.errors for seg in all_segments)
    attempted = len(records) + N_SETUPS + 1 + errors
    failed = sum(not r.ok for r in records) + errors
    failed += sum(not s.ok for s in setups + [plain_setup])

    traced_ops = [r for seg in segments[True] for r in seg.records]
    untraced_walls = [r.wall for seg in segments[False] for r in seg.records]
    n = max(len(traced_ops), 1)
    totals: dict[str, float] = {}
    for seg in segments[True]:
        for key, value in seg.counters.items():
            totals[key] = totals.get(key, 0) + value

    def per_op(key: str) -> float:
        return totals.get(key, 0) / n

    layers = [r.layers for r in traced_ops]
    self_ms = median([x["self"] for x in layers]) * 1e3
    fires = per_op("tasks_fired")
    ipc = per_op("ipc_messages_sent") + per_op("ipc_messages_received")
    dispatched = per_op("dispatched_fires")
    encoded = per_op("encode_bytes")
    avoided = per_op("encode_bytes_avoided")
    appends = [a for x in layers for a in x["append"]]
    flushes = [
        s[2] - s[1] for s in tracer.spans if s[0] == "stream.sink.flush"
    ]
    metrics = {
        "compiler.compile_ms": median([s.compile_s for s in setups]) * 1e3,
        "compiler.graph_nodes": setups[-1].graph_nodes,
        "compiler.fused_nodes": setups[-1].fused_nodes,
        "executors.first_op_ms": median([s.first_op_s for s in setups]) * 1e3,
        "executors.empty_run_us": empty_warm * 1e6,
        "engine.tasks_fired": fires,
        "engine.ops_executed": per_op("ops_executed"),
        "engine.expansions": per_op("expansions"),
        "engine.fused_fires": per_op("fused_fires"),
        "engine.fire_batches": per_op("fire_batches"),
        "engine.self_ms": self_ms,
        "engine.us_per_fire": self_ms * 1e3 / fires if fires else 0.0,
        "operators.body_ms": median([x["body"] for x in layers]) * 1e3,
        "operators.calls": sum(x["calls"] for x in layers) / n,
        "operators.overlap": median(
            [x["body"] / r.wall for x, r in zip(layers, traced_ops)]
        ),
        "blocks.cow_copies": per_op("cow_copies"),
        "blocks.copies_avoided": per_op("copies_avoided"),
        "blocks.bytes_copy_avoided": per_op("bytes_copy_avoided"),
        "blocks.buffers_recycled": per_op("buffers_recycled"),
        "blocks.donation_misses": per_op("donation_misses"),
        "workers.dispatched_fires": dispatched,
        "workers.ipc_messages": ipc,
        "workers.ipc_per_fire": ipc / dispatched if dispatched else 0.0,
        "workers.encode_mb": encoded / 1e6,
        "workers.bytes_avoided_ratio": (
            avoided / (encoded + avoided) if encoded + avoided else 0.0
        ),
        "workers.blocks_ref_shipped": per_op("blocks_ref_shipped"),
        "workers.affinity_misses": per_op("affinity_misses"),
        "workers.fires_retried": per_op("fires_retried"),
        "workers.worker_crashes": per_op("worker_crashes"),
        "workers.remote_ms": median([x["remote"] for x in layers]) * 1e3,
        "workers.pool_start_ms": (empty_first - empty_warm) * 1e3,
        "workers.peak_rss_mb": children_rss,
        "stream.source_us": median(
            [u for seg in segments[True] for u in seg.source_us]
        ),
        "stream.sink_append_us": median(appends) * 1e6,
        "stream.sink_flush_ms": median(flushes) * 1e3,
        "stream.flushes": len(flushes) / n,
        "checkpoint.count": len(checkpoints) / n,
        "checkpoint.write_ms": median([c[0] for c in checkpoints]) * 1e3,
        "checkpoint.bytes": median([c[1] for c in checkpoints]),
        "obs.trace_overhead": (
            median([r.wall for r in traced_ops]) / median(untraced_walls) - 1
        ),
        "run.setup_wall_s": median([s.total_s for s in setups]),
        "run.op_ms_p50": median(untraced_walls) * 1e3,
        "run.op_ms_p90": p90(untraced_walls) * 1e3,
        "run.ops": len(records),
        "run.ops_per_s": len(records) / elapsed,
        "error_rate": failed / attempted,
        "plain.ref_ms": median([r.ref for r in records]) * 1e3,
    }
    for pass_name, slug in PASS_SLUGS.items():
        metrics[f"compiler.pass_ms.{slug}"] = (
            median([s.pass_seconds.get(pass_name, 0.0) for s in setups]) * 1e3
        )
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def reference_hash(name: str) -> str:
    from workloads import WORKLOADS

    source = WORKLOADS[name](0, "").reference_source()
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()
    start_resource_tracker()
    try:
        return report(args, spec)
    finally:
        stop_processes()


def report(args: argparse.Namespace, spec: dict) -> int:
    """Measure one run, record it under ``.perfbench-out/``, print it."""
    recorded = json.loads((HERE / "host.json").read_text())

    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    workdir = tempfile.mkdtemp(prefix="work-", dir=out)
    try:
        if args.trace:
            result = measure_traced(
                args.workload, args.seed, args.seconds, workdir,
                out / f"spans-{stamp}.json",
            )
        else:
            result = measure(
                args.workload, args.seed, args.seconds, workdir,
                recorded["plain_ref_ms_median"][args.workload],
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    computed = result["metrics"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    host = host_fingerprint(args.workload, computed["plain.ref_ms"], recorded)
    if not host["ref_in_recorded_spread"]:
        print(
            f"perfbench: WARNING plain.ref_ms {host['plain_ref_ms']:.3f} is "
            f"outside the recorded {host['recorded_ref_ms']}; this host runs "
            f"in another regime and its figures do not compare",
            file=sys.stderr,
        )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            k: {"value": v, "unit": units.get(k, "")} for k, v in computed.items()
        },
        "host": host,
        "reference_sha256": reference_hash(args.workload),
    }
    (out / f"run-{stamp}.json").write_text(json.dumps(record, indent=1))

    for key in sorted(computed):
        unit = units.get(key, "")
        print(f"{args.workload:<11} {key:<34} {computed[key]:>14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
                    for m in listed
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
