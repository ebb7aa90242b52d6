"""Ablation report: each workload under graph-pass variants (not gated).

Usage, from the root of a checkout::

    python3 perfbench/ablation.py [--workload NAME ...] [--seed N]

Compiles every workload once per ``optimize_passes`` variant -- no
passes, the AST passes alone, the AST passes plus each graph pass alone,
and the full set -- and reruns its ops through the same executor
configuration as ``run.py``.  Variants take turns: each of ``ROUNDS``
rounds sets every variant up afresh (in rotated order) and runs ops of it
for ``ROUND_SECONDS``, each paired with the plain-Python reference as in
the benchmark.  For each variant it prints
``slowdown_p50`` with its quartile spread, and the per-op
``engine.fused_fires`` and ``blocks.*`` counts.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import sys
import tempfile

from run import ROOT, require_source, start_resource_tracker, stop_processes

#: Rounds per workload; each runs every variant once, in rotated order.
ROUNDS = 3

#: Seconds of ops per variant and round.
ROUND_SECONDS = 2.0


def variants() -> list[tuple[str, tuple[str, ...]]]:
    from repro.compiler.passes.pipeline import (
        FULL_PASS_ORDER,
        GRAPH_PASS_ORDER,
        PASS_ORDER,
    )

    out = [("none", ()), ("ast", PASS_ORDER)]
    out += [(f"ast+{p}", PASS_ORDER + (p,)) for p in GRAPH_PASS_ORDER]
    out.append(("all", FULL_PASS_ORDER))
    return out


COUNTS = (
    ("fused_fires", "engine.fused_fires"),
    ("cow_copies", "blocks.cow_copies"),
    ("copies_avoided", "blocks.copies_avoided"),
    ("bytes_copy_avoided", "blocks.bytes_copy_avoided"),
    ("buffers_recycled", "blocks.buffers_recycled"),
    ("donation_misses", "blocks.donation_misses"),
)


def ablate(name: str, seed: int, workdir: str) -> list[str]:
    from workloads import WORKLOADS, Budget

    workload = WORKLOADS[name](seed, workdir)
    table = variants()
    ratios: dict[str, list[float]] = {label: [] for label, _ in table}
    counters: dict[str, dict[str, float]] = {label: {} for label, _ in table}
    n_ops: dict[str, int] = {label: 0 for label, _ in table}
    failed = 0
    workload.reference()
    for r in range(ROUNDS):
        for label, passes in table[r % len(table) :] + table[: r % len(table)]:
            session, setup = workload.setup(passes)
            try:
                seg = workload.segment(session, Budget(seconds=ROUND_SECONDS))
            finally:
                session.close()
            failed += (not setup.ok) + seg.errors
            failed += sum(not x.ok for x in seg.records)
            ratios[label] += [x.wall / x.ref for x in seg.records]
            n_ops[label] += len(seg.records)
            for key, value in seg.counters.items():
                counters[label][key] = counters[label].get(key, 0) + value
    header = f"{'variant':<14} {'slowdown_p50':>12} {'spread':>7} {'ops':>5}"
    header += "".join(f" {metric:>26}" for _, metric in COUNTS)
    lines = [f"== {name} (seed {seed}, {failed} failed op(s))", header]
    for label, _ in table:
        values = ratios[label]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        n = max(n_ops[label], 1)
        lines.append(
            f"{label:<14} {q2:>12.4g} {(q3 - q1) / q2:>7.3f} {n_ops[label]:>5}"
            + "".join(f" {counters[label].get(k, 0) / n:>26.4g}" for k, _ in COUNTS)
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    require_source()
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out)
    start_resource_tracker()
    try:
        for name in names:
            lines = ablate(name, args.seed, workdir)
            print("\n".join(lines), flush=True)
    finally:
        stop_processes()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
