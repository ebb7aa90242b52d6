"""Compare two sets of benchmark runs, one row per workload and metric.

Usage::

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the ``run-*.json`` records ``perfbench/run.py``
writes (under ``.perfbench-out/`` of the checkout it ran in).  Runs of
the two sets are paired by workload and seed, in seed order.  Each row
shows both sides' median and quartiles, the pairs the change won, and a
verdict:

* ``improved`` -- the change wins at least 9 of every 10 pairs (ties
  count for neither side) and the medians differ by more than the base's
  quartile spread;
* ``worse`` -- an end-to-end metric whose median is worse than the
  base's by more than the bound in ``BENCHMARK.json``, or a per-layer
  metric the base wins at least 9 of every 10 pairs by more than the
  base's quartile spread;
* ``unresolved`` -- an end-to-end metric whose quartile spread (as a
  share of its median) is wider than its bound on either side, unless
  every change run beats every base run; or a per-layer metric that
  moved by more than the base's spread without a 9-in-10 win either way;
* ``unchanged`` -- otherwise.

Failures have a rule of their own: ``ok_rate`` and ``error_rate`` read
``worse`` when the change fails more ops than the base on any paired
seed, ``improved`` when it fails fewer on some seed and more on none.

A run whose reference time falls outside the spread recorded in
``perfbench/host.json`` ran in another host regime: its seed is left out
of every verdict but the failure ones, and a NOTE names it.  A row with
no seed left reads ``unresolved (host regime)``.  Notes also warn when
the two sets ran on different hosts or ran references with different
source.  Two runs of the same workload, trace mode and seed in one
directory are refused, so that no run is silently dropped.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Metrics that count failed ops, judged by the failure rule.
FAILURE_METRICS = ("ok_rate", "error_rate")


def load_runs(directory: Path) -> list[dict]:
    """The run records of a directory; exits on two runs of one seed."""
    runs, seen = [], {}
    for path in sorted(directory.glob("run-*.json")):
        run = json.loads(path.read_text())
        key = (run["workload"], run["trace"], run["seed"])
        if key in seen:
            sys.exit(
                f"compare: {seen[key].name} and {path.name} are both "
                f"{key[0]} trace {key[1]} seed {key[2]}; keep one"
            )
        seen[key] = path
        runs.append(run)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    base: list[float],
    change: list[float],
    lower_is_better: bool,
    bound: float | None,
) -> tuple[str, int, int]:
    """The verdict for one metric; also the pairs won and the pairs run."""
    sign = 1.0 if lower_is_better else -1.0
    pairs = list(zip(base, change))
    won = sum(sign * (c - b) < 0 for b, c in pairs)
    lost = sum(sign * (c - b) > 0 for b, c in pairs)
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    gap = sign * (cmed - bmed)  # > 0: the change is worse
    spread = bq3 - bq1
    if pairs and won >= 0.9 * len(pairs) and -gap > spread:
        return "improved", won, len(pairs)
    if bound is None:
        if pairs and lost >= 0.9 * len(pairs) and gap > spread:
            return "worse", won, len(pairs)
        return ("unresolved" if abs(gap) > spread else "unchanged"), won, len(pairs)
    scale = abs(bmed) or 1.0
    too_wide = max(spread / scale, (cq3 - cq1) / (abs(cmed) or 1.0)) > bound
    all_better = max(sign * c for c in change) < min(sign * b for b in base)
    if too_wide and not all_better:
        return "unresolved", won, len(pairs)
    if gap / scale > bound:
        return "worse", won, len(pairs)
    return "unchanged", won, len(pairs)


def failure_verdict(base: list[int], change: list[int]) -> tuple[str, int, int]:
    """Failed-op counts of paired runs: any extra failure is worse."""
    pairs = list(zip(base, change))
    won = sum(c < b for b, c in pairs)
    if any(c > b for b, c in pairs):
        return "worse", won, len(pairs)
    return ("improved" if won else "unchanged"), won, len(pairs)


def by_workload(runs: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for run in sorted(runs, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        out.setdefault(run["workload"], []).append(run)
    return out


def host_notes(base: list[dict], change: list[dict]) -> list[str]:
    notes = []
    keys = ("nproc", "python", "numpy", "scipy")
    hosts = {tuple(r["host"][k] for k in keys) for r in base + change}
    if len(hosts) > 1:
        notes.append(f"runs come from different hosts {sorted(hosts)}")
    for side, runs in (("base", base), ("change", change)):
        for trace in (0, 1):
            outside = [
                r["seed"]
                for r in runs
                if r["trace"] == trace and not r["host"]["ref_in_recorded_spread"]
            ]
            if outside:
                notes.append(
                    f"{side} trace {trace}: reference time outside the recorded "
                    f"spread for seeds {outside}; another host regime, left "
                    f"out of all but the failure verdicts"
                )
    if len({r["reference_sha256"] for r in base + change}) > 1:
        notes.append("the reference source differs between the runs")
    return notes


def compare(base_runs: list[dict], change_runs: list[dict], spec: dict) -> list[str]:
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [
        f"{'workload':<11} {'metric':<32} {'base q1/med/q3':>32} "
        f"{'change q1/med/q3':>32} {'won':>7}  verdict"
    ]
    base_w, change_w = by_workload(base_runs), by_workload(change_runs)
    for workload in sorted(set(base_w) & set(change_w)):
        for note in host_notes(base_w[workload], change_w[workload]):
            lines.append(f"{workload:<11} NOTE {note}")
        for trace in (0, 1):
            base = {r["seed"]: r for r in base_w[workload] if r["trace"] == trace}
            change = {r["seed"]: r for r in change_w[workload] if r["trace"] == trace}
            paired = sorted(set(base) & set(change))
            if not paired:
                continue
            seeds = [
                s
                for s in paired
                if base[s]["host"]["ref_in_recorded_spread"]
                and change[s]["host"]["ref_in_recorded_spread"]
            ]
            names = [
                m["name"]
                for m in (spec["per_layer"] if trace else spec["end_to_end"])
            ]
            for name in names:
                meta = metrics[name]
                kept = paired if name in FAILURE_METRICS else seeds
                b = [base[s]["metrics"][name]["value"] for s in kept]
                c = [change[s]["metrics"][name]["value"] for s in kept]
                if name in FAILURE_METRICS:
                    result, won, n = failure_verdict(
                        [base[s]["failed"] for s in kept],
                        [change[s]["failed"] for s in kept],
                    )
                elif kept:
                    result, won, n = verdict(
                        b, c, meta["better"] == "lower", meta.get("bound")
                    )
                else:
                    lines.append(
                        f"{workload:<11} {name:<32} {'':>32} {'':>32} "
                        f"{'0/0':>7}  unresolved (host regime)"
                    )
                    continue
                bq, cq = quartiles(b), quartiles(c)
                lines.append(
                    f"{workload:<11} {name:<32} "
                    f"{' / '.join(f'{x:.4g}' for x in bq):>32} "
                    f"{' / '.join(f'{x:.4g}' for x in cq):>32} "
                    f"{won:>3}/{n:<3}  {result}"
                )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load_runs(args.base), load_runs(args.change)
    if not base or not change:
        sys.exit("compare: each directory needs run-*.json records")
    print("\n".join(compare(base, change, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
