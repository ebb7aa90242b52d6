"""The optimization pass manager.

Runs the paper's four optimizations in a fixpoint loop::

    inline -> constant propagation -> CSE -> DCE

Inline first (it exposes operator applications to the scalar passes);
propagation before CSE (canonicalizes copies so syntactic keys match); DCE
last (sweeps the bindings the others orphaned).  Analyses are recomputed
between rounds because inlining changes the call graph.  The loop stops
when a full round changes nothing, or after ``max_rounds`` (a safety net —
each pass only shrinks or canonicalizes, so in practice two or three
rounds suffice).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ...lang import ast
from ...runtime.operators import OperatorRegistry
from ..analysis import FreshNames, analyze_program
from ..symtab import analyze
from . import constprop, cse, dce, inline
from .common import PassContext, bound_names_in


@dataclass
class OptimizationReport:
    """What the optimizer did, for tests, Table 1, and the ablations."""

    rounds: int = 0
    stats: dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0
    enabled: tuple[str, ...] = ()

    def describe(self) -> str:
        """Human-readable summary, e.g. for ``delirium compile`` output."""
        if not self.stats:
            return (
                f"optimizer: nothing to do "
                f"({self.rounds} round(s), passes: {', '.join(self.enabled)})"
            )
        parts = [
            f"{key.split('.', 1)[1].replace('_', ' ')} ({key.split('.')[0]}): {count}"
            for key, count in sorted(self.stats.items())
        ]
        return (
            f"optimizer ({self.rounds} round(s)): " + "; ".join(parts)
        )


#: Canonical pass order (the AST-level fixpoint passes).
PASS_ORDER = ("inline", "constprop", "cse", "dce")

#: Graph-level passes, run by the driver *after* template generation (they
#: rewrite coordination graphs, not ASTs, so they live outside the fixpoint
#: loop).  Names share the same flat namespace as :data:`PASS_ORDER`.
#: ``donate`` always runs after ``fuse`` so last-use facts are computed on
#: the post-fusion graph (fused super-nodes are ordinary OP nodes by then).
GRAPH_PASS_ORDER = ("fuse", "donate")

#: Every pass name a caller may request, in execution order.
FULL_PASS_ORDER = PASS_ORDER + GRAPH_PASS_ORDER


def split_passes(
    enabled: tuple[str, ...],
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Partition requested pass names into (AST passes, graph passes)."""
    ast_passes = tuple(p for p in enabled if p not in GRAPH_PASS_ORDER)
    graph_passes = tuple(p for p in enabled if p in GRAPH_PASS_ORDER)
    return ast_passes, graph_passes

_RUNNERS = {
    "inline": inline.run,
    "constprop": constprop.run,
    "cse": cse.run,
    "dce": dce.run,
}


def _make_context(
    program: ast.Program,
    registry: OperatorRegistry | None,
    stats: dict[str, int],
) -> PassContext:
    known = registry.names() if registry is not None else None
    env = analyze(program, known_operators=known, strict=False)
    pure = registry.pure_names() if registry is not None else set()
    analysis = analyze_program(env, pure_operators=pure)
    used: set[str] = set()
    for f in program.functions:
        used.add(f.name)
        used.update(f.params)
        used.update(bound_names_in(f.body))
        for node in f.body.walk():
            if isinstance(node, ast.Var):
                used.add(node.name)
    ctx = PassContext(
        registry=registry,
        env=env,
        analysis=analysis,
        fresh=FreshNames(used),
        stats=stats,
    )
    return ctx


def optimize(
    program: ast.Program,
    registry: OperatorRegistry | None = None,
    enabled: tuple[str, ...] = PASS_ORDER,
    max_rounds: int = 8,
    inline_threshold: int = inline.DEFAULT_THRESHOLD,
) -> OptimizationReport:
    """Optimize ``program`` in place and return a report.

    ``enabled`` selects passes (ablation studies compile with subsets);
    unknown names raise ``KeyError`` loudly rather than silently skipping.
    """
    for name in enabled:
        if name not in _RUNNERS:
            raise KeyError(f"unknown optimization pass {name!r}")
    report = OptimizationReport(enabled=tuple(enabled))
    began = time.perf_counter()
    for _ in range(max_rounds):
        ctx = _make_context(program, registry, report.stats)
        changed = False
        for name in PASS_ORDER:
            if name not in enabled:
                continue
            if name == "inline":
                changed = inline.run(program, ctx, threshold=inline_threshold) or changed
                # Inlining invalidates the call graph; refresh for the
                # scalar passes in the same round.
                ctx = _make_context(program, registry, report.stats)
            else:
                changed = _RUNNERS[name](program, ctx) or changed
        report.rounds += 1
        if not changed:
            break
    report.seconds = time.perf_counter() - began
    return report
