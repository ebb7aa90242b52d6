"""The operator-fusion pass (ISSUE 3): eligibility, rewrite, round-trip.

Fusion collapses linear chains of cheap single-consumer ``OP`` nodes —
plus a trailing ``untuple`` of a single-consumer producer — into one
super-node carrying the full recipe, so the engine pays one dispatch
where the source graph paid several.  These tests pin the eligibility
rules, the in-place rewrite, serialization, cache keying, observability,
and bit-identical execution across every executor.
"""

from __future__ import annotations

import json
import sys
import types

import numpy as np
import pytest

from repro import compile_source
from repro.compiler.passes.pipeline import (
    FULL_PASS_ORDER,
    GRAPH_PASS_ORDER,
    PASS_ORDER,
    split_passes,
)
from repro.graph.serialize import dumps, loads
from repro.machine import SimulatedExecutor, uniform
from repro.obs import EventBus, EventLog, OperatorsFused, OpStarted, attach_metrics
from repro.runtime import (
    ProcessExecutor,
    SequentialExecutor,
    ThreadedExecutor,
    default_registry,
)

FUSED_PASSES = PASS_ORDER + ("fuse",)

#: Chain incr -> decr (decr's output is consumed twice by mul, so the
#: chain stops there); mul is the template result.
CHAIN_SOURCE = """
main(x)
  let a = incr(x)
      b = decr(a)
  in mul(b, b)
"""


def _registry():
    reg = default_registry()

    @reg.register(name="expensive", cost=1e6)
    def expensive(x):
        return x * 10

    @reg.register(name="poke", modifies=(0,), cost=1.0)
    def poke(lst):
        lst[0] += 1
        return lst

    @reg.register(name="mklist", cost=1.0)
    def mklist(x):
        return [x, x]

    @reg.register(name="split2", cost=1.0)
    def split2(x):
        return (x + 1, x - 1)

    return reg


REGISTRY = _registry()


def _fused_nodes(graph):
    return [
        (name, node_id, node)
        for name, t in graph.templates.items()
        for node_id, node in enumerate(t.nodes)
        if node.fused is not None
    ]


def _compile(source, passes=FUSED_PASSES):
    return compile_source(source, registry=REGISTRY, optimize_passes=passes)


def _multi_step(graph):
    """The fused nodes whose recipe replays more than one member."""
    nodes = [n for _, _, n in _fused_nodes(graph) if len(n.fused[0]) > 1]
    assert nodes, "program must fuse into a multi-step chain"
    return nodes


def _heavy_chain():
    """A two-step chain (churn>scale2) with ~1 ms of real array math.

    Cost hints stay under the fusion threshold so the chain fuses; the
    wall cost of ``churn`` is what body measurements must see.
    """
    reg = default_registry()

    @reg.register(name="churn", pure=True, cost=50.0)
    def churn(n):
        return float(np.sqrt(np.arange(120_000, dtype=np.float64)).sum())

    @reg.register(name="scale2", pure=True, cost=10.0)
    def scale2(x):
        return x * 2.0

    compiled = compile_source(
        "main(n) scale2(churn(n))",
        registry=reg,
        optimize_passes=FULL_PASS_ORDER,
    )
    _multi_step(compiled.graph)
    return compiled, reg


class TestEligibility:
    def test_linear_chain_fused(self):
        fused = _compile(CHAIN_SOURCE)
        nodes = _fused_nodes(fused.graph)
        assert len(nodes) == 1
        steps, untuple_n = nodes[0][2].fused
        assert [s[0] for s in steps] == ["incr", "decr"]
        assert untuple_n == 0
        assert fused.optimization.stats["fuse.chains_fused"] == 1

    def test_three_node_chain_single_super_node(self):
        src = "main(x)\n  let a = incr(x)\n      b = decr(a)\n  in incr(b)"
        fused = _compile(src)
        nodes = _fused_nodes(fused.graph)
        assert len(nodes) == 1
        steps, _ = nodes[0][2].fused
        assert [s[0] for s in steps] == ["incr", "decr", "incr"]

    def test_expensive_operator_breaks_chain(self):
        src = (
            "main(x)\n  let a = incr(x)\n      b = expensive(a)\n"
            "  in incr(b)"
        )
        fused = _compile(src)
        assert _fused_nodes(fused.graph) == []

    def test_modifying_operator_breaks_chain(self):
        src = (
            "main(x)\n  let a = mklist(x)\n      b = poke(a)\n"
            "  in sum_list(b)"
        )
        reg = _registry()

        @reg.register(name="sum_list", cost=1.0)
        def sum_list(lst):
            return sum(lst)

        fused = compile_source(src, registry=reg, optimize_passes=FUSED_PASSES)
        for _, _, node in _fused_nodes(fused.graph):
            assert all(s[0] != "poke" for s in node.fused[0])

    def test_fan_out_breaks_chain(self):
        # a feeds two distinct consumers (decr and incr), and b/c each
        # feed mul twice — none of those links may fuse.  (mul -> add is
        # still a legal chain elsewhere in the graph.)
        src = (
            "main(x)\n  let a = incr(x)\n      b = decr(a)\n"
            "      c = incr(a)\n  in add(mul(b, b), mul(c, c))"
        )
        fused = _compile(src)
        for _, _, node in _fused_nodes(fused.graph):
            step_names = [s[0] for s in node.fused[0]]
            assert "incr" not in step_names
            assert "decr" not in step_names

    def test_untuple_of_op_absorbed(self):
        src = "main(x)\n  let <a, b> = split2(x)\n  in add(a, b)"
        fused = _compile(src)
        nodes = _fused_nodes(fused.graph)
        assert len(nodes) == 1
        steps, untuple_n = nodes[0][2].fused
        assert [s[0] for s in steps] == ["split2"]
        assert untuple_n == 2
        assert nodes[0][2].n_outputs == 2
        assert fused.optimization.stats["fuse.untuples_absorbed"] == 1

    def test_chain_into_result_node_fused(self):
        # The chain tail is the template result; the rewrite is in place,
        # so the result port stays valid.
        src = "main(x) incr(decr(x))"
        fused = _compile(src)
        nodes = _fused_nodes(fused.graph)
        assert len(nodes) == 1
        value = SequentialExecutor().run(
            fused.graph, args=(5,), registry=REGISTRY
        ).value
        assert value == 5  # incr(decr(5))


class TestPipelineOrdering:
    def test_fuse_is_graph_level(self):
        assert GRAPH_PASS_ORDER == ("fuse", "donate")
        assert "fuse" not in PASS_ORDER
        assert "donate" not in PASS_ORDER
        assert FULL_PASS_ORDER == PASS_ORDER + ("fuse", "donate")

    def test_split_passes_partitions(self):
        ast_passes, graph_passes = split_passes(
            ("inline", "fuse", "constprop")
        )
        assert ast_passes == ("inline", "constprop")
        assert graph_passes == ("fuse",)
        assert split_passes(()) == ((), ())
        assert split_passes(("fuse",)) == ((), ("fuse",))

    def test_report_records_fuse(self):
        fused = _compile(CHAIN_SOURCE)
        assert "fuse" in fused.optimization.enabled
        assert fused.optimization.stats["fuse.ops_fused"] == 2

    def test_default_compile_does_not_fuse(self):
        plain = compile_source(CHAIN_SOURCE, registry=REGISTRY)
        assert _fused_nodes(plain.graph) == []


class TestSerialization:
    def test_fused_graph_round_trips(self):
        fused = _compile(CHAIN_SOURCE)
        text = dumps(fused.graph)
        restored = loads(text)
        assert dumps(restored) == text
        nodes = _fused_nodes(restored)
        assert len(nodes) == 1
        assert nodes[0][2].fused == _fused_nodes(fused.graph)[0][2].fused

    def test_untuple_fusion_round_trips(self):
        src = "main(x)\n  let <a, b> = split2(x)\n  in add(a, b)"
        fused = _compile(src)
        restored = loads(dumps(fused.graph))
        assert _fused_nodes(restored)[0][2].fused[1] == 2

    def test_planted_source_in_old_dump_is_never_executed(self, monkeypatch):
        # Older dumps could carry generated Python source beside a fused
        # recipe.  A loaded graph is data only: the recipe runs, the text
        # is ignored, so its side effect must never happen.
        flag = types.ModuleType("_planted_source_flag")
        flag.ran = False
        monkeypatch.setitem(sys.modules, flag.__name__, flag)
        planted = (
            "import _planted_source_flag\n"
            "_planted_source_flag.ran = True\n"
            "def _delirium_bind(_f0, _f1):\n"
            "    return lambda a0: _f1(_f0(a0))\n"
        )
        fused = _compile(CHAIN_SOURCE)
        data = json.loads(dumps(fused.graph))
        planted_nodes = 0
        for template in data["templates"].values():
            for node in template["nodes"]:
                if "fused" in node:
                    node["codegen"] = planted
                    planted_nodes += 1
        assert planted_nodes == 1
        restored = loads(json.dumps(data))
        assert dumps(restored) == dumps(fused.graph)
        for n in (-3, 0, 7):
            got = SequentialExecutor().run(
                restored, args=(n,), registry=REGISTRY
            ).value
            want = SequentialExecutor().run(
                fused.graph, args=(n,), registry=REGISTRY
            ).value
            assert got == want
        assert ProcessExecutor(2, cost_threshold=0.0).run(
            restored, args=(4,), registry=REGISTRY
        ).value == SequentialExecutor().run(
            fused.graph, args=(4,), registry=REGISTRY
        ).value
        assert flag.ran is False

    def test_unfused_dump_is_bit_identical_to_pre_fusion_format(self):
        # --no-fuse must reproduce today's graphs bit-for-bit: an unfused
        # compile emits no "fused" keys and survives a round trip exactly.
        plain = compile_source(CHAIN_SOURCE, registry=REGISTRY)
        text = dumps(plain.graph)
        assert '"fused"' not in text
        assert dumps(loads(text)) == text


class TestCacheKeys:
    def test_fused_and_unfused_keys_differ(self):
        from repro.tools.cache import cache_key

        plain = cache_key(CHAIN_SOURCE, passes=PASS_ORDER)
        fused = cache_key(CHAIN_SOURCE, passes=FUSED_PASSES)
        assert plain != fused


class TestDescribe:
    def test_describe_shows_recipe(self):
        fused = _compile(CHAIN_SOURCE)
        text = fused.graph.templates["main"].describe()
        assert "fused=[incr>decr]" in text

    def test_describe_shows_untuple(self):
        src = "main(x)\n  let <a, b> = split2(x)\n  in add(a, b)"
        fused = _compile(src)
        text = fused.graph.templates["main"].describe()
        assert "fused=[split2>untuple2]" in text


class TestExecution:
    SRC = (
        "main(x)\n"
        "  let a = incr(x)\n"
        "      b = decr(a)\n"
        "      <p, q> = split2(b)\n"
        "      c = mul(p, q)\n"
        "  in add(c, b)"
    )

    def _both(self):
        plain = compile_source(self.SRC, registry=REGISTRY)
        fused = _compile(self.SRC)
        assert _fused_nodes(fused.graph)
        return plain, fused

    def test_sequential_matches(self):
        plain, fused = self._both()
        for n in (-3, 0, 7):
            ref = SequentialExecutor().run(
                plain.graph, args=(n,), registry=REGISTRY
            )
            got = SequentialExecutor().run(
                fused.graph, args=(n,), registry=REGISTRY
            )
            assert got.value == ref.value
            assert got.stats.tasks_fired < ref.stats.tasks_fired
            assert got.stats.fused_fires > 0
            assert got.stats.fused_ops_saved > 0

    def test_threaded_matches(self):
        plain, fused = self._both()
        ref = SequentialExecutor().run(
            plain.graph, args=(4,), registry=REGISTRY
        ).value
        for workers in (1, 2, 4):
            got = ThreadedExecutor(workers).run(
                fused.graph, args=(4,), registry=REGISTRY
            ).value
            assert got == ref

    def test_process_matches_with_forced_dispatch(self):
        # cost_threshold=0 ships every fire — including fused super-nodes,
        # whose recipes workers recompose from the program's fused chains.
        plain, fused = self._both()
        ref = SequentialExecutor().run(
            plain.graph, args=(4,), registry=REGISTRY
        ).value
        got = ProcessExecutor(2, cost_threshold=0.0).run(
            fused.graph, args=(4,), registry=REGISTRY
        ).value
        assert got == ref

    def test_simulator_matches(self):
        plain, fused = self._both()
        ref = SimulatedExecutor(uniform(4)).run(
            plain.graph, args=(4,), registry=REGISTRY
        )
        got = SimulatedExecutor(uniform(4)).run(
            fused.graph, args=(4,), registry=REGISTRY
        )
        assert got.value == ref.value


class TestInterpretedChain:
    """A multi-step chain runs as one firing through the recipe replay
    (``compose_fused``), bound against the registry of the run."""

    def test_plan_cache_reuse_across_runs(self):
        # Same program object run twice on fresh executors: the second
        # run serves its op plans from the module-level cache and must
        # be value-identical.
        compiled = compile_source(
            "main(n) add(incr(incr(n)), 1)", optimize_passes=FULL_PASS_ORDER
        )
        _multi_step(compiled.graph)
        first = SequentialExecutor().run(compiled.graph, args=(5,)).value
        second = SequentialExecutor().run(compiled.graph, args=(5,)).value
        assert first == second == 8

    def test_profile_ops_measures_bodies(self):
        compiled, reg = _heavy_chain()
        result = SequentialExecutor(profile_ops=True).run(
            compiled.graph, args=(3,), registry=reg
        )
        assert result.stats.fused_fires == 1
        assert 0.0 < result.stats.op_body_seconds <= result.wall_seconds

    def test_binding_uses_calling_registry(self):
        def registry(scale):
            reg = default_registry()

            @reg.register(name="shadow", pure=True, cost=1.0)
            def shadow(x):
                return x * scale

            return reg

        compiled = compile_source(
            "main(n) incr(shadow(n))",
            registry=registry(100),
            optimize_passes=FULL_PASS_ORDER,
        )
        _multi_step(compiled.graph)
        assert SequentialExecutor().run(
            compiled.graph, args=(2,), registry=compiled.registry
        ).value == 201
        # A substituted registry wins over the one present at compile
        # time, here and in workers that recompose the shipped recipe.
        other = registry(1000)
        assert SequentialExecutor().run(
            compiled.graph, args=(2,), registry=other
        ).value == 2001
        assert ProcessExecutor(2, cost_threshold=0.0).run(
            compiled.graph, args=(2,), registry=other
        ).value == 2001

    def test_fused_frames_attribute_to_operator_body(self):
        # OpStarted/OpFinished bracket the whole replay, so the chain's
        # array math lands in operator_body, not engine overhead, and
        # the attribution reconciles with the wall clock.
        from repro.obs import RunContext
        from repro.obs.critpath import RECONCILIATION_TOLERANCE

        compiled, reg = _heavy_chain()
        ctx = RunContext(record_events=True, flight_recorder=False)
        executor = SequentialExecutor()
        executor.run_ctx = ctx
        result = executor.run(compiled.graph, args=(3,), registry=reg)
        report = ctx.critical_path(result.wall_seconds)
        attribution = report.attribution
        assert report.reconciliation_error <= RECONCILIATION_TOLERANCE
        assert attribution["operator_body"] > 0.0
        assert (
            attribution["operator_body"]
            > 5 * attribution["engine_overhead"]
        )


class TestObservability:
    def test_operators_fused_event_and_fused_ops(self):
        fused = _compile(CHAIN_SOURCE)
        bus = EventBus()
        log = EventLog()
        log.attach(bus)
        SequentialExecutor(bus=bus).run(
            fused.graph, args=(3,), registry=REGISTRY
        )
        fused_events = [e for e in log.events if isinstance(e, OperatorsFused)]
        assert len(fused_events) == 1
        assert fused_events[0].fused_nodes == 1
        assert fused_events[0].ops_absorbed == 2
        started = [e for e in log.events if isinstance(e, OpStarted)]
        assert any(e.fused_ops == 2 for e in started)
        assert all(e.fused_ops == 1 for e in started if "fused" not in e.name)

    def test_metrics_counters(self):
        fused = _compile(CHAIN_SOURCE)
        bus = EventBus()
        metrics = attach_metrics(bus)
        SequentialExecutor(bus=bus).run(
            fused.graph, args=(3,), registry=REGISTRY
        )
        snap = metrics.snapshot()
        assert snap["counters"]["fused_fires"]["value"] == 1
        assert snap["counters"]["fused_ops_saved"]["value"] == 1
        assert snap["gauges"]["fused_nodes"]["value"] == 1
        assert snap["gauges"]["fused_ops_absorbed"]["value"] == 2

    def test_unfused_run_emits_no_fusion_event(self):
        plain = compile_source(CHAIN_SOURCE, registry=REGISTRY)
        bus = EventBus()
        log = EventLog()
        log.attach(bus)
        SequentialExecutor(bus=bus).run(
            plain.graph, args=(3,), registry=REGISTRY
        )
        assert not [e for e in log.events if isinstance(e, OperatorsFused)]


class TestErrors:
    def test_fused_untuple_arity_mismatch_raises(self):
        reg = _registry()

        @reg.register(name="bad3", cost=1.0)
        def bad3(x):
            return (x, x, x)

        src = "main(x)\n  let <a, b> = bad3(x)\n  in add(a, b)"
        fused = compile_source(src, registry=reg, optimize_passes=FUSED_PASSES)
        assert _fused_nodes(fused.graph)
        from repro.errors import RuntimeFailure

        with pytest.raises(RuntimeFailure, match="decomposed into"):
            SequentialExecutor().run(fused.graph, args=(1,), registry=reg)
