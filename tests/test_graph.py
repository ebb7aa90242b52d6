"""Coordination-graph IR, validation, and visualization."""

import os
import subprocess
import sys

import pytest

import repro
from repro import compile_source
from repro.errors import GraphError
from repro.graph.ir import GraphProgram, Node, NodeKind, Port, Template
from repro.graph.validate import validate_program
from repro.graph.viz import ascii_framework, template_layers, to_dot, to_networkx

from tests.conftest import FORK_JOIN_SRC, fork_join_registry


def identity_template(name: str = "main") -> Template:
    t = Template(name=name, params=["x"])
    t.nodes.append(Node(kind=NodeKind.PARAM, name="x"))
    t.result = Port(0, 0)
    return t.finalize()


class TestTemplate:
    def test_finalize_builds_consumers(self):
        t = Template(name="t", params=["x"])
        t.nodes.append(Node(kind=NodeKind.PARAM, name="x"))
        t.nodes.append(Node(kind=NodeKind.OP, name="f", inputs=[Port(0)]))
        t.result = Port(1, 0)
        t.finalize()
        assert t.consumers[0][0] == [(1, 0)]
        assert t.initial_ready == []

    def test_const_is_initially_ready(self):
        t = Template(name="t")
        t.nodes.append(Node(kind=NodeKind.CONST, value=1))
        t.result = Port(0, 0)
        t.finalize()
        assert t.initial_ready == [0]

    def test_missing_result_rejected(self):
        t = Template(name="t")
        t.nodes.append(Node(kind=NodeKind.CONST, value=1))
        with pytest.raises(GraphError):
            t.finalize()

    def test_dangling_input_rejected(self):
        t = Template(name="t")
        t.nodes.append(Node(kind=NodeKind.OP, name="f", inputs=[Port(5)]))
        t.result = Port(0, 0)
        with pytest.raises(GraphError):
            t.finalize()

    def test_bad_out_port_rejected(self):
        t = Template(name="t")
        t.nodes.append(Node(kind=NodeKind.CONST, value=1))
        t.nodes.append(Node(kind=NodeKind.OP, name="f", inputs=[Port(0, 3)]))
        t.result = Port(1, 0)
        with pytest.raises(GraphError):
            t.finalize()

    def test_describe_mentions_ops(self):
        reg = fork_join_registry()
        compiled = compile_source(FORK_JOIN_SRC, registry=reg)
        text = compiled.graph.template("main").describe()
        assert "convolve" in text and "result:" in text


class TestGraphProgram:
    def test_duplicate_template_rejected(self):
        g = GraphProgram()
        g.add(identity_template())
        with pytest.raises(GraphError):
            g.add(identity_template())

    def test_missing_template_lookup(self):
        with pytest.raises(GraphError):
            GraphProgram().template("nope")

    def test_total_nodes_and_memory(self):
        reg = fork_join_registry()
        compiled = compile_source(FORK_JOIN_SRC, registry=reg)
        assert compiled.graph.total_nodes() > 5
        assert compiled.graph.memory_bytes() > 0


class TestValidation:
    def test_compiled_programs_validate(self):
        reg = fork_join_registry()
        compiled = compile_source(FORK_JOIN_SRC, registry=reg)
        report = validate_program(compiled.graph)
        assert report.templates_checked == len(compiled.graph.templates)

    def test_all_fixture_programs_validate(self):
        from tests.conftest import FACTORIAL_SRC, FIB_SRC, HIGHER_ORDER_SRC

        for source in (FACTORIAL_SRC, FIB_SRC, HIGHER_ORDER_SRC):
            validate_program(compile_source(source).graph)

    def test_missing_entry(self):
        g = GraphProgram(entry="main")
        with pytest.raises(GraphError):
            validate_program(g)

    def test_cycle_detected(self):
        t = Template(name="main")
        t.nodes.append(Node(kind=NodeKind.OP, name="a", inputs=[Port(1)]))
        t.nodes.append(Node(kind=NodeKind.OP, name="b", inputs=[Port(0)]))
        t.result = Port(0, 0)
        t.finalize()
        g = GraphProgram()
        g.add(t)
        with pytest.raises(GraphError, match="cycle"):
            validate_program(g)

    def test_closure_capture_mismatch_detected(self):
        target = Template(name="f", captures=["k"])
        target.nodes.append(Node(kind=NodeKind.CAPTURE, name="k"))
        target.result = Port(0, 0)
        target.finalize()
        main = Template(name="main")
        main.nodes.append(Node(kind=NodeKind.CLOSURE, template="f", inputs=[]))
        main.result = Port(0, 0)
        main.finalize()
        g = GraphProgram()
        g.add(target)
        g.add(main)
        with pytest.raises(GraphError, match="capture"):
            validate_program(g)

    def test_unfinalized_template_detected(self):
        t = Template(name="main")
        t.nodes.append(Node(kind=NodeKind.CONST, value=1))
        t.result = Port(0, 0)
        g = GraphProgram()
        g.templates["main"] = t  # bypass add/finalize
        with pytest.raises(GraphError, match="finalize"):
            validate_program(g)

    def test_dead_nodes_reported_not_raised(self):
        compiled = compile_source(
            "main(n) let unused = incr(n) in n", optimize_passes=()
        )
        report = validate_program(compiled.graph)
        assert len(report.dead_nodes) >= 1


class TestViz:
    @pytest.fixture
    def compiled(self):
        reg = fork_join_registry()
        return compile_source(FORK_JOIN_SRC, registry=reg)

    def test_networkx_graph_shape(self, compiled):
        g = to_networkx(compiled.graph)
        titles = [d["title"] for _, d in g.nodes(data=True)]
        assert titles.count("convolve") == 4

    def test_dot_output(self, compiled):
        dot = to_dot(compiled.graph)
        assert dot.startswith("digraph")
        assert "convolve" in dot
        assert dot.rstrip().endswith("}")

    def test_ascii_framework_shows_parallel_stage(self, compiled):
        art = ascii_framework(compiled.graph)
        # The four convolve calls form one wide layer.
        wide_lines = [l for l in art.splitlines() if l.count("convolve") == 4]
        assert wide_lines

    def test_template_layers_widths(self, compiled):
        layers = template_layers(compiled.graph.template("main"))
        widths = [len(layer) for layer in layers]
        assert max(widths) >= 4  # the fork

    def test_expansion_edges_present(self):
        compiled = compile_source("main(n) if n then incr(n) else n")
        g = to_networkx(compiled.graph)
        kinds = {d["kind"] for _, _, d in g.edges(data=True)}
        assert "expands" in kinds

    def test_import_repro_does_not_load_networkx(self):
        # Only to_networkx needs networkx; importing the package must not
        # pay its import time and memory.
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src_dir}
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro; print('networkx' in sys.modules)"],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
            check=True,
        )
        assert out.stdout.strip() == "False"
