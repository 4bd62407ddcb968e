"""The whole-program call graph: resolution, fixpoint propagation,
extraction and exports (repro.analysis.callgraph)."""

import json

import pytest

import repro
from repro.analysis import effects, lint_source
from repro.analysis.callgraph import (
    build_project,
    edge_bindings,
    extract_module,
    module_name_for,
    project_from_sources,
)
from repro.analysis.lint import iter_python_files, parse_module
from repro.errors import CallGraphError
from pathlib import Path


def _project(*pairs):
    return project_from_sources(list(pairs))


class TestResolution:
    def test_plain_call_same_module(self):
        p = _project(("m.py", "def g():\n    return 1\n\ndef f():\n    return g()\n"))
        edges = [e for e in p.edges if e.caller == "m.f"]
        assert edges and edges[0].callee == "m.g"

    def test_import_aware_cross_module(self):
        p = _project(
            ("helpers.py", "def claim(rows, parent):\n    parent[rows] = 1\n"),
            ("engine.py", "import helpers\n\ndef f(rows, parent):\n    helpers.claim(rows, parent)\n"),
        )
        edges = [e for e in p.edges if e.caller == "engine.f"]
        assert edges[0].callee == "helpers.claim"

    def test_from_import_cross_module(self):
        p = _project(
            ("helpers.py", "def claim(rows, parent):\n    parent[rows] = 1\n"),
            ("engine.py", "from helpers import claim\n\ndef f(rows, parent):\n    claim(rows, parent)\n"),
        )
        edges = [e for e in p.edges if e.caller == "engine.f"]
        assert edges[0].callee == "helpers.claim"

    def test_method_dispatch_via_annotation(self):
        src = (
            "class Engine:\n"
            "    def run(self, g):\n"
            "        return g\n"
            "\n"
            "def drive(eng: Engine, g):\n"
            "    return eng.run(g)\n"
        )
        p = _project(("m.py", src))
        edges = [e for e in p.edges if e.caller == "m.drive"]
        assert edges[0].callee == "m.Engine.run"
        assert edges[0].receiver == "eng"

    def test_method_dispatch_via_ctor_local(self):
        src = (
            "class Engine:\n"
            "    def run(self, g):\n"
            "        return g\n"
            "\n"
            "def drive(g):\n"
            "    eng = Engine()\n"
            "    return eng.run(g)\n"
        )
        p = _project(("m.py", src))
        callees = {e.callee for e in p.edges if e.caller == "m.drive"}
        assert "m.Engine.run" in callees

    def test_nested_scope_resolves_innermost(self):
        src = (
            "def outer():\n"
            "    def helper():\n"
            "        return 1\n"
            "    return helper()\n"
            "\n"
            "def helper():\n"
            "    return 2\n"
        )
        p = _project(("m.py", src))
        edges = [e for e in p.edges if e.caller == "m.outer"]
        assert edges[0].callee == "m.outer.helper"

    def test_dispatch_edges_marked(self):
        src = (
            "def level(pool, frontier, parent):\n"
            "    def scan(chunk):\n"
            "        return chunk\n"
            "    return list(pool.map(scan, frontier))\n"
        )
        p = _project(("m.py", src))
        dispatch = [e for e in p.edges if e.dispatch]
        assert dispatch and dispatch[0].callee == "m.level.scan"

    def test_defs_under_compound_statements_are_functions(self):
        """A def under ``if``/``try``/``with`` binds in the enclosing
        scope, and a pool dispatch resolves to it there."""
        src = (
            "def step(pool, frontier, parent, threaded):\n"
            "    if threaded:\n"
            "        def w(chunk):\n"
            "            parent[chunk] = 1\n"
            "            return chunk\n"
            "        return list(pool.map(w, [frontier]))\n"
            "    try:\n"
            "        def retry():\n"
            "            return 1\n"
            "    except ValueError:\n"
            "        def fallback():\n"
            "            return 2\n"
            "    with open(frontier):\n"
            "        def close():\n"
            "            return 3\n"
        )
        p = _project(("m.py", src))
        assert sorted(p.functions) == [
            "m.step", "m.step.close", "m.step.fallback", "m.step.retry",
            "m.step.w",
        ]
        assert [(e.caller, e.callee) for e in p.edges if e.dispatch] == [
            ("m.step", "m.step.w")
        ]
        assert "parent" in p.summaries["m.step.w"].writes

    def test_constructor_arguments_skip_self(self):
        """``Cls(x)`` resolves to ``Cls.__init__``, whose ``self`` is
        the new object: ``x`` binds to the first parameter after it, so
        an ``__init__`` that stores on ``self`` writes nothing of the
        caller's."""
        src = (
            "class Claim:\n"
            "    def __init__(self, parent):\n"
            "        self.parent = parent\n"
            "\n"
            "def step(pool, frontier, parent):\n"
            "    def w(chunk):\n"
            "        Claim(parent)\n"
            "        return chunk\n"
            "    return list(pool.map(w, [frontier]))\n"
        )
        p = _project(("m.py", src))
        (edge,) = [e for e in p.edges if e.caller == "m.step.w"]
        assert edge.callee == "m.Claim.__init__"
        assert edge_bindings(edge, ("self", "parent")) == [
            ("parent", "parent")
        ]
        assert p.summaries["m.step.w"].writes == frozenset()

    def test_package_constructor_calls_write_no_argument(self):
        """Binding ``graph`` to ``self`` in ``Sanitizer(graph, source)``
        would mark every sanitizing engine as writing its graph and
        source."""
        p = build_project(iter_python_files([Path(repro.__file__).parent]))
        for qname in (
            "repro.bfs.engine.sanitizers",
            "repro.bfs.topdown.bfs_top_down",
            "repro.bfs.bottomup.bfs_bottom_up",
            "repro.bfs.hybrid.bfs_hybrid",
        ):
            writes = p.summaries[qname].writes
            assert not writes & {"graph", "source"}, (qname, writes)


class TestFixpoint:
    CHAIN = (
        "def _claim(rows, parent, depth):\n"
        "    parent[rows] = depth\n"
        "\n"
        "def level(frontier, parent, depth):\n"
        "    _claim(frontier, parent, depth)\n"
        "\n"
        "def outer(frontier, parent, depth):\n"
        "    level(frontier, parent, depth)\n"
        "\n"
        "def outermost(frontier, parent, depth):\n"
        "    outer(frontier, parent, depth)\n"
    )

    def test_writes_reach_arbitrary_depth(self):
        p = _project(("m.py", self.CHAIN))
        assert "parent" in p.summaries["m.outer"].writes
        assert "parent" in p.summaries["m.outermost"].writes

    def test_raises_propagate_across_modules(self):
        p = _project(
            ("low.py", "def step(v):\n    raise ValueError(v)\n"),
            ("mid.py", "import low\n\ndef drive(v):\n    return low.step(v)\n"),
            ("top.py", "import mid\n\ndef entry(v):\n    return mid.drive(v)\n"),
        )
        assert p.summaries["mid.drive"].raises
        assert p.summaries["top.entry"].raises

    def test_recursion_terminates(self):
        src = (
            "def ping(a, n):\n"
            "    a[n] = 0\n"
            "    return pong(a, n - 1)\n"
            "\n"
            "def pong(a, n):\n"
            "    return ping(a, n - 1)\n"
        )
        p = _project(("m.py", src))
        assert "a" in p.summaries["m.ping"].writes
        assert "a" in p.summaries["m.pong"].writes
        assert p.rounds < 100  # bounded, not spinning


class TestQueries:
    def test_who_writes_workspace_target(self):
        src = (
            "def fill(ws, depth):\n"
            "    ws.parent[:] = depth\n"
            "\n"
            "def run(workspace, depth):\n"
            "    fill(workspace, depth)\n"
        )
        p = _project(("m.py", src))
        assert set(p.who_writes("workspace.parent")) == {"m.fill", "m.run"}

    def test_reachable_and_callers(self):
        p = _project(("m.py", TestFixpoint.CHAIN))
        assert p.callers_of("m._claim") == {"m.level", "m.outer", "m.outermost"}

    def test_cycles_detects_mutual_recursion(self):
        src = (
            "def ping(n):\n    return pong(n - 1)\n"
            "\n"
            "def pong(n):\n    return ping(n - 1)\n"
        )
        p = _project(("m.py", src))
        comps = p.cycles()
        assert any(set(c) == {"m.ping", "m.pong"} for c in comps)


class TestExports:
    def test_dot_smoke(self):
        p = _project(("m.py", TestFixpoint.CHAIN))
        dot = p.to_dot()
        assert dot.startswith("digraph callgraph {")
        assert '"m.outer" -> "m.level"' in dot

    def test_json_schema_and_summaries(self):
        p = _project(("m.py", TestFixpoint.CHAIN))
        payload = json.loads(p.to_json(summaries=True))
        assert payload["schema"] == "repro.analysis.callgraph/1"
        assert payload["stats"]["functions"] == 4
        assert "parent" in payload["summaries"]["m.outer"]["writes"]

    def test_stats_counts_resolution(self):
        p = _project(("m.py", TestFixpoint.CHAIN))
        stats = p.stats()
        assert stats["modules"] == 1
        assert stats["resolved_edges"] == 3


class TestCacheAndRecords:
    def test_extraction_walks_each_body_once(self, monkeypatch):
        """The effect summary, the resource acquisitions and the body
        scan share one node list per function definition."""
        src = (
            "import numpy as np\n"
            "\n"
            "class Engine:\n"
            "    def level(self, frontier, parent):\n"
            "        def expand(chunk):\n"
            "            def keep(x):\n"
            "                return x[x >= 0]\n"
            "            parent[chunk] = 0\n"
            "            return keep(chunk)\n"
            "        return list(self._pool.map(expand, [frontier]))\n"
            "\n"
            "def scratch(ws, rows):\n"
            "    buf = ws.buffer('s', rows.size, np.int64)\n"
            "    buf[:] = rows\n"
            "    return buf\n"
        )
        walk = effects._walk_own
        walked = []

        def counting_walk(fn):
            walked.append(fn.name)
            return walk(fn)

        monkeypatch.setattr(effects, "_walk_own", counting_walk)
        rec = extract_module(parse_module(src, "m.py"))
        assert sorted(walked) == sorted(f.name for f in rec.functions)
        assert sorted(walked) == ["expand", "keep", "level", "scratch"]

    def test_build_project_skips_broken_files(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("def f():\n    return 1\n", encoding="utf-8")
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        p = build_project([good, bad])
        assert len(p.modules) == 1

    def test_build_project_empty_raises(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        with pytest.raises(CallGraphError):
            build_project([bad])


class TestHotPathFlag:
    """Extraction reads the context's hot-path flag, so RPR019 honours
    ``lint_source(hot_path=...)`` as RPR001 does."""

    SRC = (
        Path(__file__).parent / "fixtures" / "rpr019_bad.py"
    ).read_text(encoding="utf-8")

    def _rpr019_lines(self, path, hot_path):
        return [
            v.line
            for v in lint_source(
                self.SRC, path=path, select=["RPR019"], deep=True,
                hot_path=hot_path,
            )
        ]

    def test_override_makes_a_cold_path_hot(self):
        assert self._rpr019_lines("rpr019_bad.py", None) == []
        assert self._rpr019_lines("rpr019_bad.py", True) == [11]

    def test_override_makes_a_hot_path_cold(self):
        path = "src/repro/bfs/rpr019_bad.py"
        assert self._rpr019_lines(path, None) == [11]
        assert self._rpr019_lines(path, False) == []

    def test_memo_keeps_the_two_flags_apart(self):
        """One source at one path under both flags: the extraction
        record memoized for one flag must not answer for the other."""
        for hot in (True, False, True, False):
            expected = [11] if hot else []
            assert self._rpr019_lines("rpr019_bad.py", hot) == expected


class TestModuleNames:
    def test_package_walk(self):
        path = Path("src/repro/bfs/parallel.py")
        assert module_name_for(path) == "repro.bfs.parallel"

    def test_loose_file_uses_stem(self, tmp_path):
        loose = tmp_path / "scratch.py"
        loose.write_text("x = 1\n", encoding="utf-8")
        assert module_name_for(loose) == "scratch"
