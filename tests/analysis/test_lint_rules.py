"""Each lint rule must fire on a minimal bad example and stay silent on
a minimal good one; suppression and reporters are covered too."""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    RULES,
    format_json,
    format_text,
    lint_paths,
    lint_source,
)
from repro.errors import LintError


def codes(violations):
    return [v.rule for v in violations]


class TestRegistry:
    def test_all_rules_registered(self):
        assert set(RULES) == {
            "RPR001",
            "RPR002",
            "RPR003",
            "RPR004",
            "RPR005",
            "RPR006",
            "RPR007",
            "RPR008",
            "RPR009",
            "RPR010",
            "RPR011",
            "RPR012",
            "RPR013",
            "RPR014",
            "RPR015",
            "RPR016",
            "RPR017",
            "RPR019",
            "RPR020",
            "RPR023",
            "RPR024",
        }

    def test_deep_rules_flagged(self):
        from repro.analysis import deep_rule_codes

        assert deep_rule_codes() == [
            "RPR010", "RPR011", "RPR012", "RPR013", "RPR014",
            "RPR015", "RPR016", "RPR017", "RPR019",
            "RPR023", "RPR024",
        ]
        for code in deep_rule_codes():
            assert RULES[code].deep
        # the rules that read the call-graph project are flagged as
        # whole-program, so lint_paths builds it when they are selected
        for code in ("RPR011", "RPR013", "RPR014", "RPR015", "RPR016",
                     "RPR017", "RPR019", "RPR023", "RPR024"):
            assert RULES[code].whole_program
        for code in ("RPR010", "RPR012"):
            assert not RULES[code].whole_program

    def test_deep_rules_excluded_by_default(self):
        # a seeded RPR010 bug must stay silent without deep=True
        body = (
            "import numpy as np\n"
            "def gather_step(workspace, frontier):\n"
            "    idx = workspace.iota(frontier.size)\n"
            "    return idx.astype(np.int32)\n"
        )
        assert "RPR010" not in codes(lint_source(body, hot_path=True))
        deep = lint_source(body, hot_path=True, deep=True)
        assert "RPR010" in codes(deep)

    def test_rules_have_summaries(self):
        for rl in RULES.values():
            assert rl.summary and rl.code.startswith("RPR")

    def test_unknown_select_rejected(self):
        with pytest.raises(LintError):
            lint_source("x = 1\n", select=["RPR999"])

    def test_unparsable_source_rejected(self):
        with pytest.raises(LintError):
            lint_source("def broken(:\n", select=["RPR004"])


class TestRPR001HotPathLoops:
    def fires(self, body):
        return lint_source(body, select=["RPR001"], hot_path=True)

    def test_fires_on_frontier_loop(self):
        v = self.fires("for v in frontier:\n    visit(v)\n")
        assert codes(v) == ["RPR001"]

    def test_fires_on_range_num_vertices(self):
        v = self.fires("for v in range(graph.num_vertices):\n    pass\n")
        assert codes(v) == ["RPR001"]

    def test_fires_on_neighbors_call(self):
        v = self.fires("for w in graph.neighbors(u):\n    pass\n")
        assert codes(v) == ["RPR001"]

    def test_fires_in_comprehension(self):
        v = self.fires("out = [f(v) for v in frontier]\n")
        assert codes(v) == ["RPR001"]

    def test_silent_on_chunk_loop(self):
        assert self.fires("for lo, hi in bounds:\n    pass\n") == []

    def test_silent_on_plain_range(self):
        assert self.fires("for i in range(10):\n    pass\n") == []

    def test_silent_outside_hot_path(self):
        v = lint_source(
            "for v in frontier:\n    pass\n",
            select=["RPR001"],
            hot_path=False,
        )
        assert v == []

    def test_hot_path_inferred_from_path(self):
        v = lint_source(
            "for v in frontier:\n    pass\n",
            path="src/repro/bfs/custom.py",
            select=["RPR001"],
        )
        assert codes(v) == ["RPR001"]


class TestRPR002OffsetNarrowing:
    def test_fires_on_astype(self):
        v = lint_source(
            "x = graph.offsets.astype(np.int32)\n", select=["RPR002"]
        )
        assert codes(v) == ["RPR002"]

    def test_fires_on_derived_expression(self):
        v = lint_source(
            "x = (offsets[1:] - offsets[:-1]).astype(np.int32)\n",
            select=["RPR002"],
        )
        assert codes(v) == ["RPR002"]

    def test_fires_on_asarray_dtype(self):
        v = lint_source(
            "x = np.asarray(g.offsets, dtype=np.int32)\n", select=["RPR002"]
        )
        assert codes(v) == ["RPR002"]

    def test_silent_on_int64(self):
        v = lint_source(
            "x = graph.offsets.astype(np.int64)\n", select=["RPR002"]
        )
        assert v == []

    def test_silent_on_targets_narrowing(self):
        # targets hold vertex ids, which do fit int32 by design.
        v = lint_source("x = key.astype(np.int32)\n", select=["RPR002"])
        assert v == []


class TestRPR003WallClock:
    def test_fires_on_time_time(self):
        v = lint_source("t0 = time.time()\n", select=["RPR003"])
        assert codes(v) == ["RPR003"]

    def test_fires_on_from_import(self):
        v = lint_source("from time import time\n", select=["RPR003"])
        assert codes(v) == ["RPR003"]

    def test_silent_on_perf_counter(self):
        v = lint_source("t0 = time.perf_counter()\n", select=["RPR003"])
        assert v == []


class TestRPR008AdHocPerfCounter:
    def test_fires_on_call(self):
        v = lint_source("t0 = time.perf_counter()\n", select=["RPR008"])
        assert codes(v) == ["RPR008"]

    def test_fires_on_from_import(self):
        v = lint_source("from time import perf_counter\n", select=["RPR008"])
        assert codes(v) == ["RPR008"]

    def test_exempt_inside_obs_package(self):
        v = lint_source(
            "t0 = time.perf_counter()\n",
            path="src/repro/obs/clock.py",
            select=["RPR008"],
        )
        assert v == []

    def test_silent_on_obs_clock(self):
        v = lint_source(
            "from repro.obs.clock import now\nt0 = now()\n",
            select=["RPR008"],
        )
        assert v == []

    def test_suppressed_by_noqa(self):
        v = lint_source(
            "t0 = time.perf_counter()  # repro: noqa[RPR008]\n",
            select=["RPR008"],
        )
        assert v == []


class TestRPR009MetricNames:
    def test_fires_on_undeclared_name(self):
        v = lint_source('tracer.count("not.declared", 1)\n', select=["RPR009"])
        assert codes(v) == ["RPR009"]
        assert "METRIC_CATALOG" in v[0].message

    def test_fires_on_malformed_name(self):
        v = lint_source(
            'registry.histogram("My.BadName")\n', select=["RPR009"]
        )
        assert codes(v) == ["RPR009"]
        assert "lowercase" in v[0].message

    def test_silent_on_catalog_name(self):
        v = lint_source('tracer.count("bfs.levels", 1)\n', select=["RPR009"])
        assert v == []

    def test_ignores_non_string_first_arg(self):
        # An observe() whose first argument is not a string literal,
        # like Histogram.observe(value), is not a metric registration.
        v = lint_source(
            "monitor.observe(report)\nhist.observe(0.5)\n",
            select=["RPR009"],
        )
        assert v == []

    def test_suppressed_by_noqa(self):
        v = lint_source(
            'tracer.count("ad.hoc", 1)  # repro: noqa[RPR009]\n',
            select=["RPR009"],
        )
        assert v == []


class TestRPR004BareAssert:
    def test_fires_on_assert(self):
        v = lint_source("assert x > 0\n", select=["RPR004"])
        assert codes(v) == ["RPR004"]

    def test_silent_on_raise(self):
        v = lint_source(
            "if x <= 0:\n    raise GraphError('bad')\n", select=["RPR004"]
        )
        assert v == []


class TestRPR005CSRMutation:
    def test_fires_on_element_write(self):
        v = lint_source("g.offsets[0] = 5\n", select=["RPR005"])
        assert codes(v) == ["RPR005"]

    def test_fires_on_rebinding(self):
        v = lint_source("g.targets = other\n", select=["RPR005"])
        assert codes(v) == ["RPR005"]

    def test_fires_on_inplace_method(self):
        v = lint_source("g.offsets.fill(0)\n", select=["RPR005"])
        assert codes(v) == ["RPR005"]

    def test_fires_on_augassign(self):
        v = lint_source("g.offsets[1:] += 1\n", select=["RPR005"])
        assert codes(v) == ["RPR005"]

    def test_silent_on_reads(self):
        v = lint_source(
            "x = g.offsets[0]\ny = g.targets[a:b]\n", select=["RPR005"]
        )
        assert v == []

    def test_exempt_in_construction_module(self):
        v = lint_source(
            "self.offsets[0] = 0\n",
            path="src/repro/graph/csr.py",
            select=["RPR005"],
        )
        assert v == []


class TestRPR006MissingAll:
    def test_fires_on_public_module(self):
        v = lint_source('"""Doc."""\nx = 1\n', path="mod.py", select=["RPR006"])
        assert codes(v) == ["RPR006"]

    def test_silent_with_all(self):
        v = lint_source(
            '"""Doc."""\n__all__ = ["x"]\nx = 1\n',
            path="mod.py",
            select=["RPR006"],
        )
        assert v == []

    def test_private_module_exempt(self):
        v = lint_source("x = 1\n", path="_private.py", select=["RPR006"])
        assert v == []

    def test_dunder_module_exempt(self):
        v = lint_source("x = 1\n", path="__main__.py", select=["RPR006"])
        assert v == []


class TestRPR007KernelAllocations:
    KERNEL_PATH = "src/repro/bfs/custom.py"

    def in_kernel(self, body, path=KERNEL_PATH):
        src = f"def my_step(graph, frontier, parent, level, depth):\n"
        src += "".join(f"    {line}\n" for line in body.splitlines())
        return lint_source(src, path=path, select=["RPR007"])

    def test_fires_on_arange(self):
        v = self.in_kernel("idx = np.arange(frontier.size)")
        assert codes(v) == ["RPR007"]

    def test_fires_on_graph_sized_alloc(self):
        v = self.in_kernel("slot = np.empty(parent.size, dtype=np.int64)")
        assert codes(v) == ["RPR007"]

    def test_fires_on_parent_rescan(self):
        v = self.in_kernel("unv = np.nonzero(parent < 0)[0]")
        assert codes(v) == ["RPR007"]

    def test_fires_on_flatnonzero(self):
        v = self.in_kernel("unv = np.flatnonzero(parent < 0)")
        assert codes(v) == ["RPR007"]

    def test_empty_sentinel_allowed(self):
        assert self.in_kernel("out = np.zeros(0, dtype=np.int64)") == []

    def test_silent_outside_repro_bfs(self):
        v = self.in_kernel(
            "idx = np.arange(frontier.size)", path="src/repro/apps/x.py"
        )
        assert v == []

    def test_silent_in_non_kernel_function(self):
        v = lint_source(
            "def helper(parent):\n    return np.arange(parent.size)\n",
            path=self.KERNEL_PATH,
            select=["RPR007"],
        )
        assert v == []

    def test_scan_suffix_is_kernel(self):
        v = lint_source(
            "def _row_scan(rows):\n    return np.arange(rows.size)\n",
            path=self.KERNEL_PATH,
            select=["RPR007"],
        )
        assert codes(v) == ["RPR007"]

    def test_noqa_suppresses(self):
        v = self.in_kernel(
            "idx = np.arange(k)  # repro: noqa[RPR007]"
        )
        assert v == []


class TestRPR020AdhocInstrumentation:
    def test_fires_on_tracemalloc_import(self):
        v = lint_source("import tracemalloc\n", select=["RPR020"])
        assert codes(v) == ["RPR020"]

    def test_fires_on_tracemalloc_from_import(self):
        v = lint_source(
            "from tracemalloc import take_snapshot\n", select=["RPR020"]
        )
        assert codes(v) == ["RPR020"]

    def test_fires_on_tracemalloc_call(self):
        v = lint_source(
            "import tracemalloc\ntracemalloc.start()\n", select=["RPR020"]
        )
        assert codes(v) == ["RPR020", "RPR020"]

    def test_fires_on_settrace_and_setprofile(self):
        v = lint_source(
            "import sys\nsys.settrace(None)\nsys.setprofile(None)\n",
            select=["RPR020"],
        )
        assert codes(v) == ["RPR020", "RPR020"]

    def test_fires_on_sys_from_import(self):
        v = lint_source(
            "from sys import setprofile\n", select=["RPR020"]
        )
        assert codes(v) == ["RPR020"]

    def test_silent_inside_obs(self):
        v = lint_source(
            "import tracemalloc\nimport sys\nsys.setprofile(None)\n",
            path="src/repro/obs/profile/alloc.py",
            select=["RPR020"],
        )
        assert v == []

    def test_silent_on_other_sys_calls(self):
        v = lint_source(
            "import sys\nsys.exit(0)\nfrom sys import argv\n",
            select=["RPR020"],
        )
        assert v == []

    def test_noqa_suppresses(self):
        v = lint_source(
            "import tracemalloc  # repro: noqa[RPR020]\n",
            select=["RPR020"],
        )
        assert v == []


class TestSuppression:
    def test_targeted_noqa(self):
        v = lint_source(
            "t0 = time.time()  # repro: noqa[RPR003]\n", select=["RPR003"]
        )
        assert v == []

    def test_blanket_noqa(self):
        v = lint_source("assert x  # repro: noqa\n", select=["RPR004"])
        assert v == []

    def test_noqa_for_other_rule_does_not_suppress(self):
        v = lint_source(
            "t0 = time.time()  # repro: noqa[RPR004]\n", select=["RPR003"]
        )
        assert codes(v) == ["RPR003"]

    def test_noqa_multiple_codes(self):
        v = lint_source(
            "assert time.time()  # repro: noqa[RPR003, RPR004]\n",
            select=["RPR003", "RPR004"],
        )
        assert v == []

    def test_noqa_only_applies_to_its_line(self):
        src = "t0 = time.time()  # repro: noqa[RPR003]\nt1 = time.time()\n"
        v = lint_source(src, select=["RPR003"])
        assert [x.line for x in v] == [2]


class TestReportersAndPaths:
    def test_text_format(self):
        v = lint_source("assert x\n", path="m.py", select=["RPR004"])
        assert format_text(v) == f"m.py:1:0 RPR004 {v[0].message}"

    def test_json_format_round_trips(self):
        v = lint_source("assert x\n", path="m.py", select=["RPR004"])
        data = json.loads(format_json(v))
        assert data[0]["rule"] == "RPR004"
        assert data[0]["line"] == 1
        assert data[0]["path"] == "m.py"

    def test_lint_paths_walks_directories(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "good.py").write_text('__all__ = []\n')
        (pkg / "bad.py").write_text('__all__ = []\nassert 1\n')
        (pkg / "__pycache__").mkdir()
        (pkg / "__pycache__" / "junk.py").write_text("assert 1\n")
        violations, checked = lint_paths([pkg])
        assert checked == 2
        assert codes(violations) == ["RPR004"]

    def test_lint_paths_missing_path(self, tmp_path):
        with pytest.raises(LintError):
            lint_paths([tmp_path / "nope"])
