"""Tests for the end-to-end benchmark's Graph 500 flow, fault accounting, metric
names, input handling and verdicts.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graph500 import HybridEngine, run_graph500

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"e2e_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations here
    spec.loader.exec_module(module)
    return module


bench = _load("run")
compare = _load("compare")

TINY = bench.Workload("tiny", "scale-10 R-MAT", "rmat", 10, num_roots=8)
TINY_PAR = bench.Workload("tiny-par", "", "rmat", 10, parallel=True, num_roots=8)
# Large enough that no frontier reaches |V|/N, so that, as on grid-hd,
# every level runs top-down.
TINY_GRID = bench.Workload("tiny-grid", "", "grid", 256, num_roots=8)


@pytest.mark.parametrize("seed", [0, 5])
def test_graph500_run_matches_run_graph500(seed):
    run = bench.run_workload(TINY, seed, 0.0, setups=1, graph_seed=seed)
    ref = run_graph500(10, num_roots=8, engine=HybridEngine(), seed=seed)
    ref_edges = np.rint(ref.teps * ref.bfs_seconds).astype(np.int64)
    assert run.searches == list(zip(ref.roots.tolist(), ref_edges.tolist()))
    assert run.attempted == 8 and run.failed == 0


@pytest.mark.parametrize("seconds, more", [(1e-6, False), (0.5, True)])
def test_panel_passes_fill_the_measuring_time(seconds, more):
    run = bench.run_workload(TINY, 0, seconds, setups=2)
    assert len(run.setup_s) == 2 and len(run.searches) == 8
    passes = {len(p.seconds) for p in run.panel}
    assert len(run.panel) == 8 and len(passes) == 1
    assert (passes.pop() > bench.MIN_PASSES) == more
    assert run.attempted == 8 + 8 * len(run.panel[0].seconds)
    assert all(p.edges > 0 for p in run.panel)


def _faulty_make_engine(real):
    """Engines whose second call raises and whose fifth call returns a
    parent map with one corrupted entry."""

    def make_engine(workspace, pool):
        engine = real(workspace, pool)
        calls = itertools.count()

        def wrapped(graph, root):
            call = next(calls)
            if call == 1:
                raise RuntimeError("injected engine fault")
            result = engine(graph, root)
            if call == 4:
                child = int(np.flatnonzero(result.level == 1)[0])
                result.parent[child] = child
            return result

        return wrapped

    return make_engine


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def test_faults_are_counted_and_the_run_completes(monkeypatch, capsys):
    # 8 Graph 500 searches, then two panel passes over 8 roots.
    monkeypatch.setitem(bench.WORKLOADS, "tiny", TINY)
    argv = ["--workload", "tiny", "--seconds", "1e-6"]

    assert bench.main(argv) == 0
    clean = _last_json(capsys.readouterr().out)
    assert clean["correct"] and (clean["attempted"], clean["failed"]) == (24, 0)

    monkeypatch.setattr(bench, "make_engine", _faulty_make_engine(bench.make_engine))
    assert bench.main(argv) == 1
    captured = capsys.readouterr()
    faulty = _last_json(captured.out)
    assert not faulty["correct"]
    assert (faulty["attempted"], faulty["failed"]) == (24, 2)
    assert "failed_frac" in captured.out and " 0.0833333 fraction" in captured.out
    assert set(faulty["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert "injected engine fault" in captured.err
    assert "tree edges do not drop exactly one level" in captured.err


@pytest.mark.parametrize("workload", [TINY, TINY_PAR, TINY_GRID])
def test_traced_run_emits_every_per_layer_metric(workload, monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "untraced_run_s", lambda *args: 1.0)
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    run, metrics, trace_ok = bench.traced_run(workload, 0)
    assert trace_ok and (tmp_path / f"{workload.name}.trace.json").is_file()
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    value = {name: v for name, (v, _) in metrics.items()}
    assert value["bfs.levels.td"] + value["bfs.levels.bu"] > 0
    assert value["trace.phase_coverage"] <= 1.0
    assert value["graph.csr.entries"] == run.entries
    if workload.graph == "grid":
        assert value["bfs.level_s.bu"] == 0 and value["bfs.levels.bu"] == 0
        assert value["graph.csr.from_edges_s"] == 0
    assert (value["bfs.parallel.worker_busy_s"] > 0) == workload.parallel
    assert (value["bfs.parallel.busy_frac"] > 0) == workload.parallel


def test_traced_run_reports_when_every_traversal_raises(monkeypatch, tmp_path):
    def broken(workspace, pool):
        def engine(graph, root):
            raise RuntimeError("broken engine")

        return engine

    monkeypatch.setattr(bench, "make_engine", broken)
    monkeypatch.setattr(bench, "untraced_run_s", lambda *args: 1.0)
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    run, metrics, _ = bench.traced_run(TINY, 0)
    assert (run.attempted, run.failed) == (8, 8)
    assert metrics["graph.validate.ms_p50"][0] == 0.0


@pytest.mark.parametrize("workload", [TINY, TINY_PAR, TINY_GRID])
def test_end_to_end_metrics_match_benchmark_json(workload):
    metrics = bench.end_to_end_metrics(bench.run_workload(workload, 0, 1e-6))
    assert [(n, u) for n, (_, u) in metrics.items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]
    ]
    assert all(v > 0 for v, _ in metrics.values())


@pytest.mark.parametrize(
    "args",
    [
        ["--workload", "nope"],
        ["--seed", "-1"],
        ["--seed", "x"],
        ["--trace", "2"],
        ["--seconds", "nan"],
        ["--seconds", "0"],
        ["--bogus"],
    ],
)
def test_input_errors_print_one_line_and_exit_2(args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_without_the_library_it_fails_without_a_result(tmp_path):
    copy = tmp_path / "benchmarks" / "e2e"
    copy.mkdir(parents=True)
    shutil.copy(HERE / "run.py", copy / "run.py")
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "grid-hd"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "base, new, better, expected",
    [
        ([10, 10.1, 9.9, 10.05, 9.95], [10.02, 9.98, 10.1, 9.9, 10], "lower", "same"),
        ([10, 10.1, 9.9, 10.05, 9.95], [12, 12.1, 11.9, 12.05, 11.95], "lower", "worse"),
        ([10, 10.1, 9.9, 10.05, 9.95], [8, 8.1, 7.9, 8.05, 7.95], "lower", "better"),
        ([10, 10.1, 9.9, 10.05, 9.95], [8, 8.1, 7.9, 8.05, 7.95], "higher", "worse"),
        ([10, 14, 6, 12, 8], [10, 13, 7, 11, 9], "lower", "unresolved"),
    ],
)
def test_compare_verdicts(base, new, better, expected):
    assert compare.verdict(base, new, 0.1, better) == expected


def test_compare_exit_status(tmp_path, capsys):
    def write(path, values):
        with open(path, "w") as fh:
            for v in values:
                metrics = {"run_s": {"value": v, "unit": "s"}}
                fh.write(json.dumps({"workload": "w", "metrics": metrics}) + "\n")

    write(tmp_path / "a.jsonl", [10, 10.1, 9.9])
    write(tmp_path / "b.jsonl", [10, 10.05, 9.95])
    write(tmp_path / "c.jsonl", [13, 13.1, 12.9])
    assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]) == 0
    assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "c.jsonl")]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([str(tmp_path / "a.jsonl")]) == 2
