"""Integration tests: every example script runs end to end.

Each example is executed in-process (its ``main`` imported and run with
a tiny scale via ``sys.argv``) so failures point at real lines, and the
printed narrative is checked for its key facts.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def run_example(monkeypatch, capsys, name: str, argv: list[str]) -> str:
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "argv", [name] + argv)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


def test_quickstart(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "quickstart", ["11", "16"])
    assert "GTEPS" in out
    assert "hybrid" in out
    assert "bu" in out  # the hybrid switched


def test_social_network(monkeypatch, capsys):
    out = run_example(
        monkeypatch, capsys, "social_network_analysis", ["11"]
    )
    assert "Degrees of separation" in out
    assert "mean separation" in out
    assert "influencer" in out


def test_heterogeneous_tuning(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "heterogeneous_tuning", ["12"])
    assert "predicted switching points" in out
    assert "per-level placement" in out
    assert "oracle" in out


def test_graph500_run(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "graph500_run", ["10", "8", "4"])
    assert "kernel 1" in out
    assert "harmonic-mean" in out
    assert "validated" in out


def test_circuit_reachability(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "circuit_reachability", ["11"])
    assert "Reachability queries" in out
    assert "Fan-out cones" in out
    assert "logic depth" in out


def test_trace_bfs(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(tmp_path)  # exports land in a scratch dir
    out = run_example(monkeypatch, capsys, "trace_bfs", ["10", "64", "512"])
    assert "Span summary" in out
    assert "bfs.hybrid" in out
    assert "Direction per level" in out
    assert "mistuning report" in out
    assert "schema-validated" in out
    assert (tmp_path / "trace_bfs.trace.json").exists()
    assert (tmp_path / "trace_bfs.jsonl").exists()

