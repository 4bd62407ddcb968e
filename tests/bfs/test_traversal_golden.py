"""Bit-identity lock for every traversal entry point.

``golden_traversals.json`` holds SHA-256 digests of ``parent``,
``level``, ``edges_examined`` and ``directions`` for every engine
configuration below on a small adversarial corpus.  Any change to a
traversal's output, however small, changes a digest and fails here.

Regenerate (only when an output change is intended) with::

    PYTHONPATH=src python tests/bfs/test_traversal_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.apps.components import connected_components
from repro.arch.machine import SimulatedMachine
from repro.arch.specs import CPU_SANDY_BRIDGE, GPU_K20X
from repro.bfs import (
    MNPolicy,
    ParallelBFS,
    bfs_bottom_up,
    bfs_hybrid,
    bfs_top_down,
    pick_sources,
    profile_bfs,
    timed_bfs,
)
from repro.errors import ReproError
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid2d, path, rmat, star
from repro.hetero import cross_plan, execute_plan
from repro.linalg import bfs_bottom_up_tiles

GOLDEN = Path(__file__).with_name("golden_traversals.json")

#: The three (M, N) switching points every hybrid configuration runs at.
MN_POINTS = ((2.0, 2.0), (14.0, 24.0), (64.0, 512.0))
THREADS = (1, 2, 3)


def _clique_isolated() -> CSRGraph:
    """A 6-clique followed by 44 degree-0 vertices."""
    src, dst = np.meshgrid(np.arange(6), np.arange(6))
    keep = src != dst
    return CSRGraph.from_edges(src[keep], dst[keep], 50)


def _directed_back_edges() -> CSRGraph:
    """A directed graph whose cycles close with back edges to shallower
    levels (4 -> 1 and 6 -> 0); vertex 7 is unreachable."""
    src = [0, 1, 2, 3, 4, 2, 5, 6, 1]
    dst = [1, 2, 3, 4, 1, 5, 6, 0, 5]
    return CSRGraph.from_edges(src, dst, 8, symmetrize=False)


def _corpus() -> dict[str, tuple[CSRGraph, int]]:
    g = rmat(10, 16, seed=7)
    return {
        "star": (star(65), 7),
        "chain": (path(300), 0),
        "clique-isolated": (_clique_isolated(), 2),
        "directed-back-edge": (_directed_back_edges(), 0),
        "rmat-s10": (g, int(pick_sources(g, 1, seed=3)[0])),
        "grid-32x32": (grid2d(32, 32), 0),
    }


def _sha(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _array(values: np.ndarray) -> str:
    return _sha(np.ascontiguousarray(values, dtype="<i8").tobytes())


def _json(value) -> str:
    return _sha(json.dumps(value, separators=(",", ":")).encode())


def _result(res) -> dict[str, str]:
    return {
        "parent": _array(res.parent),
        "level": _array(res.level),
        "edges_examined": _json([int(x) for x in res.edges_examined]),
        "directions": _json([str(d) for d in res.directions]),
    }


def _timed(run) -> dict[str, str]:
    out = _result(run.result)
    out["levels"] = _json(
        [
            [lv.level, lv.direction, lv.frontier_vertices,
             lv.edges_examined, lv.kernel]
            for lv in run.levels
        ]
    )
    return out


def _profiled(graph, source, **kw) -> dict[str, str]:
    profile, res = profile_bfs(graph, source, **kw)
    out = _result(res)
    out["records"] = _json(json.loads(profile.to_json())["records"])
    return out


def _parallel(threads: int, direction: str | None, sanitize=False):
    def run(graph, source):
        policy = MNPolicy(14.0, 24.0) if direction is None else None
        with ParallelBFS(num_threads=threads, policy=policy) as engine:
            return _result(
                engine.run(
                    graph, source, direction=direction, sanitize=sanitize
                )
            )

    return run


def _plan(graph, source):
    machine = SimulatedMachine({"cpu": CPU_SANDY_BRIDGE, "gpu": GPU_K20X})
    profile, _ = profile_bfs(graph, source)
    plan = cross_plan(profile, 14.0, 24.0, 64.0, 512.0)
    res, _ = execute_plan(machine, graph, source, plan)
    out = _result(res)
    out["plan"] = _json([[s.device, s.direction] for s in plan])
    return out


def _components(policy):
    def run(graph, source):
        labels = connected_components(graph, policy)
        return {
            "labels": _array(labels.labels),
            "sizes": _array(labels.sizes),
        }

    return run


def _cases():
    cases = {
        "bfs_top_down": lambda g, s: _result(bfs_top_down(g, s)),
        "bfs_bottom_up": lambda g, s: _result(bfs_bottom_up(g, s)),
        "bfs_bottom_up_tiles": lambda g, s: _result(
            bfs_bottom_up_tiles(g, s)
        ),
        "timed_bfs[td]": lambda g, s: _timed(timed_bfs(g, s)),
        "timed_bfs[bu]": lambda g, s: _timed(timed_bfs(g, s, direction="bu")),
        "profile_bfs": lambda g, s: _profiled(g, s),
        "profile_bfs[max_levels=2]": lambda g, s: _profiled(
            g, s, max_levels=2
        ),
        "bfs_hybrid[m=14,n=24,scan,sanitize]": lambda g, s: _result(
            bfs_hybrid(g, s, m=14.0, n=24.0, sanitize=True)
        ),
        "ParallelBFS[2,hybrid,race]": _parallel(2, None, sanitize="race"),
        "execute_plan[cross_plan]": _plan,
        "connected_components[default]": _components(None),
        "connected_components[m=2,n=2]": _components(MNPolicy(2.0, 2.0)),
    }
    for m, n in MN_POINTS:
        for family in ("scan", "tiles"):
            cases[f"bfs_hybrid[m={m:g},n={n:g},{family}]"] = (
                lambda g, s, m=m, n=n, family=family: _result(
                    bfs_hybrid(g, s, m=m, n=n, bottom_up=family)
                )
            )
            cases[f"timed_bfs[m={m:g},n={n:g},{family}]"] = (
                lambda g, s, m=m, n=n, family=family: _timed(
                    timed_bfs(g, s, m=m, n=n, bottom_up=family)
                )
            )
    for threads in THREADS:
        for direction in ("td", "bu", None):
            label = direction or "hybrid"
            cases[f"ParallelBFS[{threads},{label}]"] = _parallel(
                threads, direction
            )
    return cases


def compute() -> dict[str, dict[str, dict[str, str]]]:
    """Digests of every (case, graph) pair, keyed case -> graph."""
    corpus = _corpus()
    out: dict[str, dict[str, dict[str, str]]] = {}
    for case, run in _cases().items():
        for name, (graph, source) in corpus.items():
            try:
                digests = run(graph, source)
            except ReproError as exc:
                # A refusal is an outcome too: lock its type and text.
                digests = {"error": f"{type(exc).__name__}: {exc}"}
            out.setdefault(case, {})[name] = digests
    return out


def _dump(table) -> str:
    return json.dumps(table, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def fresh():
    return compute()


def test_golden_covers_every_case(golden, fresh):
    assert sorted(golden) == sorted(fresh)
    for case in fresh:
        assert sorted(golden[case]) == sorted(fresh[case]), case


@pytest.mark.parametrize("case", sorted(_cases()))
def test_case_is_bit_identical(case, golden, fresh):
    assert fresh[case] == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    GOLDEN.write_text(_dump(compute()), encoding="utf-8")
    print(f"wrote {GOLDEN}")
