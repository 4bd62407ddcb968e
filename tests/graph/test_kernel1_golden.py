"""Bit-identity lock for Graph 500 kernel 1: R-MAT generation and CSR build.

``golden_kernel1.json`` holds SHA-256 digests (dtype plus bytes) of
``rmat_edges`` output for several scales, seeds and R-MAT parameter
sets, of ``CSRGraph.from_edges`` on an adversarial edge list under all
eight ``(symmetrize, dedup, drop_self_loops)`` combinations, and of the
graph families and transforms that build through ``from_edges``.  Any
change to a generated edge or a stored CSR entry changes a digest and
fails here.

Regenerate (only when an output change is intended) with::

    PYTHONPATH=src python tests/graph/test_kernel1_golden.py --write
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    GRAPH500_PARAMS,
    RMATParams,
    balanced_tree,
    erdos_renyi,
    grid2d,
    rmat,
    rmat_edges,
    watts_strogatz,
)

GOLDEN = Path(__file__).with_name("golden_kernel1.json")

#: ``(scale, edgefactor, params, seed)`` of every locked ``rmat_edges`` call.
RMAT_CASES = {
    "g500-s0-ef16-seed0": (0, 16, GRAPH500_PARAMS, 0),
    "g500-s1-ef4-seed3": (1, 4, GRAPH500_PARAMS, 3),
    "g500-s10-ef16-seed7": (10, 16, GRAPH500_PARAMS, 7),
    "g500-s13-ef16-seed11": (13, 16, GRAPH500_PARAMS, 11),
    "g500-s17-ef16-seed0": (17, 16, GRAPH500_PARAMS, 0),
    "uniform-s12-ef8-seed5": (12, 8, RMATParams(0.25, 0.25, 0.25, 0.25), 5),
    "p1-over-p0-s12-ef8-seed5": (12, 8, RMATParams(0.1, 0.1, 0.2, 0.6), 5),
    "zero-quadrants-s12-ef8-seed5": (12, 8, RMATParams(0.5, 0.0, 0.5, 0.0), 5),
}

FLAGS = ("symmetrize", "dedup", "drop_self_loops")


def _adversarial() -> tuple[np.ndarray, np.ndarray, int]:
    """Self loops (2, 4, 9), duplicates (0-1 twice, 5-6 twice, 3-4 as
    both directions), asymmetric edges (7 -> 5, 0 -> 7) and isolated
    tail vertices 10..13."""
    src = np.array([0, 0, 1, 2, 2, 3, 4, 5, 5, 7, 0, 4, 4, 9, 6, 8],
                   dtype=np.int64)
    dst = np.array([1, 1, 0, 2, 3, 4, 3, 6, 6, 5, 7, 4, 0, 9, 8, 1],
                   dtype=np.int64)
    return src, dst, 14


def _sha(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    payload = array.dtype.str.encode() + b":" + array.tobytes()
    return hashlib.sha256(payload).hexdigest()


def _graph(g: CSRGraph) -> dict[str, str]:
    return {
        "offsets": _sha(g.offsets),
        "targets": _sha(g.targets),
        "symmetric": str(g.symmetric),
    }


def _rmat_case(scale, edgefactor, params, seed):
    def run():
        src, dst = rmat_edges(scale, edgefactor, params, seed=seed)
        return {"src": _sha(src), "dst": _sha(dst)}

    return run


def _from_edges_case(flags: dict[str, bool]):
    def run():
        src, dst, n = _adversarial()
        return _graph(CSRGraph.from_edges(src, dst, n, **flags))

    return run


def _directed_reverse():
    src, dst, n = _adversarial()
    g = CSRGraph.from_edges(src, dst, n, symmetrize=False)
    return _graph(g.reverse())


def _subgraph_mask():
    g = rmat(10, 16, seed=7)
    keep = np.random.default_rng(1).random(g.num_vertices) < 0.6
    return _graph(g.subgraph_mask(keep))


def _cases():
    cases = {
        f"rmat_edges[{name}]": _rmat_case(*args)
        for name, args in RMAT_CASES.items()
    }
    for values in itertools.product((False, True), repeat=len(FLAGS)):
        flags = dict(zip(FLAGS, values))
        label = ",".join(f"{k}={int(v)}" for k, v in flags.items())
        cases[f"from_edges[{label}]"] = _from_edges_case(flags)
    cases.update(
        {
            "grid2d[512x512]": lambda: _graph(grid2d(512, 512)),
            "erdos_renyi[1000,8,seed2]": lambda: _graph(
                erdos_renyi(1000, 8.0, seed=2)
            ),
            "watts_strogatz[500,6,0.2,seed4]": lambda: _graph(
                watts_strogatz(500, 6, 0.2, seed=4)
            ),
            "balanced_tree[3,6]": lambda: _graph(balanced_tree(3, 6)),
            "reverse[directed]": _directed_reverse,
            "subgraph_mask[rmat-s10]": _subgraph_mask,
        }
    )
    return cases


def compute() -> dict[str, dict[str, str]]:
    """Digests of every case, keyed by case name."""
    return {name: run() for name, run in _cases().items()}


def _dump(table) -> str:
    return json.dumps(table, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_cases())


@pytest.mark.parametrize("case", sorted(_cases()))
def test_case_is_bit_identical(case, golden):
    assert _cases()[case]() == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    GOLDEN.write_text(_dump(compute()), encoding="utf-8")
    print(f"wrote {GOLDEN}")
