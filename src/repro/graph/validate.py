"""Graph 500-style validation of BFS output.

The Graph 500 specification validates a BFS run with five checks rather
than comparing against a reference traversal (which would be as costly
as the run itself).  :func:`validate_bfs` applies them, vectorized:

1. the parent map and level map agree on which vertices were reached;
2. the source is its own parent at level 0;
3. every reached non-source vertex's parent is reached, exactly one
   level closer to the source;
4. every tree edge ``(parent[v], v)`` exists in the graph;
5. every graph edge spans at most one level (no edge connects levels
   ``k`` and ``k + 2`` with both endpoints reached), and no edge joins
   a reached vertex to an unreached one.

Check 5 is what makes the level map a true *breadth-first* distance
labelling and not just any spanning tree.

Checks 4 and 5 share one streaming pass over the CSR entries: a level
key and a parent claim are gathered at ``targets`` and compared with the
row's own.  Entry ``(u, w)`` is ``w``'s tree edge iff ``parent[w] == u``,
for directed and multi-edge graphs alike.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.graph.csr import CSRGraph

__all__ = ["validate_bfs", "check_bfs"]


def check_bfs(
    graph: CSRGraph,
    source: int,
    parent: np.ndarray,
    level: np.ndarray,
) -> list[str]:
    """Run all validation checks; return a list of failure descriptions.

    An empty list means the output is a valid BFS of ``graph`` from
    ``source``.  ``parent``/``level`` use ``-1`` for unreached vertices.
    """
    failures: list[str] = []
    n = graph.num_vertices
    parent = np.asarray(parent)
    level = np.asarray(level)
    if parent.shape != (n,) or level.shape != (n,):
        return [
            f"map shape mismatch: parent {parent.shape}, level {level.shape},"
            f" expected ({n},)"
        ]
    if not 0 <= source < n:
        return [f"source {source} out of range [0, {n})"]

    reached = level >= 0
    if not np.array_equal(reached, parent >= 0):
        failures.append("parent map and level map disagree on reached set")
    if parent[source] != source:
        failures.append(
            f"source parent must be itself, got {int(parent[source])}"
        )
    if level[source] != 0:
        failures.append(f"source level must be 0, got {int(level[source])}")

    tree = reached.copy()
    tree[source] = False
    kids = np.flatnonzero(tree)
    pk = parent[kids]
    bad = ~reached[np.clip(pk, 0, n - 1)] | (pk < 0) | (pk >= n)
    if bad.any():
        failures.append(
            f"{int(bad.sum())} vertices have an unreached/invalid parent"
        )
    kids, pk = kids[~bad], pk[~bad]
    nbad = np.count_nonzero(level[kids] != level[pk] + 1)
    if nbad:
        failures.append(f"{nbad} tree edges do not drop exactly one level")

    claim = np.full(n, -1, dtype=np.int32)
    claim[kids] = pk  # repro: noqa[RPR010] — ids checked to lie in [0, n)
    spans, mixed, claimed = _scan_entries(graph, _level_keys(level, n), claim)
    missing = kids.size - claimed
    if missing:
        failures.append(f"{missing} tree edges are not graph edges")
    if spans:
        failures.append(f"{spans} graph edges span more than one level")
    if graph.symmetric and mixed:
        failures.append(f"{mixed} edges join reached to unreached vertices")
    return failures


def _level_keys(level: np.ndarray, n: int) -> np.ndarray:
    """Keys in ``[0, 3n)`` for reached vertices that are within one of each
    other exactly when their levels are, and the dtype's minimum for the
    unreached.  Levels of ``n`` and up (corrupt) are renumbered in order,
    one step per gap of one and two per wider gap, so none wraps."""
    dt = np.int32 if 3 * n < 2**30 else np.int64
    key = np.full(n, np.iinfo(dt).min, dtype=dt)
    low = (level >= 0) & (level < n)
    key[low] = level[low]
    over = level >= n
    big, rank = np.unique(level[over], return_inverse=True)
    steps = np.minimum(np.diff(big, prepend=n - 1), 2)
    key[over] = (n - 1 + np.cumsum(steps))[rank]
    return key


def _scan_entries(
    graph: CSRGraph, key: np.ndarray, claim: np.ndarray
) -> tuple[int, int, int]:
    """Checks 4 and 5: count entries between reached vertices whose keys
    differ by more than one, entries joining reached to unreached, and
    vertices ``w`` that have an entry ``(claim[w], w)``."""
    n = graph.num_vertices
    deg = graph.degrees
    idx = graph.targets.astype(np.intp)
    claimed = np.zeros(n, dtype=bool)
    hit = np.take(claim, idx) == np.repeat(np.arange(n, dtype=np.int32), deg)
    claimed[graph.targets[hit]] = True
    # Key differences wrap modulo 2**bits: within 3n of zero for a reached
    # pair, of half the range for a reached/unreached one (the unreached
    # key is the dtype's minimum), and zero for an unreached pair.  A
    # quarter-range shift then tells the first two apart by sign.
    diff = np.take(key, idx)
    diff -= np.repeat(key, deg)
    diff += 1
    off_by_more = np.count_nonzero(diff.view(f"u{key.itemsize}") > 2)
    diff += -(np.iinfo(key.dtype).min // 2) - 1
    mixed = np.count_nonzero(diff < 0)
    return off_by_more - mixed, mixed, np.count_nonzero(claimed)


def validate_bfs(
    graph: CSRGraph,
    source: int,
    parent: np.ndarray,
    level: np.ndarray,
) -> None:
    """Raise :class:`~repro.errors.ValidationError` unless the BFS output
    passes every Graph 500 check."""
    failures = check_bfs(graph, source, parent, level)
    if failures:
        raise ValidationError(
            "BFS validation failed: " + "; ".join(failures)
        )
