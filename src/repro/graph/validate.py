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
   a reached vertex to an unreached one.  On a directed graph an edge
   ``u -> w`` bounds only ``w``: with ``u`` reached, ``w`` must be
   reached at a level of at most ``level[u] + 1``; an edge from an
   unreached vertex bounds nothing.

Check 5 is what makes the level map a true *breadth-first* distance
labelling and not just any spanning tree.

Checks 4 and 5 share one streaming pass over the CSR entries: a level
key and a parent claim are gathered at ``targets`` and compared with the
row's own.  Entry ``(u, w)`` is ``w``'s tree edge iff ``parent[w] == u``,
for directed and multi-edge graphs alike.  The pass walks the entries in
cache-sized row blocks, split over up to ``os.cpu_count()`` threads;
the result does not depend on the split.
"""

from __future__ import annotations

import operator
import os
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from repro.errors import ValidationError
from repro.graph.csr import CSRGraph

__all__ = ["validate_bfs", "check_bfs"]

#: Entries per block of the check 4/5 scan, so that every per-entry
#: temporary stays cache-sized.  On a 2-vCPU Xeon with 2 MiB of L2 per
#: core, 2**17 was fastest on a 512x512 grid and within noise of 2**18
#: on R-MAT scale 17; 2**15 and 2**20 were slower on both.
_BLOCK = 2**17


def check_bfs(
    graph: CSRGraph,
    source: int,
    parent: np.ndarray,
    level: np.ndarray,
) -> list[str]:
    """Run all validation checks; return a list of failure descriptions.

    An empty list means the output is a valid BFS of ``graph`` from
    ``source``.  ``parent``/``level`` use ``-1`` for unreached vertices.
    A source that is not an integer vertex id, or maps that are not
    integer arrays, give a one-item list naming the problem.
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
    if parent.dtype.kind not in "iu" or level.dtype.kind not in "iu":
        return [
            f"maps must be integer arrays: parent {parent.dtype},"
            f" level {level.dtype}"
        ]
    try:
        source = operator.index(source)
    except TypeError:
        return [f"source must be an integer vertex id, got {source!r}"]
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
    key = _level_keys(level, n)
    if not graph.symmetric:
        # The directed scan subtracts keys and must not wrap: unreached
        # vertices take the dtype's maximum there, not its minimum.
        key[~reached] = np.iinfo(key.dtype).max
    spans, mixed, claimed = _scan_entries(graph, key, claim)
    missing = kids.size - claimed
    if missing:
        failures.append(f"{missing} tree edges are not graph edges")
    if spans:
        failures.append(f"{spans} graph edges span more than one level")
    if mixed:
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


def _blocks(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and past-the-end rows of each block of the entry scan.

    A cut goes before the row that holds entry ``j * _BLOCK``, and after
    it too when that row is longer than a block, so such a row is a
    block of its own.  Blocks without entries are dropped."""
    n = offsets.size - 1
    cut = np.searchsorted(
        offsets, np.arange(_BLOCK, offsets[-1], _BLOCK), side="right"
    ) - 1
    long_rows = cut[offsets[cut + 1] - offsets[cut] > _BLOCK]
    cut = np.unique(np.concatenate(([0, n], cut, long_rows + 1)))
    full = offsets[cut[1:]] > offsets[cut[:-1]]
    return cut[:-1][full], cut[1:][full]


def _scan_entries(
    graph: CSRGraph, key: np.ndarray, claim: np.ndarray
) -> tuple[int, int, int]:
    """Checks 4 and 5: count entries between reached vertices whose keys
    differ by more than one, entries joining reached to unreached, and
    vertices ``w`` that have an entry ``(claim[w], w)``.  On a directed
    graph only entries ``(u, w)`` with ``u`` reached count: ``w``'s key
    above ``u``'s by more than one, or ``w`` unreached.

    The blocks are split into contiguous runs, one per CPU.  The calling
    thread scans the first run and pool threads the others; a single
    run starts no thread.  Each run counts into arrays it allocated
    itself, and the caller adds up the counts and ORs the claimed
    masks."""
    first, stop = _blocks(graph.offsets)
    runs = min(os.cpu_count() or 1, first.size)
    scan = partial(_scan_run, graph, key, claim)
    if runs <= 1:
        counts = [scan(first, stop)]
    else:
        parts = zip(np.array_split(first, runs), np.array_split(stop, runs))
        mine = next(parts)
        with ThreadPoolExecutor(max_workers=runs - 1) as pool:
            rest = [pool.submit(scan, *part) for part in parts]
            counts = [scan(*mine)] + [run.result() for run in rest]
    far, mixed, masks = zip(*counts)
    claimed = np.count_nonzero(np.logical_or.reduce(masks))
    return sum(far) - sum(mixed), sum(mixed), int(claimed)


def _scan_run(
    graph: CSRGraph,
    key: np.ndarray,
    claim: np.ndarray,
    first: np.ndarray,
    stop: np.ndarray,
) -> tuple[int, int, np.ndarray]:
    """Scan the blocks ``[first[i], stop[i])`` of rows: entries whose keys
    differ by more than one, the mixed ones among them, and the mask of
    claimed vertices.  The per-entry scratch is sized to the largest
    block and reused by every block."""
    offsets, targets, deg = graph.offsets, graph.targets, graph.degrees
    symmetric = graph.symmetric
    claimed = np.zeros(graph.num_vertices, dtype=bool)
    size = int((offsets[stop] - offsets[first]).max(initial=0))
    idx = np.empty(size, dtype=np.intp)
    got = np.empty(size, dtype=claim.dtype)
    diff = np.empty(size, dtype=key.dtype)
    mask = np.empty(size, dtype=bool)
    shift = -(np.iinfo(key.dtype).min // 2) - 1
    off_by_more = mixed = 0
    for lo, hi in zip(first.tolist(), stop.tolist()):
        a, b = int(offsets[lo]), int(offsets[hi])
        m = b - a
        i, g, d, k = idx[:m], got[:m], diff[:m], mask[:m]
        # Targets lie in [0, n), so "clip" never moves an index; it
        # spares take() the buffered bounds check that "raise" makes.
        np.copyto(i, targets[a:b])
        np.take(claim, i, out=g, mode="clip")
        rows = np.arange(lo, hi, dtype=claim.dtype)
        np.equal(g, np.repeat(rows, deg[lo:hi]), out=k)
        claimed[i[k]] = True
        # Key differences plus one wrap modulo 2**bits: within 3n of
        # zero for a reached pair, of half the range for a
        # reached/unreached one (the unreached key is the dtype's
        # minimum), and one for an unreached pair.  A quarter-range
        # shift then tells the first two apart by sign; a block with no
        # entry off by more than one has no mixed entry to count.
        np.take(key, i, out=d, mode="clip")
        if symmetric:
            d -= np.repeat(key[lo:hi] - 1, deg[lo:hi])
            np.greater(d.view(f"u{d.itemsize}"), 2, out=k)
        else:
            # Directed: the unreached key is the dtype's maximum, so
            # key[w] - key[u] never wraps.  It is below 3n for a reached
            # pair, above the shift when only w is unreached, and
            # negative when u is unreached, which bounds nothing.
            d -= np.repeat(key[lo:hi], deg[lo:hi])
            np.greater(d, 1, out=k)
        far = int(np.count_nonzero(k))
        if far:
            off_by_more += far
            if symmetric:
                d += shift
                np.less(d, 0, out=k)
            else:
                np.greater(d, shift, out=k)
            mixed += int(np.count_nonzero(k))
    return off_by_more, mixed, claimed


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
