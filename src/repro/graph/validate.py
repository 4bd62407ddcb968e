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

Checks 4 and 5 read the CSR entries, in one of two ways:

* **Symmetric graphs** store every edge ``{u, w}`` twice, as ``(u, w)``
  and ``(w, u)``.  Check 5 reads each edge once, from the *half list*:
  the targets ``w`` of the entries ``(u, w)`` with ``u < w``, in row
  order, with per-row offsets.  It gathers the level key at ``w`` and
  compares it with row ``u``'s, and counts each edge for both of its
  entries.  Check 4 uses the mirror: ``(parent[v], v)`` is an entry
  exactly when ``(v, parent[v])`` is, so one sequential pass over the
  rows compares the entries of row ``v`` with ``parent[v]``.
* **Directed graphs** get one pass over every entry ``(u, w)``: the
  level key and the parent claim are gathered at ``w`` and compared
  with row ``u``'s.  The entry is ``w``'s tree edge iff
  ``parent[w] == u``.

The half list is built on a graph's first validation and cached on the
graph, like :attr:`CSRGraph.degrees`, while its CSR arrays are
read-only; a graph with writable arrays builds it afresh on every
check.  The build also checks that the entries mirror.  A graph marked
symmetric whose entries do not, such as a hand-built ``CSRGraph``
(whose default is ``symmetric=True``) or an edited graph file, fails
validation with one item that says so.

Every pass walks cache-sized row blocks on the calling thread.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

import numpy as np

from repro.errors import ValidationError
from repro.graph.csr import CSRGraph

__all__ = ["validate_bfs", "check_bfs"]

#: Entries per block of the passes over the CSR and the half list, so
#: that every per-entry temporary stays cache-sized.  On a 2-vCPU Xeon
#: with 2 MiB of L2 per core, 2**17 was fastest on a 512x512 grid and
#: within noise of 2**18 on R-MAT scale 17; 2**15 and 2**20 were slower
#: on both.
_BLOCK = 2**17

#: The graph attribute that caches the half list (or ``None`` for a
#: graph whose entries do not mirror).
_HALF = "_validate_half"


class _Half(NamedTuple):
    """The entries ``(u, w)`` with ``u < w`` of a mirrored graph."""

    #: ``int32``: the ``w`` of each such entry, in row order.
    targets: np.ndarray
    #: ``int64``, length ``n + 1``: row ``u``'s slice of ``targets``.
    offsets: np.ndarray
    #: No row of the graph holds a target twice.
    distinct: bool


def check_bfs(
    graph: CSRGraph,
    source: int,
    parent: np.ndarray,
    level: np.ndarray,
) -> list[str]:
    """Run all validation checks; return a list of failure descriptions.

    An empty list means the output is a valid BFS of ``graph`` from
    ``source``.  ``parent``/``level`` use ``-1`` for unreached vertices.
    A source that is not an integer vertex id, maps that are not
    integer arrays, or a graph marked symmetric whose entries do not
    mirror give a one-item list naming the problem.
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
    half = _half_list(graph) if graph.symmetric else None
    if graph.symmetric and half is None:
        return ["graph is marked symmetric but its entries do not mirror"]

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
    if half is not None:
        claimed = _claimed_rows(graph, claim, half.distinct)
        spans, mixed = _half_spans(half, key)
    else:
        # The directed scan subtracts keys and must not wrap: unreached
        # vertices take the dtype's maximum there, not its minimum.
        key[~reached] = np.iinfo(key.dtype).max
        spans, mixed, claimed = _scan_directed(graph, key, claim)
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
    if level.max() < n:
        # Every reached level is its own key.  A negative level may wrap
        # in the cast, but the second write replaces it.
        key = level.astype(dt)
        key[level < 0] = np.iinfo(dt).min
        return key
    key = np.full(n, np.iinfo(dt).min, dtype=dt)
    low = (level >= 0) & (level < n)
    key[low] = level[low]
    over = level >= n
    big, rank = np.unique(level[over], return_inverse=True)
    steps = np.minimum(np.diff(big, prepend=n - 1), 2)
    key[over] = (n - 1 + np.cumsum(steps))[rank]
    return key


def _blocks(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and past-the-end rows of each block of a pass over the
    entries that ``offsets`` delimits (the CSR's or the half list's).

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


def _row_blocks(offsets: np.ndarray):
    """The blocks of :func:`_blocks` as ``(lo, hi, a, b, degrees)``: rows
    ``[lo, hi)``, entries ``[a, b)`` and the rows' entry counts."""
    first, stop = _blocks(offsets)
    for lo, hi in zip(first.tolist(), stop.tolist()):
        ends = offsets[lo : hi + 1]
        yield lo, hi, int(ends[0]), int(ends[-1]), np.diff(ends)


def _largest_block(offsets: np.ndarray) -> int:
    """Entries in the largest block of :func:`_blocks`, for scratch."""
    first, stop = _blocks(offsets)
    return int((offsets[stop] - offsets[first]).max(initial=0))


def _half_list(graph: CSRGraph) -> _Half | None:
    """``graph``'s half list, or ``None`` when its entries do not mirror.

    Cached on the graph while ``offsets`` and ``targets`` are read-only,
    so a graph whose arrays can still change never reads a stale list.
    """
    frozen = not (
        graph.offsets.flags.writeable or graph.targets.flags.writeable
    )
    if frozen and _HALF in graph.__dict__:
        return graph.__dict__[_HALF]
    half = _build_half(graph.offsets, graph.targets)
    if frozen:
        object.__setattr__(graph, _HALF, half)
    return half


def _build_half(offsets: np.ndarray, targets: np.ndarray) -> _Half | None:
    """The half list of a CSR, or ``None`` when its entries do not mirror.

    Three passes over row blocks keep every temporary block-sized except
    the lower keys.  The first counts each row's entries above the
    diagonal and checks that no row holds two self loops; the second
    copies out the upper targets and the mirrored keys ``w * n + u`` of
    the entries ``(u, w)`` below the diagonal.  Once those keys are
    sorted, the entries mirror exactly when the upper keys
    ``u * n + w``, taken block by block, equal them slice by slice.
    Equal keys next to each other are repeated targets."""
    n = offsets.size - 1
    half_off = np.zeros(n + 1, dtype=np.int64)
    below = 0
    distinct = True
    for lo, hi, a, b, deg in _row_blocks(offsets):
        rows = np.repeat(np.arange(lo, hi, dtype=np.int32), deg)
        t = targets[a:b]
        up = t > rows
        full = deg > 0
        # Row u's count goes to half_off[u + 1]; the cumsum below turns
        # the counts into offsets.
        half_off[lo + 1 : hi + 1][full] = np.add.reduceat(
            up, (offsets[lo:hi] - a)[full], dtype=np.int64
        )
        loops = rows[t == rows]
        if loops.size > 1 and (loops[1:] == loops[:-1]).any():
            distinct = False
        below += b - a - int(np.count_nonzero(up)) - loops.size
    np.cumsum(half_off, out=half_off)
    if below != half_off[-1]:
        return None

    upper = np.empty(below, dtype=np.int32)
    lower = np.empty(below, dtype=np.int64)
    wide = np.int64(n)
    done = 0
    for lo, hi, a, b, deg in _row_blocks(offsets):
        rows = np.repeat(np.arange(lo, hi, dtype=np.int32), deg)
        t = targets[a:b]
        np.compress(t > rows, t, out=upper[half_off[lo] : half_off[hi]])
        down = t < rows
        part = lower[done : done + int(np.count_nonzero(down))]
        done += part.size
        part[:] = t[down]
        part *= wide
        part += rows[down]
    lower.sort()

    for lo, hi, a, b, deg in _row_blocks(half_off):
        keys = np.repeat(np.arange(lo, hi, dtype=np.int64) * wide, deg)
        keys += upper[a:b]
        step = np.diff(keys)
        if (step < 0).any():  # a hand-built CSR may leave rows unsorted
            keys.sort()
            step = np.diff(keys)
        if not np.array_equal(keys, lower[a:b]):
            return None
        distinct = distinct and bool(step.all())
    upper.flags.writeable = False
    half_off.flags.writeable = False
    return _Half(upper, half_off, distinct)


def _claimed_rows(graph: CSRGraph, claim: np.ndarray, distinct: bool) -> int:
    """Check 4 on a mirrored graph: the number of vertices ``v`` whose
    row holds ``claim[v]``, read row by row.  When no row repeats a
    target this is the number of matching entries; otherwise a
    segmented OR over the non-empty rows counts each row once."""
    offsets, targets = graph.offsets, graph.targets
    hit = np.empty(_largest_block(offsets), dtype=bool)
    claimed = 0
    for lo, hi, a, b, deg in _row_blocks(offsets):
        k = hit[: b - a]
        np.equal(np.repeat(claim[lo:hi], deg), targets[a:b], out=k)
        if not distinct:
            k = np.logical_or.reduceat(k, (offsets[lo:hi] - a)[deg > 0])
        claimed += int(np.count_nonzero(k))
    return claimed


def _half_spans(half: _Half, key: np.ndarray) -> tuple[int, int]:
    """Check 5 on a mirrored graph: the entries between reached vertices
    whose keys differ by more than one, and the entries joining reached
    to unreached.  Each half-list entry counts for both directions of
    its edge; a self loop is not in the list and never counts."""
    offsets, targets = half.offsets, half.targets
    size = _largest_block(offsets)
    idx = np.empty(size, dtype=np.intp)
    diff = np.empty(size, dtype=key.dtype)
    mask = np.empty(size, dtype=bool)
    shift = -(np.iinfo(key.dtype).min // 2) - 1
    far = mixed = 0
    for lo, hi, a, b, deg in _row_blocks(offsets):
        i, d, k = idx[: b - a], diff[: b - a], mask[: b - a]
        # Targets lie in [0, n), so "clip" never moves an index; it
        # spares take() the buffered bounds check that "raise" makes.
        np.copyto(i, targets[a:b])
        np.take(key, i, out=d, mode="clip")
        # Key differences plus one wrap modulo 2**bits: within 3n of
        # zero for a reached pair, of half the range for a
        # reached/unreached one (the unreached key is the dtype's
        # minimum), and one for an unreached pair.  A quarter-range
        # shift then tells the first two apart by sign; a block with no
        # entry off by more than one has no mixed entry to count.
        d -= np.repeat(key[lo:hi] - 1, deg)
        np.greater(d.view(f"u{d.itemsize}"), 2, out=k)
        count = int(np.count_nonzero(k))
        if count:
            far += count
            d += shift
            np.less(d, 0, out=k)
            mixed += int(np.count_nonzero(k))
    return 2 * (far - mixed), 2 * mixed


def _scan_directed(
    graph: CSRGraph, key: np.ndarray, claim: np.ndarray
) -> tuple[int, int, int]:
    """Checks 4 and 5 on a directed graph, over every entry ``(u, w)``
    with ``u`` reached: ``w``'s key above ``u``'s by more than one, ``w``
    unreached, and the number of vertices ``w`` that have an entry
    ``(claim[w], w)``.  The per-entry scratch is sized to the largest
    block and reused by every block."""
    offsets, targets = graph.offsets, graph.targets
    claimed = np.zeros(graph.num_vertices, dtype=bool)
    size = _largest_block(offsets)
    idx = np.empty(size, dtype=np.intp)
    got = np.empty(size, dtype=claim.dtype)
    diff = np.empty(size, dtype=key.dtype)
    mask = np.empty(size, dtype=bool)
    shift = -(np.iinfo(key.dtype).min // 2) - 1
    far = mixed = 0
    for lo, hi, a, b, deg in _row_blocks(offsets):
        i, g, d, k = idx[: b - a], got[: b - a], diff[: b - a], mask[: b - a]
        np.copyto(i, targets[a:b])
        np.take(claim, i, out=g, mode="clip")
        rows = np.arange(lo, hi, dtype=claim.dtype)
        np.equal(g, np.repeat(rows, deg), out=k)
        claimed[i[k]] = True
        # The unreached key is the dtype's maximum, so key[w] - key[u]
        # never wraps.  It is below 3n for a reached pair, above the
        # shift when only w is unreached, and negative when u is
        # unreached, which bounds nothing.
        np.take(key, i, out=d, mode="clip")
        d -= np.repeat(key[lo:hi], deg)
        np.greater(d, 1, out=k)
        count = int(np.count_nonzero(k))
        if count:
            far += count
            np.greater(d, shift, out=k)
            mixed += int(np.count_nonzero(k))
    return far - mixed, mixed, int(np.count_nonzero(claimed))


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
