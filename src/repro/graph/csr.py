"""Compressed Sparse Row graph storage.

The paper stores graphs in CSR (Section V-A) exactly as the Graph 500
reference code does: an ``offsets`` array of length ``n + 1`` and a
``targets`` array holding the concatenated adjacency lists.  Both BFS
directions read only these two arrays, so the cost model can charge
memory traffic directly against their dtypes.

Construction is fully vectorized: an edge list becomes CSR via one
in-place sort of composite ``(src, dst)`` keys, with optional
symmetrization, de-duplication and self-loop removal — the preprocessing
Graph 500 applies to Kronecker output before timing BFS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.errors import GraphError

__all__ = ["CSRGraph", "coalesce_edges"]


def coalesce_edges(
    src: np.ndarray,
    dst: np.ndarray,
    *,
    num_vertices: int,
    symmetrize: bool = True,
    dedup: bool = True,
    drop_self_loops: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Canonicalize an edge list.

    Returns the (possibly symmetrized, de-duplicated, loop-free) directed
    edge list sorted by ``(src, dst)``, as two ``int32`` arrays.  This is
    the Graph 500 kernel-1 preprocessing step, vectorized.  Endpoints
    must be integers in ``[0, num_vertices)``.
    """
    src = np.asarray(src)
    dst = np.asarray(dst)
    if src.shape != dst.shape or src.ndim != 1:
        raise GraphError("src/dst must be 1-D arrays of equal length")
    if src.size:
        for ends in (src, dst):
            if ends.dtype.kind not in "iu":
                raise GraphError(
                    f"edge endpoints must be integers, got dtype {ends.dtype}"
                )
        lo = min(int(src.min()), int(dst.min()))
        hi = max(int(src.max()), int(dst.max()))
        if lo < 0 or hi >= num_vertices:
            raise GraphError(
                f"edge endpoint out of range [0, {num_vertices}): "
                f"saw [{lo}, {hi}]"
            )
    else:
        # An empty list holds no ids, whatever its dtype (``[]`` is float64).
        src = dst = np.zeros(0, dtype=np.int32)
    if drop_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    # Sort by (src, dst) via a single composite 64-bit key, exact because
    # both endpoints fit in 32 bits.  Symmetrization writes the reversed
    # edges' keys into the second half of the same array.  ``dtype=``
    # keeps every integer input on the int64 loop (uint64 would promote
    # to float64).
    m = src.size
    key = np.empty(2 * m if symmetrize else m, dtype=np.int64)
    n = np.int64(num_vertices)
    np.multiply(src, n, out=key[:m], dtype=np.int64)
    np.add(key[:m], dst, out=key[:m], dtype=np.int64)
    if symmetrize:
        np.multiply(dst, n, out=key[m:], dtype=np.int64)
        np.add(key[m:], src, out=key[m:], dtype=np.int64)
    key.sort()
    if dedup and key.size:
        uniq = np.empty(key.size, dtype=bool)
        uniq[0] = True
        np.not_equal(key[1:], key[:-1], out=uniq[1:])
        key = key[uniq]
    out_src = np.empty(key.size, dtype=np.int32)
    out_dst = np.empty(key.size, dtype=np.int32)
    np.divmod(key, n, out=(out_src, out_dst))
    return out_src, out_dst


@dataclass(frozen=True)
class CSRGraph:
    """An unweighted directed graph in CSR form.

    Attributes
    ----------
    offsets:
        ``int64`` array of length ``num_vertices + 1``; the adjacency
        list of vertex ``v`` is ``targets[offsets[v]:offsets[v + 1]]``.
    targets:
        ``int32`` array of neighbour ids, concatenated per vertex and
        sorted within each list.
    symmetric:
        True when the graph was built with symmetrization (every edge
        stored in both directions), which is what the BFS kernels and
        the paper's R-MAT workloads assume.
    """

    offsets: np.ndarray
    targets: np.ndarray
    symmetric: bool = True
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        offsets = np.ascontiguousarray(self.offsets, dtype=np.int64)
        targets = np.ascontiguousarray(self.targets, dtype=np.int32)
        # Freeze the CSR storage: every traversal aliases these arrays,
        # so a stray write would corrupt all later BFS runs.  Arrays the
        # caller still owns (no-copy ascontiguousarray) are frozen too —
        # use copy_writable() when mutation is genuinely needed.
        offsets.flags.writeable = False
        targets.flags.writeable = False
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "targets", targets)
        if offsets.ndim != 1 or offsets.size < 1:
            raise GraphError("offsets must be a 1-D array of length >= 1")
        if offsets[0] != 0:
            raise GraphError("offsets[0] must be 0")
        if np.any(np.diff(offsets) < 0):
            raise GraphError("offsets must be non-decreasing")
        if offsets[-1] != targets.size:
            raise GraphError(
                f"offsets[-1]={int(offsets[-1])} must equal "
                f"len(targets)={targets.size}"
            )
        if targets.size and (
            targets.min() < 0 or targets.max() >= self.num_vertices
        ):
            raise GraphError("target vertex id out of range")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        src: Iterable[int] | np.ndarray,
        dst: Iterable[int] | np.ndarray,
        num_vertices: int,
        *,
        symmetrize: bool = True,
        dedup: bool = True,
        drop_self_loops: bool = True,
        meta: dict | None = None,
    ) -> "CSRGraph":
        """Build a CSR graph from an edge list.

        With the defaults this performs the Graph 500 kernel-1 transform:
        make undirected, drop self loops, drop duplicate edges.
        """
        if num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        src = np.asarray(list(src) if not isinstance(src, np.ndarray) else src)
        dst = np.asarray(list(dst) if not isinstance(dst, np.ndarray) else dst)
        s, d = coalesce_edges(
            src,
            dst,
            num_vertices=num_vertices,
            symmetrize=symmetrize,
            dedup=dedup,
            drop_self_loops=drop_self_loops,
        )
        # ``s`` is sorted, so vertex v's list starts at the first entry
        # whose source is >= v.  int32 queries match ``s`` and spare a
        # widened copy of it; the last offset is the entry count.
        offsets = np.empty(num_vertices + 1, dtype=np.int64)
        offsets[:-1] = np.searchsorted(
            s, np.arange(num_vertices, dtype=np.int32)
        )
        offsets[-1] = s.size
        return cls(
            offsets=offsets,
            targets=d,
            symmetric=symmetrize,
            meta=dict(meta or {}),
        )

    @classmethod
    def empty(cls, num_vertices: int) -> "CSRGraph":
        """Graph with ``num_vertices`` vertices and no edges."""
        return cls(
            offsets=np.zeros(num_vertices + 1, dtype=np.int64),
            targets=np.zeros(0, dtype=np.int32),
        )

    # -- basic accessors ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return self.offsets.size - 1

    @property
    def num_directed_edges(self) -> int:
        """Number of stored (directed) adjacency entries."""
        return self.targets.size

    @property
    def num_edges(self) -> int:
        """Number of logical edges ``|E|``.

        For a symmetric graph each undirected edge is stored twice, so
        this is half the adjacency entries; for a directed graph it is
        the entry count itself.  This is the ``|E|`` used in the paper's
        ``|E|cq < |E| / M`` switching rule and in TEPS.
        """
        if self.symmetric:
            return self.targets.size // 2
        return self.targets.size

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex (``int64``).

        Computed once and cached read-only: every engine, policy and
        profiler consults degrees per level, and the ``O(V)`` diff is
        pure waste after the first call.  The cache is safe because the
        CSR arrays are frozen at construction.
        """
        cached = self.__dict__.get("_degrees")
        if cached is None:
            cached = np.diff(self.offsets)
            cached.flags.writeable = False
            object.__setattr__(self, "_degrees", cached)
        return cached

    def neighbors(self, v: int) -> np.ndarray:
        """Adjacency list of vertex ``v`` (a view, not a copy)."""
        if not 0 <= v < self.num_vertices:
            raise GraphError(f"vertex {v} out of range [0, {self.num_vertices})")
        return self.targets[self.offsets[v] : self.offsets[v + 1]]

    def degree(self, v: int) -> int:
        """Out-degree of vertex ``v``."""
        if not 0 <= v < self.num_vertices:
            raise GraphError(f"vertex {v} out of range [0, {self.num_vertices})")
        return int(self.offsets[v + 1] - self.offsets[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``(u, v)`` is stored.

        Binary search over the sorted adjacency list of ``u``.
        """
        adj = self.neighbors(u)
        i = int(np.searchsorted(adj, v))
        return i < adj.size and int(adj[i]) == v

    # -- transforms -----------------------------------------------------------

    def reverse(self) -> "CSRGraph":
        """The transpose graph (identity for symmetric graphs)."""
        if self.symmetric:
            return self
        src = np.repeat(
            np.arange(self.num_vertices, dtype=np.int32), self.degrees
        )
        return CSRGraph.from_edges(
            self.targets,
            src,
            self.num_vertices,
            symmetrize=False,
            dedup=False,
            drop_self_loops=False,
            meta=self.meta,
        )

    def edge_list(self) -> tuple[np.ndarray, np.ndarray]:
        """Expand back to ``(src, dst)`` arrays of directed entries."""
        src = np.repeat(
            np.arange(self.num_vertices, dtype=np.int32), self.degrees
        )
        return src, self.targets.copy()

    def subgraph_mask(self, keep: np.ndarray) -> "CSRGraph":
        """Induced subgraph on vertices where ``keep`` is True.

        Vertices are renumbered compactly in ascending original order.
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self.num_vertices,):
            raise GraphError("keep mask must have one entry per vertex")
        remap = np.cumsum(keep, dtype=np.int64) - 1
        src, dst = self.edge_list()
        sel = keep[src] & keep[dst]
        sub = CSRGraph.from_edges(
            remap[src[sel]].astype(np.int32),
            remap[dst[sel]].astype(np.int32),
            int(keep.sum()),
            symmetrize=False,
            dedup=False,
            drop_self_loops=False,
            meta=self.meta,
        )
        # Removing vertices keeps both directions of surviving edges, so
        # symmetry is inherited.
        object.__setattr__(sub, "symmetric", self.symmetric)
        return sub

    def copy_writable(self) -> "CSRGraph":
        """A deep copy whose CSR arrays are writable.

        Construction freezes ``offsets``/``targets`` (``writeable=False``)
        because traversals alias them; this is the explicit escape hatch
        for tests and tooling that need to corrupt or edit the storage.
        The copy owns its arrays, so un-freezing them is safe.
        """
        dup = CSRGraph(
            offsets=self.offsets.copy(),
            targets=self.targets.copy(),
            symmetric=self.symmetric,
            meta=dict(self.meta),
        )
        dup.offsets.flags.writeable = True
        dup.targets.flags.writeable = True
        return dup

    # -- memory accounting ------------------------------------------------------

    def nbytes(self) -> int:
        """Bytes of CSR storage; what a full bottom-up sweep must stream."""
        return int(self.offsets.nbytes + self.targets.nbytes)

    # -- dunder -------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CSRGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"symmetric={self.symmetric})"
        )
