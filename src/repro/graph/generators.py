"""Synthetic graph generators.

The paper's entire evaluation runs on Graph 500 R-MAT graphs produced by
the Kronecker generator with ``A=0.57, B=0.19, C=0.19, D=0.05``
(Section V-A): ``2**SCALE`` vertices and ``edgefactor * 2**SCALE``
undirected edges.  :func:`rmat` reproduces that generator, vectorized —
all ``SCALE`` recursion levels of every edge are drawn at once, which is
the NumPy idiom for the reference code's per-edge loop.

Additional deterministic families (ring, star, path, grid, tree,
Erdős–Rényi) exist for tests and examples: they have known BFS level
structures against which the engines are verified.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph

__all__ = [
    "RMATParams",
    "GRAPH500_PARAMS",
    "rmat",
    "rmat_edges",
    "erdos_renyi",
    "watts_strogatz",
    "ring",
    "path",
    "star",
    "complete",
    "grid2d",
    "balanced_tree",
    "two_cliques_bridge",
]


@dataclass(frozen=True)
class RMATParams:
    """R-MAT partition probabilities (the ``A, B, C, D`` of Table I).

    Each edge bit chooses the (src, dst) quadrant of the recursively
    partitioned adjacency matrix with these probabilities; they must be
    non-negative and sum to 1.
    """

    a: float = 0.57
    b: float = 0.19
    c: float = 0.19
    d: float = 0.05

    def __post_init__(self) -> None:
        probs = (self.a, self.b, self.c, self.d)
        if any(p < 0 for p in probs):
            raise GraphError(f"R-MAT probabilities must be >= 0, got {probs}")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise GraphError(
                f"R-MAT probabilities must sum to 1, got {sum(probs)!r}"
            )

    def as_tuple(self) -> tuple[float, float, float, float]:
        """The probabilities in ``(a, b, c, d)`` order."""
        return (self.a, self.b, self.c, self.d)


#: The Graph 500 parameterization used throughout the paper.
GRAPH500_PARAMS = RMATParams(0.57, 0.19, 0.19, 0.05)


def _as_int(name: str, value) -> int:
    """``value`` as an ``int`` (numpy integers accepted); raises
    :class:`~repro.errors.GraphError` for anything non-integral."""
    try:
        return operator.index(value)
    except TypeError:
        raise GraphError(f"{name} must be an integer, got {value!r}") from None


def rmat_edges(
    scale: int,
    edgefactor: int = 16,
    params: RMATParams = GRAPH500_PARAMS,
    *,
    seed: int | np.random.Generator = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate a raw R-MAT edge list (before symmetrization/dedup).

    Returns ``(src, dst)`` arrays of ``edgefactor * 2**scale`` directed
    edges over ``2**scale`` vertices.  Like the Graph 500 generator, the
    output may contain duplicates and self loops; CSR construction
    removes them.  Vertex ids are randomly permuted so vertex id carries
    no degree information (the reference generator's final shuffle).
    Vertex ids are ``int32``, so ``scale`` must be at most 31.  An
    integer ``seed`` must be non-negative.
    """
    scale = _as_int("scale", scale)
    edgefactor = _as_int("edgefactor", edgefactor)
    if scale < 0:
        raise GraphError(f"scale must be >= 0, got {scale}")
    if scale > 31:
        raise GraphError(
            f"scale must be <= 31 (vertex ids are int32), got {scale}"
        )
    if edgefactor < 0:
        raise GraphError(f"edgefactor must be >= 0, got {edgefactor}")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise GraphError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    n = 1 << scale
    m = edgefactor << scale

    a, b, c, d = params.as_tuple()
    # Probability that the source bit is 1 (lower half): c + d.
    # Conditional probability that the dest bit is 1 given the source bit.
    p_src1 = c + d
    p_dst1_given_src0 = b / (a + b) if (a + b) > 0 else 0.0
    p_dst1_given_src1 = d / (c + d) if (c + d) > 0 else 0.0
    # One fill per bit draws the same stream as ``u = random(m)`` then
    # ``v = random(m)``; every buffer is reused across bits.
    uv = np.empty(2 * m)
    u, v = uv[:m], uv[m:]
    src_bit, dst_bit, dst_bit0 = (np.empty(m, dtype=bool) for _ in range(3))
    src, dst = np.zeros(m, dtype=np.int32), np.zeros(m, dtype=np.int32)
    shifted = np.empty(m, dtype=np.int32)
    for bit in range(scale):
        rng.random(out=uv)
        np.less(u, p_src1, out=src_bit)
        # The destination bit compares v with p_dst1_given_src1 where the
        # source bit is 1 and with p_dst1_given_src0 where it is 0.
        np.less(v, p_dst1_given_src1, out=dst_bit)
        dst_bit &= src_bit
        np.less(v, p_dst1_given_src0, out=dst_bit0)
        dst_bit0 &= ~src_bit
        dst_bit |= dst_bit0
        for ids, bits in ((src, src_bit), (dst, dst_bit)):
            np.left_shift(bits, bit, out=shifted, dtype=np.int32)
            ids |= shifted
    perm = rng.permutation(n).astype(np.int32)
    return perm[src], perm[dst]


def rmat(
    scale: int,
    edgefactor: int = 16,
    params: RMATParams = GRAPH500_PARAMS,
    *,
    seed: int | np.random.Generator = 0,
) -> CSRGraph:
    """Generate a Graph 500-style R-MAT graph as a symmetric CSR graph.

    ``2**scale`` vertices, approximately ``edgefactor * 2**scale``
    undirected edges (slightly fewer after removing duplicates and
    self loops, as in the benchmark itself).
    """
    scale = _as_int("scale", scale)
    edgefactor = _as_int("edgefactor", edgefactor)
    src, dst = rmat_edges(scale, edgefactor, params, seed=seed)
    g = CSRGraph.from_edges(src, dst, 1 << scale, symmetrize=True)
    g.meta.update(
        {
            "family": "rmat",
            "scale": scale,
            "edgefactor": edgefactor,
            "rmat_params": params.as_tuple(),
            "requested_edges": edgefactor << scale,
        }
    )
    return g


def erdos_renyi(
    n: int,
    avg_degree: float,
    *,
    seed: int | np.random.Generator = 0,
) -> CSRGraph:
    """G(n, m) random graph with ``m = n * avg_degree / 2`` edges.

    Uniform random endpoints; used as a low-skew contrast workload for
    the degree-skewed R-MAT graphs.
    """
    n = _as_int("n", n)
    if n <= 0:
        raise GraphError(f"n must be positive, got {n}")
    if not (np.isfinite(avg_degree) and avg_degree >= 0):
        raise GraphError(
            f"avg_degree must be finite and >= 0, got {avg_degree}"
        )
    rng = np.random.default_rng(seed)
    m = int(round(n * avg_degree / 2))
    src = rng.integers(0, n, size=m, dtype=np.int64).astype(np.int32)
    dst = rng.integers(0, n, size=m, dtype=np.int64).astype(np.int32)
    g = CSRGraph.from_edges(src, dst, n, symmetrize=True)
    g.meta.update({"family": "erdos_renyi", "n": n, "avg_degree": avg_degree})
    return g


def watts_strogatz(
    n: int,
    k: int,
    beta: float,
    *,
    seed: int | np.random.Generator = 0,
) -> CSRGraph:
    """Watts–Strogatz small-world graph.

    A ring lattice where every vertex connects to its ``k`` nearest
    neighbours (``k`` even), with each edge's far endpoint rewired to a
    uniform random vertex with probability ``beta``.  Bounded degree
    and tunable clustering — the topological opposite of R-MAT's skew,
    useful for testing how the switching heuristics behave off the
    scale-free assumption.
    """
    if n < 3:
        raise GraphError(f"watts_strogatz needs n >= 3, got {n}")
    if k < 2 or k % 2 != 0 or k >= n:
        raise GraphError(
            f"k must be even with 2 <= k < n, got k={k} n={n}"
        )
    if not 0.0 <= beta <= 1.0:
        raise GraphError(f"beta must be in [0, 1], got {beta}")
    rng = np.random.default_rng(seed)
    src_parts = []
    dst_parts = []
    v = np.arange(n, dtype=np.int64)
    for offset in range(1, k // 2 + 1):
        src_parts.append(v)
        dst_parts.append((v + offset) % n)
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    rewire = rng.random(src.size) < beta
    dst = dst.copy()
    dst[rewire] = rng.integers(0, n, size=int(rewire.sum()))
    g = CSRGraph.from_edges(
        src.astype(np.int32), dst.astype(np.int32), n, symmetrize=True
    )
    g.meta.update(
        {"family": "watts_strogatz", "n": n, "k": k, "beta": beta}
    )
    return g


def ring(n: int) -> CSRGraph:
    """Cycle on ``n`` vertices — BFS from any source has ``ceil(n/2)+1`` levels."""
    if n < 3:
        raise GraphError(f"ring needs n >= 3, got {n}")
    v = np.arange(n, dtype=np.int32)
    g = CSRGraph.from_edges(v, (v + 1) % n, n, symmetrize=True)
    g.meta.update({"family": "ring", "n": n})
    return g


def path(n: int) -> CSRGraph:
    """Path graph — the worst case (diameter ``n - 1``) for bottom-up BFS."""
    if n < 1:
        raise GraphError(f"path needs n >= 1, got {n}")
    if n == 1:
        return CSRGraph.empty(1)
    v = np.arange(n - 1, dtype=np.int32)
    g = CSRGraph.from_edges(v, v + 1, n, symmetrize=True)
    g.meta.update({"family": "path", "n": n})
    return g


def star(n: int) -> CSRGraph:
    """Star with hub 0 — the best case (two levels) for bottom-up BFS."""
    if n < 2:
        raise GraphError(f"star needs n >= 2, got {n}")
    hub = np.zeros(n - 1, dtype=np.int32)
    leaves = np.arange(1, n, dtype=np.int32)
    g = CSRGraph.from_edges(hub, leaves, n, symmetrize=True)
    g.meta.update({"family": "star", "n": n})
    return g


def complete(n: int) -> CSRGraph:
    """Complete graph on ``n`` vertices."""
    if n < 1:
        raise GraphError(f"complete needs n >= 1, got {n}")
    src, dst = np.nonzero(~np.eye(n, dtype=bool))
    g = CSRGraph.from_edges(
        # repro: noqa[RPR010] — endpoint ids, not edge offsets: from_edges
        # takes int32 vertex ids and generator sizes stay far below 2^31
        src.astype(np.int32), dst.astype(np.int32), n, symmetrize=False
    )
    # Every edge already appears in both directions.
    object.__setattr__(g, "symmetric", True)
    g.meta.update({"family": "complete", "n": n})
    return g


def grid2d(rows: int, cols: int) -> CSRGraph:
    """4-neighbour grid — a bounded-degree, high-diameter workload."""
    if rows < 1 or cols < 1:
        raise GraphError(f"grid needs positive dims, got {rows}x{cols}")
    idx = np.arange(rows * cols, dtype=np.int32).reshape(rows, cols)
    right_s, right_d = idx[:, :-1].ravel(), idx[:, 1:].ravel()
    down_s, down_d = idx[:-1, :].ravel(), idx[1:, :].ravel()
    g = CSRGraph.from_edges(
        np.concatenate([right_s, down_s]),
        np.concatenate([right_d, down_d]),
        rows * cols,
        symmetrize=True,
    )
    g.meta.update({"family": "grid2d", "rows": rows, "cols": cols})
    return g


def balanced_tree(branching: int, height: int) -> CSRGraph:
    """Complete ``branching``-ary tree of the given height.

    Level sets grow geometrically, exercising the hybrid's switch-to-
    bottom-up rule on a graph whose level structure is known in closed
    form.
    """
    if branching < 1:
        raise GraphError(f"branching must be >= 1, got {branching}")
    if height < 0:
        raise GraphError(f"height must be >= 0, got {height}")
    if branching == 1:
        return path(height + 1)
    n = (branching ** (height + 1) - 1) // (branching - 1)
    child = np.arange(1, n, dtype=np.int64)
    parent = (child - 1) // branching
    g = CSRGraph.from_edges(
        # repro: noqa[RPR010] — endpoint ids, not edge offsets: from_edges
        # takes int32 vertex ids and generator sizes stay far below 2^31
        parent.astype(np.int32), child.astype(np.int32), n, symmetrize=True
    )
    g.meta.update(
        {"family": "balanced_tree", "branching": branching, "height": height}
    )
    return g


def two_cliques_bridge(k: int) -> CSRGraph:
    """Two ``k``-cliques joined by one bridge edge.

    A frontier-collapse workload: the frontier explodes inside the first
    clique, shrinks to one vertex at the bridge, then explodes again —
    forcing the hybrid to switch direction twice, like the tail levels
    of Table IV.
    """
    if k < 2:
        raise GraphError(f"clique size must be >= 2, got {k}")
    src_a, dst_a = np.nonzero(np.triu(np.ones((k, k), dtype=bool), 1))
    src = np.concatenate([src_a, src_a + k, [k - 1]])
    dst = np.concatenate([dst_a, dst_a + k, [k]])
    g = CSRGraph.from_edges(
        src.astype(np.int32), dst.astype(np.int32), 2 * k, symmetrize=True
    )
    g.meta.update({"family": "two_cliques_bridge", "k": k})
    return g
