"""Bitmap-tile linear-algebra tier for the bottom-up BFS direction.

The paper frames BFS as sparse matrix–vector multiplication (Section
III-B: ``y = A x`` over the Boolean semiring), and :mod:`repro.bfs.spmv`
executes that framing literally through scipy as a differential-testing
oracle.  This package is the *fast* executable version of the same
framing, following the word-packed tile formulation of BLEST-style
GraphBLAS backends: the CSR adjacency is re-expressed as 64×64 bitmap
tiles (:class:`BitmapTileMatrix`), and the bottom-up step becomes a
masked sparse-matrix × dense-bitmap product

``frontier_next = (Aᵀ ⊗ frontier) ⊙ ¬visited``

computed with blocked ``uint64`` AND/OR/``np.bitwise_count`` operations
directly on :class:`~repro.graph.bitmap.Bitmap` words — one word probe
covers up to 64 adjacency entries.  A multi-source SpMM variant runs the
64-query MS-BFS batch as one bitmap-matrix pass per level.

Entry points:

* :func:`tile_matrix` — build (and cache on the graph) the tile format;
* :func:`bottom_up_tiles_step` — one masked-SpMV bottom-up level,
  bit-identical to :func:`repro.bfs.bottomup.bottom_up_step`;
* :func:`msbfs_tiles_step` — the SpMM sweep behind
  ``msbfs(..., kernel="tiles")``;
* :func:`bfs_bottom_up_tiles` — a full traversal on the tile kernels,
  also reachable as ``bfs_hybrid(..., bottom_up="tiles")``.
"""

from repro.linalg.kernels import (
    DEFAULT_WORD_WINDOW,
    bfs_bottom_up_tiles,
    bottom_up_tiles_step,
    msbfs_tiles_step,
)
from repro.linalg.tiles import BitmapTileMatrix, tile_matrix

__all__ = [
    "BitmapTileMatrix",
    "DEFAULT_WORD_WINDOW",
    "bfs_bottom_up_tiles",
    "bottom_up_tiles_step",
    "msbfs_tiles_step",
    "tile_matrix",
]
