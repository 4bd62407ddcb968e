"""Graph persistence.

Two formats:

* **NPZ** — the native format: CSR arrays plus metadata, loads back
  bit-identical (used to cache generated R-MAT workloads between
  benchmark runs).
* **Edge-list text** — one ``src dst`` pair per line, ``#`` comments —
  interoperable with SNAP/Graph 500 style tooling.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph

__all__ = [
    "save_npz",
    "load_npz",
    "save_edgelist",
    "load_edgelist",
    "save_matrix_market",
    "load_matrix_market",
]

#: Largest vertex id an ``int64`` edge array holds.
_MAX_ID = np.iinfo(np.int64).max


def save_npz(graph: CSRGraph, path: str | Path) -> None:
    """Write ``graph`` to ``path`` in the native NPZ format."""
    path = Path(path)
    np.savez_compressed(
        path,
        offsets=graph.offsets,
        targets=graph.targets,
        symmetric=np.array([graph.symmetric]),
        meta=np.array([json.dumps(graph.meta, default=str)]),
    )


def load_npz(path: str | Path) -> CSRGraph:
    """Load a graph previously written by :func:`save_npz`."""
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            offsets = data["offsets"]
            targets = data["targets"]
            symmetric = bool(data["symmetric"][0])
            meta = json.loads(str(data["meta"][0]))
    except (KeyError, OSError, ValueError, json.JSONDecodeError) as exc:
        raise GraphFormatError(f"cannot load graph from {path}: {exc}") from exc
    return CSRGraph(
        offsets=offsets, targets=targets, symmetric=symmetric, meta=meta
    )


def save_edgelist(
    graph: CSRGraph, path: str | Path, *, header: bool = True
) -> None:
    """Write ``graph`` as a text edge list.

    For symmetric graphs only the ``src <= dst`` direction is written
    (each undirected edge once); loading with ``symmetrize=True``
    reconstructs the same graph.
    """
    path = Path(path)
    src, dst = graph.edge_list()
    if graph.symmetric:
        keep = src <= dst
        src, dst = src[keep], dst[keep]
    with path.open("w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# repro edge list |V|={graph.num_vertices} ")
            fh.write(f"entries={src.size} symmetric={graph.symmetric}\n")
        np.savetxt(fh, np.column_stack([src, dst]), fmt="%d")


def load_edgelist(
    path: str | Path,
    *,
    num_vertices: int | None = None,
    symmetrize: bool = True,
) -> CSRGraph:
    """Parse a text edge list into a CSR graph.

    ``num_vertices`` defaults to ``max id + 1``.  Raises
    :class:`~repro.errors.GraphFormatError` on malformed lines and on
    ids ``>= num_vertices``.
    """
    path = Path(path)
    src_list: list[int] = []
    dst_list: list[int] = []
    try:
        with path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) < 2:
                    raise GraphFormatError(
                        f"{path}:{lineno}: expected 'src dst', got {line!r}"
                    )
                try:
                    u, v = int(parts[0]), int(parts[1])
                except ValueError as exc:
                    raise GraphFormatError(
                        f"{path}:{lineno}: non-integer endpoint in {line!r}"
                    ) from exc
                if u < 0 or v < 0:
                    raise GraphFormatError(
                        f"{path}:{lineno}: negative vertex id in {line!r}"
                    )
                if max(u, v) > _MAX_ID:
                    raise GraphFormatError(
                        f"{path}:{lineno}: vertex id exceeds int64 in "
                        f"{line!r}"
                    )
                if num_vertices is not None and max(u, v) >= num_vertices:
                    raise GraphFormatError(
                        f"{path}:{lineno}: vertex id {max(u, v)} out of "
                        f"range for num_vertices={num_vertices}"
                    )
                src_list.append(u)
                dst_list.append(v)
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc
    src = np.array(src_list, dtype=np.int64)
    dst = np.array(dst_list, dtype=np.int64)
    if num_vertices is None:
        num_vertices = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1)
    return CSRGraph.from_edges(src, dst, num_vertices, symmetrize=symmetrize)


def save_matrix_market(graph: CSRGraph, path: str | Path) -> None:
    """Write ``graph`` in MatrixMarket coordinate *pattern* format.

    Symmetric graphs use the ``symmetric`` qualifier with the lower
    triangle stored once, directed graphs use ``general`` — the format
    SuiteSparse/UF collection graphs ship in, so collection matrices
    and this library's graphs round-trip freely.
    """
    path = Path(path)
    src, dst = graph.edge_list()
    if graph.symmetric:
        keep = src >= dst  # lower triangle (MM symmetric convention)
        src, dst = src[keep], dst[keep]
        qualifier = "symmetric"
    else:
        qualifier = "general"
    n = graph.num_vertices
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate pattern {qualifier}\n")
        fh.write(f"% written by repro {path.name}\n")
        fh.write(f"{n} {n} {src.size}\n")
        # MatrixMarket is 1-indexed.
        np.savetxt(fh, np.column_stack([src + 1, dst + 1]), fmt="%d")


def load_matrix_market(path: str | Path) -> CSRGraph:
    """Parse a MatrixMarket coordinate pattern file into a CSR graph.

    Supports ``pattern`` matrices with ``general`` or ``symmetric``
    qualifiers; weighted (``real``/``integer``) files load with weights
    ignored (BFS is unweighted).  Raises
    :class:`~repro.errors.GraphFormatError` for malformed input.
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            header = fh.readline().strip().lower().split()
            if (
                len(header) < 5
                or header[0] != "%%matrixmarket"
                or header[1] != "matrix"
                or header[2] != "coordinate"
            ):
                raise GraphFormatError(
                    f"{path}: not a MatrixMarket coordinate file"
                )
            field, qualifier = header[3], header[4]
            if qualifier not in ("general", "symmetric"):
                raise GraphFormatError(
                    f"{path}: unsupported qualifier {qualifier!r}"
                )
            line = fh.readline()
            while line.startswith("%"):
                line = fh.readline()
            try:
                rows, cols, nnz = map(int, line.split())
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}: malformed size line {line!r}"
                ) from exc
            if rows != cols:
                raise GraphFormatError(
                    f"{path}: adjacency matrix must be square, "
                    f"got {rows}x{cols}"
                )
            if nnz == 0:
                data = np.zeros((0, 2))
            else:
                try:
                    data = np.loadtxt(fh, ndmin=2, max_rows=nnz)
                except ValueError as exc:
                    raise GraphFormatError(
                        f"{path}: malformed entry line: {exc}"
                    ) from exc
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc
    if data.size == 0:
        data = np.zeros((0, 2))
    if data.shape[0] != nnz:
        raise GraphFormatError(
            f"{path}: expected {nnz} entries, found {data.shape[0]}"
        )
    if data.shape[1] < 2:
        raise GraphFormatError(
            f"{path}: entry lines need a row and a column index"
        )
    index = data[:, :2]
    if not np.array_equal(index, np.floor(index)):
        raise GraphFormatError(f"{path}: indices must be integers")
    src = index[:, 0].astype(np.int64) - 1
    dst = index[:, 1].astype(np.int64) - 1
    if src.size and (src.min() < 0 or dst.min() < 0):
        raise GraphFormatError(f"{path}: indices must be 1-based positive")
    top = int(max(src.max(), dst.max())) if src.size else -1
    if top >= rows:
        # Report the index as written in the file (1-based).
        raise GraphFormatError(
            f"{path}: index {top + 1} exceeds the matrix size {rows}"
        )
    return CSRGraph.from_edges(
        src, dst, rows, symmetrize=(qualifier == "symmetric")
    )
