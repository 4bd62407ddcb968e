"""Seeded RPR024 bug: a workspace re-lent while its result is live.

``first`` still aliases the workspace arrays when the second traversal
reuses ``ws`` — the rerun silently rewrites ``first.parent`` before
the final sum reads it.
"""

from repro.bfs.parallel import ParallelBFS
from repro.bfs.workspace import BFSWorkspace

__all__ = ["compare_roots"]


def compare_roots(graph, a, b, threads):
    engine = ParallelBFS(num_threads=threads)
    ws = BFSWorkspace(graph.num_vertices)
    try:
        first = engine.run(graph, a, workspace=ws)
        second = engine.run(graph, b, workspace=ws)  # first still live
        return int(first.parent[0]) + int(second.parent[0])
    finally:
        engine.close()
