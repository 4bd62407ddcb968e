"""Seeded RPR023 bug: the engine is used after it was closed *two
calls away*.

``finish`` calls ``shutdown`` calls ``_stop`` which closes the
engine — then ``finish`` runs another traversal on the closed handle.
Only the whole-program fixpoint sees the close: ``shutdown``'s own
summary (``module_effects``) has no ``closes``, which the blind-spot
regression test asserts.
"""

from repro.bfs.parallel import ParallelBFS

__all__ = ["finish"]


def _stop(engine):
    engine.close()


def shutdown(engine):
    _stop(engine)


def finish(graph, source, threads):
    engine = ParallelBFS(num_threads=threads)
    shutdown(engine)
    return engine.run(graph, source)  # closed two calls ago
