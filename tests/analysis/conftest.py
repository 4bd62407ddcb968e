"""Shared fixtures for the analysis tests."""

import pytest

#: A two-file tree: ``engine.f`` acquires a ``ParallelBFS`` and then
#: calls ``helpers.drive``, which can raise, before ``close()``, so
#: RPR015 reports ``engine.py`` line 6 only when ``helpers.py`` is in
#: the project.
LEAK_TREE = {
    "helpers.py": (
        "def drive(graph, engine, source):\n"
        "    if source < 0:\n"
        "        raise ValueError('negative source')\n"
        "    return engine.run(graph, source)\n"
    ),
    "engine.py": (
        "from helpers import drive\n"
        "from repro.bfs.parallel import ParallelBFS\n"
        "\n"
        "\n"
        "def f(graph, source):\n"
        "    engine = ParallelBFS(num_threads=2)\n"
        "    result = drive(graph, engine, source)\n"
        "    engine.close()\n"
        "    return result\n"
    ),
}


@pytest.fixture()
def leak_tree(tmp_path):
    """:data:`LEAK_TREE` written to a fresh directory."""
    for name, text in LEAK_TREE.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path
