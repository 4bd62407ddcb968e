"""Shared fixtures for the analysis tests."""

import pytest

#: A two-file tree: ``engine.f`` resets ``ws`` through a helper while
#: the result of its own ``begin`` still aliases it, so RPR011 reports
#: ``engine.py`` line 8 only when ``helpers.py`` is in the project.
RESET_TREE = {
    "helpers.py": "def reset(ws):\n    ws.begin(0)\n",
    "engine.py": (
        "from helpers import reset\n"
        "from repro.bfs.result import BFSResult\n"
        "\n"
        "\n"
        "def f(ws, source):\n"
        "    parent, level = ws.begin(source)\n"
        "    result = BFSResult(source=source, parent=parent, level=level)\n"
        "    reset(ws)\n"
        "    return result\n"
    ),
}


@pytest.fixture()
def reset_tree(tmp_path):
    """:data:`RESET_TREE` written to a fresh directory."""
    for name, text in RESET_TREE.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path
