"""Worker-race rules (RPR013, RPR014, RPR017): a pinned answer table.

A *worker* is a function handed to ``pool.map``, ``executor.submit`` or
``Thread(target=...)``.  RPR013 reports a worker writing a shared array
itself, RPR014 through a helper in the worker's module, RPR017 through
a helper in another module.  Each row lints a snippet or a golden
fixture with all three rules selected and pins every finding as
``(rule, line, col)`` plus its message up to the first ``;`` (the
suppression hint after it is free to change).
"""

from pathlib import Path

import pytest

from repro.analysis import lint_paths, lint_source

FIXTURES = Path(__file__).parent / "fixtures"
RACE_RULES = ["RPR013", "RPR014", "RPR017"]


def _answers(violations):
    return [
        (v.rule, v.line, v.col, v.message.split(";", 1)[0])
        for v in violations
    ]


def _w13(worker: str, array: str, how: str) -> str:
    return f"worker `{worker}` writes shared array `{array}` ({how})"


def _w14(worker: str, array: str, callee: str, param: str) -> str:
    return (
        f"worker `{worker}` passes shared array `{array}` to `{callee}`, "
        f"whose effect summary writes parameter `{param}`"
    )


_POOL_WORKER = """\
import numpy as np


def step(pool, frontier, parent, level, depth):
    def w(chunk):
{body}
        return chunk

    return list(pool.map(w, np.array_split(frontier, 2)))
"""


def _pool_worker(*lines: str) -> str:
    return _POOL_WORKER.format(body="\n".join(f"        {s}" for s in lines))


# (id, source, expected answers); line 6 is the worker body's first line.
_SNIPPETS = [
    ("rpr013-fill", _pool_worker("parent.fill(0)"),
     [("RPR013", 6, 8, _w13("w", "parent", "in-place .fill()"))]),
    ("rpr013-out-kwarg", _pool_worker("np.add(chunk, 1, out=parent)"),
     [("RPR013", 6, 8, _w13("w", "parent", "out= target"))]),
    ("rpr013-augmented-store", _pool_worker("parent[chunk] += 1"),
     [("RPR013", 6, 8, _w13("w", "parent", "augmented store"))]),
    ("rpr013-subscript-store", _pool_worker("level[chunk] = 1"),
     [("RPR013", 6, 8, _w13("w", "level", "subscript store"))]),
    ("rpr013-thread-target", """\
from threading import Thread


def start(parent):
    def w():
        parent[0] = 1

    t = Thread(target=w)
    t.start()
    return t
""", [("RPR013", 6, 8, _w13("w", "parent", "subscript store"))]),
    ("rpr013-executor-submit", """\
def start(executor, parent, rows):
    def w(chunk):
        parent[chunk] = 1

    return executor.submit(w, rows)
""", [("RPR013", 3, 8, _w13("w", "parent", "subscript store"))]),
    ("rpr013-method-pool", """\
class Engine:
    def level(self, frontier, parent):
        def w(chunk):
            parent[chunk] = -7
            return chunk

        return list(self._pool.map(w, [frontier]))
""", [("RPR013", 4, 12, _w13("w", "parent", "subscript store"))]),
    ("rpr013-module-receiver-is-no-write",
     _pool_worker("out = np.sort(parent)", "out[0] = 1"), []),
    ("rpr013-own-chunk", _pool_worker("chunk[:] = 0", "chunk.fill(1)"), []),
    ("rpr013-workspace-scratch", """\
import numpy as np


def step(pool, workspace, frontier):
    def w(chunk):
        buf = workspace.buffer("w", chunk.size, np.int64)
        buf[:] = chunk
        buf.fill(0)
        return buf

    return list(pool.map(w, [frontier]))
""", []),
    ("rpr013-local-array",
     _pool_worker("tmp = np.zeros(chunk.size)", "tmp[:] = parent[chunk]",
                  "np.add(tmp, 1, out=tmp)"), []),
    ("rpr013-noqa", _pool_worker("parent[chunk] = 1  # repro: noqa[RPR013]"),
     []),
    ("rpr014-two-calls-down", """\
def _store(rows, parent, depth):
    parent[rows] = depth


def _claim(rows, parent, depth):
    _store(rows, parent, depth)


def step(pool, frontier, parent, depth):
    def scan(chunk):
        _claim(chunk, parent, depth)
        return chunk

    return list(pool.map(scan, [frontier]))
""", [("RPR014", 11, 8, _w14("scan", "parent", "_claim", "parent"))]),
    ("rpr013-rpr014-out-kwarg-call", """\
def _claim(rows, out=None):
    out[rows] = 1


def step(pool, frontier, buf):
    def scan(chunk):
        _claim(chunk, out=buf)
        return chunk

    return list(pool.map(scan, [frontier]))
""", [
        ("RPR013", 7, 8, _w13("scan", "buf", "out= target")),
        ("RPR014", 7, 8, _w14("scan", "buf", "_claim", "out")),
    ]),
    ("rpr014-helper-writes-only-the-chunk", """\
def _mark(rows, parent):
    rows[:] = parent[rows]


def step(pool, frontier, parent):
    def scan(chunk):
        _mark(chunk, parent)
        return chunk

    return list(pool.map(scan, [frontier]))
""", []),
]


@pytest.mark.parametrize(
    ("source", "expected"),
    [(source, expected) for _id, source, expected in _SNIPPETS],
    ids=[case_id for case_id, _source, _expected in _SNIPPETS],
)
def test_pinned_snippet_answers(source, expected):
    violations = lint_source(
        source, path="pinned_workers.py", select=RACE_RULES, deep=True
    )
    assert _answers(violations) == expected


@pytest.mark.parametrize(
    ("name", "expected"),
    [
        ("rpr013_bad.py", [
            ("RPR013", 17, 8, _w13("expand", "parent", "subscript store")),
            ("RPR013", 18, 8, _w13("expand", "level", "subscript store")),
        ]),
        ("rpr013_clean.py", []),
        ("rpr014_bad.py", [
            ("RPR014", 19, 8,
             _w14("scan", "parent", "_claim_rows", "parent")),
        ]),
        ("rpr014_clean.py", []),
    ],
)
def test_pinned_fixture_answers(name, expected):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    violations = lint_source(
        source, path=f"src/repro/bfs/{name}", select=RACE_RULES, deep=True
    )
    assert _answers(violations) == expected


def test_rpr017_fires_at_the_worker_call():
    violations, checked = lint_paths(
        [FIXTURES / "rpr017_bad"], select=RACE_RULES, deep=True
    )
    assert checked == 2
    assert [Path(v.path).name for v in violations] == ["engine.py"]
    assert _answers(violations) == [(
        "RPR017", 17, 8,
        "worker `scan` passes shared protocol array `parent` to "
        "`helpers.claim_rows` (helpers), whose whole-program effect "
        "summary writes parameter `parent`",
    )]


def test_rpr017_ignores_a_non_protocol_array(tmp_path):
    (tmp_path / "helpers.py").write_text(
        "def fill_rows(rows, buf):\n"
        "    buf[rows] = 1\n",
        encoding="utf-8",
    )
    (tmp_path / "engine.py").write_text(
        "import helpers\n"
        "\n"
        "\n"
        "def step(pool, frontier, buf):\n"
        "    def scan(chunk):\n"
        "        helpers.fill_rows(chunk, buf)\n"
        "        return chunk\n"
        "\n"
        "    return list(pool.map(scan, [frontier]))\n",
        encoding="utf-8",
    )
    violations, checked = lint_paths([tmp_path], select=RACE_RULES, deep=True)
    assert checked == 2
    assert violations == []
