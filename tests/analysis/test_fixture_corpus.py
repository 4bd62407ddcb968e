"""The golden fixture corpus linted as one project: a pinned answer table.

``lint_paths(deep=True)`` over ``tests/analysis/fixtures`` builds one
call graph over every fixture, so the whole-program rules see them all
together, unlike the per-fixture tests that lint each file alone.  Each
finding is pinned as ``(file, line, col, rule)`` plus its message up to
the first ``;`` (the hint after it is free to change).
"""

from pathlib import Path

from repro.analysis import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"


def _w16(fn: str) -> str:
    return (
        f"public `{fn}` returns workspace-aliased storage (transitively "
        "derived from its workspace parameter) without detach()/copy()"
    )


EXPECTED = [
    ("rpr011_bad.py", 12, 4, "RPR011",
     "write to workspace storage (ws.parent) still aliased by the "
     "BFSResult constructed at line 10"),
    ("rpr011_bad.py", 16, 0, "RPR016", _w16("run_and_reset")),
    ("rpr011_bad.py", 20, 22, "RPR011",
     "write to workspace storage (ws.level, ws.parent) still aliased by "
     "the BFSResult constructed at line 18"),
    ("rpr011_clean.py", 8, 0, "RPR016", _w16("run_detach_then_reuse")),
    ("rpr012_bad.py", 10, 4, "RPR012",
     "scratch buffer `out` (workspace.buffer('gathered')) is written but "
     "never read — dead store on the hot path"),
    ("rpr013_bad.py", 17, 8, "RPR013",
     "worker `expand` writes shared array `parent` (subscript store)"),
    ("rpr013_bad.py", 18, 8, "RPR013",
     "worker `expand` writes shared array `level` (subscript store)"),
    ("rpr014_bad.py", 19, 8, "RPR014",
     "worker `scan` passes shared array `parent` to `_claim_rows`, whose "
     "effect summary writes parameter `parent`"),
    ("rpr015_bad.py", 31, 4, "RPR015",
     "`engine = ParallelBFS(...)` can leak: `_drive(...)` (which can "
     "raise) at line 32 exits before the close() on line 33"),
    ("rpr016_bad.py", 21, 0, "RPR016", _w16("frontier_view")),
    ("rpr017_bad/engine.py", 17, 8, "RPR017",
     "worker `scan` passes shared protocol array `parent` to "
     "`helpers.claim_rows` (helpers), whose whole-program effect summary "
     "writes parameter `parent`"),
    ("rpr023_bad.py", 27, 11, "RPR023",
     "`engine.run()` violates the parallel-bfs protocol: illegal in "
     "state(s): closed"),
    ("rpr024_bad.py", 19, 17, "RPR024",
     "traversal reuses workspace `ws` while result `first` (bound at "
     "line 18) still aliases its arrays and is still read afterwards"),
]


def test_fixture_corpus_answers():
    violations, checked = lint_paths([FIXTURES], deep=True)
    assert checked == 24
    got = sorted(
        (
            Path(v.path).relative_to(FIXTURES).as_posix(),
            v.line,
            v.col,
            v.rule,
            v.message.split(";", 1)[0],
        )
        for v in violations
    )
    assert got == sorted(EXPECTED)
