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


EXPECTED = [
    ("rpr012_bad.py", 10, 4, "RPR012",
     "scratch buffer `out` (workspace.buffer('gathered')) is written but "
     "never read — dead store on the hot path"),
    ("rpr015_bad.py", 31, 4, "RPR015",
     "`engine = ParallelBFS(...)` can leak: `_drive(...)` (which can "
     "raise) at line 32 exits before the close() on line 33"),
]


def test_fixture_corpus_answers():
    violations, checked = lint_paths([FIXTURES], deep=True)
    assert checked == 8
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
