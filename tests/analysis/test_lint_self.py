"""The repo must lint clean: ``repro-bfs lint src/`` over the installed
package is a tier-1 gate from this PR onward.

If this test fails, either fix the flagged code or — when the pattern is
deliberate (like the scalar reference BFS) — annotate the line with
``# repro: noqa[RULE]`` and say why.
"""

from pathlib import Path

import repro
from repro.analysis import format_text, lint_paths

PACKAGE_DIR = Path(repro.__file__).parent


def test_package_lints_clean():
    violations, checked = lint_paths([PACKAGE_DIR])
    assert checked > 80, "package walk found suspiciously few files"
    assert violations == [], "\n" + format_text(violations)


def test_package_lints_clean_deep():
    """The dataflow/race rules (RPR010-RPR014) must also run clean over
    the whole package — ``repro-bfs lint --deep src/repro`` is a merge
    gate from this PR onward."""
    violations, checked = lint_paths([PACKAGE_DIR], deep=True)
    assert checked > 80, "package walk found suspiciously few files"
    assert violations == [], "\n" + format_text(violations)


def test_deep_baseline_report_is_current():
    """The committed deep-analysis report must match a fresh run: zero
    violations, and the deep rule set it records still registered.
    Regenerate it (see its ``command`` field) if this drifts."""
    import json

    from repro.analysis import deep_rule_codes

    baseline_path = (
        Path(__file__).resolve().parents[2]
        / "benchmarks" / "results" / "analysis" / "deep_baseline.json"
    )
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    assert baseline["schema"] == "repro.analysis.deep_baseline/1"
    assert baseline["violations"] == []
    assert baseline["deep_rules"] == deep_rule_codes()
    # the typestate tier must be part of the committed gate — a
    # regenerated baseline that silently dropped RPR023/RPR024 would
    # pass the equality above only if registration broke too
    assert {"RPR023", "RPR024"} <= set(baseline["deep_rules"])
    violations, checked = lint_paths([PACKAGE_DIR], deep=True)
    assert [v.as_dict() for v in violations] == baseline["violations"]
    assert checked >= baseline["files_checked"], (
        "package shrank below the committed baseline"
    )


def test_hot_path_modules_are_covered():
    """The vectorization rule must actually be in force over the kernel
    packages (guards against a path-detection regression)."""
    from repro.analysis.lint import is_hot_path

    assert is_hot_path(str(PACKAGE_DIR / "bfs" / "topdown.py"))
    assert is_hot_path(str(PACKAGE_DIR / "graph" / "csr.py"))
    assert is_hot_path(str(PACKAGE_DIR / "hetero" / "planner.py"))
    assert not is_hot_path(str(PACKAGE_DIR / "ml" / "svr.py"))


def test_wholeprogram_baseline_is_current():
    """The committed whole-program report (call-graph stats + RPR015-019
    findings) must match a fresh fixpoint run over the package: zero
    violations, the same rule set, and a package that has not shrunk.
    Regenerate with ``repro-bfs callgraph src/repro --write-baseline
    benchmarks/results/analysis/wholeprogram_baseline.json``."""
    import json

    from repro.analysis import build_project, program_report
    from repro.analysis.lint import iter_python_files

    baseline_path = (
        Path(__file__).resolve().parents[2]
        / "benchmarks" / "results" / "analysis"
        / "wholeprogram_baseline.json"
    )
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    assert baseline["schema"] == "repro.analysis.wholeprogram_baseline/1"
    assert baseline["violations"] == {}

    project = build_project(iter_python_files([PACKAGE_DIR]))
    report = program_report(project)
    assert sorted(report) == baseline["program_rules"]
    fresh = {
        code: buckets for code, buckets in report.items() if buckets
    }
    assert fresh == {}, f"whole-program findings drifted: {fresh}"
    stats = project.stats()
    for key in ("modules", "functions"):
        assert stats[key] >= baseline["stats"][key], (
            f"package {key} shrank below the committed baseline"
        )
