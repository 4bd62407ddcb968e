"""The repo must lint clean: ``repro-bfs lint src/`` over the installed
package is a tier-1 gate from this PR onward.

If this test fails, either fix the flagged code or — when the pattern is
deliberate (like the scalar reference BFS) — annotate the line with
``# repro: noqa[RULE]`` and say why.

Run as a script, this module rewrites the committed deep-analysis
baseline from a fresh run::

    PYTHONPATH=src python tests/analysis/test_lint_self.py
"""

import json
from pathlib import Path

import repro
from repro.analysis import RULES, deep_rule_codes, format_text, lint_paths

PACKAGE_DIR = Path(repro.__file__).parent
BASELINES = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "results" / "analysis"
)
DEEP_BASELINE = BASELINES / "deep_baseline.json"


def fresh_deep_baseline() -> dict:
    """The deep-analysis baseline a fresh run over the package gives."""
    violations, checked = lint_paths([PACKAGE_DIR], deep=True)
    return {
        "schema": "repro.analysis.deep_baseline/1",
        "command": "PYTHONPATH=src python tests/analysis/test_lint_self.py",
        "files_checked": checked,
        "rules": {
            code: {"summary": RULES[code].summary, "deep": RULES[code].deep}
            for code in sorted(RULES)
        },
        "deep_rules": deep_rule_codes(),
        "violations": [v.as_dict() for v in violations],
    }


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
    """The committed deep-analysis report must match a fresh run field
    for field: zero violations, the files checked, every rule's summary
    and tier.  Regenerate it with its ``command`` if this drifts."""
    baseline = json.loads(DEEP_BASELINE.read_text(encoding="utf-8"))
    assert baseline["violations"] == []
    # the lifecycle rules must be part of the committed gate
    assert {"RPR023", "RPR024"} <= set(baseline["deep_rules"])
    assert baseline == fresh_deep_baseline()


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
    violations, the same rule set and every call-graph statistic.
    Regenerate with ``repro-bfs callgraph src/repro --write-baseline
    benchmarks/results/analysis/wholeprogram_baseline.json``."""
    from repro.analysis import build_project, program_report
    from repro.analysis.lint import iter_python_files

    baseline = json.loads(
        (BASELINES / "wholeprogram_baseline.json").read_text(encoding="utf-8")
    )
    assert baseline["schema"] == "repro.analysis.wholeprogram_baseline/1"
    assert baseline["violations"] == {}

    project = build_project(iter_python_files([PACKAGE_DIR]))
    report = program_report(project)
    assert sorted(report) == baseline["program_rules"]
    fresh = {
        code: buckets for code, buckets in report.items() if buckets
    }
    assert fresh == {}, f"whole-program findings drifted: {fresh}"
    assert project.stats() == baseline["stats"]


if __name__ == "__main__":
    DEEP_BASELINE.write_text(
        json.dumps(fresh_deep_baseline(), indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {DEEP_BASELINE}")
