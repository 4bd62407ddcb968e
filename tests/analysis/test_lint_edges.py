"""Lint engine edge cases: undecodable/unparsable inputs become
structured RPR000 diagnostics (both tiers), and the git-aware
``--changed`` file selection."""

import subprocess

import pytest

from repro.analysis import (
    DIAGNOSTIC_RULE,
    changed_python_files,
    lint_paths,
)
from repro.cli import main
from repro.errors import LintError


@pytest.fixture()
def broken_tree(tmp_path):
    (tmp_path / "ok.py").write_text("X = 1\n", encoding="utf-8")
    (tmp_path / "empty.py").write_text("", encoding="utf-8")
    (tmp_path / "syntax.py").write_text(
        "def broken(:\n    pass\n", encoding="utf-8"
    )
    (tmp_path / "binary.py").write_bytes(b"\x80\x81\xfe\xff\x00")
    return tmp_path


class TestDiagnostics:
    def test_syntax_error_is_a_structured_diagnostic(self, broken_tree):
        violations, _ = lint_paths([broken_tree / "syntax.py"])
        assert [v.rule for v in violations] == [DIAGNOSTIC_RULE]
        assert "cannot parse" in violations[0].message
        assert violations[0].line == 1

    def test_undecodable_file_is_a_structured_diagnostic(self, broken_tree):
        violations, _ = lint_paths([broken_tree / "binary.py"])
        assert [v.rule for v in violations] == [DIAGNOSTIC_RULE]
        assert "UTF-8" in violations[0].message

    def test_empty_file_is_not_a_diagnostic(self, broken_tree):
        """An empty module parses: ordinary rules may fire (RPR006 wants
        __all__) but it must not be reported as unanalyzable."""
        violations, _ = lint_paths([broken_tree / "empty.py"])
        assert DIAGNOSTIC_RULE not in {v.rule for v in violations}

    def test_missing_file_still_raises(self, tmp_path):
        with pytest.raises(LintError):
            lint_paths([tmp_path / "nope.py"])

    @pytest.mark.parametrize("deep", [False, True])
    def test_lint_paths_reports_and_keeps_going(self, broken_tree, deep):
        """Both tiers: broken files yield diagnostics, healthy files are
        still checked, and (deep tier) the call graph is built over
        whatever parses."""
        violations, checked = lint_paths([broken_tree], deep=deep)
        assert checked == 4
        diags = [v for v in violations if v.rule == DIAGNOSTIC_RULE]
        assert {v.path.rsplit("/", 1)[-1] for v in diags} == {
            "syntax.py",
            "binary.py",
        }

    def test_cli_exit_is_nonzero_on_diagnostics(self, broken_tree, capsys):
        assert main(["lint", str(broken_tree / "syntax.py")]) == 1
        err = capsys.readouterr()
        assert DIAGNOSTIC_RULE in err.out


def _git(tmp_path, *argv):
    subprocess.run(
        ["git", *argv],
        cwd=tmp_path,
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@t",
            "HOME": str(tmp_path),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )


@pytest.fixture()
def git_repo(tmp_path):
    _git(tmp_path, "init", "-q")
    (tmp_path / "committed.py").write_text("A = 1\n", encoding="utf-8")
    (tmp_path / "other.txt").write_text("not python\n", encoding="utf-8")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-qm", "seed")
    return tmp_path


class TestChanged:
    def test_untracked_and_modified_files_are_selected(self, git_repo):
        (git_repo / "committed.py").write_text("A = 2\n", encoding="utf-8")
        (git_repo / "fresh.py").write_text("B = 1\n", encoding="utf-8")
        (git_repo / "ignored.txt").write_text("x\n", encoding="utf-8")
        changed = changed_python_files([git_repo], root=git_repo)
        assert sorted(p.name for p in changed) == ["committed.py", "fresh.py"]

    def test_clean_tree_selects_nothing(self, git_repo):
        assert changed_python_files([git_repo], root=git_repo) == []

    def test_scope_filter_applies(self, git_repo):
        sub = git_repo / "pkg"
        sub.mkdir()
        (sub / "inside.py").write_text("C = 1\n", encoding="utf-8")
        (git_repo / "outside.py").write_text("D = 1\n", encoding="utf-8")
        changed = changed_python_files([sub], root=git_repo)
        assert [p.name for p in changed] == ["inside.py"]

    def test_outside_git_raises(self, tmp_path):
        with pytest.raises(LintError):
            changed_python_files([tmp_path], root=tmp_path)
