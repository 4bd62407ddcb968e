"""Golden fixtures for the whole-program rules (RPR015–RPR017, RPR019).

Every bad fixture plants a *two-hop* violation: the defect is only
visible once effects have crossed at least two call edges (or, for
RPR017, a module boundary), which no function's own summary shows —
each rule gets a companion test showing that the direct summaries miss
what the project fixpoint sees.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_paths, lint_source, project_from_sources

FIXTURES = Path(__file__).parent / "fixtures"

FILE_RULES = ("RPR015", "RPR016", "RPR019")
DIR_RULES = ("RPR017",)


def _lint_file_fixture(name: str, rule: str):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(
        text, path=f"src/repro/bfs/{name}", select=[rule], deep=True
    )


def _lint_dir_fixture(name: str, rule: str):
    violations, checked = lint_paths(
        [FIXTURES / name], select=[rule], deep=True
    )
    assert checked == 2, f"{name}: expected a two-module fixture"
    return violations


class TestGoldenFixtures:
    @pytest.mark.parametrize("rule", FILE_RULES)
    def test_bad_file_fixture_is_caught(self, rule):
        name = f"{rule.lower()}_bad.py"
        violations = _lint_file_fixture(name, rule)
        assert violations, f"{name}: seeded bug not detected"
        assert {v.rule for v in violations} == {rule}

    @pytest.mark.parametrize("rule", FILE_RULES)
    def test_clean_file_fixture_is_silent(self, rule):
        name = f"{rule.lower()}_clean.py"
        assert _lint_file_fixture(name, rule) == [], (
            f"{name}: false positive on the clean twin"
        )

    @pytest.mark.parametrize("rule", DIR_RULES)
    def test_bad_dir_fixture_is_caught(self, rule):
        name = f"{rule.lower()}_bad"
        violations = _lint_dir_fixture(name, rule)
        assert violations, f"{name}: seeded bug not detected"
        assert {v.rule for v in violations} == {rule}

    @pytest.mark.parametrize("rule", DIR_RULES)
    def test_clean_dir_fixture_is_silent(self, rule):
        name = f"{rule.lower()}_clean"
        assert _lint_dir_fixture(name, rule) == [], (
            f"{name}: false positive on the clean twin"
        )


class TestMessages:
    def test_rpr015_names_the_raising_call(self):
        violations = _lint_file_fixture("rpr015_bad.py", "RPR015")
        assert any("_drive" in v.message for v in violations)
        assert any("finally" in v.message for v in violations)

    def test_rpr016_names_the_public_boundary(self):
        violations = _lint_file_fixture("rpr016_bad.py", "RPR016")
        assert any("frontier_view" in v.message for v in violations)
        assert any("detach" in v.message for v in violations)

    def test_rpr017_reports_engine_side_call_site(self):
        violations = _lint_dir_fixture("rpr017_bad", "RPR017")
        v = violations[0]
        assert Path(v.path).name == "engine.py"
        assert "parent" in v.message and "helpers" in v.message

    def test_rpr019_names_the_cycle(self):
        violations = _lint_file_fixture("rpr019_bad.py", "RPR019")
        msg = violations[0].message
        assert "scan_vertex" in msg and "visit_vertex" in msg


class TestOneLevelBlindSpots:
    """Each bad fixture's defect is invisible to the direct summaries."""

    def _project(self, *names):
        return project_from_sources(
            (FIXTURES / name, (FIXTURES / name).read_text(encoding="utf-8"))
            for name in names
        )

    def test_rpr015_raise_is_two_hops_down(self):
        p = self._project("rpr015_bad.py")
        assert not p.functions["rpr015_bad._drive"].summary.raises
        assert p.summaries["rpr015_bad._drive"].raises

    def test_rpr016_alias_needs_call_graph_resolution(self):
        """returns_ws only chains once `_mid` in `returns_calls` is
        resolved against the call graph; the public boundary's own
        summary never marks it."""
        p = self._project("rpr016_bad.py")
        assert p.functions["rpr016_bad._grab"].summary.returns_ws
        assert not p.functions["rpr016_bad.frontier_view"].summary.returns_ws
        assert p.summaries["rpr016_bad.frontier_view"].returns_ws

    def test_rpr017_write_is_in_another_module(self):
        """engine.py alone — even propagated to fixpoint — cannot see
        helpers.py's write at all; the two-module project can."""
        alone = self._project("rpr017_bad/engine.py")
        assert all("parent" not in s.writes for s in alone.summaries.values())
        both = self._project("rpr017_bad/engine.py", "rpr017_bad/helpers.py")
        assert "parent" in both.summaries["engine.sneaky_level.scan"].writes


class TestPathSpelling:
    """Whole-program findings are filed and looked up under one
    normalized path, however the caller spells it."""

    @staticmethod
    def _lint(name: str, path: str, rule: str):
        text = (FIXTURES / name).read_text(encoding="utf-8")
        violations = lint_source(text, path=path, select=[rule], deep=True)
        return [(v.line, v.rule) for v in violations]

    @pytest.mark.parametrize(
        "path", ["rpr016_bad.py", "./rpr016_bad.py", "a//rpr016_bad.py"]
    )
    def test_rpr016(self, path):
        assert self._lint("rpr016_bad.py", path, "RPR016") == [
            (21, "RPR016")
        ]

    def test_rpr013_dot_slash(self):
        assert self._lint("rpr013_bad.py", "./rpr013_bad.py", "RPR013") == [
            (17, "RPR013"), (18, "RPR013")
        ]
