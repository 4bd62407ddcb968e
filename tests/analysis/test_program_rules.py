"""Golden fixtures for the whole-program rules (RPR015, RPR019).

Every bad fixture plants a *two-hop* violation: the defect is only
visible once effects have crossed at least two call edges, which no
function's own summary shows — each rule gets a companion test showing
that the direct summaries miss what the project fixpoint sees.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis import lint_source, project_from_sources
from repro.analysis.callgraph import RESOURCE_CTORS, _RECEIVER_CONVENTIONS

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

FILE_RULES = ("RPR015", "RPR019")


def _lint_file_fixture(name: str, rule: str):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(
        text, path=f"src/repro/bfs/{name}", select=[rule], deep=True
    )


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


class TestMessages:
    def test_rpr015_names_the_raising_call(self):
        violations = _lint_file_fixture("rpr015_bad.py", "RPR015")
        assert any("_drive" in v.message for v in violations)
        assert any("finally" in v.message for v in violations)

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

    def test_write_is_in_another_module(self):
        """engine.py alone — even propagated to fixpoint — cannot see
        helpers.py's write at all; the two-module project can."""
        engine = (
            "engine.py",
            "import helpers\n"
            "\n"
            "def level(frontier, parent, depth):\n"
            "    helpers.claim_rows(frontier, parent, depth)\n",
        )
        helpers = (
            "helpers.py",
            "def claim_rows(rows, parent, depth):\n"
            "    parent[rows] = depth\n",
        )
        alone = project_from_sources([engine])
        assert all("parent" not in s.writes for s in alone.summaries.values())
        both = project_from_sources([engine, helpers])
        assert "parent" in both.summaries["engine.level"].writes


class TestPathSpelling:
    """Whole-program findings are filed and looked up under one
    normalized path, however the caller spells it."""

    @pytest.mark.parametrize(
        "path", ["rpr015_bad.py", "./rpr015_bad.py", "a//rpr015_bad.py"]
    )
    def test_rpr015(self, path):
        text = (FIXTURES / "rpr015_bad.py").read_text(encoding="utf-8")
        violations = lint_source(text, path=path, select=["RPR015"], deep=True)
        assert [(v.line, v.rule) for v in violations] == [(31, "RPR015")]


def test_every_rule_guards_an_existing_class():
    """A deep rule stays only while the class it keys on exists: each
    class name below is defined or imported somewhere under src/repro."""
    known: set[str] = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                known.add(node.name)
            elif isinstance(node, ast.ImportFrom):
                known.update(alias.name for alias in node.names)
    guarded = {
        "BFSWorkspace", "BFSResult",
        *RESOURCE_CTORS, *_RECEIVER_CONVENTIONS.values(),
    }
    assert sorted(guarded - known) == []
