"""Deep dataflow rules (RPR010-RPR014): golden fixtures, the dtype
lattice, suppression extents, and the shared single-pass node index.

Each seeded-bug fixture in ``tests/analysis/fixtures/`` must be caught
by exactly its rule, and the clean twin must stay silent under the same
rule — the abstract interpreter only fires on facts it proved, so a
clean fixture firing means a lattice regression, and a bad fixture
going silent means a detection regression.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis.dataflow import UNKNOWN, AbstractValue, promote
from repro.analysis.lint import (
    ModuleContext,
    NodeIndex,
    deep_rule_codes,
    lint_source,
)

FIXTURES = Path(__file__).parent / "fixtures"

DEEP_RULES = ("RPR010", "RPR011", "RPR012", "RPR013", "RPR014")


def _lint_fixture(name: str, rule: str):
    """Lint one fixture as if it lived on the BFS hot path, running
    only the rule under test (the fixtures are deliberately small
    enough to trip unrelated default rules like RPR007)."""
    text = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(
        text, path=f"src/repro/bfs/{name}", select=[rule], deep=True
    )


class TestGoldenFixtures:
    @pytest.mark.parametrize("rule", DEEP_RULES)
    def test_bad_fixture_is_caught(self, rule):
        name = f"{rule.lower()}_bad.py"
        violations = _lint_fixture(name, rule)
        assert violations, f"{name}: seeded bug not detected"
        assert {v.rule for v in violations} == {rule}

    @pytest.mark.parametrize("rule", DEEP_RULES)
    def test_clean_fixture_is_silent(self, rule):
        name = f"{rule.lower()}_clean.py"
        assert _lint_fixture(name, rule) == [], (
            f"{name}: false positive on the clean twin"
        )

    def test_rpr010_catches_both_shapes(self):
        """The bad fixture seeds an astype narrowing, a dtype=
        construction narrowing and mixed uint64/int64 math — all three
        must fire."""
        violations = _lint_fixture("rpr010_bad.py", "RPR010")
        messages = " | ".join(v.message for v in violations)
        assert "astype" in messages
        assert "np.asarray" in messages or "dtype=" in messages
        assert "uint64" in messages

    def test_rpr011_names_the_result_line(self):
        violations = _lint_fixture("rpr011_bad.py", "RPR011")
        assert any("detach()" in v.message for v in violations)
        assert any("BFSResult" in v.message for v in violations)

    def test_rpr013_matches_dynamic_defect(self):
        """The static fixture encodes the same defect the runtime race
        sanitizer catches (tests/test_stress_and_concurrency.py): a
        pool worker writing the shared parent map."""
        violations = _lint_fixture("rpr013_bad.py", "RPR013")
        assert any(
            "parent" in v.message and "main thread" in v.message
            for v in violations
        )

    def test_rpr014_reports_the_callee(self):
        violations = _lint_fixture("rpr014_bad.py", "RPR014")
        assert any("_claim_rows" in v.message for v in violations)

    def test_deep_registry_is_exactly_the_fixture_set(self):
        """Module-local deep rules plus the whole-program tier
        (tests/analysis/test_program_rules.py covers the latter) and the
        lifecycle rules (RPR023, RPR024, tests/analysis/test_typestate.py)."""
        program_rules = ("RPR015", "RPR016", "RPR017", "RPR019")
        lifecycle_rules = ("RPR023", "RPR024")
        assert deep_rule_codes() == sorted(
            DEEP_RULES + program_rules + lifecycle_rules
        )


class TestPromotionLattice:
    """The dtype lattice mirrors NumPy's promotion rules."""

    @pytest.mark.parametrize(
        ("a", "b", "expected"),
        [
            ("int64", "int64", "int64"),
            ("int32", "int64", "int64"),
            ("uint32", "uint64", "uint64"),
            ("bool", "int32", "int32"),
            ("bool", "bool", "bool"),
            ("int32", "uint32", "int64"),
            ("int64", "uint64", "float64"),  # no common integer
            ("uint64", "int32", "float64"),
            ("float32", "float64", "float64"),
            ("float32", "int64", "float64"),
            ("float32", "int16", "float32"),
            ("int64", None, None),  # unknown poisons
            (None, None, None),
        ],
    )
    def test_promote(self, a, b, expected):
        assert promote(a, b) == expected
        assert promote(b, a) == expected  # commutative

    def test_promote_matches_numpy_on_the_hot_dtypes(self):
        np = pytest.importorskip("numpy")
        hot = ["bool", "int32", "int64", "uint32", "uint64", "float64"]
        for a in hot:
            for b in hot:
                expected = np.promote_types(a, b).name
                assert promote(a, b) == expected, (a, b)

    def test_unknown_value_singleton(self):
        assert UNKNOWN.dtype is None
        assert UNKNOWN.kind is None
        assert UNKNOWN.aliases == frozenset()
        assert AbstractValue() == UNKNOWN


class TestSuppressionExtent:
    """A noqa on any line of a multi-line simple statement suppresses
    the whole statement extent (the satellite fix: previously only the
    marker's own line was masked)."""

    SNIPPET = (
        "import numpy as np\n"
        "__all__ = ['f']\n"
        "def f(workspace, n):\n"
        "    idx = workspace.iota(n)\n"
        "    small = idx.astype(\n"
        "        np.int32\n"
        "    ){marker}\n"
        "    return small\n"
    )

    def _lint(self, marker: str):
        return lint_source(
            self.SNIPPET.format(marker=marker),
            path="src/repro/bfs/snippet.py",
            select=["RPR010"],
            deep=True,
        )

    def test_unsuppressed_fires(self):
        assert [v.rule for v in self._lint("")] == ["RPR010"]

    def test_noqa_on_closing_line_suppresses_whole_statement(self):
        # The finding is reported on the statement's first line; the
        # marker sits two lines below, on the closing paren.
        assert self._lint("  # repro: noqa[RPR010] - ids < 2^31") == []

    def test_blanket_noqa_on_closing_line(self):
        assert self._lint("  # repro: noqa") == []

    def test_wrong_code_does_not_suppress(self):
        assert [
            v.rule for v in self._lint("  # repro: noqa[RPR001]")
        ] == ["RPR010"]

    def test_def_line_noqa_does_not_blanket_the_body(self):
        """Compound statements are excluded from extent expansion: a
        noqa on the def line must not silence findings inside."""
        src = (
            "__all__ = ['f']\n"
            "def f(x):  # repro: noqa[RPR004]\n"
            "    assert x\n"
            "    return x\n"
        )
        violations = lint_source(src, select=["RPR004"])
        assert [v.rule for v in violations] == ["RPR004"]


class TestNodeIndex:
    """One materialized walk shared by every rule (the single-pass
    satellite)."""

    SRC = (
        "import numpy as np\n"
        "def f(x):\n"
        "    y = np.sort(x)\n"
        "    return np.unique(y)\n"
    )

    def test_index_matches_a_fresh_walk(self):
        tree = ast.parse(self.SRC)
        index = NodeIndex(tree)
        walked = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        assert index.of(ast.Call) == walked
        assert len(index.nodes) == len(list(ast.walk(tree)))

    def test_multi_type_query(self):
        tree = ast.parse(self.SRC)
        index = NodeIndex(tree)
        got = index.of(ast.FunctionDef, ast.Return)
        assert {type(n) for n in got} == {ast.FunctionDef, ast.Return}

    def test_context_falls_back_without_index(self):
        tree = ast.parse(self.SRC)
        ctx = ModuleContext(
            path="x.py", source=self.SRC, tree=tree, hot_path=False
        )
        assert ctx.index is None
        assert len(ctx.nodes(ast.Call)) == 2

    def test_lint_source_shares_one_index(self):
        """All rules see the same ModuleContext index object —
        lint_source builds it exactly once per file."""
        violations = lint_source(self.SRC, path="t.py", deep=True)
        assert isinstance(violations, list)  # ran every rule on one parse
