"""Per-function write/raise/reset effect summaries and their
propagation by the whole-program worklist fixpoint."""

import ast

from repro.analysis.callgraph import extract_module, project_from_sources
from repro.analysis.effects import format_effects, function_effects
from repro.analysis.lint import parse_module


def _fn(src: str) -> ast.FunctionDef:
    node = ast.parse(src).body[0]
    assert isinstance(node, ast.FunctionDef)
    return node


class TestFunctionEffects:
    def test_subscript_store_writes_param(self):
        fx = function_effects(_fn("def f(a, i):\n    a[i] = 0\n"))
        assert fx.writes == {"a"}
        assert fx.writes_param("a")
        assert not fx.writes_param("i")

    def test_plain_rebind_is_not_a_write(self):
        fx = function_effects(_fn("def f(a):\n    a = 0\n    return a\n"))
        assert fx.writes == frozenset()

    def test_local_array_writes_not_tracked(self):
        src = (
            "def f(n):\n"
            "    tmp = make(n)\n"
            "    tmp[0] = 1\n"
            "    return tmp\n"
        )
        fx = function_effects(_fn(src))
        assert "tmp" not in fx.writes  # local: caller can't observe it

    def test_free_variable_write_tracked(self):
        src = "def f(i):\n    shared[i] = 1\n"
        fx = function_effects(_fn(src))
        assert "shared" in fx.writes

    def test_mutating_method_is_a_write(self):
        fx = function_effects(_fn("def f(a):\n    a.fill(0)\n"))
        assert fx.writes == {"a"}

    def test_out_kwarg_is_a_write(self):
        fx = function_effects(
            _fn("def f(a, b):\n    np.add(a, a, out=b)\n")
        )
        assert "b" in fx.writes

    def test_module_sort_is_not_a_write(self):
        """``np.sort(x)`` is the copying functional sort; the module
        receiver must not be recorded as a mutated array."""
        src = "import numpy as np\ndef f(a):\n    return np.sort(a)\n"
        assert _direct(src)["f"].writes == frozenset()

    def test_nested_def_effects_stay_its_own(self):
        src = (
            "def f(a):\n"
            "    def g(i):\n"
            "        a[i] = 0\n"
            "    return g\n"
        )
        fx = function_effects(_fn(src))
        assert fx.writes == frozenset()  # the write belongs to g

    def test_call_sites_record_bindings(self):
        fx = function_effects(
            _fn("def f(a):\n    helper(a, depth=a)\n")
        )
        (call,) = fx.calls
        assert call.callee == "helper"
        assert call.args == ("a",)
        assert call.kwargs == (("depth", "a"),)


class TestModuleImports:
    def test_import_names_collected(self):
        """The import table maps each bound name to what it imports; a
        name bound twice keeps its last binding."""
        src = (
            "import numpy as np\nimport ast\nfrom os import path as p\n"
            "from a import f\nimport b as f\n"
        )
        (rec,) = project_from_sources([("m.py", src)]).modules.values()
        assert dict(rec.imports) == {
            "np": "numpy", "ast": "ast", "p": "os.path", "f": "b",
        }


def _summaries(src: str):
    """Fixpoint summaries of a one-module project, keyed by bare name."""
    p = project_from_sources([("m.py", src)])
    return {q.removeprefix("m."): s for q, s in p.summaries.items()}


def _direct(src: str):
    """The same functions' direct (unpropagated) summaries."""
    p = project_from_sources([("m.py", src)])
    return {q.removeprefix("m."): f.summary for q, f in p.functions.items()}


class TestPropagation:
    MODULE = (
        "def _claim(rows, parent, depth):\n"
        "    parent[rows] = depth\n"
        "\n"
        "def level(frontier, parent, depth):\n"
        "    _claim(frontier, parent, depth)\n"
        "    return frontier\n"
        "\n"
        "def outer(frontier, parent, depth):\n"
        "    return level(frontier, parent, depth)\n"
    )

    def test_one_level_propagation(self):
        effects = _summaries(self.MODULE)
        assert "parent" in effects["_claim"].writes
        # level inherits the write through the call binding
        assert "parent" in effects["level"].writes

    def test_fixpoint_catches_the_two_hop_write(self):
        """outer -> level -> _claim is two hops; the fixpoint carries
        the write through arbitrary call depth."""
        assert "parent" not in _direct(self.MODULE)["outer"].writes
        assert "parent" in _summaries(self.MODULE)["outer"].writes

    def test_fixpoint_propagates_raises_through_depth(self):
        src = (
            "def _step(v):\n"
            "    if v < 0:\n"
            "        raise ValueError(v)\n"
            "    return v\n"
            "\n"
            "def _drive(v):\n"
            "    return _step(v)\n"
            "\n"
            "def entry(v):\n"
            "    return _drive(v)\n"
        )
        assert not _direct(src)["entry"].raises
        assert _summaries(src)["entry"].raises

    def test_fixpoint_terminates_on_recursion(self):
        src = (
            "def ping(a, n):\n"
            "    a[n] = 0\n"
            "    return pong(a, n - 1)\n"
            "\n"
            "def pong(a, n):\n"
            "    return ping(a, n - 1)\n"
        )
        effects = _summaries(src)
        assert "a" in effects["ping"].writes
        assert "a" in effects["pong"].writes

    def test_kwarg_binding_propagates(self):
        src = (
            "def h(out=None):\n"
            "    out[0] = 1\n"
            "\n"
            "def f(buf):\n"
            "    h(out=buf)\n"
        )
        assert "buf" in _summaries(src)["f"].writes

    def test_unresolved_callee_assumed_safe(self):
        src = "def f(a):\n    external_helper(a)\n"
        assert _summaries(src)["f"].writes == frozenset()

    def test_format_effects_stable_dump(self):
        dump = format_effects(_summaries(self.MODULE))
        assert "level(frontier, parent, depth)" in dump
        assert "writes={parent}" in dump


class TestLifecycleFacts:
    """Extraction records every call site, ``close()`` and ``begin()``
    included."""

    def test_extraction_records_lifecycle_facts(self):
        rec = extract_module(parse_module(
            "def f(e, w, c):\n    e.close()\n    if c:\n        w.begin(0)\n",
            "m.py",
        ))
        (info,) = rec.functions
        assert sorted(c.callee for c in info.summary.calls) == [
            "e.close", "w.begin",
        ]
