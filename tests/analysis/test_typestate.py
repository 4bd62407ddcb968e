"""Typestate & protocol verification tier (RPR022–RPR026).

Each rule has a golden bad/clean fixture pair; RPR023 and RPR025
additionally prove the interprocedural lift (the one-level view
provably misses them); and every static violation is re-caught at
runtime by the dynamic twin (:class:`~repro.obs.live.ProtocolMonitor`
or strict capture conformance) on the same scenario.
"""

from pathlib import Path

import pytest

from repro.analysis import (
    PROTOCOLS,
    TypestateAnalysis,
    get_protocol,
    lint_paths,
    lint_source,
    project_from_sources,
)
from repro.analysis.typestate import protocol_for_ctor, protocol_for_type
from repro.errors import AnalysisError, LiveError, ProtocolError
from repro.obs.live import (
    CaptureFile,
    ChannelExporter,
    FrameConformance,
    ProtocolMonitor,
    read_capture,
)
from repro.obs.tracer import Tracer

FIXTURES = Path(__file__).parent / "fixtures"

TYPESTATE_RULES = ("RPR022", "RPR023", "RPR024", "RPR025", "RPR026")


def _fixture_source(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def _load_fixture_module(name: str):
    """Import a fixture file as a real module (the fixtures directory
    is not a package)."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        f"typestate_fixture_{name.removesuffix('.py')}", FIXTURES / name
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lint_fixture(name: str, rule: str):
    return lint_source(
        _fixture_source(name),
        path=f"src/repro/bfs/{name}",
        select=[rule],
        deep=True,
    )


_FORWARDING = """\
from repro.bfs.workspace import BFSWorkspace

__all__ = ["sweep", "pair"]


def run(graph, source, *, workspace=None):
    return inner(graph, source, workspace=workspace)


def inner(graph, source, *, workspace=None):
    return workspace.begin(source)


def sweep(graph, roots):
    ws = BFSWorkspace(graph.num_vertices)
    best = 0
    for root in roots:
        result = run(graph, root, workspace=ws)
        best = max(best, int(result[0][0]))
    return best


def pair(graph, a, b):
    ws = BFSWorkspace(graph.num_vertices)
    first = run(graph, a, workspace=ws)
    second = run(graph, b, workspace=ws)
    return int(first[0][0]) + int(second[0][0])
"""


class _FakeSink:
    """Pipe stand-in: accepts frames, optionally replays them."""

    def __init__(self) -> None:
        self.frames: list[bytes] = []

    def send_bytes(self, data: bytes) -> None:
        self.frames.append(data)


# -- golden pairs ----------------------------------------------------------


class TestGoldenFixtures:
    @pytest.mark.parametrize("rule", TYPESTATE_RULES)
    def test_bad_fixture_is_caught(self, rule):
        violations = _lint_fixture(f"{rule.lower()}_bad.py", rule)
        assert violations, f"{rule} must fire on its bad fixture"
        assert {v.rule for v in violations} == {rule}

    @pytest.mark.parametrize("rule", TYPESTATE_RULES)
    def test_clean_fixture_is_silent(self, rule):
        assert _lint_fixture(f"{rule.lower()}_clean.py", rule) == []

    def test_rpr022_names_both_defects(self):
        violations = _lint_fixture("rpr022_bad.py", "RPR022")
        messages = " ".join(v.message for v in violations)
        assert "hello" in messages
        assert len(violations) == 2  # early flush + never finalized

    def test_rpr024_names_the_live_result(self):
        (violation,) = _lint_fixture("rpr024_bad.py", "RPR024")
        assert "`first`" in violation.message
        assert "detach" in violation.message

    def test_rpr024_forwarded_workspace_is_one_traversal(self):
        """Handing ``workspace=`` to a function that forwards it to
        another traversal is one traversal, not two: a loop rebinding
        its result stays silent, and a second traversal while the
        first result is live is still caught."""
        violations = lint_source(
            _FORWARDING,
            path="src/repro/bfs/forwarding.py",
            select=["RPR024"],
            deep=True,
        )
        assert len(violations) == 1
        assert violations[0].line == _FORWARDING.splitlines().index(
            "    second = run(graph, b, workspace=ws)"
        ) + 1
        assert "`first`" in violations[0].message

    def test_rpr026_names_the_guilty_function(self):
        (violation,) = _lint_fixture("rpr026_bad.py", "RPR026")
        assert "child_main" in violation.message
        assert "_stream" in violation.message


# -- the interprocedural lift ----------------------------------------------


class TestInterproceduralBlindSpot:
    """The bad fixtures for RPR023/RPR025 plant violations the
    one-level view provably misses (the PR 6 regression pattern)."""

    @pytest.mark.parametrize(
        ("fixture", "rule"),
        [("rpr023_bad.py", "RPR023"), ("rpr025_bad.py", "RPR025")],
    )
    def test_one_level_view_misses_it(self, fixture, rule):
        path = f"src/repro/bfs/{fixture}"
        source = _fixture_source(fixture)
        project = project_from_sources([(path, source)])
        blind = TypestateAnalysis(
            project,
            extra_sources={path: source},
            interprocedural=False,
        )
        assert blind.run()[rule] == {}, (
            f"{rule}: the intraprocedural view must NOT see this "
            "violation — otherwise the fixture no longer proves the "
            "interprocedural lift"
        )
        full = TypestateAnalysis(
            project, extra_sources={path: source}
        )
        assert full.run()[rule], f"{rule}: the fixpoint view must see it"


# -- the machine registry --------------------------------------------------


class TestProtocolSpecs:
    def test_registry_covers_the_contracts(self):
        assert set(PROTOCOLS) == {
            "live-channel",
            "channel-exporter",
            "collector",
            "flight-recorder",
            "bfs-workspace",
            "parallel-bfs",
        }

    def test_unknown_machine_raises(self):
        with pytest.raises(AnalysisError, match="unknown protocol"):
            get_protocol("nope")

    def test_ctor_and_type_lookup(self):
        assert protocol_for_ctor("ParallelBFS").name == "parallel-bfs"
        assert protocol_for_type("Collector").name == "collector"
        assert protocol_for_ctor("CSRGraph") is None

    def test_step_semantics(self):
        spec = get_protocol("channel-exporter")
        assert spec.step("created", "hello") == "open"
        assert spec.step("created", "flush") is None
        assert spec.is_accepting("closed")
        assert not spec.is_accepting("open")

    def test_dot_export_is_wellformed(self):
        dot = get_protocol("live-channel").to_dot()
        assert dot.startswith('digraph "live-channel"')
        assert "doublecircle" in dot  # accepting states marked
        assert "hello" in dot and "bye" in dot
        assert dot.rstrip().endswith("}")

    def test_as_dict_round_trips_the_shape(self):
        payload = get_protocol("collector").as_dict()
        assert payload["name"] == "collector"
        assert payload["initial"] == "created"
        assert ["attached", "exit", "detached"] in [
            list(t) for t in payload["transitions"]
        ]


# -- suppression -----------------------------------------------------------


class TestNoqa:
    def test_noqa_silences_each_rule(self):
        source = (
            '"""Fixture."""\n'
            "\n"
            "from repro.obs.live import ChannelExporter\n"
            "\n"
            "\n"
            "def stream(conn, tracer):\n"
            "    exporter = ChannelExporter(conn, tracer, source='x')\n"
            "    exporter.flush()  # repro: noqa[RPR022]\n"
            "    exporter.hello()\n"
            "    exporter.close()\n"
        )
        assert (
            lint_source(
                source,
                path="src/repro/bfs/x.py",
                select=["RPR022"],
                deep=True,
            )
            == []
        )

    def test_noqa_on_multiline_statement_extent(self):
        """A marker on the closing line of a multi-line call suppresses
        the violation reported at the statement's first line."""
        source = (
            '"""Fixture."""\n'
            "\n"
            "from repro.obs.live import ChannelExporter\n"
            "\n"
            "\n"
            "def stream(conn, tracer):\n"
            "    exporter = ChannelExporter(conn, tracer, source='x')\n"
            "    exporter.flush(\n"
            "    )  # repro: noqa[RPR022]\n"
            "    exporter.hello()\n"
            "    exporter.close()\n"
        )
        assert (
            lint_source(
                source,
                path="src/repro/bfs/x.py",
                select=["RPR022"],
                deep=True,
            )
            == []
        )
        # the same source without the marker does fire, at line 8
        stripped = source.replace("  # repro: noqa[RPR022]", "")
        violations = lint_source(
            stripped,
            path="src/repro/bfs/x.py",
            select=["RPR022"],
            deep=True,
        )
        assert [v.line for v in violations] == [8]

    @pytest.mark.parametrize(
        ("fixture", "rule"),
        [(f"{r.lower()}_bad.py", r) for r in TYPESTATE_RULES],
    )
    def test_noqa_silences_every_bad_fixture(self, fixture, rule):
        source = _fixture_source(fixture)
        lines = source.splitlines()
        violations = _lint_fixture(fixture, rule)
        for v in violations:
            lines[v.line - 1] += f"  # repro: noqa[{rule}]"
        suppressed = lint_source(
            "\n".join(lines) + "\n",
            path=f"src/repro/bfs/{fixture}",
            select=[rule],
            deep=True,
        )
        assert suppressed == []


# -- dynamic twins ---------------------------------------------------------


class TestDynamicTwins:
    """Every static rule's violation re-caught at runtime on the same
    scenario, through the *same* ProtocolSpec machines."""

    def test_rpr022_twin_frames_before_hello(self, tmp_path):
        # the early_flush fixture scenario, executed for real
        capture = tmp_path / "bad.capture"
        tracer = Tracer()
        with CaptureFile(capture) as writer:
            exporter = ChannelExporter(writer, tracer, source="demo")
            exporter.flush()  # metrics frame before hello
            exporter.hello()
            exporter.close()
        with pytest.raises(ProtocolError, match="illegal in state"):
            list(read_capture(capture, conformance="strict"))

    def test_rpr022_twin_missing_finalize(self, tmp_path):
        # the leaky_stream fixture scenario: hello but no close
        capture = tmp_path / "leak.capture"
        tracer = Tracer()
        with CaptureFile(capture) as writer:
            exporter = ChannelExporter(writer, tracer, source="demo")
            exporter.hello()
            exporter.flush()
        with pytest.raises(ProtocolError, match="not an accepting"):
            list(read_capture(capture, conformance="strict"))

    def test_rpr023_twin_run_after_close(self):
        # the rpr023_bad scenario on a real engine: the strict monitor
        # rejects run() before it reaches the closed executor
        from repro.bfs.parallel import ParallelBFS

        engine = ParallelBFS(num_threads=2)
        monitor = ProtocolMonitor(strict=True)
        monitor.attach(engine, subject="engine")
        engine.close()
        with pytest.raises(ProtocolError, match="illegal in state"):
            engine.run(None, 0)  # never reaches the real traversal
        assert monitor.violations[0].event == "run"

    def test_rpr024_twin_reuse_while_lent(self):
        # the rpr024_bad scenario on a real workspace + engine
        from repro.bfs.parallel import ParallelBFS
        from repro.bfs.workspace import BFSWorkspace
        from repro.graph.generators import grid2d

        graph = grid2d(4, 4)
        monitor = ProtocolMonitor()
        with ParallelBFS(num_threads=2) as engine:
            ws = BFSWorkspace(graph.num_vertices)
            monitor.begin("bfs-workspace", "ws")
            first = engine.run(graph, 0, workspace=ws)
            monitor.lend("ws", first)
            second = engine.run(graph, 5, workspace=ws)
            monitor.lend("ws", second)  # first never detached
        assert [v.event for v in monitor.violations] == ["traverse"]
        assert monitor.violations[0].machine == "bfs-workspace"

    def test_rpr024_twin_detach_resets(self):
        # the rpr024_clean scenario stays silent
        from repro.bfs.parallel import ParallelBFS
        from repro.bfs.workspace import BFSWorkspace
        from repro.graph.generators import grid2d

        graph = grid2d(4, 4)
        monitor = ProtocolMonitor()
        with ParallelBFS(num_threads=2) as engine:
            ws = BFSWorkspace(graph.num_vertices)
            monitor.begin("bfs-workspace", "ws")
            first = engine.run(graph, 0, workspace=ws)
            monitor.lend("ws", first)
            first.detach()
            second = engine.run(graph, 5, workspace=ws)
            monitor.lend("ws", second)
        assert monitor.violations == []

    def test_rpr025_twin_raise_leaves_stream_open(self):
        # the rpr025_bad scenario: _relay raises, close never runs
        fixture_mod = _load_fixture_module("rpr025_bad.py")
        tracer = Tracer()
        sink = _FakeSink()
        monitor = ProtocolMonitor()
        original = fixture_mod.ChannelExporter

        def instrumented(*args, **kwargs):
            exporter = original(*args, **kwargs)
            return monitor.attach(exporter, subject="exporter")

        # run the fixture's own code path with monitored exporters
        fixture_mod.ChannelExporter = instrumented
        with pytest.raises(LiveError):
            fixture_mod.stream(sink, tracer, frames=[None])
        violations = monitor.finish()
        assert violations, "the open stream must be reported"
        assert violations[0].state == "open"
        assert "not an accepting state" in violations[0].message

    def test_rpr026_twin_child_frames_nonconformant(self, tmp_path):
        # the rpr026_bad child's frame sequence, replayed strictly
        _stream = _load_fixture_module("rpr026_bad.py")._stream
        capture = tmp_path / "child.capture"
        tracer = Tracer()
        with CaptureFile(capture) as writer:
            _stream(writer, tracer)
        checker = FrameConformance(strict=False)
        for frame in read_capture(capture):
            checker.feed(frame)
        checker.finish()
        assert checker.violations, "out-of-order child frames"
        assert checker.violations[0].subject == "child"
        assert checker.violations[0].event == "metrics"

    def test_clean_capture_is_conformant(self, tmp_path):
        # the rpr026_clean child passes both twins
        _stream = _load_fixture_module("rpr026_clean.py")._stream
        capture = tmp_path / "clean.capture"
        tracer = Tracer()
        with CaptureFile(capture) as writer:
            _stream(writer, tracer)
        frames = list(read_capture(capture, conformance="strict"))
        assert [f["kind"] for f in frames] == [
            "hello", "metrics", "metrics_final", "bye",
        ]


# -- monitor mechanics -----------------------------------------------------


class TestProtocolMonitor:
    def test_attach_autodetects_the_machine(self):
        tracer = Tracer()
        exporter = ChannelExporter(_FakeSink(), tracer, source="m")
        monitor = ProtocolMonitor()
        monitor.attach(exporter)
        exporter.hello()
        exporter.close()
        assert monitor.violations == []
        subject = next(iter(monitor._subjects))
        assert monitor.state_of(subject) == "closed"

    def test_attach_unknown_type_raises(self):
        monitor = ProtocolMonitor()
        with pytest.raises(ProtocolError, match="no protocol machine"):
            monitor.attach(object())

    def test_strict_monitor_raises_on_first_violation(self):
        monitor = ProtocolMonitor(strict=True)
        monitor.begin("channel-exporter", "x")
        with pytest.raises(ProtocolError):
            monitor.observe("x", "flush")

    def test_transitions_emit_instants_for_adoption(self):
        # a tracer-connected monitor re-exports transitions; a second
        # monitor adopts them via the TraceListener hook — the
        # cross-process path, exercised in-process
        emitting_tracer = Tracer()
        emitter = ProtocolMonitor(tracer=emitting_tracer)
        adopter = ProtocolMonitor()
        emitting_tracer.add_listener(adopter)
        emitter.begin("channel-exporter", "child-exp")
        emitter.observe("child-exp", "hello")
        emitter.observe("child-exp", "close")
        assert adopter.state_of("child-exp") == "closed"
        assert adopter.violations == []

    def test_unknown_subject_is_ignored(self):
        monitor = ProtocolMonitor(strict=True)
        monitor.observe("ghost", "hello")  # no begin: no-op
        assert monitor.violations == []


# -- conformance plumbing --------------------------------------------------


class TestConformancePlumbing:
    def test_read_capture_rejects_unknown_mode(self, tmp_path):
        capture = tmp_path / "x.capture"
        with CaptureFile(capture):
            pass
        with pytest.raises(LiveError, match="unknown conformance"):
            list(read_capture(capture, conformance="lenient"))

    def test_collector_replay_passes_conformance_through(self, tmp_path):
        from repro.obs.live import Collector

        capture = tmp_path / "bad.capture"
        tracer = Tracer()
        with CaptureFile(capture) as writer:
            exporter = ChannelExporter(writer, tracer, source="demo")
            exporter.flush()  # before hello
            exporter.hello()
            exporter.close()
        with Collector(Tracer()) as collector:
            with pytest.raises(ProtocolError):
                collector.replay(capture, conformance="strict")

    def test_cli_strict_protocol_gate(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.capture"
        tracer = Tracer()
        with CaptureFile(bad) as writer:
            exporter = ChannelExporter(writer, tracer, source="demo")
            exporter.flush()
            exporter.hello()
            exporter.close()
        good = tmp_path / "good.capture"
        tracer = Tracer()
        with CaptureFile(good) as writer:
            exporter = ChannelExporter(writer, tracer, source="demo")
            exporter.hello()
            exporter.close()
        assert main(["live", "check", str(bad), "--strict-protocol"]) == 2
        assert "protocol" in capsys.readouterr().err
        # without the flag the same capture passes the SLO-only gate
        assert main(["live", "check", str(bad)]) == 0
        assert main(["live", "check", str(good), "--strict-protocol"]) == 0


# -- the package lints clean under the new rules ---------------------------


def test_package_is_typestate_clean():
    violations, checked = lint_paths(
        [Path("src/repro")],
        select=list(TYPESTATE_RULES),
        deep=True,
    )
    assert checked > 80
    assert violations == []
