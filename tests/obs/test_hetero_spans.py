"""Per-device tracks and simulated-clock annotations from the hetero layer."""

import pytest

from repro.arch.machine import SimulatedMachine
from repro.arch.specs import CPU_SANDY_BRIDGE, GPU_K20X
from repro.bfs.profiler import pick_sources
from repro.graph.generators import rmat
from repro.hetero.cross import CrossArchitectureBFS
from repro.hetero.executor import annotate_sim_report, execute_plan
from repro.hetero.planner import cross_plan
from repro.obs import Tracer, chrome_trace, validate_chrome_trace


@pytest.fixture(scope="module")
def machine():
    return SimulatedMachine({"cpu": CPU_SANDY_BRIDGE, "gpu": GPU_K20X})


class FixedPredictor:
    def __init__(self, m=50.0, n=50.0):
        self.m, self.n = m, n

    def predict_mn(self, graph, arch_td, arch_bu):
        return self.m, self.n


class TestExecutePlan:
    def test_device_tracks_and_sim_annotations(
        self, machine, rmat_small, rmat_source, small_profile
    ):
        plan = cross_plan(small_profile, 50, 50, 50, 50)
        tracer = Tracer()
        result, report = execute_plan(
            machine, rmat_small, rmat_source, plan, tracer=tracer
        )
        result.validate(rmat_small)
        # Real wall spans on dev:<device> tracks, one per plan step.
        dev_tracks = {
            r.track for r in tracer.spans("bfs.level")
        }
        assert dev_tracks == {f"dev:{step.device}" for step in plan}
        # Simulated schedule laid on sim:<device> tracks with the
        # simulator's clock: level i's span covers its SimReport slot.
        sim = tracer.spans("sim.level")
        assert len(sim) == len(plan)
        assert [r.duration for r in sim] == pytest.approx(
            list(report.level_seconds)
        )
        assert {r.track for r in sim} == {
            f"sim:{step.device}" for step in plan
        }

    def test_transfer_spans_only_when_nonzero(
        self, machine, small_profile
    ):
        plan = cross_plan(small_profile, 50, 50, 50, 50)
        tracer = Tracer()
        report = machine.run(small_profile, plan)
        annotate_sim_report(tracer, report)
        transfers = tracer.spans("sim.transfer")
        nonzero = int((report.transfer_seconds > 0).sum())
        assert len(transfers) == nonzero
        assert all(r.track == "sim:transfer" for r in transfers)

    def test_trace_exports_cleanly(
        self, machine, rmat_small, rmat_source, small_profile
    ):
        plan = cross_plan(small_profile, 50, 50, 50, 50)
        tracer = Tracer()
        execute_plan(machine, rmat_small, rmat_source, plan, tracer=tracer)
        trace = chrome_trace(tracer)
        assert validate_chrome_trace(trace) > 0


class TestCrossArchitectureAuditWiring:
    def test_audit_off_by_default(self, machine):
        g = rmat(10, 16, seed=7)
        src = int(pick_sources(g, 1, seed=3)[0])
        run = CrossArchitectureBFS(machine, FixedPredictor()).run(g, src)
        assert run.audit is None

    def test_audit_attached_and_event_emitted(self, machine):
        g = rmat(10, 16, seed=7)
        src = int(pick_sources(g, 1, seed=3)[0])
        tracer = Tracer()
        runner = CrossArchitectureBFS(
            machine, FixedPredictor(), audit=True, audit_candidates=30
        )
        run = runner.run(g, src, tracer=tracer)
        assert run.audit is not None
        assert run.audit.candidates_searched == 31
        assert run.audit.predicted == (50.0, 50.0, 50.0, 50.0)
        assert len(tracer.spans("cross.audit")) == 1
        assert len(tracer.events("audit.cross_architecture")) == 1
        # Prediction side of the decision channel fired too.
        assert len(tracer.events("tuning.predicted_mn")) >= 1
        assert len(tracer.spans("cross.predict")) == 1
        assert len(tracer.spans("cross.traverse")) == 1
