"""Unit tests for single-device combinations and Algorithm 3."""

import numpy as np
import pytest

from repro.arch.machine import SimulatedMachine
from repro.arch.specs import CPU_SANDY_BRIDGE, GPU_K20X
from repro.bfs.profiler import pick_sources
from repro.bfs.reference import bfs_reference
from repro.errors import PlanError
from repro.graph.generators import rmat
from repro.hetero.combination import run_single_device
from repro.hetero.cross import (
    CrossArchitectureBFS,
    run_cross_architecture,
)
from repro.hetero.executor import execute_plan
from repro.hetero.planner import cross_plan, oracle_plan


@pytest.fixture(scope="module")
def machine():
    return SimulatedMachine({"cpu": CPU_SANDY_BRIDGE, "gpu": GPU_K20X})


class FixedPredictor:
    """Deterministic stand-in for the regression model."""

    def __init__(self, m=50.0, n=50.0):
        self.m, self.n = m, n
        self.calls = []

    def predict_mn(self, graph, arch_td, arch_bu):
        self.calls.append((arch_td.name, arch_bu.name))
        return self.m, self.n


class TestRunSingleDevice:
    def test_reports(self, machine, medium_profile):
        runs = run_single_device(machine, medium_profile, "gpu", 50, 50)
        assert runs.device == "gpu"
        assert runs.top_down.total_seconds > 0
        # Combination never loses to both pure baselines.
        assert runs.combination.total_seconds <= max(
            runs.top_down.total_seconds, runs.bottom_up.total_seconds
        )
        assert runs.speedup_cb_over_td() > 1.0
        assert runs.speedup_cb_over_bu() > 0.5

    def test_unknown_device(self, machine, medium_profile):
        with pytest.raises(PlanError):
            run_single_device(machine, medium_profile, "tpu", 50, 50)


class TestRunCrossArchitecture:
    def test_charges_single_handoff(self, machine, medium_profile):
        rep = run_cross_architecture(machine, medium_profile, 50, 50, 50, 50)
        assert (rep.transfer_seconds > 0).sum() <= 1

    def test_beats_gpu_topdown(self, machine, medium_profile):
        from repro.arch.machine import PlanStep
        from repro.bfs.result import Direction

        cross = run_cross_architecture(machine, medium_profile, 50, 50, 50, 50)
        gputd = machine.run(
            medium_profile,
            [PlanStep("gpu", Direction.TOP_DOWN)] * len(medium_profile),
        )
        assert cross.total_seconds < gputd.total_seconds


class TestCrossArchitectureBFS:
    def test_end_to_end(self, machine):
        g = rmat(11, 16, seed=21)
        src = int(pick_sources(g, 1, seed=0)[0])
        predictor = FixedPredictor()
        runner = CrossArchitectureBFS(machine, predictor)
        run = runner.run(g, src)
        # Real traversal, validated.
        ref = bfs_reference(g, src)
        assert np.array_equal(run.result.level, ref.level)
        run.result.validate(g)
        # Algorithm 3 lines 1-2: two regression calls with the right pairs.
        assert predictor.calls == [
            ("cpu-snb", "gpu-k20x"),
            ("gpu-k20x", "gpu-k20x"),
        ]
        assert (run.m1, run.n1) == (50.0, 50.0)
        assert run.report.total_seconds > 0

    def test_missing_device_rejected(self):
        machine = SimulatedMachine({"cpu": CPU_SANDY_BRIDGE})
        with pytest.raises(PlanError):
            CrossArchitectureBFS(machine, FixedPredictor())


class TestExecutePlan:
    def test_matches_profile_based_pricing(self, machine):
        g = rmat(11, 16, seed=22)
        src = int(pick_sources(g, 1, seed=1)[0])
        from repro.bfs.profiler import profile_bfs

        profile, _ = profile_bfs(g, src)
        plan = cross_plan(profile, 50, 50, 50, 50)
        result, report = execute_plan(machine, g, src, plan)
        ref = bfs_reference(g, src)
        assert np.array_equal(result.level, ref.level)
        assert [s.direction for s in plan] == result.directions
        direct = machine.run(profile, plan)
        assert report.total_seconds == pytest.approx(direct.total_seconds)

    def test_plan_too_short(self, machine):
        g = rmat(11, 16, seed=23)
        src = int(pick_sources(g, 1, seed=2)[0])
        from repro.arch.machine import PlanStep
        from repro.bfs.result import Direction

        with pytest.raises(PlanError):
            execute_plan(
                machine, g, src, [PlanStep("cpu", Direction.TOP_DOWN)]
            )

    def test_plan_too_long(self, machine):
        from repro.arch.machine import PlanStep
        from repro.bfs.result import Direction
        from repro.graph.generators import star

        g = star(10)
        plan = [PlanStep("cpu", Direction.TOP_DOWN)] * 5
        with pytest.raises(PlanError):
            execute_plan(machine, g, 0, plan)

    def test_bad_source(self, machine, rmat_small):
        with pytest.raises(PlanError):
            execute_plan(machine, rmat_small, -1, [])
        with pytest.raises(PlanError):
            execute_plan(machine, rmat_small, 3.5, [])

    def test_oracle_plan_executes(self, machine):
        g = rmat(11, 16, seed=24)
        src = int(pick_sources(g, 1, seed=3)[0])
        from repro.bfs.profiler import profile_bfs

        profile, _ = profile_bfs(g, src)
        plan = oracle_plan(machine, profile)
        result, report = execute_plan(machine, g, src, plan)
        result.validate(g)
