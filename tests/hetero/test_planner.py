"""Unit tests for plan builders."""

import numpy as np
import pytest

from repro.arch.machine import SimulatedMachine
from repro.arch.specs import CPU_SANDY_BRIDGE, GPU_K20X, MIC_KNC
from repro.bfs.result import Direction
from repro.errors import PlanError
from repro.hetero.planner import (
    cross_plan,
    mn_directions,
    oracle_plan,
    single_device_plan,
)

TD, BU = Direction.TOP_DOWN, Direction.BOTTOM_UP


@pytest.fixture(scope="module")
def machine():
    return SimulatedMachine(
        {"cpu": CPU_SANDY_BRIDGE, "gpu": GPU_K20X, "mic": MIC_KNC}
    )


class TestMNDirections:
    def test_matches_live_hybrid(self, rmat_small, rmat_source, small_profile):
        from repro.bfs.hybrid import bfs_hybrid

        for m, n in [(5, 50), (100, 100), (1, 1)]:
            live = bfs_hybrid(rmat_small, rmat_source, m=m, n=n)
            planned = mn_directions(small_profile, m, n)
            assert planned == live.directions, (m, n)

    def test_extremes(self, small_profile):
        # Tiny thresholds' reciprocals are huge -> always top-down.
        assert set(mn_directions(small_profile, 1e-9, 1e-9)) == {TD}

    def test_validation(self, small_profile):
        with pytest.raises(PlanError):
            mn_directions(small_profile, 0, 1)
        with pytest.raises(PlanError):
            mn_directions(small_profile, 1, float("nan"))

    def test_single_device_plan(self, small_profile):
        plan = single_device_plan(small_profile, "cpu", 20, 100)
        assert all(s.device == "cpu" for s in plan)
        assert [s.direction for s in plan] == mn_directions(
            small_profile, 20, 100
        )


class TestCrossPlan:
    def test_structure(self, medium_profile):
        plan = cross_plan(medium_profile, 50, 50, 50, 50)
        devices = [s.device for s in plan]
        # Once on GPU, never back to CPU.
        if "gpu" in devices:
            first_gpu = devices.index("gpu")
            assert all(d == "gpu" for d in devices[first_gpu:])
        # CPU levels are always top-down.
        for s in plan:
            if s.device == "cpu":
                assert s.direction == TD

    def test_tail_returns_to_gpu_topdown(self, medium_profile):
        """Section IV: the last levels switch from GPUBU back to GPUTD."""
        plan = cross_plan(medium_profile, 50, 50, 50, 50)
        gpu_dirs = [s.direction for s in plan if s.device == "gpu"]
        if BU in gpu_dirs:
            assert gpu_dirs[-1] == TD

    def test_all_cpu_when_thresholds_never_fire(self, medium_profile):
        plan = cross_plan(medium_profile, 1e-9, 1e-9, 50, 50)
        assert all(s.device == "cpu" for s in plan)

    def test_immediate_handoff(self, medium_profile):
        plan = cross_plan(medium_profile, 1e12, 1e12, 1e12, 1e12)
        assert plan[0].device == "gpu"

    def test_validation(self, medium_profile):
        with pytest.raises(PlanError):
            cross_plan(medium_profile, 0, 1, 1, 1)
        with pytest.raises(PlanError):
            cross_plan(medium_profile, 1, 1, 1, -2)
        with pytest.raises(PlanError):
            cross_plan(medium_profile, float("nan"), 1, 1, 1)

    def test_custom_device_names(self, medium_profile):
        plan = cross_plan(
            medium_profile, 50, 50, 50, 50, cpu="host", gpu="accel"
        )
        assert {s.device for s in plan} <= {"host", "accel"}


class TestOraclePlan:
    def test_is_lower_bound(self, machine, medium_profile):
        """No (M, N)-rule plan on any single device can beat the oracle
        (ignoring transfers)."""
        plan = oracle_plan(machine, medium_profile)
        mats = machine.time_matrices(medium_profile)
        oracle_total = sum(
            mats[s.device][i, 0 if s.direction == TD else 1]
            for i, s in enumerate(plan)
        )
        for dev in ("cpu", "gpu", "mic"):
            t = mats[dev]
            best_single = float(np.minimum(t[:, 0], t[:, 1]).sum())
            assert oracle_total <= best_single + 1e-12

    def test_picks_cheapest_per_level(self, machine, medium_profile):
        plan = oracle_plan(machine, medium_profile)
        mats = machine.time_matrices(medium_profile)
        for i, s in enumerate(plan):
            chosen = mats[s.device][i, 0 if s.direction == TD else 1]
            for dev, t in mats.items():
                assert chosen <= t[i, 0] + 1e-15
                assert chosen <= t[i, 1] + 1e-15
