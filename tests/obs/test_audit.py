"""Decision-audit correctness on a graph with a known best (M, N).

Uses the shared ``small_profile`` fixture (R-MAT scale 10, ef 16,
seed 7).  On that graph under the Sandy Bridge cost model the paper's
threshold rule with (M, N) = (14, 24) picks the wrong direction on one
level and prices >5% over the post-hoc best plan, while re-auditing
with the best plan itself must come back exactly optimal.
"""

import numpy as np
import pytest

from repro.arch.costmodel import CostModel
from repro.arch.machine import SimulatedMachine
from repro.arch.specs import CPU_SANDY_BRIDGE, GPU_K20X
from repro.bfs.trace import LevelProfile
from repro.errors import ObsError
from repro.obs import (
    ManualClock,
    Tracer,
    audit_cross_architecture,
    audit_switching_point,
)

CANDIDATES = 500


@pytest.fixture(scope="module")
def model():
    return CostModel(CPU_SANDY_BRIDGE)


@pytest.fixture(scope="module")
def machine():
    return SimulatedMachine({"cpu": CPU_SANDY_BRIDGE, "gpu": GPU_K20X})


class TestSwitchingPointAudit:
    def test_mistuned_policy_flagged(self, small_profile, model):
        report = audit_switching_point(
            small_profile, model, 14.0, 24.0, count=CANDIDATES, seed=0
        )
        assert report.is_mistuned()
        assert report.slowdown > 1.05
        assert report.levels_mistuned >= 1
        assert report.predicted_seconds >= report.best_seconds
        assert "MISTUNED" in report.render()

    def test_well_tuned_policy_passes(self, small_profile, model):
        first = audit_switching_point(
            small_profile, model, 14.0, 24.0, count=CANDIDATES, seed=0
        )
        report = audit_switching_point(
            small_profile,
            model,
            first.best_m,
            first.best_n,
            count=CANDIDATES,
            seed=0,
        )
        assert report.slowdown == pytest.approx(1.0)
        assert not report.is_mistuned()
        assert report.levels_mistuned == 0
        assert report.predicted_directions == report.best_directions
        assert "well-tuned" in report.render()

    def test_predicted_always_in_sweep(self, small_profile, model):
        # Even a terrible prediction can never beat the sweep's best,
        # because the predicted point itself is appended to the sweep.
        report = audit_switching_point(
            small_profile, model, 1.0, 1.0, count=50, seed=1
        )
        assert report.predicted_seconds >= report.best_seconds
        assert report.candidates_searched == 51

    def test_explicit_candidates(self, small_profile, model):
        cands = np.array([[10.0, 10.0], [100.0, 100.0]])
        report = audit_switching_point(
            small_profile, model, 10.0, 10.0, candidates=cands
        )
        assert report.candidates_searched == 3

    def test_emits_instant_event(self, small_profile, model):
        tracer = Tracer(clock=ManualClock())
        audit_switching_point(
            small_profile,
            model,
            14.0,
            24.0,
            count=50,
            seed=0,
            tracer=tracer,
        )
        (ev,) = tracer.events("audit.switching_point")
        assert ev.attrs["predicted_m"] == 14.0
        assert ev.attrs["slowdown"] > 1.0

    def test_meta_lands_in_report(self, small_profile, model):
        report = audit_switching_point(
            small_profile, model, 14.0, 24.0, count=10, scale=10
        )
        assert report.meta == {"scale": 10}
        assert report.as_dict()["meta"] == {"scale": 10}

    def test_rejects_bad_inputs(self, small_profile, model):
        with pytest.raises(ObsError):
            audit_switching_point(small_profile, model, 0.0, 24.0)
        with pytest.raises(ObsError):
            audit_switching_point(small_profile, model, float("nan"), 24.0)
        empty = LevelProfile(
            source=0,
            num_vertices=small_profile.num_vertices,
            num_edges=small_profile.num_edges,
            records=(),
        )
        with pytest.raises(ObsError):
            audit_switching_point(empty, model, 14.0, 24.0)

    def test_as_dict_is_json_ready(self, small_profile, model):
        import json

        report = audit_switching_point(
            small_profile, model, 14.0, 24.0, count=10
        )
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["slowdown"] == pytest.approx(report.slowdown)
        assert len(payload["predicted_directions"]) == len(small_profile)


class TestCrossArchitectureAudit:
    def test_mistuned_cross_policy_flagged(self, small_profile, machine):
        report = audit_cross_architecture(
            small_profile, machine, (10.0, 64.0, 14.0, 24.0), count=100
        )
        assert report.is_mistuned()
        assert report.predicted_seconds >= report.best_seconds
        assert report.oracle_seconds > 0
        assert "MISTUNED" in report.render()

    def test_well_tuned_cross_policy_passes(self, small_profile, machine):
        first = audit_cross_architecture(
            small_profile, machine, (10.0, 64.0, 14.0, 24.0), count=100
        )
        report = audit_cross_architecture(
            small_profile, machine, first.best, count=100
        )
        assert report.slowdown == pytest.approx(1.0)
        assert not report.is_mistuned()
        assert "well-tuned" in report.render()

    def test_emits_instant_event(self, small_profile, machine):
        tracer = Tracer(clock=ManualClock())
        audit_cross_architecture(
            small_profile,
            machine,
            (10.0, 64.0, 14.0, 24.0),
            count=20,
            tracer=tracer,
        )
        (ev,) = tracer.events("audit.cross_architecture")
        assert ev.attrs["predicted"] == [10.0, 64.0, 14.0, 24.0]

    def test_rejects_wrong_arity(self, small_profile, machine):
        with pytest.raises(ObsError):
            audit_cross_architecture(small_profile, machine, (1.0, 2.0))
        with pytest.raises(ObsError):
            audit_cross_architecture(
                small_profile, machine, (1.0, 2.0, 3.0, float("nan"))
            )
