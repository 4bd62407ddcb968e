"""The documented public API must exist and be importable as advertised.

Examples and downstream users rely exactly on these names; this test is
the contract.
"""

import importlib

import pytest

import repro

PUBLIC = {
    "repro": ["__version__", "ReproError"],
    "repro.graph": [
        "CSRGraph",
        "rmat",
        "rmat_edges",
        "RMATParams",
        "GRAPH500_PARAMS",
        "erdos_renyi",
        "ring",
        "path",
        "star",
        "complete",
        "grid2d",
        "balanced_tree",
        "two_cliques_bridge",
        "save_npz",
        "load_npz",
        "save_edgelist",
        "load_edgelist",
        "compute_stats",
        "graph_features",
        "validate_bfs",
        "check_bfs",
    ],
    "repro.bfs": [
        "bfs_reference",
        "bfs_top_down",
        "bfs_bottom_up",
        "bfs_hybrid",
        "bfs_spmv",
        "MNPolicy",
        "ParallelBFS",
        "msbfs",
        "MultiSourceResult",
        "profile_bfs",
        "pick_sources",
        "BFSResult",
        "Direction",
        "LevelProfile",
        "LevelRecord",
    ],
    "repro.apps": [
        "connected_components",
        "ComponentLabels",
        "st_connectivity",
        "STResult",
        "pseudo_diameter",
        "DiameterEstimate",
    ],
    "repro.graph500": [
        "run_graph500",
        "Graph500Result",
        "Stats",
        "default_engine",
    ],
    "repro.arch": [
        "ArchSpec",
        "CPU_SANDY_BRIDGE",
        "GPU_K20X",
        "MIC_KNC",
        "PRESETS",
        "CostModel",
        "SimulatedMachine",
        "PlanStep",
        "TransferModel",
        "PCIE_GEN2",
        "rcma_spmv",
        "rcmb",
        "analyze",
        "scale_profile",
        "check_calibration",
        "sample_arch",
        "arch_features",
    ],
    "repro.ml": [
        "SVR",
        "KernelRidge",
        "LinearRegression",
        "StandardScaler",
        "rbf_kernel",
        "linear_kernel",
        "grid_search",
        "cross_val_score",
        "TrainingSet",
        "make_sample",
        "FEATURE_NAMES",
        "save_svr",
        "load_svr",
    ],
    "repro.tuning": [
        "candidate_mn_grid",
        "candidate_cross_grid",
        "evaluate_single",
        "evaluate_cross",
        "summarize_search",
        "best_m_scan",
        "SwitchingPointPredictor",
        "build_training_set",
        "profile_graph",
        "AlwaysTopDown",
        "AlwaysBottomUp",
        "HeuristicBeamerPolicy",
    ],
    "repro.hetero": [
        "mn_directions",
        "cross_plan",
        "oracle_plan",
        "run_single_device",
        "run_cross_architecture",
        "CrossArchitectureBFS",
        "execute_plan",
    ],
    "repro.bench": [
        "teps",
        "gteps",
        "BenchConfig",
        "ExperimentResult",
        "WorkloadSpec",
        "get_profile",
        "paper_scale_profile",
    ],
    "repro.obs": [
        "now",
        "ManualClock",
        "Tracer",
        "NullTracer",
        "NULL_TRACER",
        "Span",
        "SpanRecord",
        "EventRecord",
        "get_tracer",
        "set_tracer",
        "use_tracer",
        "MetricsRegistry",
        "Counter",
        "Gauge",
        "Histogram",
        "JSONL_FORMAT",
        "write_jsonl",
        "read_jsonl",
        "chrome_trace",
        "write_chrome_trace",
        "validate_chrome_trace",
        "MistuningReport",
        "CrossMistuningReport",
        "audit_switching_point",
        "audit_cross_architecture",
        "get_logger",
        "basic_config",
        "ROOT_LOGGER_NAME",
    ],
}


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_module_exports(module):
    mod = importlib.import_module(module)
    for name in PUBLIC[module]:
        assert hasattr(mod, name), f"{module}.{name} missing"
        assert name in mod.__all__, f"{module}.{name} not in __all__"


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_all_errors_derive_from_repro_error():
    import repro.errors as errs

    for name in errs.__all__:
        obj = getattr(errs, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            if obj is not errs.ConvergenceWarning:
                assert issubclass(obj, errs.ReproError) or obj is errs.ReproError


def test_experiment_registry_importable():
    from repro.bench.experiments import REGISTRY

    assert len(REGISTRY) >= 16
