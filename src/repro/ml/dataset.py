"""Training-sample assembly in the paper's Fig. 7 layout.

A sample concatenates three blocks::

    [ graph info (6) | top-down arch info (3) | bottom-up arch info (3) ]
    [ V, E, A, B, C, D | P1, L1, B1          | P2, L2, B2             ]

with the target value being the best switching point for that
(graph, architecture-pair) combination — the exact format of the
paper's worked example "(96: 32, 256, 0.57, 0.19, 0.19, 0.05, 512,
512, 100, 1024, 768, 128)".

Targets are stored and regressed in ``log2`` space: best-M values span
1–1000 and multiplicative error is what matters for threshold rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arch.specs import ArchSpec, arch_features
from repro.errors import ModelError
from repro.graph.csr import CSRGraph
from repro.graph.stats import graph_features

__all__ = [
    "FEATURE_NAMES",
    "make_sample",
    "sample_from_features",
    "TrainingSet",
]

#: Column names of the Fig. 7 sample vector, in order.
FEATURE_NAMES: tuple[str, ...] = (
    "vertices_millions",
    "edges_millions",
    "rmat_a",
    "rmat_b",
    "rmat_c",
    "rmat_d",
    "td_peak_gflops",
    "td_l1_kb",
    "td_bw_gbs",
    "bu_peak_gflops",
    "bu_l1_kb",
    "bu_bw_gbs",
)


def make_sample(
    graph: CSRGraph, arch_td: ArchSpec, arch_bu: ArchSpec
) -> np.ndarray:
    """Build one Fig. 7 feature vector.

    ``arch_td`` and ``arch_bu`` are the same spec for single-
    architecture combinations, different for the cross-architecture
    case — exactly as the paper describes.
    """
    return np.concatenate(
        [graph_features(graph), arch_features(arch_td), arch_features(arch_bu)]
    )


def sample_from_features(
    graph_block: np.ndarray,
    arch_td: ArchSpec,
    arch_bu: ArchSpec,
) -> np.ndarray:
    """Like :func:`make_sample` when the graph block is precomputed
    (avoids re-deriving features for every architecture pairing of the
    same graph)."""
    graph_block = np.asarray(graph_block, dtype=np.float64)
    if graph_block.shape != (6,):
        raise ModelError(
            f"graph feature block must have 6 entries, got {graph_block.shape}"
        )
    return np.concatenate(
        [graph_block, arch_features(arch_td), arch_features(arch_bu)]
    )


@dataclass
class TrainingSet:
    """A growing corpus of (sample, best-M, best-N) rows."""

    samples: list[np.ndarray] = field(default_factory=list)
    best_m: list[float] = field(default_factory=list)
    best_n: list[float] = field(default_factory=list)
    tags: list[str] = field(default_factory=list)

    def add(
        self, sample: np.ndarray, m: float, n: float, tag: str = ""
    ) -> None:
        """Append one row."""
        sample = np.asarray(sample, dtype=np.float64)
        if sample.shape != (len(FEATURE_NAMES),):
            raise ModelError(
                f"sample must have {len(FEATURE_NAMES)} features, "
                f"got {sample.shape}"
            )
        if not (m > 0 and n > 0):
            raise ModelError(f"switching points must be positive, got ({m}, {n})")
        self.samples.append(sample)
        self.best_m.append(float(m))
        self.best_n.append(float(n))
        self.tags.append(tag)

    def __len__(self) -> int:
        return len(self.samples)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(X, log2_m, log2_n)`` ready for regression."""
        if not self.samples:
            raise ModelError("empty training set")
        X = np.vstack(self.samples)
        return (
            X,
            np.log2(np.array(self.best_m)),
            np.log2(np.array(self.best_n)),
        )

    def save(self, path) -> None:
        """Persist to NPZ."""
        X, lm, ln = self.as_arrays()
        np.savez_compressed(
            path,
            X=X,
            log2_m=lm,
            log2_n=ln,
            tags=np.array(self.tags, dtype=object),
            feature_names=np.array(FEATURE_NAMES, dtype=object),
        )

    @classmethod
    def load(cls, path) -> "TrainingSet":
        """Inverse of :meth:`save`."""
        with np.load(path, allow_pickle=True) as data:
            X = data["X"]
            m = np.exp2(data["log2_m"])
            n = np.exp2(data["log2_n"])
            tags = [str(t) for t in data["tags"]]
        out = cls()
        for i in range(X.shape[0]):
            out.add(X[i], float(m[i]), float(n[i]), tags[i])
        return out
