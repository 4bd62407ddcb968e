"""Unit tests for the Fig. 7 dataset layout and model persistence."""

import numpy as np
import pytest

from repro.arch.specs import CPU_SANDY_BRIDGE, GPU_K20X
from repro.errors import ModelError
from repro.ml.dataset import (
    FEATURE_NAMES,
    TrainingSet,
    make_sample,
    sample_from_features,
)
from repro.ml.model_io import load_scaler, load_svr, save_scaler, save_svr
from repro.ml.scaler import StandardScaler
from repro.ml.svr import SVR


class TestSampleLayout:
    def test_twelve_features(self, rmat_small):
        s = make_sample(rmat_small, CPU_SANDY_BRIDGE, GPU_K20X)
        assert s.shape == (12,)
        assert len(FEATURE_NAMES) == 12

    def test_blocks(self, rmat_small):
        s = make_sample(rmat_small, CPU_SANDY_BRIDGE, GPU_K20X)
        # graph block
        assert s[0] == pytest.approx(rmat_small.num_vertices / 1e6)
        assert tuple(s[2:6]) == (0.57, 0.19, 0.19, 0.05)
        # td arch block = CPU, bu arch block = GPU
        assert s[6] == 256.0 and s[9] == 3950.0
        assert s[8] == 34.0 and s[11] == 188.0

    def test_same_arch_duplicated(self, rmat_small):
        s = make_sample(rmat_small, CPU_SANDY_BRIDGE, CPU_SANDY_BRIDGE)
        assert np.array_equal(s[6:9], s[9:12])

    def test_sample_from_features_checked(self):
        with pytest.raises(ModelError):
            sample_from_features(
                np.zeros(5), CPU_SANDY_BRIDGE, GPU_K20X
            )


class TestTrainingSet:
    def test_add_and_arrays(self, rmat_small):
        ts = TrainingSet()
        s = make_sample(rmat_small, CPU_SANDY_BRIDGE, CPU_SANDY_BRIDGE)
        ts.add(s, 64.0, 256.0, tag="t")
        X, lm, ln = ts.as_arrays()
        assert X.shape == (1, 12)
        assert lm[0] == pytest.approx(6.0)
        assert ln[0] == pytest.approx(8.0)
        assert len(ts) == 1

    def test_validation(self, rmat_small):
        ts = TrainingSet()
        with pytest.raises(ModelError):
            ts.add(np.zeros(5), 1, 1)
        s = make_sample(rmat_small, CPU_SANDY_BRIDGE, CPU_SANDY_BRIDGE)
        with pytest.raises(ModelError):
            ts.add(s, 0, 1)
        with pytest.raises(ModelError):
            ts.add(s, 1, float("nan"))
        with pytest.raises(ModelError):
            ts.as_arrays()

    def test_save_load(self, tmp_path, rmat_small):
        ts = TrainingSet()
        s = make_sample(rmat_small, CPU_SANDY_BRIDGE, GPU_K20X)
        ts.add(s, 10.0, 20.0, tag="a")
        ts.add(s * 2, 30.0, 40.0, tag="b")
        path = tmp_path / "corpus.npz"
        ts.save(path)
        back = TrainingSet.load(path)
        assert len(back) == 2
        assert back.tags == ["a", "b"]
        assert back.best_m[0] == pytest.approx(10.0)
        X0, _, _ = ts.as_arrays()
        X1, _, _ = back.as_arrays()
        assert np.allclose(X0, X1)


class TestModelIO:
    def test_svr_roundtrip(self, tmp_path, rng):
        X = rng.uniform(-1, 1, size=(40, 2))
        y = np.sin(X[:, 0])
        m = SVR(c=10, epsilon=0.05, gamma=1.5).fit(X, y)
        path = tmp_path / "svr.npz"
        save_svr(m, path)
        back = load_svr(path)
        assert np.allclose(back.predict(X), m.predict(X))
        assert back.n_support_ == m.n_support_

    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(ModelError):
            save_svr(SVR(), tmp_path / "x.npz")

    def test_callable_kernel_rejected(self, tmp_path, rng):
        from repro.ml.kernels import linear_kernel

        X = rng.normal(size=(10, 1))
        m = SVR(kernel=linear_kernel, c=1).fit(X, X[:, 0])
        with pytest.raises(ModelError):
            save_svr(m, tmp_path / "x.npz")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"junk")
        with pytest.raises(ModelError):
            load_svr(path)
        with pytest.raises(ModelError):
            load_scaler(path)

    def test_scaler_roundtrip(self, tmp_path, rng):
        X = rng.normal(3, 2, size=(20, 4))
        sc = StandardScaler().fit(X)
        path = tmp_path / "scaler.npz"
        save_scaler(sc, path)
        back = load_scaler(path)
        assert np.allclose(back.transform(X), sc.transform(X))

    def test_unfitted_scaler_rejected(self, tmp_path):
        with pytest.raises(ModelError):
            save_scaler(StandardScaler(), tmp_path / "x.npz")
