import numpy as np
import pytest

from rfdna.errors import InvalidShape, InvalidValue, TrainingFailed
from rfdna.svm import (
    SvmModel,
    margin,
    rbf_kernel,
    svm_decide,
    svm_score,
    train_svm,
)

from oracles import svm_dual_grid_oracle

RNG = np.random.default_rng(2024)


def blob_data(n=30, gap=3.0, seed=0):
    rng = np.random.default_rng(seed)
    X1 = rng.standard_normal((n, 3))
    X2 = rng.standard_normal((n, 3)) + gap
    X = np.concatenate([X1, X2])
    labels = np.concatenate([np.ones(n), np.full(n, 2)])
    return X, labels


class TestKernel:
    def test_values(self):
        A = np.array([[0.0, 0.0], [1.0, 0.0]])
        K = rbf_kernel(A, A, 0.5)
        assert np.allclose(np.diag(K), 1.0)
        assert K[0, 1] == pytest.approx(np.exp(-0.5), abs=1e-15)
        assert np.allclose(K, K.T)


class TestTraining:
    def test_toy_dual_matches_grid_oracle(self):
        cases = [
            # Well separated pair of clusters.
            (np.array([[0.0, 0.0], [0.2, 0.1], [1.0, 1.1], [1.2, 0.9]]), 0.7),
            # Overlapping points push some alphas to the box.
            (np.array([[0.0, 0.0], [0.9, 1.0], [1.0, 1.1], [0.1, 0.1]]), 1.5),
        ]
        labels = np.array([1, 1, 2, 2])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        for X, zeta in cases:
            model = train_svm(X, labels, c=1.0, zeta=zeta)
            got = model.diagnostics["dual_objective"]
            want = svm_dual_grid_oracle(X, y, 1.0, zeta)
            assert abs(got - want) <= 1e-4

    def test_dual_feasibility(self):
        X, labels = blob_data(seed=1)
        model = train_svm(X, labels, c=1.0)
        a = model.diagnostics["alphas"]
        assert np.all(a >= -1e-12)
        assert np.all(a <= 1.0 + 1e-12)
        assert abs(model.diagnostics["sum_alpha_y"]) <= 1e-6
        assert model.diagnostics["converged"]

    @pytest.mark.parametrize("X, labels, zeta", [
        (*blob_data(seed=1), None),
        (*blob_data(n=40, gap=1.0, seed=4), None),    # overlapping classes
        (np.array([[0.0, 0.0], [0.2, 0.1], [1.0, 1.1], [1.2, 0.9]]),
         np.array([1, 1, 2, 2]), 0.7),
        (np.array([[0.0, 0.0], [0.9, 1.0], [1.0, 1.1], [0.1, 0.1]]),
         np.array([1, 1, 2, 2]), 1.5),
    ])
    def test_kkt_optimality(self, X, labels, zeta):
        # Stopping at a violating-pair gap below the solver tolerance bounds
        # every row's KKT violation by that tolerance.
        tol = 1e-3 + 1e-9
        model = train_svm(X, labels, c=1.0, zeta=zeta)
        y = np.where(labels == 1, 1.0, -1.0)
        Z = (X - model.scaler_mean) / model.scaler_scale
        alpha = np.zeros(len(X))
        for sv, coef in zip(model.support_vectors, model.dual_coeffs):
            (row,) = np.nonzero(np.all(Z == sv, axis=1))[0]
            alpha[row] = coef * y[row]
        assert np.all(alpha >= 0) and np.all(alpha <= 1.0 + 1e-12)
        yf = y * svm_score(model, X)
        at_zero = alpha <= 1e-12
        at_c = alpha >= 1.0 - 1e-12
        free = ~at_zero & ~at_c
        assert np.all(yf[at_zero] >= 1.0 - tol)
        assert np.all(np.abs(yf[free] - 1.0) <= tol)
        assert np.all(yf[at_c] <= 1.0 + tol)

    def test_default_zeta_is_inverse_feature_count(self):
        X, labels = blob_data()
        assert train_svm(X, labels).kernel_zeta == pytest.approx(1 / 3)

    def test_label_conventions_agree(self):
        X, labels = blob_data(seed=3)
        y = np.where(labels == 1, 1, -1)
        a = train_svm(X, labels, c=1.0)
        b = train_svm(X, y, c=1.0)
        assert np.array_equal(a.support_vectors, b.support_vectors)
        assert a.bias == b.bias

    def test_separable_training_accuracy(self):
        X, labels = blob_data(n=40, gap=4.0, seed=5)
        model = train_svm(X, labels)
        pred = svm_decide(model, X)
        assert np.array_equal(pred, np.where(labels == 1, 1, -1))

    def test_single_class_rejected(self):
        with pytest.raises(InvalidValue):
            train_svm(np.zeros((4, 2)), np.ones(4))

    def test_bad_zeta_rejected(self):
        X, labels = blob_data()
        with pytest.raises(InvalidValue):
            train_svm(X, labels, zeta=0.0)

    def test_iteration_cap_carries_partial_model(self):
        X, labels = blob_data(n=50, gap=0.2, seed=7)
        with pytest.raises(TrainingFailed) as exc:
            train_svm(X, labels, max_updates=3)
        assert isinstance(exc.value.model, SvmModel)
        assert exc.value.diagnostics["n_updates"] == 3


@pytest.fixture(scope="module")
def model():
    X, labels = blob_data(seed=9)
    return train_svm(X, labels)


class TestScoring:

    def test_score_shapes(self, model):
        x = RNG.standard_normal(3)
        s = svm_score(model, x)
        assert isinstance(s, float)
        S = svm_score(model, RNG.standard_normal((5, 3)))
        assert S.shape == (5,)

    def test_score_shape_mismatch(self, model):
        with pytest.raises(InvalidShape):
            svm_score(model, np.zeros(4))

    def test_decision_sign_consistency(self, model):
        X = RNG.standard_normal((10_000, 3)) * 4
        s = svm_score(model, X)
        assert np.array_equal(svm_decide(model, X), np.where(s > 0, 1, -1))

    def test_zero_score_rejects(self, model, monkeypatch):
        import rfdna.svm as svm_mod
        monkeypatch.setattr(svm_mod, "svm_score", lambda m, fp: 0.0)
        assert svm_mod.svm_decide(model, np.zeros(3)) == -1

    def test_margin_identity(self, model):
        X = RNG.standard_normal((64, 3))
        y = np.where(RNG.random(64) < 0.5, 1, -1)
        assert np.array_equal(margin(model, X, y), 2.0 * y * svm_score(model, X))
        x = X[0]
        assert margin(model, x, 1) == 2.0 * svm_score(model, x)
        assert margin(model, x, -1) == -2.0 * svm_score(model, x)

    def test_margin_label_validation(self, model):
        with pytest.raises(InvalidValue):
            margin(model, np.zeros(3), 0)


class TestPersistence:
    def test_json_roundtrip_preserves_scores(self, tmp_path):
        X, labels = blob_data(seed=13)
        model = train_svm(X, labels)
        path = tmp_path / "model.json"
        model.save(path)
        back = SvmModel.load(path)
        probe = RNG.standard_normal((20, 3))
        assert np.array_equal(svm_score(model, probe), svm_score(back, probe))
        assert back.bias == model.bias
        assert back.kernel_zeta == model.kernel_zeta
        assert np.array_equal(back.feature_indices is None,
                              model.feature_indices is None)

    def test_feature_indices_roundtrip(self, tmp_path):
        X, labels = blob_data(seed=14)
        model = train_svm(X, labels, feature_indices=[7, 2, 9])
        path = tmp_path / "model.json"
        model.save(path)
        back = SvmModel.load(path)
        assert np.array_equal(back.feature_indices, [7, 2, 9])
