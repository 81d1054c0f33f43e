import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfdna import svm
from rfdna.errors import InvalidValue, TrainingFailed
from rfdna.svm import (
    SvmModel,
    margin,
    rbf_kernel,
    standardize,
    svm_decide,
    svm_score,
    train_svm,
)

from oracles import svm_dual_grid_oracle, train_svm_reference

RNG = np.random.default_rng(2024)


ZETA = 1 / 3     # 1 / n_features of blob_data rows


def blob_data(n=30, gap=3.0, seed=0):
    rng = np.random.default_rng(seed)
    X1 = rng.standard_normal((n, 3))
    X2 = rng.standard_normal((n, 3)) + gap
    X = np.concatenate([X1, X2])
    labels = np.concatenate([np.ones(n), np.full(n, 2)])
    return X, labels


def full_alphas(model, X, labels):
    """Every row's alpha, read back from the support vectors of a model
    trained on ``X`` (rows must be distinct)."""
    y = np.where(labels == 1, 1.0, -1.0)
    Z = (X - model.scaler_mean) / model.scaler_scale
    alpha = np.zeros(len(X))
    for sv, coef in zip(model.support_vectors, model.dual_coeffs):
        (row,) = np.nonzero(np.all(Z == sv, axis=1))[0]
        alpha[row] = coef * y[row]
    return alpha


def fit(train, X, labels, **kwargs):
    """``(model, converged)``, with ``zeta`` 1 / n_features unless given; a
    fit stopped by the update cap gives its partial model."""
    kwargs.setdefault("zeta", 1.0 / X.shape[1])
    try:
        return train(X, labels, **kwargs), True
    except TrainingFailed as exc:
        return exc.model, False


def assert_same_fit(X, labels, **kwargs):
    """``train_svm`` and the reference loop agree in every model field and
    every diagnostic, compared with ``==``, so only a zero's sign may
    differ. Returns the ``train_svm`` model."""
    got, got_ok = fit(train_svm, X, labels, **kwargs)
    want, want_ok = fit(train_svm_reference, X, labels, **kwargs)
    assert got_ok == want_ok
    for name in ("support_vectors", "dual_coeffs", "bias", "kernel_zeta",
                 "cost_c", "feature_indices", "scaler_mean", "scaler_scale"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.shape(a) == np.shape(b) and np.array_equal(a, b), name
    assert set(got.diagnostics) == set(want.diagnostics) | {"kkt_gap"}
    for name, value in want.diagnostics.items():
        assert np.array_equal(got.diagnostics[name], value), name
    return got


def overlapping(n1, n2, f, seed, dup=False):
    rng = np.random.default_rng(seed)
    X = np.concatenate([rng.standard_normal((n1, f)),
                        rng.standard_normal((n2, f)) + 0.7])
    labels = np.concatenate([np.ones(n1), np.full(n2, 2)])
    if dup:
        X, labels = np.concatenate([X, X]), np.concatenate([labels, labels])
    return X, labels


class TestKernel:
    def test_values(self):
        A = np.array([[0.0, 0.0], [1.0, 0.0]])
        K = rbf_kernel(A, A, 0.5)
        assert np.allclose(np.diag(K), 1.0)
        assert K[0, 1] == pytest.approx(np.exp(-0.5), abs=1e-15)
        assert np.allclose(K, K.T)

    @pytest.mark.parametrize("n, f", [(3, 1), (7, 5), (40, 12), (64, 204),
                                      (320, 120), (333, 7), (800, 200)])
    def test_gram_is_bitwise_symmetric(self, n, f):
        # train_svm reads kernel columns as rows, which needs K == K.T.
        rng = np.random.default_rng(n * f)
        Z = standardize(rng.standard_normal((n, f)) * rng.uniform(0.1, 10, f))[0]
        K = rbf_kernel(Z, Z, 1.0 / f)
        assert np.array_equal(K, K.T)


class TestStandardize:
    def test_unit_columns_and_constant_column(self):
        X = np.column_stack([RNG.standard_normal(20) * 3 + 1, np.full(20, 4.0)])
        Z, mean, scale = standardize(X)
        np.testing.assert_allclose(Z[:, 0].mean(), 0.0, atol=1e-15)
        np.testing.assert_allclose(Z[:, 0].std(), 1.0, rtol=1e-14)
        assert scale[1] == 1.0 and np.all(Z[:, 1] == 0.0)

    def test_train_svm_stores_the_scaler(self):
        X, labels = blob_data()
        model = train_svm(X, labels, zeta=ZETA)
        _, mean, scale = standardize(X)
        assert np.array_equal(model.scaler_mean, mean)
        assert np.array_equal(model.scaler_scale, scale)


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
        model = train_svm(X, labels, c=1.0, zeta=ZETA)
        alpha = full_alphas(model, X, labels)
        assert np.all(alpha >= 0)
        assert np.all(alpha <= 1.0 + 1e-12)
        assert abs(np.sum(model.dual_coeffs)) <= 1e-6
        assert model.diagnostics["converged"]

    @pytest.mark.parametrize("X, labels, zeta", [
        (*blob_data(seed=1), ZETA),
        (*blob_data(n=40, gap=1.0, seed=4), ZETA),    # overlapping classes
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
        alpha = full_alphas(model, X, labels)
        assert np.all(alpha >= 0) and np.all(alpha <= 1.0 + 1e-12)
        yf = y * svm_score(model, X)
        at_zero = alpha <= 1e-12
        at_c = alpha >= 1.0 - 1e-12
        free = ~at_zero & ~at_c
        assert np.all(yf[at_zero] >= 1.0 - tol)
        assert np.all(np.abs(yf[free] - 1.0) <= tol)
        assert np.all(yf[at_c] <= 1.0 + tol)

    def test_label_conventions_agree(self):
        X, labels = blob_data(seed=3)
        y = np.where(labels == 1, 1, -1)
        a = train_svm(X, labels, c=1.0, zeta=ZETA)
        b = train_svm(X, y, c=1.0, zeta=ZETA)
        assert np.array_equal(a.support_vectors, b.support_vectors)
        assert a.bias == b.bias

    def test_separable_training_accuracy(self):
        X, labels = blob_data(n=40, gap=4.0, seed=5)
        model = train_svm(X, labels, zeta=ZETA)
        pred = svm_decide(model, X)
        assert np.array_equal(pred, np.where(labels == 1, 1, -1))

    def test_single_class_rejected(self):
        with pytest.raises(InvalidValue):
            train_svm(np.zeros((4, 2)), np.ones(4), zeta=0.5)

    @pytest.mark.parametrize("labels", [[1, 2, 7], [2, -1, 1]],
                             ids=["unknown", "mixed"])
    def test_labels_outside_one_convention_rejected(self, labels):
        X = np.arange(6.0).reshape(3, 2)
        with pytest.raises(InvalidValue):
            train_svm(X, labels, zeta=ZETA)

    @pytest.mark.parametrize("rows, n_labels", [(slice(None), -1),
                                                (0, None)],
                             ids=["one-label-short", "1-D-rows"])
    def test_rows_and_labels_of_other_shapes_rejected(self, rows, n_labels):
        X, labels = blob_data()
        with pytest.raises(InvalidValue, match="need 2-D rows and one label"):
            train_svm(X[:, rows], labels[:n_labels], zeta=ZETA)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, value):
        X, labels = blob_data()
        X[4, 1] = value
        with pytest.raises(InvalidValue):
            train_svm(X, labels, zeta=ZETA)

    def test_zeta_is_required(self):
        X, labels = blob_data()
        with pytest.raises(TypeError, match="zeta"):
            train_svm(X, labels)

    @pytest.mark.parametrize("zeta", [0.0, -1.0, np.nan, np.inf, True])
    def test_bad_zeta_rejected(self, zeta):
        X, labels = blob_data()
        with pytest.raises(InvalidValue):
            train_svm(X, labels, zeta=zeta)

    @pytest.mark.parametrize("c", [0.0, -1.0, np.nan, np.inf, True])
    def test_bad_cost_rejected(self, c):
        X, labels = blob_data()
        with pytest.raises(InvalidValue):
            train_svm(X, labels, c=c, zeta=ZETA)

    def test_iteration_cap_carries_partial_model(self, monkeypatch):
        X, labels = blob_data(n=50, gap=0.2, seed=7)
        monkeypatch.setattr(svm, "_MAX_UPDATES", 3)
        with pytest.raises(TrainingFailed) as exc:
            train_svm(X, labels, zeta=ZETA)
        assert isinstance(exc.value.model, SvmModel)
        assert exc.value.model.diagnostics["n_updates"] == 3


class TestAgainstReferenceLoop:
    """The incremental loop against ``tests/oracles.train_svm_reference``,
    which rescans every row on each update."""

    @pytest.mark.parametrize("c", [0.02, 0.1, 1.0, 50.0])
    def test_box_bound_alphas(self, c):
        X, labels = overlapping(30, 25, 3, seed=21)
        model = assert_same_fit(X, labels, c=c)
        if c <= 0.1:
            assert np.any(np.abs(model.dual_coeffs) >= c - 1e-12)

    @pytest.mark.parametrize("c", [0.05, 1.0])
    def test_duplicated_rows_tie(self, c):
        X, labels = overlapping(12, 14, 2, seed=22, dup=True)
        assert_same_fit(X, labels, c=c)

    @pytest.mark.parametrize("single", [1, 2])
    def test_class_with_one_row(self, single):
        X, _ = overlapping(1, 20, 4, seed=23)
        labels = np.where(np.arange(21) == 0, single, 3 - single)
        assert_same_fit(X, labels, c=1.0)
        assert_same_fit(X, labels, c=0.05)

    def test_update_cap(self, monkeypatch):
        monkeypatch.setattr(svm, "_MAX_UPDATES", 3)
        X, labels = blob_data(n=50, gap=0.2, seed=7)
        model = assert_same_fit(X, labels, c=1.0)
        assert model.diagnostics["n_updates"] == 3
        assert not model.diagnostics["converged"]

    @settings(max_examples=25, deadline=None)
    @given(n1=st.integers(1, 25), n2=st.integers(1, 25), f=st.integers(1, 6),
           c=st.sampled_from([0.01, 0.3, 1.0, 10.0]), dup=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_random_problems(self, n1, n2, f, c, dup, seed):
        X, labels = overlapping(n1, n2, f, seed, dup=dup)
        assert_same_fit(X, labels, c=c)


class TestKktGap:
    @pytest.mark.parametrize("X, labels, c, cap", [
        (*blob_data(seed=1), 1.0, None),
        (*blob_data(n=40, gap=1.0, seed=4), 1.0, None),
        (*overlapping(30, 25, 3, seed=21), 0.05, None),
        (*overlapping(1, 20, 4, seed=23), 1.0, None),
        (*blob_data(n=50, gap=0.2, seed=7), 1.0, 3),
        (*blob_data(n=50, gap=0.2, seed=7), 1.0, 40),
    ])
    def test_gap_matches_recomputed_gradient(self, monkeypatch, X, labels, c,
                                             cap):
        if cap is not None:
            monkeypatch.setattr(svm, "_MAX_UPDATES", cap)
        model, converged = fit(train_svm, X, labels, c=c)
        gap = model.diagnostics["kkt_gap"]
        y = np.where(labels == 1, 1.0, -1.0)
        alpha = full_alphas(model, X, labels)
        Z = (X - model.scaler_mean) / model.scaler_scale
        Q = np.outer(y, y) * rbf_kernel(Z, Z, model.kernel_zeta)
        yg = -y * (Q @ alpha - 1.0)
        up = np.where(y > 0, alpha < c - 1e-12, alpha > 1e-12)
        low = np.where(y > 0, alpha > 1e-12, alpha < c - 1e-12)
        assert abs(gap - (yg[up].max() - yg[low].min())) <= 1e-9
        # The gap rule is what stops a converged fit: no alpha leaves a
        # box limit of zero width while both sets are non-empty.
        assert converged == (cap is None)
        if converged:
            assert gap < svm._TOLERANCE
        else:
            assert gap >= svm._TOLERANCE

    def test_gap_is_zero_without_a_pair(self):
        # With c below the 1e-12 set margin, no row is in either set.
        X, labels = blob_data(seed=2)
        model = train_svm(X, labels, c=1e-13, zeta=ZETA)
        assert model.diagnostics["kkt_gap"] == 0.0
        assert model.diagnostics["n_updates"] == 0


@pytest.fixture(scope="module")
def model():
    X, labels = blob_data(seed=9)
    return train_svm(X, labels, zeta=ZETA)


class TestScoring:

    def test_score_shapes(self, model):
        x = RNG.standard_normal(3)
        s = svm_score(model, x)
        assert isinstance(s, float)
        S = svm_score(model, RNG.standard_normal((5, 3)))
        assert S.shape == (5,)

    def test_score_shape_mismatch(self, model):
        with pytest.raises(InvalidValue, match="expected 3 features, got 4"):
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
