import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as spstats

from rfdna import featsel
from rfdna.errors import InvalidValue
from rfdna.featsel import (
    LabeledFingerprintSet,
    bhattacharyya,
    class_histograms,
    project_lda,
    project_pca,
    rank_bc,
    rank_dra,
    rank_nca,
    rank_poeacc,
    rank_relieff,
    rank_ttest,
    select_top,
    train_grlvq_relevance,
    welch_t,
)
from rfdna.harness import apply_cut

from oracles import (
    bc_histogram_oracle,
    class_histograms_loop,
    nca_objective_loop,
    pca_signs_loop,
    poe_loop,
    rank_nca_reference,
    relieff_bruteforce,
    train_grlvq_relevance_reference,
    ttest_loop,
    welch_oracle,
)

RNG = np.random.default_rng(42)


def project(basis, X):
    """Rows of ``X`` projected onto every column of a fitted basis."""
    return apply_cut({"basis": basis.basis, "mean": basis.mean}, X)


def two_class_set(n1=12, n2=14, f=6, shift=1.5, seed=5):
    rng = np.random.default_rng(seed)
    X1 = rng.standard_normal((n1, f))
    X2 = rng.standard_normal((n2, f))
    X2[:, 0] += shift          # feature 0 carries the class difference
    return LabeledFingerprintSet(
        X=np.concatenate([X1, X2]),
        labels=np.concatenate([np.ones(n1), np.full(n2, 2)]),
    )


def tie_heavy_set(n1, n2, f, seed):
    """Values on a coarse grid, so many land exactly on histogram edges,
    plus a constant column, a column constant within each class and a
    column with one distinct value."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 8, (n1 + n2, f)) * 0.25
    X[:, 0] = 3.3
    X[:n1, 1], X[n1:, 1] = 1.0, 2.0
    X[0, 2] = 9.0
    return LabeledFingerprintSet(
        X=X, labels=np.concatenate([np.ones(n1), np.full(n2, 2)]))


# Pools the whole-matrix statistics are checked on against their loops.
POOLS = [
    ("normal", lambda: two_class_set(n1=30, n2=40, f=9, seed=10)),
    ("large", lambda: two_class_set(n1=200, n2=600, f=12, seed=3)),
    ("ties", lambda: tie_heavy_set(20, 44, 10, seed=1)),
    ("ties-small", lambda: tie_heavy_set(3, 5, 6, seed=2)),
]


class TestLabeledSet:
    def test_properties(self):
        fset = two_class_set()
        assert (fset.n1, fset.n2, fset.n_features) == (12, 14, 6)
        assert fset.X1.shape == (12, 6)
        assert fset.X2.shape == (14, 6)

    def test_validation(self):
        with pytest.raises(InvalidValue, match="matrix/label shape mismatch"):
            LabeledFingerprintSet(X=np.zeros((3, 2)), labels=np.ones(2))
        with pytest.raises(InvalidValue):
            LabeledFingerprintSet(X=np.zeros((2, 2)), labels=[1, 3])
        with pytest.raises(InvalidValue):
            LabeledFingerprintSet(X=np.zeros((2, 2)), labels=[1, 1])

    def test_fractional_labels_rejected(self):
        with pytest.raises(InvalidValue):
            LabeledFingerprintSet(X=np.zeros((3, 2)), labels=[1.9, 2.5, 1.2])

    def test_float_class_tags_accepted(self):
        fset = LabeledFingerprintSet(X=np.zeros((3, 2)),
                                     labels=np.array([1.0, 2.0, 1.0]))
        assert fset.labels.dtype == np.int64
        assert list(fset.labels) == [1, 2, 1]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, value):
        X = two_class_set().X
        X[3, 2] = value
        with pytest.raises(InvalidValue):
            LabeledFingerprintSet(X=X, labels=two_class_set().labels)


class TestDra:
    def test_descending_with_stable_ties(self):
        r = rank_dra([0.2, 0.9, 0.9, 0.1])
        assert list(r.order) == [1, 2, 0, 3]

    def test_validation(self):
        with pytest.raises(InvalidValue, match=r"must lie in \[0, 1\]"):
            rank_dra([0.5, 1.2])
        with pytest.raises(InvalidValue, match=r"must lie in \[0, 1\]"):
            rank_dra([-0.1, 0.5])
        with pytest.raises(InvalidValue, match="relevance must be a vector"):
            rank_dra(np.zeros((2, 2)))


class TestGrlvq:
    def test_relevance_prefers_discriminative_feature(self):
        fset = two_class_set(shift=4.0)
        lam = train_grlvq_relevance(fset, epochs=15, seed=3)
        assert lam.shape == (6,)
        assert lam.max() == 1.0
        assert np.all(lam > 0)
        assert np.argmax(lam) == 0

    def test_deterministic_for_seed(self):
        fset = two_class_set()
        a = train_grlvq_relevance(fset, epochs=5, seed=1)
        b = train_grlvq_relevance(fset, epochs=5, seed=1)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("name,make", POOLS)
    def test_matches_reference_loop_bitwise(self, name, make):
        fset = make()
        got = train_grlvq_relevance(fset, epochs=3, seed=7)
        want = train_grlvq_relevance_reference(fset, epochs=3, seed=7)
        assert np.array_equal(got, want)


class TestLda:
    def test_matches_independent_solve(self):
        fset = two_class_set(n1=30, n2=25, f=5, seed=8)
        basis = project_lda(fset)
        X1, X2 = fset.X1, fset.X2
        mu1, mu2 = X1.mean(axis=0), X2.mean(axis=0)
        s_w = np.einsum("ni,nj->ij", X1 - mu1, X1 - mu1)
        s_w = s_w + np.einsum("ni,nj->ij", X2 - mu2, X2 - mu2)
        s_w = s_w + (1e-6 * np.trace(s_w) / 5) * np.eye(5)
        w, *_ = np.linalg.lstsq(s_w, mu1 - mu2, rcond=None)
        got = basis.basis.ravel()
        assert np.max(np.abs(got - w)) <= 1e-8 * np.max(np.abs(w))

    def test_separates_classes(self):
        fset = two_class_set(shift=5.0)
        proj = project(project_lda(fset), fset.X).ravel()
        assert proj[fset.labels == 1].min() > proj[fset.labels == 2].max()


class TestPca:
    def test_projected_covariance_is_diagonal(self):
        fset = two_class_set(n1=60, n2=60, f=8, seed=2)
        basis = project_pca(fset, 8)
        Y = project(basis, fset.X)
        cov = np.cov(Y, rowvar=False, bias=True)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) <= 1e-8
        assert np.all(np.diff(np.diag(cov)) <= 1e-10)

    def test_eigenvalues_match_projected_variance(self):
        # Column k's projected variance is the k-th largest eigenvalue of
        # the pool covariance.
        fset = two_class_set(n1=40, n2=40, f=4, seed=9)
        Y = project(project_pca(fset, 4), fset.X)
        Xc = fset.X - fset.X.mean(axis=0)
        evals = np.linalg.eigvalsh(Xc.T @ Xc / len(Xc))[::-1]
        assert np.allclose(Y.var(axis=0), evals, rtol=1e-10)

    def test_sign_convention(self):
        fset = two_class_set(seed=11)
        basis = project_pca(fset, 3).basis
        for j in range(3):
            assert basis[np.argmax(np.abs(basis[:, j])), j] > 0
        Xc = fset.X - fset.X.mean(axis=0)
        evals, evecs = np.linalg.eigh(Xc.T @ Xc / len(Xc))
        want = pca_signs_loop(evecs[:, np.argsort(evals)[::-1][:3]])
        assert np.array_equal(basis, want)

    def test_basis_width_is_the_numerical_rank(self):
        # 20 centred rows span 19 of the 40 feature directions.
        fset = two_class_set(n1=8, n2=12, f=40, seed=4)
        assert project_pca(fset, 40).basis.shape == (40, 19)
        assert project_pca(fset, 10).basis.shape == (40, 10)
        Xc = fset.X - fset.X.mean(axis=0)
        evals, evecs = np.linalg.eigh(Xc.T @ Xc / len(Xc))
        want = pca_signs_loop(evecs[:, np.argsort(evals)[::-1][:19]])
        assert np.array_equal(project_pca(fset, 40).basis, want)

    def test_kept_components_are_above_the_floor_and_decorrelated(self):
        fset = two_class_set(n1=8, n2=12, f=40, seed=4)
        basis = project_pca(fset, 40)
        Xc = fset.X - fset.X.mean(axis=0)
        evals = np.linalg.eigvalsh(Xc.T @ Xc / len(Xc))[::-1]
        cov = np.cov(project(basis, fset.X), rowvar=False, bias=True)
        var = np.diag(cov)
        assert np.all(var > len(Xc) * np.finfo(float).eps * evals[0])
        assert np.max(np.abs(cov - np.diag(var))) <= 1e-9 * np.max(var)
        assert np.allclose(var, evals[:len(var)], rtol=1e-9)

    @pytest.mark.parametrize("row", [np.zeros(6), RNG.random(6) * 1e3],
                             ids=["zeros", "random"])
    def test_pool_without_variance_refused(self, row):
        fset = LabeledFingerprintSet(X=np.tile(row, (64, 1)),
                                     labels=np.repeat([1, 2], 32))
        with pytest.raises(InvalidValue):
            project_pca(fset, 6)

    def test_count_validation(self):
        with pytest.raises(InvalidValue, match=r"n_r must lie in \[1, 6\]"):
            project_pca(two_class_set(), 7)
        with pytest.raises(InvalidValue, match="n_r must be an integer >= 1"):
            project_pca(two_class_set(), 0)


class TestNca:
    def test_objective_non_increasing(self):
        fset = two_class_set(n1=15, n2=15, f=5, shift=2.0, seed=4)
        r = rank_nca(fset, iterations=40)
        hist = np.array(r.meta["objective_history"])
        assert len(hist) >= 2
        assert np.all(np.diff(hist) <= 1e-12)

    def test_prefers_discriminative_feature(self):
        fset = two_class_set(n1=20, n2=20, f=4, shift=3.0, seed=6)
        r = rank_nca(fset, iterations=60)
        assert r.order[0] == 0


def nca_inputs(n, f, n1, scale=0.5, seed=0):
    """Row matrix, labels and weights of one NCA evaluation."""
    rng = np.random.default_rng(seed)
    Z = scale * rng.standard_normal((n, f))
    y = np.where(np.arange(n) < n1, 1, 2)
    Z[y == 2, :3] += scale                 # a little class signal
    w = 1.0 + 0.3 * rng.standard_normal(f)
    return Z, y, w


def nca_objective(Z, y, w, lam_r):
    """One evaluation over the pairs a fit of Z builds."""
    return featsel._nca_objective_and_grad(Z, y, w, lam_r,
                                           featsel._nca_pairs(Z))


def assert_matches_loop(Z, y, w):
    lam_r = 1.0 / len(Z)
    want_loss, want_grad = nca_objective_loop(
        Z, y[:, None] == y[None, :], w, lam_r)
    assert np.isfinite(want_loss)
    # The pairs a fit keeps, none of them (every row rebuilt at the
    # evaluation), and those of the first half of the rows.
    I, J, starts, kept = featsel._nca_pairs(Z)
    for m in (len(kept), 0, min(len(kept), starts[len(Z) // 2])):
        loss, grad = featsel._nca_objective_and_grad(
            Z, y, w, lam_r, (I, J, starts, kept[:m]))
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(
            np.abs(want_grad))


def n_pairs(n):
    return n * (n - 1) // 2


class TestNcaObjective:
    """The pair-list objective against the one-row-at-a-time reference."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_or_three_pairs(self, n):
        Z, y, w = nca_inputs(n=n, f=4, n1=1)
        I, J, starts, kept = featsel._nca_pairs(Z)
        assert len(I) == len(kept) == n_pairs(n)
        assert_matches_loop(Z, y, w)

    def test_pair_list_order(self):
        Z, y, w = nca_inputs(n=7, f=5, n1=3)
        I, J, starts, kept = featsel._nca_pairs(Z)
        assert np.array_equal(kept, np.abs(Z[I] - Z[J]))
        assert np.array_equal(starts, [0, 6, 11, 15, 18, 20, 21])
        assert_matches_loop(Z, y, w)

    def test_rank_sized_pool(self):
        # A rank-sized pool (64 x 204), every pair kept. At this scale
        # neighbour distances are near 30, so the class term of the
        # objective is far above rounding.
        Z, y, w = nca_inputs(n=64, f=204, n1=24, scale=0.12, seed=1)
        assert len(featsel._nca_pairs(Z)[3]) == n_pairs(64)
        assert_matches_loop(Z, y, w)
        assert_matches_loop(Z, y, np.ones(204))

    def test_row_with_vanishing_kernel_is_skipped(self):
        Z, y, w = nca_inputs(n=20, f=6, n1=8, seed=2)
        Z[5] += 1e3                           # exp(-distance) underflows to 0
        k = np.exp(-np.abs(Z - Z[5]) @ w**2)
        k[5] = 0.0
        assert k.sum() == 0.0
        assert_matches_loop(Z, y, w)

    def test_row_with_vanishing_kernel_past_the_budget_is_skipped(self):
        # 500 x 20: the pairs of the last rows lie past the budget and are
        # rebuilt at every evaluation.
        Z, y, w = nca_inputs(n=500, f=20, n1=180, seed=4)
        I, J, starts, kept = featsel._nca_pairs(Z)
        rows = np.searchsorted(starts, len(kept))     # rows kept
        assert 0 < rows < 499
        r = (rows + 499) // 2                 # a rebuilt row
        Z[r] += 1e3
        k = np.exp(-np.abs(Z - Z[r]) @ w**2)
        k[r] = 0.0
        assert k.sum() == 0.0
        assert_matches_loop(Z, y, w)

    def test_rows_with_non_finite_kernel_are_skipped(self):
        Z, y, w = nca_inputs(n=20, f=6, n1=8, seed=2)
        Z[5, 0] = np.nan                      # every kernel sum is NaN
        assert_matches_loop(Z, y, w)

    def test_gradient_matches_central_difference(self):
        Z, y, w = nca_inputs(n=12, f=5, n1=5, seed=3)
        lam_r = 1.0 / 12
        _, grad = nca_objective(Z, y, w, lam_r)
        h = 1e-6
        numeric = np.empty_like(w)
        for r in range(len(w)):
            e = np.zeros_like(w)
            e[r] = h
            hi, _ = nca_objective(Z, y, w + e, lam_r)
            lo, _ = nca_objective(Z, y, w - e, lam_r)
            numeric[r] = (hi - lo) / (2 * h)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 30), f=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_row_permutation_leaves_objective_unchanged(self, n, f, seed):
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((n, f))
        y = rng.integers(1, 3, n)
        w = rng.uniform(0.2, 1.5, f)
        perm = rng.permutation(n)
        loss, _ = nca_objective(Z, y, w, 1.0 / n)
        loss_p, _ = nca_objective(Z[perm], y[perm], w, 1.0 / n)
        assert abs(loss - loss_p) <= 1e-12 * max(1.0, abs(loss))


def nca_pool(n, f, n1, seed=0):
    """A pool whose NCA class term moves the weights: few features, so
    neighbours of both classes sit at comparable distances."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, f))
    labels = np.where(np.arange(n) < n1, 1, 2)
    X[labels == 2, :3] += 1.0
    return LabeledFingerprintSet(X=X, labels=labels)


def kept_pairs(fset):
    return len(featsel._nca_pairs(featsel.standardize(fset.X)[0])[3])


class TestNcaKeptPairs:
    """rank_nca against the fit that rebuilds every row block at every
    evaluation and sums each ordered pair on its own: equal order and
    history length; scores and objective history within 1e-12, since the
    pair list sums in another order."""

    def assert_same_fit(self, fset, iterations):
        r = rank_nca(fset, iterations=iterations)
        scores, order, history = rank_nca_reference(fset, iterations)
        assert np.array_equal(r.order, order)
        assert len(r.meta["objective_history"]) == len(history)
        np.testing.assert_allclose(r.scores, scores, rtol=1e-12, atol=0)
        np.testing.assert_allclose(r.meta["objective_history"], history,
                                   rtol=1e-12, atol=0)
        assert len(history) == iterations + 1
        assert len(np.unique(scores)) > 1     # the class term moved w

    def test_pool_within_budget(self):
        fset = nca_pool(n=120, f=40, n1=50, seed=1)
        assert n_pairs(120) * 40 * 8 <= featsel._NCA_KEEP_BYTES
        assert kept_pairs(fset) == n_pairs(120)
        self.assert_same_fit(fset, 60)

    def test_pool_over_budget(self):
        # 500 x 20: 20 MB of pairs; the leading rows' pairs are kept, the
        # rest are rebuilt at every evaluation.
        fset = nca_pool(n=500, f=20, n1=180, seed=2)
        assert n_pairs(500) * 20 * 8 > featsel._NCA_KEEP_BYTES
        assert 0 < kept_pairs(fset) < n_pairs(500)
        self.assert_same_fit(fset, 12)

    def test_fit_over_budget_holds_budget_plus_pair_vectors(self):
        fset = nca_pool(n=500, f=20, n1=180, seed=2)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rank_nca(fset, iterations=2)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak >= kept_pairs(fset) * 20 * 8   # the kept pairs
        # Past the budget: at most nine arrays of one value per pair (the
        # pair list, the kernel, both softmax directions and their
        # temporaries), and 0.5 MiB for the standardized rows, the row
        # buffer and the per-row vectors.
        assert peak <= (featsel._NCA_KEEP_BYTES + 9 * n_pairs(500) * 8
                        + (1 << 19))


class TestClassHistograms:
    @pytest.mark.parametrize("name,make", POOLS)
    @pytest.mark.parametrize("bins", [2, 7, 29])
    def test_matches_per_column_histograms(self, name, make, bins):
        fset = make()
        got = class_histograms(fset.X1, fset.X2, bins)
        want = class_histograms_loop(fset.X1, fset.X2, bins)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @settings(max_examples=25, deadline=None)
    @given(n_a=st.integers(1, 60), n_b=st.integers(1, 60),
           bins=st.integers(2, 120), constant=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_each_class_sums_to_one(self, n_a, n_b, bins, constant, seed):
        rng = np.random.default_rng(seed)
        # One column of random values and one that is 0.3 in both classes,
        # or both columns constant.
        A, B = rng.standard_normal((n_a, 2)), rng.standard_normal((n_b, 2))
        A[:, 1] = B[:, 1] = 0.3
        if constant:
            A[:, 0], B[:, 0] = 0.3, -0.3
        pa, pb, _ = class_histograms(A, B, bins)
        assert pa.shape == pb.shape == (2, bins)
        assert np.all(np.abs(pa.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(np.abs(pb.sum(axis=1) - 1.0) <= 1e-12)

    def test_equal_constants_share_one_centred_bin(self):
        pa, pb, edges = class_histograms(np.full((3, 1), 2.0),
                                         np.full((4, 1), 2.0), 4)
        assert np.array_equal(edges[0], [1.5, 1.75, 2.0, 2.25, 2.5])
        assert np.array_equal(pa, pb) and np.array_equal(pa[0], [0, 0, 1, 0])


class TestPoeAcc:
    @pytest.mark.parametrize("name,make", POOLS)
    def test_poe_matches_feature_loop(self, name, make):
        fset = make()
        bins = featsel._default_bins(fset.X.shape[0])
        want = poe_loop(fset.X1, fset.X2, bins)
        assert np.array_equal(featsel._poe_per_feature(fset, bins), want)

    def test_greedy_prefers_uncorrelated_second_pick(self):
        rng = np.random.default_rng(13)
        n = 60
        strong = np.concatenate([rng.normal(0, 0.3, n), rng.normal(5, 0.3, n)])
        # Separable through spread, not mean: stays uncorrelated with strong.
        weak = np.concatenate([rng.normal(0, 0.2, n), rng.normal(0, 2.0, n)])
        noise = rng.standard_normal(2 * n)
        X = np.column_stack([strong, strong + 1e-9 * noise, weak, noise])
        fset = LabeledFingerprintSet(
            X=X, labels=np.concatenate([np.ones(n), np.full(n, 2)])
        )
        r = rank_poeacc(fset)
        assert r.order[0] == 0
        # The exact duplicate of the first pick is fully correlated with it,
        # so the weak-but-independent feature comes second.
        assert r.order[1] == 2
        assert sorted(r.order) == [0, 1, 2, 3]

    def test_is_a_permutation(self):
        r = rank_poeacc(two_class_set(n1=25, n2=25, f=7, seed=3))
        assert sorted(r.order) == list(range(7))


class TestBc:
    def test_matches_direct_histogram_overlap(self):
        for name, make in POOLS:
            fset = make()
            bins = max(2, int(np.ceil(np.sqrt(fset.X.shape[0]))))
            r = rank_bc(fset)
            for j in range(fset.n_features):
                want = bc_histogram_oracle(fset.X1[:, j], fset.X2[:, j], bins)
                assert r.scores[j] == want, (name, j)
                assert 0.0 <= r.scores[j] <= 1.0 + 1e-12
            if name.startswith("ties"):
                assert r.scores[0] == 1.0   # equal constants overlap fully

    def test_identical_samples_overlap_fully(self):
        x = RNG.standard_normal(20)
        X = np.concatenate([x, x])[:, None]
        fset = LabeledFingerprintSet(
            X=X, labels=np.concatenate([np.ones(20), np.full(20, 2)])
        )
        assert abs(rank_bc(fset).scores[0] - 1.0) <= 1e-12

    def test_least_overlap_ranks_first(self):
        fset = two_class_set(shift=6.0)
        assert rank_bc(fset).order[0] == 0

    def test_bins_validation(self):
        with pytest.raises(InvalidValue):
            rank_bc(two_class_set(), bins=1)

    def test_bhattacharyya_bounds(self):
        p = np.array([0.5, 0.5, 0.0])
        q = np.array([0.0, 0.5, 0.5])
        assert bhattacharyya(p, p) == pytest.approx(1.0, abs=1e-15)
        assert bhattacharyya(p, q) == pytest.approx(0.5, abs=1e-15)


class TestWelch:
    def test_matches_textbook_formulas(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal(11) * 2 + 0.5
            b = rng.standard_normal(17)
            t, dof = welch_t(a, b)
            t0, dof0 = welch_oracle(a, b)
            assert abs(t - t0) <= 1e-10
            assert abs(dof - dof0) <= 1e-10 * dof0

    def test_matches_scipy_pvalue(self):
        fset = two_class_set(n1=15, n2=20, f=4, seed=21)
        r = rank_ttest(fset)
        for j in range(4):
            ref = spstats.ttest_ind(fset.X1[:, j], fset.X2[:, j],
                                    equal_var=False)
            assert abs(r.scores[j] - ref.pvalue) <= 1e-10
        assert r.order[0] == np.argmin(r.scores)

    def test_degenerate_features(self):
        X1 = np.column_stack([np.full(5, 2.0), np.full(5, 1.0)])
        X2 = np.column_stack([np.full(6, 2.0), np.full(6, 3.0)])
        fset = LabeledFingerprintSet(
            X=np.concatenate([X1, X2]),
            labels=np.concatenate([np.ones(5), np.full(6, 2)]),
        )
        r = rank_ttest(fset)
        assert r.scores[0] == 1.0            # equal constants: no evidence
        assert r.scores[1] == 0.0            # distinct constants: infinite t
        assert list(r.meta["excluded_features"]) == [0]

    @pytest.mark.parametrize("name,make", POOLS)
    def test_columns_match_feature_loop(self, name, make):
        fset = make()
        p, t, excluded = ttest_loop(fset.X1, fset.X2)
        r = rank_ttest(fset)
        assert np.array_equal(r.meta["t"], t)
        np.testing.assert_allclose(r.scores, p, rtol=1e-12, atol=0)
        assert np.array_equal(r.order, np.argsort(p, kind="stable"))
        assert np.array_equal(r.meta["excluded_features"], excluded)

    @pytest.mark.parametrize("name,make",
                             POOLS + [("default", two_class_set)])
    def test_pvalues_are_scipy_t_sf_bitwise(self, name, make):
        fset = make()
        r = rank_ttest(fset)
        t, dof = welch_t(fset.X1, fset.X2)
        want = 2.0 * spstats.t.sf(np.abs(t), dof)
        want[np.isinf(t)] = 0.0
        want[r.meta["excluded_features"]] = 1.0
        assert want.tobytes() == r.scores.tobytes()

    def test_matrix_input_matches_each_column(self):
        fset = two_class_set(n1=13, n2=19, f=5, seed=8)
        t, dof = welch_t(fset.X1, fset.X2)
        for j in range(5):
            assert (t[j], dof[j]) == welch_t(fset.X1[:, j], fset.X2[:, j])

    def test_needs_two_per_class(self):
        fset = LabeledFingerprintSet(X=np.arange(6.0).reshape(3, 2),
                                     labels=[1, 2, 2])
        with pytest.raises(InvalidValue):
            rank_ttest(fset)


def permuted_sets(n1, n2, f, seed):
    """A two-class set with moderate |t| and the same rows in a random
    order."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n1 + n2, f))
    X[n1:] += rng.uniform(0.0, 1.0, f)
    labels = np.concatenate([np.ones(n1), np.full(n2, 2)])
    perm = rng.permutation(n1 + n2)
    return (LabeledFingerprintSet(X=X, labels=labels),
            LabeledFingerprintSet(X=X[perm], labels=labels[perm]))


class TestRowPermutation:
    @settings(max_examples=25, deadline=None)
    @given(n1=st.integers(2, 30), n2=st.integers(2, 30),
           f=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_bc_poe_welch_ignore_row_order(self, n1, n2, f, seed):
        fset, fperm = permuted_sets(n1, n2, f, seed)
        bins = featsel._default_bins(n1 + n2)
        for score in (lambda s: rank_bc(s).scores,
                      lambda s: featsel._poe_per_feature(s, bins),
                      lambda s: rank_ttest(s).scores):
            a, b = score(fset), score(fperm)
            np.testing.assert_allclose(b, a, rtol=1e-12, atol=0)
            assert np.array_equal(np.argsort(a, kind="stable"),
                                  np.argsort(b, kind="stable"))
        assert np.array_equal(rank_bc(fset).order, rank_bc(fperm).order)
        assert np.array_equal(rank_ttest(fset).order,
                              rank_ttest(fperm).order)

    @settings(max_examples=25, deadline=None)
    @given(n1=st.integers(2, 30), n2=st.integers(2, 30),
           f=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_relieff_ignores_row_order(self, n1, n2, f, seed):
        fset, fperm = permuted_sets(n1, n2, f, seed)
        a, b = rank_relieff(fset, n_k=1), rank_relieff(fperm, n_k=1)
        np.testing.assert_allclose(b.scores, a.scores, rtol=1e-12, atol=0)
        assert np.array_equal(a.order, b.order)


class TestRelieff:
    def test_matches_bruteforce(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            n1, n2 = 9, 11
            X = rng.standard_normal((n1 + n2, 5))
            X[n1:, 1] += 2.0
            X[:, 4] = 3.14                   # constant feature
            y = np.concatenate([np.ones(n1), np.full(n2, 2)]).astype(int)
            fset = LabeledFingerprintSet(X=X, labels=y)
            got = rank_relieff(fset, n_k=4).scores
            want = relieff_bruteforce(X, y, 4)
            assert np.max(np.abs(got - want)) <= 1e-9
            assert got[4] == 0.0

    def test_discriminative_feature_wins(self):
        fset = two_class_set(n1=25, n2=25, shift=3.0, seed=15)
        assert rank_relieff(fset, n_k=5).order[0] == 0

    def test_neighbor_count_validation(self):
        fset = two_class_set(n1=5, n2=20)
        with pytest.raises(InvalidValue, match="class 1 needs at least 6"):
            rank_relieff(fset, n_k=5)

    @pytest.mark.parametrize("n_k", [0, -1])
    def test_needs_a_neighbor(self, n_k):
        with pytest.raises(InvalidValue, match="n_k must be an integer >= 1"):
            rank_relieff(two_class_set(n1=20, n2=20), n_k=n_k)


COUNT_CASES = [
    ("nca iterations 1.5", lambda f: rank_nca(f, iterations=1.5),
     "iterations"),
    ("nca iterations -3", lambda f: rank_nca(f, iterations=-3), "iterations"),
    ("nca iterations 0", lambda f: rank_nca(f, iterations=0), "iterations"),
    ("grlvq epochs 2.5", lambda f: train_grlvq_relevance(f, epochs=2.5),
     "epochs"),
    ("relieff n_k 2.5", lambda f: rank_relieff(f, n_k=2.5), "n_k"),
    ("relieff n_k True", lambda f: rank_relieff(f, n_k=True), "n_k"),
    ("pca n_r 2.5", lambda f: project_pca(f, 2.5), "n_r"),
    ("select_top n_r 2.5", lambda f: select_top(rank_bc(f), 2.5), "n_r"),
    ("bc bins 2.5", lambda f: rank_bc(f, bins=2.5), "bins"),
    ("bc bins '4'", lambda f: rank_bc(f, bins="4"), "bins"),
]


@pytest.mark.parametrize("call,name", [c[1:] for c in COUNT_CASES],
                         ids=[c[0] for c in COUNT_CASES])
def test_count_that_is_not_an_integer_refused(call, name):
    with pytest.raises(InvalidValue, match=f"^{name} must be an integer"):
        call(two_class_set(n1=15, n2=15))


class TestSelection:
    def test_select_top_prefix(self):
        r = rank_relieff(two_class_set(n1=15, n2=15), n_k=4)
        for n in (1, 3, 6):
            assert np.array_equal(select_top(r, n), r.order[:n])
        with pytest.raises(InvalidValue, match="n_r must be an integer >= 1"):
            select_top(r, 0)
        with pytest.raises(InvalidValue, match="n_r 7 exceeds ranked count 6"):
            select_top(r, 7)
