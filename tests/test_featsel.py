import csv

import numpy as np
import pytest
from scipy import stats as spstats

from rfdna.errors import (
    InvalidCount,
    InvalidNeighborCount,
    InvalidRelevance,
    InvalidShape,
    InvalidValue,
)
from rfdna.featsel import (
    FeatureRanking,
    LabeledFingerprintSet,
    bhattacharyya,
    export_ranking,
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

from oracles import bc_histogram_oracle, relieff_bruteforce, welch_oracle

RNG = np.random.default_rng(42)


def two_class_set(n1=12, n2=14, f=6, shift=1.5, seed=5):
    rng = np.random.default_rng(seed)
    X1 = rng.standard_normal((n1, f))
    X2 = rng.standard_normal((n2, f))
    X2[:, 0] += shift          # feature 0 carries the class difference
    return LabeledFingerprintSet(
        X=np.concatenate([X1, X2]),
        labels=np.concatenate([np.ones(n1), np.full(n2, 2)]),
    )


class TestLabeledSet:
    def test_properties(self):
        fset = two_class_set()
        assert (fset.n1, fset.n2, fset.n_features) == (12, 14, 6)
        assert fset.X1.shape == (12, 6)
        assert fset.X2.shape == (14, 6)

    def test_validation(self):
        with pytest.raises(InvalidShape):
            LabeledFingerprintSet(X=np.zeros((3, 2)), labels=np.ones(2))
        with pytest.raises(InvalidValue):
            LabeledFingerprintSet(X=np.zeros((2, 2)), labels=[1, 3])
        with pytest.raises(InvalidValue):
            LabeledFingerprintSet(X=np.zeros((2, 2)), labels=[1, 1])


class TestDra:
    def test_descending_with_stable_ties(self):
        r = rank_dra([0.2, 0.9, 0.9, 0.1])
        assert list(r.order) == [1, 2, 0, 3]

    def test_validation(self):
        with pytest.raises(InvalidRelevance):
            rank_dra([0.5, 1.2])
        with pytest.raises(InvalidRelevance):
            rank_dra([-0.1, 0.5])
        with pytest.raises(InvalidShape):
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
        proj = project_lda(fset).transform(fset.X).ravel()
        assert proj[fset.labels == 1].min() > proj[fset.labels == 2].max()


class TestPca:
    def test_projected_covariance_is_diagonal(self):
        fset = two_class_set(n1=60, n2=60, f=8, seed=2)
        basis = project_pca(fset, 8)
        Y = basis.transform(fset.X)
        cov = np.cov(Y, rowvar=False, bias=True)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) <= 1e-8
        assert np.all(np.diff(np.diag(cov)) <= 1e-10)

    def test_eigenvalues_match_projected_variance(self):
        fset = two_class_set(n1=40, n2=40, f=4, seed=9)
        basis = project_pca(fset, 4)
        Y = basis.transform(fset.X)
        assert np.allclose(Y.var(axis=0), basis.eigenvalues, rtol=1e-10)

    def test_sign_convention(self):
        fset = two_class_set(seed=11)
        basis = project_pca(fset, 3).basis
        for j in range(3):
            assert basis[np.argmax(np.abs(basis[:, j])), j] > 0

    def test_count_validation(self):
        with pytest.raises(InvalidCount):
            project_pca(two_class_set(), 7)
        with pytest.raises(InvalidCount):
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


class TestPoeAcc:
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
        fset = two_class_set(n1=30, n2=40, f=5, seed=10)
        bins = max(2, int(np.ceil(np.sqrt(70))))
        r = rank_bc(fset)
        for j in range(5):
            want = bc_histogram_oracle(fset.X1[:, j], fset.X2[:, j], bins)
            assert abs(r.scores[j] - want) <= 1e-12
            assert 0.0 <= r.scores[j] <= 1.0 + 1e-12

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

    def test_needs_two_per_class(self):
        fset = LabeledFingerprintSet(X=np.arange(6.0).reshape(3, 2),
                                     labels=[1, 2, 2])
        with pytest.raises(InvalidValue):
            rank_ttest(fset)


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
        with pytest.raises(InvalidNeighborCount):
            rank_relieff(fset, n_k=5)


class TestSelection:
    def test_select_top_prefix(self):
        r = rank_relieff(two_class_set(n1=15, n2=15), n_k=4)
        for n in (1, 3, 6):
            assert np.array_equal(select_top(r, n), r.order[:n])
        with pytest.raises(InvalidCount):
            select_top(r, 0)
        with pytest.raises(InvalidCount):
            select_top(r, 7)

    def test_export_roundtrip(self, tmp_path):
        r = FeatureRanking(method="demo", scores=np.array([0.5, 0.9, 0.1]),
                           order=np.array([1, 0, 2]))
        path = tmp_path / "ranking.csv"
        export_ranking(r, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["feature_index", "score", "rank", "method"]
        assert [int(row[0]) for row in rows[1:]] == [1, 0, 2]
        assert [float(row[1]) for row in rows[1:]] == [0.9, 0.5, 0.1]
        assert all(row[3] == "demo" for row in rows[1:])
