import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfdna.errors import InvalidValue
from rfdna.featsel import bhattacharyya
from rfdna.modelsel import (
    PMF_BINS,
    CandidateModel,
    MarginPmfPair,
    build_margin_pmfs,
    model_quality,
    select_best,
)
from rfdna.svm import SvmModel, margin, svm_score

RNG = np.random.default_rng(314)


def manual_model(svs, coeffs, bias, zeta=0.5):
    svs = np.atleast_2d(np.asarray(svs, dtype=float))
    f = svs.shape[1]
    return SvmModel(
        support_vectors=svs,
        dual_coeffs=np.asarray(coeffs, dtype=float),
        bias=bias,
        kernel_zeta=zeta,
        scaler_mean=np.zeros(f),
        scaler_scale=np.ones(f),
    )


def odd_model():
    """score(-x) = -score(x): mirrored support vectors, opposite weights."""
    return manual_model([[1.0, 0.5], [-1.0, -0.5]], [0.8, -0.8], 0.0)


class TestBuildMarginPmfs:
    def test_identical_margin_multisets_overlap_fully(self):
        model = odd_model()
        X = RNG.standard_normal((200, 2))
        pair = build_margin_pmfs(model, X, -X)
        assert np.array_equal(pair.pmf_pos, pair.pmf_neg)
        assert abs(pair.bc - 1.0) <= 1e-12

    def test_separated_margins_have_zero_overlap(self):
        model = manual_model([[0.0, 0.0]], [1.0], 5.0)
        auth = RNG.standard_normal((50, 2)) * 0.1
        other = RNG.standard_normal((50, 2)) * 0.1 + 30.0
        pair = build_margin_pmfs(model, auth, other)
        assert pair.bc == 0.0
        assert pair.mean_pos > 0 > pair.mean_neg

    def test_moments_and_histograms_match_direct_arithmetic(self):
        model = odd_model()
        auth = RNG.standard_normal((80, 2))
        other = RNG.standard_normal((120, 2)) + 1.0
        pair = build_margin_pmfs(model, auth, other)
        m_pos = 2.0 * svm_score(model, auth)
        m_neg = -2.0 * svm_score(model, other)
        assert pair.mean_pos == pytest.approx(m_pos.mean(), abs=1e-15)
        assert pair.mean_neg == pytest.approx(m_neg.mean(), abs=1e-15)
        assert pair.var_pos == pytest.approx(m_pos.var(), abs=1e-15)
        assert pair.var_neg == pytest.approx(m_neg.var(), abs=1e-15)
        lo = min(m_pos.min(), m_neg.min())
        hi = max(m_pos.max(), m_neg.max())
        edges = np.linspace(lo, hi, PMF_BINS + 1)
        p = np.histogram(m_pos, bins=edges)[0] / len(m_pos)
        q = np.histogram(m_neg, bins=edges)[0] / len(m_neg)
        assert np.array_equal(pair.pmf_pos, p)
        assert np.array_equal(pair.pmf_neg, q)
        assert pair.bc == pytest.approx(bhattacharyya(p, q), abs=1e-15)
        assert np.array_equal(margin(model, auth, +1), m_pos)

    def test_translated_margins_mean_distance(self):
        model = manual_model([[0.0]], [0.0], 1.25)   # constant score 1.25
        pair = build_margin_pmfs(model, np.zeros((10, 1)), np.zeros((10, 1)))
        # m_pos = +2.5 for all rows, m_neg = -2.5: distance is exactly 5.
        assert model_quality(pair)[0] == pytest.approx(5.0, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(n_pos=st.integers(1, 60), n_neg=st.integers(1, 60),
           constant=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_each_pmf_sums_to_one(self, n_pos, n_neg, constant, seed):
        rng = np.random.default_rng(seed)
        # A zero-weight model scores every row 0.3: both margins constant.
        model = manual_model([[0.0, 0.0]], [0.0], 0.3) if constant \
            else odd_model()
        pair = build_margin_pmfs(model, rng.standard_normal((n_pos, 2)),
                                 rng.standard_normal((n_neg, 2)) + 0.5)
        assert len(pair.pmf_pos) == len(pair.pmf_neg) == PMF_BINS == 100
        assert abs(pair.pmf_pos.sum() - 1.0) <= 1e-12
        assert abs(pair.pmf_neg.sum() - 1.0) <= 1e-12

    def test_empty_inputs_rejected(self):
        model = odd_model()
        with pytest.raises(InvalidValue, match="sets must be non-empty"):
            build_margin_pmfs(model, np.empty((0, 2)), np.ones((3, 2)))


def fake_candidate(n_r, tvr=0.95, fvr=0.05, bc=0.2, dist=4.0, var=1.0):
    pair = MarginPmfPair(
        pmf_pos=np.array([1.0]), pmf_neg=np.array([1.0]),
        mean_pos=dist / 2.0, mean_neg=-dist / 2.0,
        var_pos=var / 2.0, var_neg=var / 2.0, bc=bc,
    )
    return CandidateModel(model=None, n_r=n_r, tvr_train=tvr,
                          fvr_others_train=fvr, pmf_pair=pair)


class TestSelectBest:
    def test_gate_excludes_failing_candidates(self):
        bad_tvr = fake_candidate(10, tvr=0.80, bc=0.0)
        bad_fvr = fake_candidate(20, fvr=0.20, bc=0.0)
        ok = fake_candidate(30, bc=0.5)
        assert select_best([bad_tvr, bad_fvr, ok]) is ok

    def test_lexicographic_order(self):
        # Smallest overlap wins first.
        a = fake_candidate(50, bc=0.1)
        b = fake_candidate(10, bc=0.3)
        assert select_best([a, b]) is a
        # Overlap tie: larger mean distance wins.
        c = fake_candidate(50, bc=0.2, dist=6.0)
        d = fake_candidate(10, bc=0.2, dist=2.0)
        assert select_best([c, d]) is c
        # Overlap and distance tie: smaller summed variance wins.
        e = fake_candidate(50, bc=0.2, dist=4.0, var=0.5)
        f = fake_candidate(10, bc=0.2, dist=4.0, var=2.0)
        assert select_best([e, f]) is e
        # Full tie: fewer retained features wins.
        g = fake_candidate(10)
        h = fake_candidate(50)
        assert select_best([g, h]) is g

    def test_fallback_when_nothing_gates(self):
        a = fake_candidate(40, tvr=0.70, fvr=0.30)
        b = fake_candidate(20, tvr=0.85, fvr=0.30)
        c = fake_candidate(60, tvr=0.85, fvr=0.30)
        assert select_best([a, b, c]) is b

    def test_dominated_candidate_does_not_change_choice(self):
        a = fake_candidate(10, bc=0.1, dist=5.0, var=0.5)
        b = fake_candidate(20, bc=0.3, dist=3.0, var=1.5)
        worse = fake_candidate(200, bc=0.9, dist=0.1, var=9.0)
        assert select_best([a, b]) is a
        assert select_best([a, b, worse]) is a

    def test_empty_list_rejected(self):
        with pytest.raises(InvalidValue, match="empty candidate list"):
            select_best([])
