import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfdna import gabor
from rfdna.errors import InvalidValue
from rfdna.gabor import GaborParams, dgt, gaussian_window, normalize_tf
from rfdna.harness import default_cohort
from rfdna.signals import (TEMPLATE_LEN, ComplexBurst, add_awgn,
                           butterworth_filter, synth_burst)

from oracles import dgt_direct, dgt_percall, dgt_triple_loop

RNG = np.random.default_rng(1234)

# The default grid, a coarser frequency grid, an oversampled grid with
# q = 3 residues per bin and a narrow window.
ORACLE_PARAMS = [
    GaborParams(),
    GaborParams(K_G=75),
    GaborParams(M=75, K_G=50, N_delta=2),
    GaborParams(window_sigma=7.0),
]


def rand_signal(n):
    return RNG.standard_normal(n) + 1j * RNG.standard_normal(n)


def seeded_signal(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def captured_bursts(n=20):
    """Captured bursts of the cohort at SNRs from -3 to 27 dB."""
    cohort = default_cohort()
    out = []
    for b, snr in enumerate(np.linspace(-3.0, 27.0, n)):
        burst = butterworth_filter(
            synth_burst(cohort[b % len(cohort)], TEMPLATE_LEN, seed=b))
        out.append(add_awgn(burst, float(snr), seed=1000 + b).samples)
    return out


class TestGaborParams:
    def test_defaults(self):
        p = GaborParams()
        assert (p.M, p.K_G, p.N_delta) == (150, 150, 1)
        assert p.block_len == 150
        assert p.sigma == 150 / 6.0

    def test_sigma_override(self):
        assert GaborParams(window_sigma=9.0).sigma == 9.0

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidValue):
            GaborParams(M=0)
        with pytest.raises(InvalidValue):
            GaborParams(N_delta=0)

    def test_rejects_nondivisible_grid(self):
        with pytest.raises(InvalidValue):
            GaborParams(M=150, K_G=149, N_delta=1)

    def test_rejects_critically_sampled(self):
        with pytest.raises(InvalidValue):
            GaborParams(M=10, K_G=2, N_delta=2)

    @pytest.mark.parametrize("field, value", [
        ("M", 150.0), ("M", True), ("M", "150"), ("K_G", 150.0),
        ("N_delta", True), ("N_delta", None), ("M", -150), ("K_G", 0),
        ("N_delta", -1), ("window_sigma", float("nan")),
        ("window_sigma", 0.0), ("window_sigma", -5.0),
        ("window_sigma", float("inf")), ("window_sigma", True),
        ("window_sigma", "25"),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(InvalidValue):
            GaborParams(**{field: value})

    def test_integer_types_and_sigma_accepted(self):
        p = GaborParams(M=np.int64(150), window_sigma=np.float64(9.5))
        assert p == GaborParams(window_sigma=9.5)
        assert GaborParams(window_sigma=9).sigma == 9

    def test_analysis_matrix_is_cached_and_read_only(self):
        W = gabor._analysis_matrix(GaborParams())
        assert W is gabor._analysis_matrix(GaborParams())
        assert W.shape == (150, 150) and W.nbytes == 180_000
        assert not W.flags.writeable
        with pytest.raises(ValueError):
            W[0, 0] = 0.0


class TestGaussianWindow:
    def test_peak_and_wrap_symmetry(self):
        w = gaussian_window(150, 25.0)
        assert w[0] == 1.0
        assert np.allclose(w[1:], w[1:][::-1])

    def test_values(self):
        w = gaussian_window(8, 2.0)
        d = np.array([0, 1, 2, 3, 4, -3, -2, -1], dtype=float)
        assert np.allclose(w, np.exp(-d**2 / 8.0), rtol=0, atol=1e-15)


class TestDgt:
    def test_matches_direct_sum(self):
        p = GaborParams()
        for _ in range(5):
            s = rand_signal(150)
            G = dgt(s, p)
            Go = dgt_direct(s, p)
            assert np.max(np.abs(G - Go)) <= 1e-10 * np.max(np.abs(Go))

    def test_matches_literal_triple_loop(self):
        p = GaborParams(M=10, K_G=5, N_delta=1, window_sigma=2.0)
        s = rand_signal(10)
        G = dgt(s, p)
        Go = dgt_triple_loop(s, p)
        assert np.max(np.abs(G - Go)) <= 1e-12 * np.max(np.abs(Go))

    def test_oversampled_geometry(self):
        p = GaborParams(M=20, K_G=10, N_delta=2, window_sigma=4.0)
        s = rand_signal(40)
        G = dgt(s, p)
        assert G.shape == (20, 10)
        Go = dgt_direct(s, p)
        assert np.max(np.abs(G - Go)) <= 1e-10 * np.max(np.abs(Go))

    def test_accepts_burst_and_array(self):
        s = rand_signal(150)
        assert np.array_equal(dgt(ComplexBurst(s)), dgt(s))

    @pytest.mark.parametrize("params", ORACLE_PARAMS, ids=str)
    def test_matches_percall_oracle_bitwise(self, params):
        for s in captured_bursts():
            assert np.array_equal(dgt(s, params), dgt_percall(s, params))

    complex_coeffs = st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0,
                                        allow_nan=False, allow_infinity=False)

    @settings(max_examples=25, deadline=None)
    @given(a=complex_coeffs, b=complex_coeffs,
           seed=st.integers(0, 2**32 - 1))
    def test_linearity(self, a, b, seed):
        x, y = seeded_signal(150, seed), seeded_signal(150, seed + 1)
        lhs = dgt(a * x + b * y)
        rhs = a * dgt(x) + b * dgt(y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    @pytest.mark.parametrize("params", [
        GaborParams(), GaborParams(M=50, K_G=50, N_delta=2)], ids=str)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_circular_time_shift(self, params, seed):
        # Delaying the block by one time step moves every row down one
        # step and turns each bin by exp(-2j pi k N_delta / K_G).
        s = seeded_signal(params.block_len, seed)
        k = np.arange(params.K_G)
        want = (np.roll(dgt(s, params), 1, axis=0)
                * np.exp(-2j * np.pi * k * params.N_delta / params.K_G))
        got = dgt(np.roll(s, params.N_delta), params)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_impulse(self):
        # s(n) = delta(n - n0) collapses the sum to one windowed phasor.
        p = GaborParams()
        L = p.block_len
        pos = 37
        s = np.zeros(L, dtype=np.complex128)
        s[pos] = 1.0
        n0 = pos + 1
        win = gaussian_window(L, p.sigma)
        m = np.arange(1, p.M + 1)
        k = np.arange(p.K_G)
        expect = (np.conj(win[(n0 - m * p.N_delta) % L])[:, None]
                  * np.exp(-2j * np.pi * k[None, :] * n0 / p.K_G))
        assert np.allclose(dgt(s, p), expect, rtol=0, atol=1e-12)

    def test_short_input_raises(self):
        with pytest.raises(InvalidValue, match="need 150 samples, burst has "
                                               "149"):
            dgt(rand_signal(149), GaborParams())


class TestNormalizeTf:
    def test_range_and_peak(self):
        tf = normalize_tf(dgt(rand_signal(150)))
        assert tf.shape == (150, 150) and tf.dtype == np.float64
        assert tf.min() >= 0.0
        assert tf.max() == 1.0

    def test_scale_invariance(self):
        G = dgt(rand_signal(150))
        a = normalize_tf(G)
        b = normalize_tf(17.3 * G)
        assert np.allclose(a, b, rtol=0, atol=1e-12)

    def test_centering_is_fftshift(self):
        G = dgt(rand_signal(150))
        mag2 = np.abs(G) ** 2
        expect = np.fft.fftshift(mag2 / mag2.max(), axes=1)
        assert np.array_equal(normalize_tf(G), expect)

    def test_all_zero_raises(self):
        with pytest.raises(InvalidValue, match="all-zero coefficient grid"):
            normalize_tf(np.zeros((150, 150), dtype=np.complex128))
