import numpy as np
import pytest

from rfdna.errors import DegenerateTF, InvalidLength, InvalidValue
from rfdna.gabor import GaborParams, dgt, gaussian_window, normalize_tf
from rfdna.signals import ComplexBurst

from oracles import dgt_direct, dgt_triple_loop

RNG = np.random.default_rng(1234)


def rand_signal(n):
    return RNG.standard_normal(n) + 1j * RNG.standard_normal(n)


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

    def test_linearity(self):
        x, y = rand_signal(150), rand_signal(150)
        a, b = 0.7 - 0.2j, -1.3 + 0.4j
        lhs = dgt(a * x + b * y)
        rhs = a * dgt(x) + b * dgt(y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))

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

    def test_block_index_offset(self):
        p0 = GaborParams()
        p1 = GaborParams(block_index_l=1)
        s = rand_signal(300)
        assert np.allclose(dgt(s, p1), dgt(s[150:], p0), rtol=0, atol=1e-12)

    def test_short_input_raises(self):
        with pytest.raises(InvalidLength):
            dgt(rand_signal(149), GaborParams())


class TestNormalizeTf:
    def test_range_and_peak(self):
        tf = normalize_tf(dgt(rand_signal(150)))
        assert tf.values.shape == (150, 150)
        assert tf.values.min() >= 0.0
        assert tf.values.max() == 1.0

    def test_scale_invariance(self):
        G = dgt(rand_signal(150))
        a = normalize_tf(G).values
        b = normalize_tf(17.3 * G).values
        assert np.allclose(a, b, rtol=0, atol=1e-12)

    def test_centering_is_fftshift(self):
        G = dgt(rand_signal(150))
        mag2 = np.abs(G) ** 2
        expect = np.fft.fftshift(mag2 / mag2.max(), axes=1)
        assert np.array_equal(normalize_tf(G).values, expect)

    def test_all_zero_raises(self):
        with pytest.raises(DegenerateTF):
            normalize_tf(np.zeros((150, 150), dtype=np.complex128))
