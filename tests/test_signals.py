import json
from dataclasses import asdict

import numpy as np
import pytest
from scipy import signal as sps

from rfdna.errors import (
    DegenerateSignal,
    InvalidCutoff,
    InvalidLength,
    InvalidValue,
)
from rfdna.signals import (
    CAPTURE_FILTER,
    ComplexBurst,
    EmitterProfile,
    add_awgn,
    butterworth_filter,
    clean_template,
    load_manifest,
    preamble,
    ramp_template,
    synth_burst,
)

L = 200


def burst_of(profile, seed=0):
    return synth_burst(profile, L, seed)


class TestProfile:
    def test_validation(self):
        with pytest.raises(InvalidValue):
            EmitterProfile("X", iq_gain_imbalance=0.0)
        with pytest.raises(InvalidValue):
            EmitterProfile("X", carrier_freq_offset=0.5)
        with pytest.raises(InvalidValue):
            EmitterProfile("X", phase_noise_std=-0.1)

    @pytest.mark.parametrize("impairment", [
        {"pa_nonlinearity": float("nan")},
        {"iq_gain_imbalance": float("inf")},
        {"iq_phase_imbalance": float("-inf")},
        {"phase_noise_std": float("nan")},
        {"carrier_freq_offset": float("nan")},
        {"ramp_time_constant": float("inf")},
        {"ramp_time_constant": 0.0}, {"ramp_time_constant": -5.0},
    ])
    def test_non_finite_or_non_positive_ramp_rejected(self, impairment):
        with pytest.raises(InvalidValue):
            EmitterProfile("X", **impairment)

    @pytest.mark.parametrize("fields", [
        {"radio_id": 7}, {"radio_id": None}, {"radio_id": ""},
        {"radio_id": "X", "pa_nonlinearity": True},
        {"radio_id": "X", "ramp_time_constant": "20"},
    ])
    def test_id_or_impairment_of_wrong_type_rejected(self, fields):
        # A store writes radio ids as text.
        with pytest.raises(InvalidValue):
            EmitterProfile(**fields)


class TestTemplates:
    def test_ramp_values(self):
        r = ramp_template(5, 2.0)
        n = np.arange(1, 6)
        assert np.allclose(r, 1.0 - np.exp(-n / 2.0), rtol=0, atol=1e-15)

    def test_preamble_is_fixed_and_unit_power(self):
        p = preamble(L)
        assert np.array_equal(p, preamble(L))
        # Mean power of a unit-amplitude tone sum scaled by 1/sqrt(n_tones).
        assert abs(np.mean(np.abs(p) ** 2) - 1.0) < 0.2

    def test_preamble_occupies_full_filter_band(self):
        # The capture filter, not the emitter, must set the occupied band:
        # spectral mass should be present across the whole filter passband.
        spec = np.abs(np.fft.fftshift(np.fft.fft(clean_template(512, 20.0))))
        freqs = np.fft.fftshift(np.fft.fftfreq(512))
        band = spec[np.abs(freqs) < 0.2]
        chunks = np.array_split(band, 8)
        assert all(c.max() > 0.02 * spec.max() for c in chunks)


class TestSynthBurst:
    def test_identity_profile_equals_clean_template(self):
        p = EmitterProfile("ideal", ramp_time_constant=17.0)
        b = burst_of(p)
        assert np.array_equal(b.samples, clean_template(L, 17.0).astype(complex))

    def test_replay_is_bitwise(self):
        p = EmitterProfile("r", phase_noise_std=0.01, carrier_freq_offset=0.02)
        assert np.array_equal(burst_of(p, seed=5).samples,
                              burst_of(p, seed=5).samples)
        assert not np.array_equal(burst_of(p, seed=5).samples,
                                  burst_of(p, seed=6).samples)

    def test_cfo_phase_slope(self):
        f = 1e-3
        p = EmitterProfile("cfo", carrier_freq_offset=f)
        ratio = burst_of(p).samples / clean_template(L, 20.0)
        steps = np.angle(ratio[1:] * np.conj(ratio[:-1]))
        assert np.allclose(steps, 2 * np.pi * f, rtol=0, atol=1e-10)

    def test_iq_imbalance_formula(self):
        g, phi = 1.05, 0.08
        p = EmitterProfile("iq", iq_gain_imbalance=g, iq_phase_imbalance=phi)
        x = clean_template(L, 20.0)
        i, q = x.real, x.imag
        expect = i + 1j * g * (q * np.cos(phi) + i * np.sin(phi))
        assert np.allclose(burst_of(p).samples, expect, rtol=0, atol=1e-15)

    def test_pa_nonlinearity_formula(self):
        c3 = 0.2
        p = EmitterProfile("pa", pa_nonlinearity=c3)
        x = clean_template(L, 20.0)
        expect = x + c3 * x * np.abs(x) ** 2
        assert np.allclose(burst_of(p).samples, expect, rtol=0, atol=1e-15)

    def test_too_short_raises(self):
        with pytest.raises(InvalidLength):
            synth_burst(EmitterProfile("s"), 149, 0)


class TestButterworth:
    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = ComplexBurst(rng.standard_normal(256) + 1j * rng.standard_normal(256))
        y = ComplexBurst(rng.standard_normal(256) + 1j * rng.standard_normal(256))
        a, b = 2.0 - 1.0j, -0.5 + 0.25j
        lhs = butterworth_filter(ComplexBurst(a * x.samples + b * y.samples))
        rhs = (a * butterworth_filter(x).samples
               + b * butterworth_filter(y).samples)
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs.samples - rhs)) <= 1e-9 * scale

    def test_magnitude_response_analytic(self):
        # Bilinear-transformed lowpass Butterworth:
        # |H(e^{jw})|^2 = 1 / (1 + (tan(w/2) / tan(wc/2))^(2n)).
        order, cutoff = 6, 0.25
        x = np.zeros(4096)
        x[0] = 1.0
        h = butterworth_filter(ComplexBurst(x), order, cutoff).samples
        H = np.fft.rfft(h.real)
        w = np.linspace(0, np.pi, len(H))
        wc = np.pi * cutoff
        expect = 1.0 / np.sqrt(1.0 + (np.tan(w / 2) / np.tan(wc / 2)) ** (2 * order))
        assert np.max(np.abs(np.abs(H) - expect)) < 1e-8
        k = int(round(cutoff * (len(H) - 1)))
        assert abs(np.abs(H[k]) - 1 / np.sqrt(2)) < 1e-3

    def test_invalid_cutoff(self):
        b = ComplexBurst(np.ones(16))
        with pytest.raises(InvalidCutoff):
            butterworth_filter(b, 6, 0.0)
        with pytest.raises(InvalidCutoff):
            butterworth_filter(b, 6, 1.0)

    @pytest.mark.parametrize("order, cutoff, error", [
        (-2, 0.4, InvalidValue), (2.5, 0.4, InvalidValue),
        (0, 0.4, InvalidValue), (True, 0.4, InvalidValue),
        (6.0, 0.4, InvalidValue), (6, 1.5, InvalidCutoff),
        (6, float("nan"), InvalidCutoff), (6, "0.4", InvalidCutoff),
    ])
    def test_invalid_spec(self, order, cutoff, error):
        with pytest.raises(error):
            butterworth_filter(ComplexBurst(np.ones(16)), order, cutoff)


class TestAddAwgn:
    def test_exact_post_filter_snr(self):
        b = burst_of(EmitterProfile("a", carrier_freq_offset=0.01))
        for snr in (-3.0, 0.0, 12.0, 27.0):
            noisy = add_awgn(b, snr, (6, 0.25), seed=11)
            noise = noisy.samples - b.samples
            p_n = np.mean(np.abs(noise) ** 2)
            got = 10 * np.log10(b.power() / p_n)
            assert abs(got - snr) < 1e-9

    def test_noise_is_like_filtered(self):
        b = burst_of(EmitterProfile("a"))
        noise = add_awgn(b, 0.0, (6, 0.25), seed=2).samples - b.samples
        rng = np.random.default_rng(2)
        n = len(b.samples)
        raw = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
        shaped = sps.sosfilt(sps.butter(6, 0.25, output="sos"), raw)
        scale = np.sqrt(b.power() / np.mean(np.abs(shaped) ** 2))
        assert np.allclose(noise, scale * shaped, rtol=0, atol=1e-12)

    def test_zero_power_raises(self):
        with pytest.raises(DegenerateSignal):
            add_awgn(ComplexBurst(np.zeros(64)), 10.0)

    @pytest.mark.parametrize("snr", [-4000.0, -3100.0, 3090.0, 4000.0,
                                     float("nan")])
    def test_snr_without_finite_noise_scale_rejected(self, snr):
        # -4000 dB underflows the power ratio to zero, -3100 dB makes the
        # scale infinite, +3090 and +4000 dB overflow the power ratio.
        with pytest.raises(InvalidValue, match="noise scale"):
            add_awgn(burst_of(EmitterProfile("a")), snr)

    @pytest.mark.parametrize("filter_spec, error", [
        ((6, 1.5), InvalidCutoff), ((6, float("nan")), InvalidCutoff),
        ((6, 0.0), InvalidCutoff), ((0, 0.4), InvalidValue),
        ((-2, 0.4), InvalidValue), ((2.5, 0.4), InvalidValue),
        ((True, 0.4), InvalidValue),
    ])
    def test_invalid_filter_spec(self, filter_spec, error):
        with pytest.raises(error):
            add_awgn(burst_of(EmitterProfile("a")), 9.0, filter_spec)

    def test_default_filter_is_the_capture_filter(self):
        b = burst_of(EmitterProfile("a"))
        assert np.array_equal(add_awgn(b, 9.0, seed=4).samples,
                              add_awgn(b, 9.0, CAPTURE_FILTER, seed=4).samples)
        assert np.array_equal(butterworth_filter(b).samples,
                              butterworth_filter(b, *CAPTURE_FILTER).samples)


class TestIo:
    def test_manifest_roundtrip(self, tmp_path):
        profiles = [EmitterProfile("R01", ramp_time_constant=8.0),
                    EmitterProfile("R02", pa_nonlinearity=0.3)]
        path = tmp_path / "cohort.json"
        path.write_text(json.dumps(
            {"n_bursts": 42, "profiles": [asdict(p) for p in profiles]}))
        back, n = load_manifest(path)
        assert back == profiles
        assert n == 42

    @pytest.mark.parametrize("text", [json.dumps(d) for d in [
        {"n_bursts": 4},                                   # no profiles
        {"n_bursts": 4, "profiles": [{"radio_id": "R01", "gain": 1.0}]},
        {"n_bursts": 4, "profiles": [{"iq_gain_imbalance": 1.0}]},
        {"n_bursts": "x", "profiles": [{"radio_id": "R01"}]},
        {"n_bursts": 0, "profiles": [{"radio_id": "R01"}]},
        {"n_bursts": -3, "profiles": [{"radio_id": "R01"}]},
        {"profiles": [{"radio_id": "R01"}]},               # no n_bursts
        [{"radio_id": "R01"}],
        {"n_bursts": 4, "profiles": [{"radio_id": "R01"},  # id twice
                                     {"radio_id": "R02"},
                                     {"radio_id": "R01"}]},
        {"n_bursts": 4, "profiles": [{"radio_id": "R01",   # emitted as NaN
                                      "pa_nonlinearity": float("nan")}]},
        {"n_bursts": 4, "profiles": [{"radio_id": "R01",   # as Infinity
                                      "iq_gain_imbalance": float("inf")}]},
        {"n_bursts": 4, "profiles": [{"radio_id": "R01",
                                      "ramp_time_constant": -5.0}]},
        {"n_bursts": 4, "profiles": [{"radio_id": 7}]},
        {"n_bursts": 4, "profiles": [{"radio_id": ""}]},
        {"n_bursts": 4, "profiles": [{"radio_id": "R01",
                                      "iq_gain_imbalance": True}]},
    ]] + ["{n_bursts: 4"])                                 # not JSON
    def test_malformed_manifest_rejected(self, tmp_path, text):
        path = tmp_path / "cohort.json"
        path.write_text(text)
        with pytest.raises(InvalidValue):
            load_manifest(path)
