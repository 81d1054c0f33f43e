"""Burst synthesis, capture filtering, noise injection, and cohort manifests.

Bursts are baseband complex sample sequences. Each synthetic emitter carries a
small set of front-end impairments (IQ imbalance, third-order nonlinearity,
frequency offset, phase-noise walk) that color its bursts in a device-specific
way. All randomness flows through explicit seeds so every operation replays
bit-identically.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import astuple, dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateSignal,
    InvalidCutoff,
    InvalidLength,
    InvalidValue,
)

MIN_BURST_LEN = 150  # samples consumed by one time-frequency block
TEMPLATE_LEN = 200   # near-transient burst length of the capture chain
CAPTURE_FILTER = (6, 0.4)  # Butterworth order and cutoff (fraction of Nyquist)


@dataclass(frozen=True)
class EmitterProfile:
    """Front-end impairment parameters of one synthetic radio."""

    radio_id: str
    iq_gain_imbalance: float = 1.0      # linear ratio, > 0
    iq_phase_imbalance: float = 0.0     # radians
    carrier_freq_offset: float = 0.0    # fraction of sample rate, in (-0.5, 0.5)
    phase_noise_std: float = 0.0        # radians per sample (random-walk step)
    pa_nonlinearity: float = 0.0        # third-order coefficient
    ramp_time_constant: float = 20.0    # samples

    def __post_init__(self):
        # A store writes radio ids as text.
        if not isinstance(self.radio_id, str) or not self.radio_id:
            raise InvalidValue(f"radio_id must be a non-empty string, got "
                               f"{self.radio_id!r}")
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   and math.isfinite(v) for v in astuple(self)[1:]):
            raise InvalidValue(f"{self.radio_id!r} has an impairment that is "
                               f"not a finite number")
        if self.iq_gain_imbalance <= 0:
            raise InvalidValue("iq_gain_imbalance must be > 0")
        if not -0.5 < self.carrier_freq_offset < 0.5:
            raise InvalidValue("carrier_freq_offset must lie in (-0.5, 0.5)")
        if self.phase_noise_std < 0:
            raise InvalidValue("phase_noise_std must be >= 0")
        if self.ramp_time_constant <= 0:
            raise InvalidValue("ramp_time_constant must be > 0")


@dataclass
class ComplexBurst:
    """One near-transient burst of baseband complex samples."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)

    def power(self) -> float:
        return float(np.mean(np.abs(self.samples) ** 2))


def ramp_template(template_len: int, time_constant: float) -> np.ndarray:
    """Clean turn-on envelope: 1 - exp(-n/tau), n = 1..template_len."""
    n = np.arange(1, template_len + 1, dtype=np.float64)
    return 1.0 - np.exp(-n / time_constant)


@lru_cache(maxsize=None)
def preamble(template_len: int):
    """Fixed broadband multitone preamble shared by every radio: 41 tones
    in (-0.25, 0.25) of the sample rate.

    Wider than the capture filter, so the filter (not the emitter) sets the
    occupied band and every radio fills it. The tone grid is irregular, so
    no frequency offset maps the comb onto itself. Tone frequencies and
    phases come from a fixed generator seed: the preamble is a deterministic
    constant of the pipeline. Unit mean power.
    """
    n_tones, half_band = 41, 0.25
    rng = np.random.default_rng(20240518)
    freqs = np.sort(rng.uniform(-half_band, half_band, n_tones))
    phases = rng.uniform(0.0, 2.0 * np.pi, n_tones)
    n = np.arange(template_len)[:, None]
    tones = np.exp(1j * (2.0 * np.pi * freqs[None, :] * n + phases[None, :]))
    p = tones.sum(axis=1) / np.sqrt(n_tones)
    p.setflags(write=False)
    return p


def clean_template(template_len: int, time_constant: float) -> np.ndarray:
    """Unimpaired burst: turn-on ramp envelope over the multitone preamble."""
    return ramp_template(template_len, time_constant) * preamble(template_len)


def synth_burst(
    profile: EmitterProfile,
    template_len: int,
    seed,
) -> ComplexBurst:
    """Synthesize one burst for ``profile``.

    Impairments are applied in a fixed order: ramp envelope, IQ imbalance,
    third-order nonlinearity, frequency offset, phase-noise walk. The identity
    profile reproduces the clean ramp template exactly.
    """
    if template_len < MIN_BURST_LEN:
        raise InvalidLength(
            f"template_len {template_len} < minimum {MIN_BURST_LEN}"
        )
    rng = np.random.default_rng(seed)
    x = clean_template(template_len, profile.ramp_time_constant).astype(
        np.complex128
    )

    # IQ imbalance: quadrature arm gain/phase error relative to in-phase arm.
    g = profile.iq_gain_imbalance
    phi = profile.iq_phase_imbalance
    i, q = x.real, x.imag
    x = i + 1j * g * (q * np.cos(phi) + i * np.sin(phi))

    # Third-order PA nonlinearity.
    if profile.pa_nonlinearity != 0.0:
        x = x + profile.pa_nonlinearity * x * np.abs(x) ** 2

    # Carrier frequency offset.
    if profile.carrier_freq_offset != 0.0:
        n = np.arange(template_len)
        x = x * np.exp(2j * np.pi * profile.carrier_freq_offset * n)

    # Phase-noise random walk.
    if profile.phase_noise_std > 0.0:
        theta = np.cumsum(rng.normal(0.0, profile.phase_noise_std, template_len))
        x = x * np.exp(1j * theta)

    return ComplexBurst(x)


def _lowpass(x: np.ndarray, order: int, cutoff: float) -> np.ndarray:
    """``x`` through the low-pass Butterworth design (cascaded biquads);
    the spec is checked before the cache sees it."""
    if (not isinstance(order, numbers.Integral) or isinstance(order, bool)
            or order < 1):
        raise InvalidValue(f"filter order must be an integer >= 1, "
                           f"got {order!r}")
    if not (isinstance(cutoff, numbers.Real) and 0.0 < cutoff < 1.0):
        raise InvalidCutoff(f"cutoff {cutoff} outside (0, 1)")
    # scipy.signal is imported on first use, so commands that never filter
    # do not pay for importing it.
    from scipy.signal import sosfilt
    return sosfilt(_butter_design(order, cutoff), x)


@lru_cache(maxsize=None)
def _butter_design(order: int, cutoff: float):
    from scipy.signal import butter
    sos = butter(order, cutoff, btype="low", output="sos")
    sos.setflags(write=False)
    return sos


def butterworth_filter(burst: ComplexBurst, order: int = CAPTURE_FILTER[0],
                       cutoff: float = CAPTURE_FILTER[1]) -> ComplexBurst:
    """Forward-only low-pass Butterworth filter (cascaded biquads).

    ``cutoff`` is a fraction of the Nyquist frequency. An ``order`` that is
    not an integer >= 1 raises :class:`InvalidValue`, a cutoff outside
    (0, 1) :class:`InvalidCutoff`; ``add_awgn`` checks its ``filter_spec``
    the same way.
    """
    return ComplexBurst(_lowpass(burst.samples, order, cutoff))


def add_awgn(
    burst: ComplexBurst,
    snr_db: float,
    filter_spec: tuple[int, float] = CAPTURE_FILTER,
    seed=0,
) -> ComplexBurst:
    """Add like-filtered complex AWGN at the target post-filter SNR.

    Noise is shaped by the same Butterworth filter as the signal path and then
    rescaled so the ratio of burst power to filtered-noise power equals the
    target exactly. An SNR whose noise scale is not a finite positive
    float raises :class:`InvalidValue`.
    """
    p_sig = burst.power()
    if p_sig <= 0.0:
        raise DegenerateSignal("burst power is zero")
    order, cutoff = filter_spec
    rng = np.random.default_rng(seed)
    n = len(burst.samples)
    noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
    noise = _lowpass(noise, order, cutoff)
    p_noise = float(np.mean(np.abs(noise) ** 2))
    try:
        scale = np.sqrt(p_sig / (p_noise * 10.0 ** (snr_db / 10.0)))
    except (OverflowError, ZeroDivisionError):
        scale = 0.0
    if not 0.0 < scale < math.inf:
        raise InvalidValue(f"no finite noise scale gives SNR {snr_db} dB")
    return ComplexBurst(burst.samples + scale * noise)


# ---------------------------------------------------------------------------
# JSON input: cohort manifests, and the reader the config and reports share
# ---------------------------------------------------------------------------

def read_json(path, what: str):
    """The parsed JSON text of ``path``; a file that is missing, unreadable
    or not JSON raises :class:`InvalidValue` naming ``what``."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise InvalidValue(f"cannot read {what} {path}: {exc}") from None


def load_manifest(path) -> tuple[list[EmitterProfile], int]:
    """Profiles and burst count of ``{"n_bursts": N, "profiles": [...]}``,
    one object of :class:`EmitterProfile` fields per radio. A missing or
    malformed manifest raises :class:`InvalidValue`."""
    data = read_json(path, "manifest")
    if not isinstance(data, dict) or not isinstance(data.get("profiles"),
                                                    list):
        raise InvalidValue("manifest needs a \"profiles\" list")
    n_bursts = data.get("n_bursts")
    if type(n_bursts) is not int or n_bursts < 1:
        raise InvalidValue(
            f"manifest n_bursts must be a positive integer, got {n_bursts!r}")
    try:
        profiles = [EmitterProfile(**p) for p in data["profiles"]]
    except TypeError as exc:
        raise InvalidValue(f"bad manifest profile: {exc}") from None
    ids = [p.radio_id for p in profiles]
    if len(set(ids)) != len(ids):
        raise InvalidValue(f"manifest lists a radio_id twice: {ids}")
    return profiles, n_bursts
