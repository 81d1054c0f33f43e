"""Oversampled discrete Gabor transform of a transient block.

The transform consumes exactly M * N_delta samples of a burst, starting at the
aligned transient, and produces an M x K_G complex coefficient grid. The
analysis window is a circularly indexed Gaussian. The magnitude-squared grid
is normalized to [0, 1] and the frequency axis rotated so bin 0 sits at the
grid center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTF, InvalidLength, InvalidValue
from .signals import ComplexBurst


@dataclass(frozen=True)
class GaborParams:
    M: int = 150            # time shifts
    K_G: int = 150          # frequency shifts
    N_delta: int = 1        # step size
    window_sigma: float | None = None  # defaults to (M * N_delta) / 6
    block_index_l: int = 0

    def __post_init__(self):
        if self.M < 1 or self.K_G < 1 or self.N_delta < 1:
            raise InvalidValue("M, K_G, N_delta must be positive")
        if (self.M * self.N_delta) % self.K_G != 0:
            raise InvalidValue("(M * N_delta) must be a multiple of K_G")
        if self.K_G <= self.N_delta:
            raise InvalidValue("oversampling requires K_G > N_delta")

    @property
    def block_len(self) -> int:
        return self.M * self.N_delta

    @property
    def sigma(self) -> float:
        return self.window_sigma if self.window_sigma is not None else (
            self.block_len / 6.0
        )


@dataclass
class TimeFrequencyMatrix:
    values: np.ndarray      # M x K_G, real, normalized and centered


def gaussian_window(length: int, sigma: float) -> np.ndarray:
    """Circularly indexed Gaussian: entry j holds exp(-d^2 / (2 sigma^2))
    where d is the wrapped (signed-symmetric) offset of index j."""
    j = np.arange(length)
    d = np.where(j <= length // 2, j, j - length).astype(np.float64)
    return np.exp(-(d**2) / (2.0 * sigma**2))


def dgt(burst, params: GaborParams = GaborParams()) -> np.ndarray:
    """Compute the Gabor coefficient grid G[m, k] for m = 1..M, k = 0..K_G-1.

    G[m, k] = sum_{n=1}^{L} s(n + l*L) conj(nu(n - m*N_delta)) e^{-j 2 pi k n / K_G}
    with L = M * N_delta and circular (mod-L) window indexing.
    """
    samples = burst.samples if isinstance(burst, ComplexBurst) else np.asarray(
        burst, dtype=np.complex128
    )
    L = params.block_len
    start = params.block_index_l * L
    if len(samples) < start + L:
        raise InvalidLength(
            f"need {start + L} samples, burst has {len(samples)}"
        )
    s = np.asarray(samples[start:start + L], dtype=np.complex128)

    win = gaussian_window(L, params.sigma)
    n = np.arange(1, L + 1)
    m = np.arange(1, params.M + 1)
    idx = (n[None, :] - (m * params.N_delta)[:, None]) % L
    x = s[None, :] * np.conj(win[idx])

    # Fold the length-L sum onto K_G phase residues, then take a DFT. The
    # exponent depends on n only through n mod K_G; rolling by one aligns
    # array position 0 with residue 0 (n runs from 1, not 0).
    q = L // params.K_G
    folded = np.roll(x, 1, axis=1).reshape(params.M, q, params.K_G).sum(axis=1)
    return np.fft.fft(folded, axis=1)


def normalize_tf(G: np.ndarray) -> TimeFrequencyMatrix:
    """Centered, normalized magnitude-squared presentation of a DGT grid."""
    G = np.asarray(G)
    mag2 = np.abs(G) ** 2
    peak = mag2.max()
    if peak == 0.0:
        raise DegenerateTF("all-zero coefficient grid")
    values = np.fft.fftshift(mag2 / peak, axes=1)
    return TimeFrequencyMatrix(values=values)
