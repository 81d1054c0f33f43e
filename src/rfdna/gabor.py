"""Oversampled discrete Gabor transform of a transient block.

The transform consumes exactly M * N_delta samples of a burst, starting at the
aligned transient, and produces an M x K_G complex coefficient grid. The
analysis window is a circularly indexed Gaussian. The magnitude-squared grid
is normalized to [0, 1] and the frequency axis rotated so bin 0 sits at the
grid center.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateTF, InvalidLength, InvalidValue
from .signals import ComplexBurst


@dataclass(frozen=True)
class GaborParams:
    M: int = 150            # time shifts
    K_G: int = 150          # frequency shifts
    N_delta: int = 1        # step size
    window_sigma: float | None = None  # defaults to (M * N_delta) / 6

    def __post_init__(self):
        for name in ("M", "K_G", "N_delta"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or isinstance(v, bool):
                raise InvalidValue(f"{name} must be an integer, got {v!r}")
        if self.M < 1 or self.K_G < 1 or self.N_delta < 1:
            raise InvalidValue("M, K_G, N_delta must be positive")
        sigma = self.window_sigma
        if sigma is not None and not (
                isinstance(sigma, numbers.Real) and not isinstance(sigma, bool)
                and math.isfinite(sigma) and sigma > 0):
            raise InvalidValue(
                f"window_sigma must be None or a finite float > 0, "
                f"got {sigma!r}")
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


@lru_cache(maxsize=None)
def _analysis_matrix(params: GaborParams) -> np.ndarray:
    """The M x L conjugated windows conj(nu(n - m*N_delta)), rolled by one
    column as :func:`dgt` folds them; built once per parameter set and
    read-only, because every caller shares it."""
    L = params.block_len
    win = gaussian_window(L, params.sigma)
    n = np.arange(1, L + 1)
    m = np.arange(1, params.M + 1)
    idx = (n[None, :] - (m * params.N_delta)[:, None]) % L
    W = np.roll(np.conj(win[idx]), 1, axis=1)
    W.setflags(write=False)
    return W


def dgt(burst, params: GaborParams = GaborParams()) -> np.ndarray:
    """Compute the Gabor coefficient grid G[m, k] for m = 1..M, k = 0..K_G-1.

    G[m, k] = sum_{n=1}^{L} s(n) conj(nu(n - m*N_delta)) e^{-j 2 pi k n / K_G}
    with L = M * N_delta and circular (mod-L) window indexing, over the
    burst's first L samples.
    """
    samples = burst.samples if isinstance(burst, ComplexBurst) else np.asarray(
        burst, dtype=np.complex128
    )
    L = params.block_len
    if len(samples) < L:
        raise InvalidLength(f"need {L} samples, burst has {len(samples)}")
    s = np.asarray(samples[:L], dtype=np.complex128)

    # Fold the length-L sum onto K_G phase residues, then take a DFT. The
    # exponent depends on n only through n mod K_G; rolling by one aligns
    # array position 0 with residue 0 (n runs from 1, not 0). The analysis
    # matrix is stored rolled, so rolling the samples rolls each product.
    q = L // params.K_G
    x = np.roll(s, 1)[None, :] * _analysis_matrix(params)
    folded = x.reshape(params.M, q, params.K_G).sum(axis=1)
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
