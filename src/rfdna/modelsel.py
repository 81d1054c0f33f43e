"""Margin-PMF model selection across the retained-feature-count sweep.

The chosen verifier for an authorized radio is picked without ever looking at
rogue fingerprints: only the authorized radio's own margins (positive class)
and the other authorized radios' margins (negative class) feed the decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, InvalidValue
from .featsel import bhattacharyya, check_count, class_histograms
from .svm import SvmModel, margin

TVR_GATE, FVR_GATE = 0.90, 0.10  # pass at TVR >= 90% and FVR <= 10%


@dataclass
class MarginPmfPair:
    pmf_pos: np.ndarray
    pmf_neg: np.ndarray
    bin_edges: np.ndarray
    mean_pos: float
    mean_neg: float
    var_pos: float
    var_neg: float
    bc: float


@dataclass
class CandidateModel:
    model: SvmModel
    n_r: int
    tvr_train: float
    fvr_others_train: float
    pmf_pair: MarginPmfPair
    meta: dict = field(default_factory=dict)


def build_margin_pmfs(
    model: SvmModel,
    authorized_fps: np.ndarray,
    other_fps: np.ndarray,
    bins: int = 100,
) -> MarginPmfPair:
    """Histogram the verifier margins of both classes over shared bin edges.

    Margins use y = +1 for the authorized radio and y = -1 for the others.
    PMF means/variances are the empirical moments of the margin samples."""
    check_count("bins", bins, 1, InvalidValue)
    authorized_fps = np.atleast_2d(authorized_fps)
    other_fps = np.atleast_2d(other_fps)
    if authorized_fps.size == 0 or other_fps.size == 0:
        raise InvalidInput("both fingerprint sets must be non-empty")
    m_pos = margin(model, authorized_fps, +1)
    m_neg = margin(model, other_fps, -1)
    (pmf_pos,), (pmf_neg,), (edges,) = class_histograms(
        m_pos[:, None], m_neg[:, None], bins)
    return MarginPmfPair(
        pmf_pos=pmf_pos, pmf_neg=pmf_neg, bin_edges=edges,
        mean_pos=float(m_pos.mean()), mean_neg=float(m_neg.mean()),
        var_pos=float(m_pos.var()), var_neg=float(m_neg.var()),
        bc=bhattacharyya(pmf_pos, pmf_neg),
    )


def model_quality(pair: MarginPmfPair) -> tuple[float, float, float]:
    """(distance between PMF means, overlap coefficient, summed variance)."""
    mean_distance = abs(pair.mean_pos - pair.mean_neg)
    variance_sum = pair.var_pos + pair.var_neg
    return mean_distance, pair.bc, variance_sum


def passes_gate(cand: CandidateModel) -> bool:
    """Training TVR and others-FVR within the gates."""
    return cand.tvr_train >= TVR_GATE and cand.fvr_others_train <= FVR_GATE


def select_best(candidates: list[CandidateModel]) -> CandidateModel:
    """Gate with :func:`passes_gate`, then choose lexicographically: smallest
    overlap, largest mean distance, smallest summed variance, smallest
    retained count. With no gate survivor, fall back to the highest-TVR
    candidate (ties toward fewer features)."""
    if not candidates:
        raise InvalidInput("empty candidate list")
    survivors = [cand for cand in candidates if passes_gate(cand)]
    if survivors:
        def key(cand: CandidateModel):
            mean_distance, bc, variance_sum = model_quality(cand.pmf_pair)
            return (bc, -mean_distance, variance_sum, cand.n_r)
        return min(survivors, key=key)
    return min(candidates, key=lambda cand: (-cand.tvr_train, cand.n_r))


def export_candidates(candidates, selected, path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "n_r", "tvr_train", "fvr_others_train", "bc", "mean_distance",
            "variance_sum", "selected",
        ])
        for cand in candidates:
            mean_distance, bc, variance_sum = model_quality(cand.pmf_pair)
            writer.writerow([
                cand.n_r, repr(cand.tvr_train), repr(cand.fvr_others_train),
                repr(bc), repr(mean_distance), repr(variance_sum),
                int(cand is selected),
            ])
