"""Per-radio feature selection: eight ranking/projection methods.

Every method consumes a two-class labeled fingerprint set (class 1 is the
radio whose identity is under verification, class 2 is every other authorized
radio) and returns either a ranked feature order or a linear projection basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import stdtr

from .errors import InvalidValue, NumericalFailure, check_count
from .svm import standardize


@dataclass
class LabeledFingerprintSet:
    """Training matrix plus per-row class labels (1 or 2)."""

    X: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        labels = np.asarray(self.labels)
        if self.X.ndim != 2 or len(labels) != self.X.shape[0]:
            raise InvalidValue("matrix/label shape mismatch")
        if not np.all(np.isfinite(self.X)):
            raise InvalidValue("non-finite features")
        # Checked before the integer cast, which would truncate 1.9 to 1.
        if not np.all(np.isin(labels, (1, 2))):
            raise InvalidValue("labels must be 1 or 2")
        self.labels = labels.astype(np.int64)
        if self.n1 == 0 or self.n2 == 0:
            raise InvalidValue("both classes must be non-empty")

    @property
    def n1(self) -> int:
        return int(np.sum(self.labels == 1))

    @property
    def n2(self) -> int:
        return int(np.sum(self.labels == 2))

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def X1(self) -> np.ndarray:
        return self.X[self.labels == 1]

    @property
    def X2(self) -> np.ndarray:
        return self.X[self.labels == 2]


@dataclass
class FeatureRanking:
    scores: np.ndarray              # one score per feature, feature-indexed
    order: np.ndarray               # best-first feature indices
    meta: dict = field(default_factory=dict)


@dataclass
class ProjectionBasis:
    basis: np.ndarray               # (n_features, n_components)
    mean: np.ndarray                # centering vector


def _default_bins(n_rows: int) -> int:
    return max(2, int(np.ceil(np.sqrt(n_rows))))


def class_histograms(A: np.ndarray, B: np.ndarray, bins: int):
    """``(pa, pb, edges)``: (f, bins) per-class probabilities of every column
    of ``A`` and ``B`` over (f, bins + 1) shared edges spanning the column's
    pooled range, or (v - 0.5, v + 0.5) where both classes hold one constant
    v. Bins are half-open except the last, as in ``np.histogram``."""
    lo = np.minimum(A.min(axis=0), B.min(axis=0))
    hi = np.maximum(A.max(axis=0), B.max(axis=0))
    flat = hi <= lo
    edges = np.linspace(np.where(flat, lo - 0.5, lo),
                        np.where(flat, hi + 0.5, hi), bins + 1, axis=-1)
    f = edges.shape[0]
    offset = bins * np.arange(f)

    def probabilities(X):
        idx = np.sum(X[:, :, None] >= edges[:, 1:-1], axis=2) + offset
        counts = np.bincount(idx.ravel(), minlength=f * bins)
        return counts.reshape(f, bins) / len(X)

    return probabilities(A), probabilities(B), edges


def bhattacharyya(p: np.ndarray, q: np.ndarray):
    """sum(sqrt(p q)) over the last axis: a float for two PMFs."""
    bc = np.sum(np.sqrt(np.asarray(p) * np.asarray(q)), axis=-1)
    return float(bc) if bc.ndim == 0 else bc


# ---------------------------------------------------------------------------
# DRA
# ---------------------------------------------------------------------------

def rank_dra(relevance) -> FeatureRanking:
    """Rank by a relevance vector with entries in [0, 1], descending.
    Ties break toward the lower feature index."""
    lam = np.asarray(relevance, dtype=np.float64)
    if lam.ndim != 1:
        raise InvalidValue("relevance must be a vector")
    if np.any(lam < 0) or np.any(lam > 1) or not np.all(np.isfinite(lam)):
        raise InvalidValue("relevance entries must lie in [0, 1]")
    order = np.argsort(-lam, kind="stable")
    return FeatureRanking(scores=lam, order=order)


def train_grlvq_relevance(
    fset: LabeledFingerprintSet,
    epochs: int = 20,
    seed=0,
) -> np.ndarray:
    """Relevance-learning vector quantization surrogate.

    One prototype per class; relevance entries are updated multiplicatively
    from the signed gradient of the relative-distance cost, renormalized to
    sum 1 after every update, and finally rescaled to a maximum of 1.
    Prototypes learn at rate 0.05, relevances at 0.01.
    """
    check_count("epochs", epochs, 1)
    rng = np.random.default_rng(seed)
    X, y = fset.X, fset.labels
    n, f = X.shape
    eps_p, eps_l = 0.05, 0.01

    Z = standardize(X)[0]   # no feature dominates distances by raw scale

    protos = np.stack([Z[y == 1].mean(axis=0), Z[y == 2].mean(axis=0)])
    protos += rng.normal(0, 1e-3, protos.shape)
    lam = np.full(f, 1.0 / f)

    for _ in range(epochs):
        for i in rng.permutation(n):
            x = Z[i]
            own = 0 if y[i] == 1 else 1
            p_own, p_oth = protos[own], protos[1 - own]     # row views
            diff_own, diff_oth = x - p_own, x - p_oth
            d_own_v = diff_own**2
            d_oth_v = diff_oth**2
            d_own = float(lam @ d_own_v)
            d_oth = float(lam @ d_oth_v)
            denom = d_own + d_oth
            if denom <= 0:
                continue
            xi_own = d_oth / denom**2
            xi_oth = d_own / denom**2
            p_own += eps_p * xi_own * lam * diff_own
            p_oth -= eps_p * xi_oth * lam * diff_oth
            grad = xi_own * d_own_v - xi_oth * d_oth_v
            lam = lam * np.exp(-eps_l * grad)
            lam /= lam.sum()

    return lam / lam.max()


# ---------------------------------------------------------------------------
# LDA / PCA
# ---------------------------------------------------------------------------

def project_lda(fset: LabeledFingerprintSet) -> ProjectionBasis:
    """Fisher discriminant direction w = S_w^-1 (mu1 - mu2), stabilized by a
    ridge of 1e-6 times the mean diagonal of S_w."""
    X1, X2 = fset.X1, fset.X2
    mu1, mu2 = X1.mean(axis=0), X2.mean(axis=0)
    d1, d2 = X1 - mu1, X2 - mu2
    s_w = d1.T @ d1 + d2.T @ d2
    f = fset.n_features
    eps = 1e-6 * np.trace(s_w) / f
    s_w = s_w + eps * np.eye(f)
    try:
        w = np.linalg.solve(s_w, mu1 - mu2)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("within-class scatter not invertible") from exc
    if not np.all(np.isfinite(w)):
        raise NumericalFailure("within-class scatter ill-conditioned")
    return ProjectionBasis(basis=w.reshape(-1, 1), mean=np.zeros(f))


def project_pca(fset: LabeledFingerprintSet, n_r: int) -> ProjectionBasis:
    """Top-n_r eigenvectors of the mean-removed covariance, eigenvalue
    descending; component signs fixed so the largest-magnitude loading is
    positive.

    Only components above the rounding floor n * eps * lambda_max (n pool
    rows) are kept, so a pool of numerical rank below ``n_r`` gives fewer
    than ``n_r`` columns; a pool of equal rows is refused."""
    f = fset.n_features
    check_count("n_r", n_r, 1)
    if n_r > f:
        raise InvalidValue(f"n_r must lie in [1, {f}]")
    n = fset.X.shape[0]
    mean = fset.X.mean(axis=0)
    Xc = fset.X - mean
    cov = (Xc.T @ Xc) / n
    evals, evecs = np.linalg.eigh(cov)
    idx = np.argsort(evals)[::-1][:n_r]
    idx = idx[evals[idx] > n * np.finfo(np.float64).eps * evals[-1]]
    if len(idx) == 0 or np.all(fset.X == fset.X[0]):
        raise InvalidValue("pool has no variance above rounding")
    basis = evecs[:, idx]
    peak = basis[np.argmax(np.abs(basis), axis=0), np.arange(len(idx))]
    basis *= np.where(peak < 0, -1.0, 1.0)
    return ProjectionBasis(basis=basis, mean=mean)


# ---------------------------------------------------------------------------
# NCA
# ---------------------------------------------------------------------------

# NCA holds |Z_i - Z_j| once per pair i < j, in np.triu_indices order.
# Bytes of the leading rows' pairs that one fit builds once and keeps: every
# pair of a 64 x 204 pool (3.3 MB), the first 14 rows' pairs of a 720 x 204
# pool.
_NCA_KEEP_BYTES = 16 << 20


def _nca_row(Z, i, out):
    """Row i's pairs |Z_i - Z_j|, j > i, built into ``out``."""
    np.subtract(Z[i], Z[i + 1:], out=out)
    return np.abs(out, out=out)


def _nca_pairs(Z):
    """The pair list of an NCA fit over the rows of Z, built once per fit:
    ``(I, J, starts, kept)``. ``I, J = np.triu_indices(n, 1)``, and row i's
    pairs are ``starts[i]:starts[i + 1]``. ``kept`` holds |Z_i - Z_j| for
    the pairs of the leading rows, as many whole rows as fit in
    _NCA_KEEP_BYTES."""
    n, f = Z.shape
    I, J = np.triu_indices(n, 1)
    starts = np.searchsorted(I, np.arange(n))
    rows = np.searchsorted(starts, _NCA_KEEP_BYTES // (8 * f), "right") - 1
    kept = np.empty((starts[rows], f))
    for i in range(rows):
        _nca_row(Z, i, kept[starts[i]:starts[i + 1]])
    return I, J, starts, kept


def _nca_objective_and_grad(Z, y, w, lam_r, pairs):
    """Leave-one-out soft error and its gradient in w, over the pairs i < j.

    Row i's loss is s_i = sum_j p_ij l_ij, where p_i is the softmax of
    -|Z_i - Z| weighted by w**2 (p_ii = 0) and l_ij = 1 for another class.
    The gradient is -2 w * sum_{i<j} (p_ij (l_ij - s_i) + p_ji (l_ij - s_j))
    |Z_i - Z_j|. A row whose kernel sum is zero or non-finite adds nothing.
    ``pairs`` is ``_nca_pairs(Z)``; the pairs of each row past its kept rows
    are rebuilt into one reused buffer, once for the distances and once for
    the gradient.
    """
    I, J, starts, kept = pairs
    n, f = Z.shape
    u = w**2
    buf = np.empty((n - 1, f))

    def blocks():
        """(pairs, their |Z_i - Z_j|): the kept pairs, then each later row."""
        yield slice(0, len(kept)), kept
        for i in range(np.searchsorted(starts, len(kept)), n - 1):
            yield (slice(starts[i], starts[i + 1]),
                   _nca_row(Z, i, buf[:n - 1 - i]))

    d = np.empty(len(I))
    for q, D in blocks():
        np.matmul(D, u, out=d[q])
    k = np.exp(np.negative(d, out=d), out=d)
    tot = np.bincount(I, k, n) + np.bincount(J, k, n)
    ok = tot > 0          # false for a zero or NaN sum; k <= 1, so no inf
    p_ij = np.divide(k, tot[I], out=np.zeros(len(I)), where=ok[I])
    p_ji = np.divide(k, tot[J], out=np.zeros(len(I)), where=ok[J])
    other = y[I] != y[J]
    s = np.bincount(I, p_ij * other, n) + np.bincount(J, p_ji * other, n)
    loss = s.sum() / n + lam_r * np.sum(u)
    weight = p_ij * (other - s[I]) + p_ji * (other - s[J])
    gsum = np.zeros(f)
    # A pair of two dropped rows has weight 0. Its |Z_i - Z_j| is NaN only
    # when Z holds a NaN, and then every row is dropped.
    if ok.any():
        for q, D in blocks():
            gsum += weight[q] @ D
    grad = (-2.0 * w) * gsum / n + 2.0 * lam_r * w
    return loss, grad


def rank_nca(
    fset: LabeledFingerprintSet,
    iterations: int = 200,
) -> FeatureRanking:
    """Neighborhood component analysis feature weights.

    Minimizes the leave-one-out soft error (kernel width 1), regularized by
    1/n times the squared weight norm, over per-feature weights with gradient
    descent; a halving backstep keeps the objective non-increasing. Scores
    are the squared weights, descending.

    A fit over n rows and f features holds the n(n-1)/2 * f * 8 bytes of
    |Z_i - Z_j|, one per pair i < j, up to a 16 MiB budget (all of a
    64 x 204 pool, 3.3 MB), built once; pairs past the budget are rebuilt
    at every evaluation, one row at a time.
    """
    check_count("iterations", iterations, 1)
    X, y = fset.X, fset.labels
    n, f = X.shape
    lam_r = 1.0 / n
    Z = standardize(X)[0]
    pairs = _nca_pairs(Z)

    w = np.ones(f)
    step = 1.0 / n
    obj, grad = _nca_objective_and_grad(Z, y, w, lam_r, pairs)
    history = [obj]
    for _ in range(iterations):
        if not np.isfinite(obj):
            raise NumericalFailure("NCA objective became non-finite")
        trial_step = step
        for _ in range(30):
            w_new = w - trial_step * grad
            obj_new, grad_new = _nca_objective_and_grad(Z, y, w_new, lam_r,
                                                         pairs)
            if obj_new <= obj + 1e-12:
                break
            trial_step *= 0.5
        else:
            break  # no improving step at any scale: converged
        w, obj, grad = w_new, obj_new, grad_new
        history.append(obj)
        if np.linalg.norm(trial_step * grad) < 1e-10:
            break

    scores = w**2
    order = np.argsort(-scores, kind="stable")
    return FeatureRanking(
        scores=scores, order=order,
        meta={"objective_history": history},
    )


# ---------------------------------------------------------------------------
# POEACC
# ---------------------------------------------------------------------------

def _poe_per_feature(fset: LabeledFingerprintSet, bins: int) -> np.ndarray:
    """Histogram-overlap Bayes-error estimate per feature, with class priors."""
    n = fset.X.shape[0]
    p1, p2, _ = class_histograms(fset.X1, fset.X2, bins)
    return np.sum(np.minimum(fset.n1 / n * p1, fset.n2 / n * p2), axis=1)


def rank_poeacc(fset: LabeledFingerprintSet) -> FeatureRanking:
    """Greedy probability-of-error + average-correlation ranking.

    The first feature minimizes the normalized POE; each later pick minimizes
    the equally weighted sum of its normalized POE and its normalized mean
    absolute correlation to the features already selected.
    """
    n, f = fset.X.shape
    poe = _poe_per_feature(fset, _default_bins(n))
    span = poe.max() - poe.min()
    rho_bar = (poe - poe.min()) / span if span > 0 else np.zeros(f)

    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.abs(np.corrcoef(fset.X, rowvar=False))
    corr[~np.isfinite(corr)] = 0.0   # zero-variance features contribute 0

    order = np.empty(f, dtype=np.int64)
    scores = np.empty(f)
    remaining = np.ones(f, dtype=bool)

    first = int(np.argmin(rho_bar))
    order[0] = first
    scores[first] = rho_bar[first]
    remaining[first] = False
    acc_sum = corr[:, first].copy()

    for step in range(1, f):
        rem = np.nonzero(remaining)[0]
        acc = acc_sum[rem] / step
        span = acc.max() - acc.min()
        acc_norm = (acc - acc.min()) / span if span > 0 else np.zeros(len(rem))
        combined = 0.5 * rho_bar[rem] + 0.5 * acc_norm
        pick = rem[int(np.argmin(combined))]
        order[step] = pick
        scores[pick] = combined[int(np.argmin(combined))]
        remaining[pick] = False
        acc_sum += corr[:, pick]

    return FeatureRanking(scores=scores, order=order)


# ---------------------------------------------------------------------------
# Bhattacharyya coefficient
# ---------------------------------------------------------------------------

def rank_bc(fset: LabeledFingerprintSet, bins: int | None = None) -> FeatureRanking:
    """Per-feature class-histogram overlap; least overlap ranks first."""
    if bins is None:
        bins = _default_bins(fset.X.shape[0])
    check_count("bins", bins, 2)
    p1, p2, _ = class_histograms(fset.X1, fset.X2, bins)
    bc = bhattacharyya(p1, p2)
    order = np.argsort(bc, kind="stable")
    return FeatureRanking(scores=bc, order=order)


# ---------------------------------------------------------------------------
# Welch t-test
# ---------------------------------------------------------------------------

def _sample_moments(x):
    """(count, mean, ddof-1 variance) of each column of a sample, or of a
    1-D sample. Each column is summed as one contiguous row, the order a
    1-D sample sums in."""
    rows = np.ascontiguousarray(np.asarray(x, dtype=np.float64).T)
    return rows.shape[-1], rows.mean(axis=-1), rows.var(axis=-1, ddof=1)


def welch_t(a: np.ndarray, b: np.ndarray):
    """Welch t and Welch-Satterthwaite degrees of freedom of each column
    (0-d arrays for 1-D samples). A zero standard error gives t = +-inf, or
    0 for equal means, with n1 + n2 - 2 degrees of freedom."""
    (n1, m1, v1), (n2, m2, v2) = _sample_moments(a), _sample_moments(b)
    se2 = v1 / n1 + v2 / n2
    dmean = m1 - m2
    zero = se2 == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(zero & (dmean == 0), 0.0, dmean / np.sqrt(se2))
        dof = np.where(zero, float(n1 + n2 - 2), se2**2 / (
            v1**2 / ((n1 - 1) * n1**2) + v2**2 / ((n2 - 1) * n2**2)))
    return t, dof


def rank_ttest(fset: LabeledFingerprintSet) -> FeatureRanking:
    """Two-sided Welch t-test per feature; order by ascending p-value.

    A feature with zero variance in both classes carries p = 1 and is
    flagged as excluded if its class means are equal, and p = 0 otherwise.
    """
    if fset.n1 < 2 or fset.n2 < 2:
        raise InvalidValue("both classes need at least 2 samples")
    X1, X2 = fset.X1, fset.X2
    t, dof = welch_t(X1, X2)
    excluded = ((t == 0.0) & (_sample_moments(X1)[2] == 0)
                & (_sample_moments(X2)[2] == 0))
    # stdtr(dof, -|t|) is scipy.stats.t.sf(|t|, dof), without its import.
    pvals = 2.0 * stdtr(dof, -np.abs(t))
    pvals[np.isinf(t)] = 0.0
    pvals[excluded] = 1.0
    order = np.argsort(pvals, kind="stable")
    return FeatureRanking(
        scores=pvals, order=order,
        meta={"t": t, "excluded_features": np.flatnonzero(excluded)},
    )


# ---------------------------------------------------------------------------
# Relief-F
# ---------------------------------------------------------------------------

def rank_relieff(fset: LabeledFingerprintSet, n_k: int = 10) -> FeatureRanking:
    """Deterministic full-pass Relief-F weights.

    Every training row serves once as the reference. Nearest hits/misses use
    Euclidean distance over all features; the per-feature difference is
    normalized by that feature's max-min over the whole training set (a
    constant feature contributes zero). Weights rank descending.
    """
    check_count("n_k", n_k, 1)
    X, y = fset.X, fset.labels
    n, f = X.shape
    for c in (1, 2):
        if np.sum(y == c) < n_k + 1:
            raise InvalidValue(f"class {c} needs at least {n_k + 1} members")
    span = X.max(axis=0) - X.min(axis=0)
    scale = np.where(span > 0, span, np.inf)   # constant feature -> diff 0

    sq = np.sum(X**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.fill_diagonal(d2, np.inf)

    # Sum the references in an order set by their contents (class, then raw
    # row bytes), so the weights do not depend on the order rows are stored.
    rows = np.ascontiguousarray(X).view(np.dtype((np.void, X.itemsize * f)))
    by_row = np.argsort(rows.ravel(), kind="stable")
    refs = by_row[np.argsort(y[by_row], kind="stable")]

    priors = {c: float(np.mean(y == c)) for c in (1, 2)}
    pools = {c: np.nonzero(y == c)[0] for c in (1, 2)}
    w = np.zeros(f)
    for i in refs:
        ci = y[i]
        cj = 3 - ci
        hit_pool, miss_pool = pools[ci], pools[cj]
        hits = hit_pool[np.argsort(d2[i, hit_pool], kind="stable")[:n_k]]
        misses = miss_pool[np.argsort(d2[i, miss_pool], kind="stable")[:n_k]]
        diff_h = np.abs(X[hits] - X[i]) / scale
        diff_m = np.abs(X[misses] - X[i]) / scale
        w -= diff_h.sum(axis=0) / (n * n_k)
        w += (priors[cj] / (1.0 - priors[ci])) * diff_m.sum(axis=0) / (n * n_k)

    order = np.argsort(-w, kind="stable")
    return FeatureRanking(scores=w, order=order)


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------

def select_top(ranking: FeatureRanking, n_r: int) -> np.ndarray:
    check_count("n_r", n_r, 1)
    if n_r > len(ranking.order):
        raise InvalidValue(f"n_r {n_r} exceeds ranked count "
                           f"{len(ranking.order)}")
    return ranking.order[:n_r].copy()
