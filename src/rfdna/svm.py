"""Two-class soft-margin RBF SVM verifier.

The dual problem is solved by sequential pairwise optimization: at each step
the maximally KKT-violating pair is updated analytically within its box
constraints while the equality constraint is preserved. Class 1 (the radio
under verification) maps to y = +1, class 2 to y = -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidValue, TrainingFailed, is_real

_TOLERANCE = 1e-3
_MAX_UPDATES = 1_000_000


@dataclass
class SvmModel:
    support_vectors: np.ndarray       # rows in scaled feature space
    dual_coeffs: np.ndarray           # alpha_j * y_j
    bias: float
    kernel_zeta: float
    cost_c: float = 1.0
    feature_indices: np.ndarray | None = None
    scaler_mean: np.ndarray | None = None
    scaler_scale: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def rbf_kernel(A: np.ndarray, B: np.ndarray, zeta: float) -> np.ndarray:
    a2 = np.sum(A**2, axis=1)[:, None]
    b2 = np.sum(B**2, axis=1)[None, :]
    d2 = np.maximum(a2 + b2 - 2.0 * (A @ B.T), 0.0)
    return np.exp(-zeta * d2)


def standardize(X: np.ndarray):
    """Column standardizer: ``(Z, mean, scale)`` with
    ``Z = (X - mean) / scale``; a constant column gets scale 1."""
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0] = 1.0
    return (X - mean) / scale, mean, scale


def train_svm(
    X: np.ndarray,
    labels: np.ndarray,
    c: float = 1.0,
    *,
    zeta: float,
    feature_indices=None,
) -> SvmModel:
    """Train the verifier on raw (unscaled) feature rows.

    ``labels`` holds class tags 1/2 or y values +1/-1. A per-feature
    standardizer is fit on the training rows and stored with the model; the
    kernel is exp(-zeta * d^2) over standardized distances d. Training
    stops once the gap of the maximally violating pair falls below 1e-3,
    which bounds every row's KKT violation by that gap;
    ``diagnostics["kkt_gap"]`` is that gap when training stops (0.0 when
    either index set is empty).
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    if X.ndim != 2 or labels.shape != (len(X),):
        raise InvalidValue(f"need 2-D rows and one label per row, got X "
                           f"{X.shape} and labels {labels.shape}")
    if not (np.all(np.isin(labels, (1, 2)))
            or np.all(np.isin(labels, (1, -1)))):
        raise InvalidValue("labels must all be class tags 1/2 or all be "
                           "+1/-1")
    # Class tag 1 and label +1 both map to y = +1; tag 2 / label -1 to y = -1.
    y = np.where(labels == 1, 1.0, -1.0)
    n = len(X)
    if not np.all(np.isfinite(X)):
        raise InvalidValue("non-finite features")
    if len(np.unique(y)) < 2:
        raise InvalidValue("both classes must be present")
    for name, value in (("c", c), ("zeta", zeta)):
        if not (is_real(value) and value > 0):
            raise InvalidValue(f"{name} must be a finite number > 0, "
                               f"got {value!r}")

    Z, mean, scale = standardize(X)
    K = rbf_kernel(Z, Z, zeta)     # bitwise symmetric: row K[i] is column i

    # The solver state is yg = -y * grad, where grad = Q alpha - e is the
    # gradient of 1/2 a'Qa - e'a and Q = yy' * K (never formed). yg_up and
    # yg_low are copies masked to -inf outside the up set and to +inf
    # outside the low set. An update moves only rows i and j between sets,
    # so only they are refreshed.
    alpha = np.zeros(n)
    yg = y.copy()
    up = ((y > 0) & (alpha < c - 1e-12)) | ((y < 0) & (alpha > 1e-12))
    low = ((y > 0) & (alpha > 1e-12)) | ((y < 0) & (alpha < c - 1e-12))
    yg_up = np.where(up, yg, -np.inf)
    yg_low = np.where(low, yg, np.inf)
    n_updates = 0
    converged = False

    while n_updates < _MAX_UPDATES:
        i = int(yg_up.argmax())
        j = int(yg_low.argmin())
        if yg_up[i] == -np.inf or yg_low[j] == np.inf:
            converged = True
            break
        gap = yg[i] - yg[j]
        if gap < _TOLERANCE:
            converged = True
            break

        quad = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if quad <= 1e-12:
            quad = 1e-12
        d = gap / quad
        # Box limits: alpha_i + y_i d in [0, c], alpha_j - y_j d in [0, c].
        if y[i] > 0:
            d = min(d, c - alpha[i])
        else:
            d = min(d, alpha[i])
        if y[j] > 0:
            d = min(d, alpha[j])
        else:
            d = min(d, c - alpha[j])
        if d <= 0:
            converged = True
            break
        alpha[i] += y[i] * d
        alpha[j] -= y[j] * d
        # grad += Q[:, i] y_i d - Q[:, j] y_j d, in yg form; y = +-1 makes
        # the sign changes exact, so the rounding is the gradient's own.
        step = K[j] * d - K[i] * d
        yg += step
        yg_up += step
        yg_low += step
        for r in (i, j):
            if y[r] > 0:
                is_up, is_low = alpha[r] < c - 1e-12, alpha[r] > 1e-12
            else:
                is_up, is_low = alpha[r] > 1e-12, alpha[r] < c - 1e-12
            yg_up[r] = yg[r] if is_up else -np.inf
            yg_low[r] = yg[r] if is_low else np.inf
        n_updates += 1

    hi, lo = yg_up.max(), yg_low.min()
    kkt_gap = float(hi - lo) if hi > -np.inf and lo < np.inf else 0.0
    free = (alpha > 1e-8) & (alpha < c - 1e-8)
    if free.any():
        bias = float(np.mean(yg[free]))
    else:
        bias = float(((hi if hi > -np.inf else 0.0)
                      + (lo if lo < np.inf else 0.0)) / 2.0)

    sv = alpha > 1e-12
    # Dual objective in maximization form: e'a - 1/2 a'Qa, where
    # a'Qa = v'Kv with v = alpha * y.
    v = alpha * y
    dual_objective = float(alpha.sum() - 0.5 * v @ (K @ v))
    diagnostics = {
        "n_updates": n_updates,
        "converged": converged,
        "dual_objective": dual_objective,
        "kkt_gap": kkt_gap,
    }
    model = SvmModel(
        support_vectors=Z[sv],
        dual_coeffs=alpha[sv] * y[sv],
        bias=bias,
        kernel_zeta=zeta,
        cost_c=c,
        feature_indices=(
            None if feature_indices is None
            else np.asarray(feature_indices, dtype=np.int64)
        ),
        scaler_mean=mean,
        scaler_scale=scale,
        diagnostics=diagnostics,
    )
    if not converged:
        raise TrainingFailed(
            f"no convergence after {n_updates} pair updates", model=model)
    return model


def svm_score(model: SvmModel, fp: np.ndarray):
    """Decision value(s): sum_j alpha_j y_j K(sv_j, fp) + bias.

    Accepts a single retained-feature fingerprint or a matrix of rows, in the
    raw (unscaled) retained-feature space."""
    fp = np.asarray(fp, dtype=np.float64)
    single = fp.ndim == 1
    rows = fp.reshape(1, -1) if single else fp
    if rows.shape[1] != model.support_vectors.shape[1]:
        raise InvalidValue(f"expected {model.support_vectors.shape[1]} "
                           f"features, got {rows.shape[1]}")
    Z = (rows - model.scaler_mean) / model.scaler_scale
    k = rbf_kernel(Z, model.support_vectors, model.kernel_zeta)
    scores = k @ model.dual_coeffs + model.bias
    return float(scores[0]) if single else scores


def svm_decide(model: SvmModel, fp: np.ndarray):
    """+1 for authorized, -1 otherwise; a score of exactly 0 rejects."""
    s = svm_score(model, fp)
    if np.isscalar(s):
        return 1 if s > 0 else -1
    return np.where(s > 0, 1, -1)


def margin(model: SvmModel, fp: np.ndarray, y):
    """Signed scaled distance from the boundary: m = 2 y f(fp)."""
    y_arr = np.asarray(y)
    if not np.all(np.isin(y_arr, (-1, 1))):
        raise InvalidValue("y must be +1 or -1")
    return 2.0 * y_arr * svm_score(model, fp)
