"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way (explicit sums, extended
precision, literal loops) so agreement with the package implementations is
meaningful evidence of correctness rather than a tautology.
"""

import numpy as np

from rfdna import harness, svm
from rfdna.errors import (InvalidModel, InvalidValue, MissingData,
                          TrainingFailed)
from rfdna.featsel import LabeledFingerprintSet
from rfdna.fingerprint import Fingerprint, FingerprintStore, gen_fingerprint
from rfdna.gabor import GaborParams, dgt, gaussian_window, normalize_tf
from rfdna.modelsel import (CandidateModel, build_margin_pmfs, passes_gate,
                            select_best)
from rfdna.signals import add_awgn, butterworth_filter, synth_burst


def dgt_direct(samples, params: GaborParams) -> np.ndarray:
    """Direct evaluation of the Gabor coefficient sum.

    G[m, k] = sum_{n=1}^{L} s(n) conj(nu(n - m N_delta)) e^{-j 2 pi k n / K_G}

    computed as an explicit matrix of exponentials times the windowed signal,
    with no folding and no FFT.
    """
    L = params.block_len
    s = np.asarray(samples, dtype=np.complex128)[:L]
    win = gaussian_window(L, params.sigma)
    n = np.arange(1, L + 1)
    m = np.arange(1, params.M + 1)
    k = np.arange(params.K_G)
    x = s[None, :] * np.conj(win[(n[None, :] - (m * params.N_delta)[:, None]) % L])
    W = np.exp(-2j * np.pi * np.outer(n, k) / params.K_G)
    return x @ W


def dgt_triple_loop(samples, params: GaborParams) -> np.ndarray:
    """Literal triple-loop evaluation of the same sum (small sizes only)."""
    L = params.block_len
    s = np.asarray(samples, dtype=np.complex128)[:L]
    win = gaussian_window(L, params.sigma)
    G = np.zeros((params.M, params.K_G), dtype=np.complex128)
    for mi, m in enumerate(range(1, params.M + 1)):
        for k in range(params.K_G):
            acc = 0.0 + 0.0j
            for n in range(1, L + 1):
                nu = win[(n - m * params.N_delta) % L]
                acc += s[n - 1] * np.conj(nu) * np.exp(
                    -2j * np.pi * k * n / params.K_G
                )
            G[mi, k] = acc
    return G


def dgt_percall(samples, params: GaborParams) -> np.ndarray:
    """The folded-FFT DGT that builds its conjugated window matrix on every
    call and rolls the windowed products: the arithmetic ``dgt`` must match
    bit for bit."""
    L = params.block_len
    s = np.asarray(samples, dtype=np.complex128)[:L]
    win = gaussian_window(L, params.sigma)
    n = np.arange(1, L + 1)
    m = np.arange(1, params.M + 1)
    idx = (n[None, :] - (m * params.N_delta)[:, None]) % L
    x = s[None, :] * np.conj(win[idx])
    q = L // params.K_G
    folded = np.roll(x, 1, axis=1).reshape(params.M, q, params.K_G).sum(axis=1)
    return np.fft.fft(folded, axis=1)


def patch_layout() -> list[tuple[int, int, int, int]]:
    """The fingerprint's 50 patches as half-open (t0, t1, f0, f1) regions of
    the 150 x 150 grid, in feature order: 15 time rows by 10 frequency
    columns, ten time blocks across each of the five frequency blocks of the
    centred band (columns 50 to 99)."""
    return [(t0, t0 + 15, f0, f0 + 10)
            for f0 in range(50, 100, 10) for t0 in range(0, 150, 15)]


def moments_extended(cells) -> tuple[float, float, float, float]:
    """(sigma, variance, skewness, non-excess kurtosis) in extended precision."""
    x = np.asarray(cells, dtype=np.longdouble).ravel()
    mu = x.mean()
    d = x - mu
    var = np.mean(d**2)
    if var == 0:
        return (0.0, 0.0, 0.0, 0.0)
    sd = np.sqrt(var)
    skew = np.mean(d**3) / sd**3
    kurt = np.mean(d**4) / var**2
    return (float(sd), float(var), float(skew), float(kurt))


def relieff_bruteforce(X, y, n_k):
    """Literal Relief-F weight computation with explicit loops.

    Every row is a reference once; nearest hits and misses by Euclidean
    distance over all features with stable tie order; per-feature differences
    divided by that feature's dataset range; miss contributions weighted by
    prior(miss class) / (1 - prior(own class)).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    n, f = X.shape
    span = X.max(axis=0) - X.min(axis=0)
    w = np.zeros(f)
    priors = {c: np.mean(y == c) for c in (1, 2)}
    for i in range(n):
        d = np.array([np.sum((X[j] - X[i]) ** 2) for j in range(n)])
        d[i] = np.inf
        own, opp = y[i], 3 - y[i]
        hits = [j for j in np.argsort(d, kind="stable") if y[j] == own][:n_k]
        misses = [j for j in np.argsort(d, kind="stable") if y[j] == opp][:n_k]
        for r in range(f):
            if span[r] <= 0:
                continue
            for j in hits:
                w[r] -= abs(X[j, r] - X[i, r]) / span[r] / (n * n_k)
            for j in misses:
                w[r] += (priors[opp] / (1.0 - priors[own])) * abs(
                    X[j, r] - X[i, r]
                ) / span[r] / (n * n_k)
    return w


def welch_oracle(a, b):
    """Welch statistic and Welch-Satterthwaite dof from the textbook formulas."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n1, n2 = len(a), len(b)
    v1 = np.sum((a - a.mean()) ** 2) / (n1 - 1)
    v2 = np.sum((b - b.mean()) ** 2) / (n2 - 1)
    se2 = v1 / n1 + v2 / n2
    t = (a.mean() - b.mean()) / np.sqrt(se2)
    dof = se2**2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    return t, dof


def bc_histogram_oracle(a, b, bins):
    """Bhattacharyya coefficient of two samples over shared pooled-range bins."""
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    pa = np.histogram(a, bins=edges)[0] / len(a)
    pb = np.histogram(b, bins=edges)[0] / len(b)
    return float(np.sum(np.sqrt(pa * pb)))


def svm_dual_grid_oracle(X, y, c, zeta, coarse=0.02, fine=0.0005):
    """Best dual objective of a 4-point soft-margin problem by grid search.

    Standardizes exactly like the trainer, grids three alphas (the fourth is
    fixed by the equality constraint), then refines around the coarse argmax.
    Returns max_alpha e'a - 1/2 a'Qa over the feasible box.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    assert len(y) == 4
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0] = 1.0
    Z = (X - mean) / scale
    d2 = np.sum((Z[:, None, :] - Z[None, :, :]) ** 2, axis=2)
    Q = (y[:, None] * y[None, :]) * np.exp(-zeta * d2)

    def search(lo, hi, step):
        g = [np.arange(lo[i], hi[i] + step / 2, step) for i in range(3)]
        a1, a2, a3 = np.meshgrid(*g, indexing="ij", sparse=True)
        a4 = (y[0] * a1 + y[1] * a2 + y[2] * a3) / (-y[3])
        ok = (a4 >= 0.0) & (a4 <= c)
        A = [a1, a2, a3, a4]
        obj = sum(np.broadcast_to(a, ok.shape).astype(float) for a in A)
        for i in range(4):
            for j in range(4):
                obj = obj - 0.5 * Q[i, j] * A[i] * A[j]
        obj = np.where(ok, obj, -np.inf)
        flat = int(np.argmax(obj))
        idx = np.unravel_index(flat, obj.shape)
        best = [float(np.broadcast_to(a, obj.shape)[idx]) for a in A]
        return float(obj[idx]), best

    _, best = search([0.0] * 3, [c] * 3, coarse)
    lo = [max(0.0, best[i] - 2 * coarse) for i in range(3)]
    hi = [min(c, best[i] + 2 * coarse) for i in range(3)]
    val, _ = search(lo, hi, fine)
    return val


def nca_objective_loop(Z, same, w, lam_r):
    """NCA leave-one-out soft error and its gradient in w, one row at a time.

    For each row i: distances d_ij = sum_r w_r^2 |Z_ir - Z_jr|, kernel
    exp(-d_ij) with the self term zeroed, softmax p_i, and loss
    sum_j p_ij [class_j != class_i]. A row whose kernel sum is zero or
    non-finite is skipped. The mean over rows is regularized by
    lam_r * sum_r w_r^2.
    """
    Z = np.asarray(Z, dtype=np.float64)
    n, f = Z.shape
    u = w**2
    loss = 0.0
    grad = np.zeros(f)
    for i in range(n):
        D = np.abs(Z - Z[i])          # (n, f)
        d = D @ u
        k = np.exp(-d)
        k[i] = 0.0
        tot = k.sum()
        if tot <= 0 or not np.isfinite(tot):
            continue
        p = k / tot
        li = (~same[i]).astype(np.float64)
        li[i] = 0.0
        pl = p * li
        loss += pl.sum()
        # d(loss_i)/dw_r = -2 w_r [ sum_j p l |D| - (sum p l)(sum p |D|) ]
        grad += (-2.0 * w) * (pl @ D - pl.sum() * (p @ D))
    loss /= n
    grad /= n
    loss += lam_r * np.sum(u)
    grad += 2.0 * lam_r * w
    return loss, grad


# Bytes of one row block of ``nca_objective_per_evaluation``.
NCA_BLOCK_BYTES = 1 << 20


def nca_objective_per_evaluation(Z, same, w, lam_r):
    """The row-blocked NCA objective that rebuilds every block's |Z_B - Z|
    in one reused buffer at each call and adds each ordered pair's gradient
    term on its own. ``featsel._nca_objective_and_grad`` holds each pair
    once and adds its two terms first, so it agrees to rounding, not
    bitwise, where the class term is above rounding."""
    n, f = Z.shape
    u = w**2
    b = min(n, max(1, NCA_BLOCK_BYTES // (n * f * 8)))
    buf = np.empty((b, n, f))
    loss = 0.0
    gsum = np.zeros(f)
    for i0 in range(0, n, b):
        m = min(b, n - i0)
        D = buf[:m]
        np.subtract(Z[i0:i0 + m, None], Z, out=D)
        np.abs(D, out=D)
        k = np.exp(-(D.reshape(m * n, f) @ u)).reshape(m, n)
        rows = np.arange(m)
        k[rows, i0 + rows] = 0.0
        other = ~same[i0:i0 + m]
        tot = k.sum(axis=1)
        ok = tot > 0
        if not ok.all():
            k, tot, other, D = k[ok], tot[ok], other[ok], D[ok]
        p = k / tot[:, None]
        pl = p * other
        s = pl.sum(axis=1)
        loss += s.sum()
        gsum += (pl - s[:, None] * p).ravel() @ D.reshape(-1, f)
    loss /= n
    loss += lam_r * np.sum(u)
    grad = (-2.0 * w) * gsum / n + 2.0 * lam_r * w
    return loss, grad


def rank_nca_reference(fset, iterations=200):
    """``featsel.rank_nca`` over ``nca_objective_per_evaluation``: the same
    descent and backstep, with every distance block rebuilt at every
    evaluation."""
    X, y = fset.X, fset.labels
    n, f = X.shape
    lam_r = 1.0 / n
    Z = svm.standardize(X)[0]
    same = y[:, None] == y[None, :]
    w = np.ones(f)
    step = 1.0 / n
    obj, grad = nca_objective_per_evaluation(Z, same, w, lam_r)
    history = [obj]
    for _ in range(iterations):
        assert np.isfinite(obj)
        trial_step = step
        for _ in range(30):
            w_new = w - trial_step * grad
            obj_new, grad_new = nca_objective_per_evaluation(
                Z, same, w_new, lam_r)
            if obj_new <= obj + 1e-12:
                break
            trial_step *= 0.5
        else:
            break
        w, obj, grad = w_new, obj_new, grad_new
        history.append(obj)
        if np.linalg.norm(trial_step * grad) < 1e-10:
            break
    scores = w**2
    return scores, np.argsort(-scores, kind="stable"), history


def train_grlvq_relevance_reference(fset, epochs=20, seed=0):
    """``featsel.train_grlvq_relevance`` computing each prototype difference
    ``x - protos[c]`` anew for the distance and for the prototype update:
    the arithmetic the fit must match bit for bit."""
    rng = np.random.default_rng(seed)
    X, y = fset.X, fset.labels
    n, f = X.shape
    eps_p, eps_l = 0.05, 0.01
    Z = svm.standardize(X)[0]
    protos = np.stack([Z[y == 1].mean(axis=0), Z[y == 2].mean(axis=0)])
    protos += rng.normal(0, 1e-3, protos.shape)
    lam = np.full(f, 1.0 / f)
    for _ in range(epochs):
        for i in rng.permutation(n):
            x = Z[i]
            own = 0 if y[i] == 1 else 1
            d_own_v = (x - protos[own]) ** 2
            d_oth_v = (x - protos[1 - own]) ** 2
            d_own = float(lam @ d_own_v)
            d_oth = float(lam @ d_oth_v)
            denom = d_own + d_oth
            if denom <= 0:
                continue
            xi_own = d_oth / denom**2
            xi_oth = d_own / denom**2
            protos[own] += eps_p * xi_own * lam * (x - protos[own])
            protos[1 - own] -= eps_p * xi_oth * lam * (x - protos[1 - own])
            grad = xi_own * d_own_v - xi_oth * d_oth_v
            lam = lam * np.exp(-eps_l * grad)
            lam /= lam.sum()
    return lam / lam.max()


def moments_scalar(cells) -> tuple[float, float, float, float]:
    """(sigma, variance, skewness, non-excess kurtosis) of one cell vector in
    float64, one scalar step at a time; a constant vector maps to zeros."""
    x = np.asarray(cells, dtype=np.float64).ravel()
    if x.size == 0 or np.all(x == x[0]):
        return (0.0, 0.0, 0.0, 0.0)
    mu = x.mean()
    d = x - mu
    var = np.mean(d**2)
    if var == 0.0:
        return (0.0, 0.0, 0.0, 0.0)
    sd = np.sqrt(var)
    return (float(sd), float(var), float(np.mean(d**3) / sd**3),
            float(np.mean(d**4) / var**2))


def block_stats_masked(blocks) -> np.ndarray:
    """(sigma, var, skew, kurt) of each row, with the non-constant rows
    copied out for the third and fourth moments: the arithmetic
    ``fingerprint._block_stats`` must match bit for bit."""
    mu = blocks.mean(axis=1, keepdims=True)
    d = blocks - mu
    var = np.mean(d**2, axis=1)
    nz = (var > 0.0) & ~np.all(blocks == blocks[:, :1], axis=1)
    sd = np.sqrt(var)
    skew = np.zeros_like(var)
    kurt = np.zeros_like(var)
    skew[nz] = np.mean(d[nz] ** 3, axis=1) / sd[nz] ** 3
    kurt[nz] = np.mean(d[nz] ** 4, axis=1) / var[nz] ** 2
    sd = np.where(nz, sd, 0.0)
    var = np.where(nz, var, 0.0)
    return np.column_stack([sd, var, skew, kurt])


def class_histograms_loop(A, B, bins):
    """Per-column class probabilities over shared pooled-range edges, one
    ``np.histogram`` call per column and class; a column constant and equal
    in both classes gets the range (v - 0.5, v + 0.5)."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    f = A.shape[1]
    pa, pb = np.empty((f, bins)), np.empty((f, bins))
    edges = np.empty((f, bins + 1))
    for r in range(f):
        lo = min(A[:, r].min(), B[:, r].min())
        hi = max(A[:, r].max(), B[:, r].max())
        if hi <= lo:
            lo, hi = lo - 0.5, hi + 0.5
        edges[r] = np.linspace(lo, hi, bins + 1)
        pa[r] = np.histogram(A[:, r], bins=edges[r])[0] / len(A)
        pb[r] = np.histogram(B[:, r], bins=edges[r])[0] / len(B)
    return pa, pb, edges


def poe_loop(X1, X2, bins):
    """Per-feature prior-weighted histogram overlap (probability of error),
    one feature at a time."""
    pa, pb, _ = class_histograms_loop(X1, X2, bins)
    n1, n2 = len(X1), len(X2)
    pi1, pi2 = n1 / (n1 + n2), n2 / (n1 + n2)
    return np.array([np.sum(np.minimum(pi1 * p, pi2 * q))
                     for p, q in zip(pa, pb)])


def ttest_loop(X1, X2):
    """Two-sided Welch test per feature: ``(p, t, excluded)``.

    A feature with zero variance in both classes gets t = +-inf (p = 0) for
    different means, or t = 0 and p = 1 (excluded) for equal ones, with
    n1 + n2 - 2 degrees of freedom."""
    from scipy import stats

    X1 = np.asarray(X1, dtype=np.float64)
    X2 = np.asarray(X2, dtype=np.float64)
    n1, n2 = len(X1), len(X2)
    f = X1.shape[1]
    pvals, tvals, excluded = np.empty(f), np.empty(f), []
    for r in range(f):
        a, b = X1[:, r], X2[:, r]
        v1, v2 = a.var(ddof=1), b.var(ddof=1)
        se2 = v1 / n1 + v2 / n2
        dmean = a.mean() - b.mean()
        if se2 == 0.0:
            t = np.inf * np.sign(dmean) if dmean != 0 else 0.0
            dof = float(n1 + n2 - 2)
        else:
            t = dmean / np.sqrt(se2)
            dof = se2**2 / (v1**2 / ((n1 - 1) * n1**2)
                            + v2**2 / ((n2 - 1) * n2**2))
        tvals[r] = t
        if t == 0.0 and v1 == 0 and v2 == 0:
            pvals[r] = 1.0
            excluded.append(r)
        elif np.isinf(t):
            pvals[r] = 0.0
        else:
            pvals[r] = 2.0 * stats.t.sf(abs(t), dof)
    return pvals, tvals, np.array(excluded, dtype=np.int64)


def pca_signs_loop(basis):
    """Flip each column so its largest-magnitude entry is positive."""
    basis = np.array(basis, dtype=np.float64)
    for j in range(basis.shape[1]):
        k = np.argmax(np.abs(basis[:, j]))
        if basis[k, j] < 0:
            basis[:, j] = -basis[:, j]
    return basis


def generate_dataset_serial(profiles, snr_db, config) -> FingerprintStore:
    """The cohort fingerprinted in one thread, radio by radio, burst by
    burst, realization by realization, with each row added to the store as
    it is made. Bursts are seeded by ``SeedSequence([master, 1, radio,
    burst])`` and noise by ``SeedSequence([master, 2, radio, burst, z,
    round(1000 * snr) + 10^6])``."""
    params = GaborParams()
    fspec = (config.filter_order, config.filter_cutoff)
    snr_key = int(round(snr_db * 1000)) + 1_000_000
    master = int(config.master_seed)
    store = FingerprintStore()
    for ridx, profile in enumerate(profiles):
        for b in range(config.n_bursts):
            clean = synth_burst(profile, config.template_len,
                                seed=np.random.SeedSequence([master, 1, ridx,
                                                             b]))
            clean = butterworth_filter(clean, *fspec)
            for z in range(config.n_z):
                noisy = add_awgn(clean, snr_db, filter_spec=fspec,
                                 seed=np.random.SeedSequence(
                                     [master, 2, ridx, b, z, snr_key]))
                store.add(Fingerprint(
                    gen_fingerprint(normalize_tf(dgt(noisy, params))).features,
                    radio_id=profile.radio_id, snr_db=snr_db, realization=z))
    return store


def train_svm_reference(
    X: np.ndarray,
    labels: np.ndarray,
    c: float = 1.0,
    *,
    zeta: float,
    feature_indices=None,
):
    """``svm.train_svm`` as a literal SMO loop: every pair update rebuilds
    ``-y * grad`` and both KKT index sets over all rows, and updates the
    gradient from the signed matrix ``Q``. Reads ``svm._TOLERANCE`` and
    ``svm._MAX_UPDATES`` at call time, so a patched cap applies to both.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    # Class tag 1 and label +1 both map to y = +1; tag 2 / label -1 to y = -1.
    y = np.where(labels == 1, 1.0, -1.0)
    n = len(X)
    if not np.all(np.isfinite(X)):
        raise InvalidValue("non-finite features")
    if len(np.unique(y)) < 2:
        raise InvalidValue("both classes must be present")
    if zeta <= 0:
        raise InvalidValue("zeta must be > 0")

    Z, mean, scale = svm.standardize(X)
    K = svm.rbf_kernel(Z, Z, zeta)
    Q = (y[:, None] * y[None, :]) * K

    alpha = np.zeros(n)
    grad = -np.ones(n)               # gradient of 1/2 a'Qa - e'a
    n_updates = 0
    converged = False

    while n_updates < svm._MAX_UPDATES:
        yg = -y * grad
        up = ((y > 0) & (alpha < c - 1e-12)) | ((y < 0) & (alpha > 1e-12))
        low = ((y > 0) & (alpha > 1e-12)) | ((y < 0) & (alpha < c - 1e-12))
        if not up.any() or not low.any():
            converged = True
            break
        i = int(np.argmax(np.where(up, yg, -np.inf)))
        j = int(np.argmin(np.where(low, yg, np.inf)))
        gap = yg[i] - yg[j]
        if gap < svm._TOLERANCE:
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
        da_i = y[i] * d
        da_j = -y[j] * d
        alpha[i] += da_i
        alpha[j] += da_j
        grad += Q[:, i] * da_i + Q[:, j] * da_j
        n_updates += 1

    yg = -y * grad
    free = (alpha > 1e-8) & (alpha < c - 1e-8)
    if free.any():
        bias = float(np.mean(yg[free]))
    else:
        up = ((y > 0) & (alpha < c - 1e-12)) | ((y < 0) & (alpha > 1e-12))
        low = ((y > 0) & (alpha > 1e-12)) | ((y < 0) & (alpha < c - 1e-12))
        hi = yg[up].max() if up.any() else 0.0
        lo = yg[low].min() if low.any() else 0.0
        bias = float((hi + lo) / 2.0)

    sv = alpha > 1e-12
    # Dual objective in maximization form: e'a - 1/2 a'Qa.
    dual_objective = float(alpha.sum() - 0.5 * alpha @ (Q @ alpha))
    diagnostics = {
        "n_updates": n_updates,
        "converged": converged,
        "dual_objective": dual_objective,
    }
    model = svm.SvmModel(
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


def train_best_model_reference(trial, claimed_id, method, snr_db, store,
                               config):
    """``harness.train_best_model`` as the literal sweep: at every retained
    count, every training realization's rows are cut, joined, labeled 1/2
    and split into folds anew. The training rows are drawn and the reducer
    fitted as the harness does it, with the same ``store.select`` calls in
    the same order."""
    if len(store) == 0:
        raise MissingData(f"no fingerprints available at SNR {snr_db}")
    if claimed_id not in trial.authorized_ids:
        raise InvalidModel(f"{claimed_id} is not authorized")
    train_z = config.train_realizations
    per_z1 = config.n_train // len(train_z)
    per_z2 = config.n_train_other // len(train_z)
    others = [r for r in trial.authorized_ids if r != claimed_id]
    rows1 = [store.select(claimed_id, [z])[:per_z1] for z in train_z]
    rows2 = [np.concatenate([store.select(o, [z])[:per_z2] for o in others])
             for z in train_z]
    X1 = np.concatenate(rows1)
    X2 = np.concatenate(rows2)
    pool = LabeledFingerprintSet(
        X=np.concatenate([X1, X2]),
        labels=np.concatenate([np.ones(len(X1)), np.full(len(X2), 2)]),
    )
    short = (len(X1) < per_z1 * len(train_z)
             or len(X2) < per_z2 * len(others) * len(train_z))
    reducer = harness.Reducer(method).fit(pool, config)

    candidates = []
    k = config.k_folds
    for n_r in reducer.nr_values(config.nr_grid):
        Xr1 = [reducer.transform(r, n_r) for r in rows1]
        Xr2 = [reducer.transform(r, n_r) for r in rows2]
        best = None
        for zi in range(len(rows1)):
            Xz = np.concatenate([Xr1[zi], Xr2[zi]])
            yz = np.concatenate([
                np.ones(len(Xr1[zi]), dtype=np.int64),
                np.full(len(Xr2[zi]), 2, dtype=np.int64),
            ])
            folds = np.concatenate([
                np.arange(len(Xr1[zi])) % k, np.arange(len(Xr2[zi])) % k,
            ])
            for fold in range(k):
                tr = folds != fold
                va = ~tr
                if not va.any() or len(np.unique(yz[tr])) < 2:
                    continue
                try:
                    model = svm.train_svm(
                        Xz[tr], yz[tr],
                        zeta=harness._ZETA_SCALE / Xz.shape[1],
                        feature_indices=reducer.cut(n_r).get("indices"),
                    )
                except TrainingFailed as exc:
                    model = exc.model
                pred = svm.svm_decide(model, Xz[va])
                truth = np.where(yz[va] == 1, 1, -1)
                err = float(np.mean(pred != truth))
                if best is None or err < best[0]:
                    best = (err, model)
        if best is None:
            continue
        model = best[1]
        Xp1 = np.concatenate(Xr1)
        Xp2 = np.concatenate(Xr2)
        candidates.append(CandidateModel(
            model=model, n_r=n_r,
            tvr_train=float(np.mean(svm.svm_decide(model, Xp1) == 1)),
            fvr_others_train=float(np.mean(svm.svm_decide(model, Xp2) == 1)),
            pmf_pair=build_margin_pmfs(model, Xp1, Xp2),
            meta={"reducer": reducer, "claimed_id": claimed_id,
                  "snr_db": snr_db},
        ))
    if not candidates:
        raise MissingData("no trainable candidate at any retained count")
    selected = select_best(candidates)
    selected.meta["candidates"] = candidates
    selected.meta["gate_fallback"] = not any(map(passes_gate, candidates))
    selected.meta["pool_underfilled"] = short
    return selected
