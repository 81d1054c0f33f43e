"""Output checks made apart from the program.

Every check compares the program's output with an independent computation
(the slow reference implementations in ``tests/oracles.py``, explicit kernel
sums, the paper's selection rule written out again) or with a property the
method must have. None compares with a stored copy of earlier output. A
failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from oracles import (
    bc_histogram_oracle,
    dgt_direct,
    moments_extended,
    relieff_bruteforce,
    welch_oracle,
)

N_FEATURES = 204
FEATURE_RTOL = 1e-9       # FFT and folded DGT against the direct sum
FEATURE_ATOL = 1e-12
SNR_TOL_DB = 1e-9
AMBIGUOUS_SCORE = 1e-9    # |decision value| below this may round either way
TVR_GATE, FVR_GATE = 0.90, 0.10


class CheckFailed(Exception):
    """An output disagrees with its independent reference."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def seed_sequence(master, *key):
    """The package's documented seeding: one SeedSequence per (master, key)."""
    return np.random.SeedSequence(
        [int(master)] + [int(k) & 0xFFFFFFFF for k in key])


def snr_key(snr_db):
    return int(round(snr_db * 1000)) + 1_000_000


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

def oracle_features(samples, params):
    """204 features from the direct-sum DGT and extended-precision moments.

    Normalizes |G|^2 by its peak and rotates the frequency axis by K_G / 2;
    then 50 patches of 15 time x 10 frequency cells over centered columns
    50..99 (time-major within each frequency block), then the whole grid.
    """
    G = dgt_direct(samples, params)
    mag2 = np.abs(G) ** 2
    grid = np.roll(mag2 / mag2.max(), params.K_G // 2, axis=1)
    feats = []
    for fb in range(5):
        for tb in range(10):
            cells = grid[15 * tb:15 * (tb + 1), 50 + 10 * fb:60 + 10 * fb]
            feats.extend(moments_extended(cells))
    feats.extend(moments_extended(grid))
    return np.array(feats)


def check_features(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    require(got.shape == (N_FEATURES,), f"{what}: shape {got.shape}")
    err = np.abs(got - want)
    bad = err > FEATURE_ATOL + FEATURE_RTOL * np.abs(want)
    require(not bad.any(),
            f"{what}: feature {int(np.argmax(bad))} differs from the "
            f"direct-sum oracle (max abs err {err.max():.3e})")


def check_snr(clean, noisy, snr_db, what):
    """The noise added to a filtered burst gives the target SNR exactly."""
    clean = np.asarray(clean)
    noise = np.asarray(noisy) - clean
    p_sig = np.mean(clean.real ** 2 + clean.imag ** 2)
    p_noise = np.mean(noise.real ** 2 + noise.imag ** 2)
    got = 10.0 * np.log10(p_sig / p_noise)
    require(abs(got - snr_db) <= SNR_TOL_DB,
            f"{what}: post-filter SNR {float(got)!r} dB, target {snr_db} dB")


def check_store_equal(generated, reloaded, radio_ids, n_bursts, n_z):
    """Reloaded store is bitwise equal, with radios x bursts x z rows."""
    expected = len(radio_ids) * n_bursts * n_z
    require(len(generated) == expected and len(reloaded) == expected,
            f"store rows {len(generated)} / reloaded {len(reloaded)}, "
            f"expected {expected}")
    require(list(reloaded.radio_ids()) == list(radio_ids),
            "reloaded store lists different radios")
    for rid in radio_ids:
        for z in range(n_z):
            a = generated.select(rid, [z])
            b = reloaded.select(rid, [z])
            require(a.shape == (n_bursts, N_FEATURES),
                    f"{rid} z={z}: {a.shape[0]} rows, expected {n_bursts}")
            require(a.dtype == b.dtype and a.shape == b.shape
                    and a.tobytes() == b.tobytes(),
                    f"{rid} z={z}: reloaded rows are not bitwise equal")


# ---------------------------------------------------------------------------
# SVM verifiers
# ---------------------------------------------------------------------------

def explicit_score(model, features):
    """Decision value as an explicit sum over support vectors.

    Squared distances are taken from coordinate differences, not from the
    ``|a|^2 + |b|^2 - 2ab`` expansion the package uses.

    ``features`` is a full 204-feature row; the model's feature indices pick
    the retained columns, and its stored scaler standardizes them.
    """
    x = np.asarray(features, dtype=np.float64)[model.feature_indices]
    z = (x - model.scaler_mean) / model.scaler_scale
    d2 = np.sum((model.support_vectors - z) ** 2, axis=1)
    return float(np.sum(model.dual_coeffs * np.exp(-model.kernel_zeta * d2))
                 + model.bias)


def check_decision(model, features, decision, what):
    score = explicit_score(model, features)
    if abs(score) < AMBIGUOUS_SCORE:
        return
    want = 1 if score > 0 else -1
    require(int(decision) == want,
            f"{what}: decision {decision}, explicit kernel sum {score:.6g}")


def check_dual_feasible(model, what):
    """0 <= alpha <= C on every support vector and |sum alpha y| <= 1e-6."""
    coef = np.asarray(model.dual_coeffs)
    c = model.cost_c
    require(coef.size > 0, f"{what}: no support vectors")
    require(np.all(np.abs(coef) <= c * (1 + 1e-12)),
            f"{what}: |alpha| {np.abs(coef).max():.6g} exceeds C = {c}")
    require(abs(float(np.sum(coef))) <= 1e-6,
            f"{what}: sum alpha y = {np.sum(coef):.3e}")
    require(np.isfinite(model.bias), f"{what}: non-finite bias")


def check_pmf(pair, what):
    for name, pmf in (("positive", pair.pmf_pos), ("negative", pair.pmf_neg)):
        pmf = np.asarray(pmf)
        require(np.all(pmf >= 0) and abs(pmf.sum() - 1.0) <= 1e-9,
                f"{what}: {name} margin PMF sums to {float(pmf.sum())!r}")


def paper_choice(table):
    """The paper's model choice from the candidate table.

    ``table`` rows are (n_r, tvr, fvr, bc, mean_distance, variance_sum).
    Gate at TVR >= 0.90 and FVR <= 0.10; among survivors take the smallest
    BC, then the largest mean distance, the smallest variance sum and the
    smallest N_r. With no survivor take the highest TVR, then smallest N_r.
    """
    gated = [r for r in table if r[1] >= TVR_GATE and r[2] <= FVR_GATE]
    if gated:
        return min(gated, key=lambda r: (r[3], -r[4], r[5], r[0]))[0]
    return min(table, key=lambda r: (-r[1], r[0]))[0]


def candidate_table(candidates):
    table = []
    for cand in candidates:
        p = cand.pmf_pair
        bc = float(np.sum(np.sqrt(np.asarray(p.pmf_pos)
                                  * np.asarray(p.pmf_neg))))
        table.append((cand.n_r, cand.tvr_train, cand.fvr_others_train, bc,
                      abs(p.mean_pos - p.mean_neg), p.var_pos + p.var_neg))
    return table


def check_selection(selected, candidates, what):
    want = paper_choice(candidate_table(candidates))
    require(selected.n_r == want,
            f"{what}: selected N_r {selected.n_r}, paper's rule gives {want}")


def check_report(report, n_authorized, n_rogues):
    """Protocol identities and the FVR gate on every entry, and the TVR gate
    on the mean TVR of the authorized radios. The benchmark's verifiers are
    trained on 40 rows per radio and tested on 10, too few for a per-radio
    TVR gate: the hardest radio's TVR varies from seed to seed."""
    attacks = [e for e in report.entries if e["kind"] == "rogue"]
    require(len(attacks) == n_authorized * n_rogues,
            f"trial {report.trial_id}: {len(attacks)} attacks, "
            f"expected {n_authorized * n_rogues}")
    tvrs = [e["tvr"] for e in report.entries if e["kind"] == "authorized"]
    require(len(tvrs) == n_authorized and np.mean(tvrs) >= TVR_GATE,
            f"trial {report.trial_id}: mean TVR {np.mean(tvrs):.4f} of "
            f"{len(tvrs)} authorized radios < 0.90")
    for e in report.entries:
        tag = f"{e['claimed_id']} presented by {e['actual_id']}"
        if e["kind"] == "authorized":
            require(abs(e["tvr"] + e["frr"] - 1.0) <= 1e-12,
                    f"{tag}: TVR + FRR != 1")
        else:
            require(abs(e["fvr"] + e["trr"] - 1.0) <= 1e-12,
                    f"{tag}: FVR + TRR != 1")
            require(e["fvr"] <= FVR_GATE, f"{tag}: FVR {e['fvr']} > 0.10")


def check_report_rate(entry, model, rows):
    """Recompute one report entry's rate from explicit kernel sums."""
    scores = np.array([explicit_score(model, r) for r in rows])
    clear = np.abs(scores) >= AMBIGUOUS_SCORE
    accepted = np.sum(scores[clear] > 0)
    rate = entry["tvr"] if entry["kind"] == "authorized" else entry["fvr"]
    got = rate * len(rows)
    slack = np.sum(~clear)
    require(len(rows) == entry["n"]
            and accepted - 1e-9 <= got <= accepted + slack + 1e-9,
            f"{entry['claimed_id']} presented by {entry['actual_id']}: "
            f"rate {rate} over {entry['n']} rows, explicit kernel sums "
            f"accept {accepted} of {len(rows)}")


def check_rogue_free(touched, authorized, what):
    rogue = set(touched) - set(authorized)
    require(not rogue, f"{what}: training read rogue ids {sorted(rogue)}")


def check_acceptance(auth_accept, spoof_accept):
    require(auth_accept >= TVR_GATE,
            f"authorized acceptance {auth_accept:.4f} < 0.90")
    require(spoof_accept <= FVR_GATE,
            f"spoof acceptance {spoof_accept:.4f} > 0.10")


# ---------------------------------------------------------------------------
# Feature selection
# ---------------------------------------------------------------------------

def check_permutation(order, what):
    order = np.asarray(order)
    require(order.shape == (N_FEATURES,)
            and np.array_equal(np.sort(order), np.arange(N_FEATURES)),
            f"{what}: ranking is not a permutation of 0..{N_FEATURES - 1}")


def check_relieff(scores, X, y, n_k, what):
    want = relieff_bruteforce(X, y, n_k)
    err = np.max(np.abs(np.asarray(scores) - want))
    require(err <= 1e-9, f"{what}: Relief-F off the brute force by {err:.3e}")


def check_welch(ranking, X1, X2, features, what):
    for r in features:
        if X1[:, r].var() == 0 and X2[:, r].var() == 0:
            continue
        t, dof = welch_oracle(X1[:, r], X2[:, r])
        got_t = ranking.meta["t"][r]
        require(abs(got_t - t) <= 1e-10 * max(1.0, abs(t)),
                f"{what}: feature {r} Welch t {float(got_t)!r}, "
                f"oracle {float(t)!r}")
        p = 2.0 * stats.t.sf(abs(t), dof)
        require(abs(ranking.scores[r] - p) <= 1e-6 * p,
                f"{what}: feature {r} p-value {float(ranking.scores[r])!r}, "
                f"oracle {float(p)!r}")


def check_bc(ranking, X1, X2, features, bins, what):
    scores = np.asarray(ranking.scores)
    require(np.all((scores >= 0) & (scores <= 1 + 1e-12)),
            f"{what}: BC scores outside [0, 1]")
    for r in features:
        want = bc_histogram_oracle(X1[:, r], X2[:, r], bins)
        require(abs(scores[r] - want) <= 1e-12,
                f"{what}: feature {r} BC {float(scores[r])!r}, "
                f"oracle {want!r}")


def check_pca(basis, X, what):
    Y = (X - basis.mean) @ basis.basis
    cov = np.cov(Y, rowvar=False, bias=True)
    off = np.abs(cov - np.diag(np.diag(cov))).max()
    require(off <= 1e-9 * np.abs(np.diag(cov)).max(),
            f"{what}: PCA scores correlated (off-diagonal {off:.3e})")


def check_lda(basis, X1, X2, ridge_scale, what):
    """w solves the ridge-stabilized within-class scatter system."""
    mu1, mu2 = X1.mean(axis=0), X2.mean(axis=0)
    s_w = (X1 - mu1).T @ (X1 - mu1) + (X2 - mu2).T @ (X2 - mu2)
    s_w = s_w + (ridge_scale * np.trace(s_w) / X1.shape[1]) * np.eye(
        X1.shape[1])
    w = np.asarray(basis.basis).ravel()
    resid = np.linalg.norm(s_w @ w - (mu1 - mu2)) / np.linalg.norm(mu1 - mu2)
    require(resid <= 1e-6, f"{what}: LDA residual {resid:.3e}")


def check_nca(ranking, what):
    hist = np.asarray(ranking.meta["objective_history"])
    require(len(hist) >= 2 and np.all(np.diff(hist) <= 1e-12),
            f"{what}: NCA objective history increases")


def check_relevance(ranking, what):
    s = np.asarray(ranking.scores)
    require(np.all((s >= 0) & (s <= 1)) and s.max() == 1.0,
            f"{what}: DRA relevance outside [0, 1] or not peak-normalized")
