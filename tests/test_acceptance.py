"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line for its criterion. The heavyweight
synthetic-cohort experiment (criteria 5 through 7) runs once as a module
fixture: three verification trials over an 18-emitter cohort at 21, 27, and
3 dB, Relief-F selection, margin-PMF model choice, held-out evaluation.
"""

import json
import time

import numpy as np
import pytest

from rfdna.featsel import LabeledFingerprintSet, project_lda, project_pca, \
    rank_bc, rank_nca, rank_relieff, welch_t
from rfdna.fingerprint import gen_fingerprint, patch_stats, tile_patches
from rfdna.gabor import GaborParams, dgt, normalize_tf
from rfdna.harness import (
    ExperimentConfig,
    default_cohort,
    default_trials,
    evaluate_trial,
    generate_dataset,
    run_trial,
    train_best_model,
)
from rfdna.signals import EmitterProfile, add_awgn, butterworth_filter, \
    synth_burst
from rfdna.svm import svm_decide, svm_score, train_svm, margin

from oracles import (
    bc_histogram_oracle,
    dgt_direct,
    dgt_triple_loop,
    moments_extended,
    relieff_bruteforce,
    svm_dual_grid_oracle,
    welch_oracle,
)


def verdict(num, label, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    return ok


ACCEPT = dict(
    snr_grid=[3.0, 21.0, 27.0], n_bursts=200, n_z=3, k_folds=5,
    n_train=200, n_train_other=120, nr_grid=list(range(10, 201, 10)),
    methods=["relieff"], master_seed=0,
)


@pytest.fixture(scope="module")
def experiment():
    config = ExperimentConfig(**ACCEPT)
    profiles = default_cohort()
    trials = default_trials([p.radio_id for p in profiles])
    out = {"reports": {}, "models": {}, "audits": []}
    t0 = time.monotonic()
    for snr in (21.0, 27.0, 3.0):
        store = generate_dataset(profiles, snr, config)
        reports = []
        for trial in trials:
            mark = len(store.access_log)
            models = {
                claimed: train_best_model(trial, claimed, "relieff", snr,
                                          store, config)
                for claimed in trial.authorized_ids
            }
            out["audits"].append(
                (trial.trial_id, snr, set(store.access_log[mark:]),
                 set(trial.authorized_ids))
            )
            if snr == 21.0:
                out["models"][trial.trial_id] = models
            reports.append(
                evaluate_trial(trial, snr, "relieff", models, store, config)
            )
        out["reports"][snr] = reports
        if snr == 21.0:
            out["runtime_21"] = time.monotonic() - t0
    return out


def test_criterion_1_dgt_oracle():
    rng = np.random.default_rng(0)
    params = GaborParams()
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        s = rng.standard_normal(150) + 1j * rng.standard_normal(150)
        G = dgt(s, params)
        Go = dgt_direct(s, params)
        worst = max(worst, np.max(np.abs(G - Go)) / np.max(np.abs(Go)))
    small = GaborParams(M=10, K_G=5, N_delta=1, window_sigma=2.0)
    s = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    Gs = dgt(s, small)
    worst_small = (np.max(np.abs(Gs - dgt_triple_loop(s, small)))
                   / np.max(np.abs(Gs)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and worst_small <= 1e-10 and elapsed < 10.0
    assert verdict(1, f"DGT matches direct coefficient sum on 100 random "
                      f"signals (max rel err {worst:.2e}, literal loop "
                      f"{worst_small:.2e}, {elapsed:.1f}s)", ok)


def test_criterion_2_fingerprint_shape_and_moments():
    burst = synth_burst(
        EmitterProfile("acc", carrier_freq_offset=0.02, phase_noise_std=0.005),
        200, seed=1,
    )
    burst = add_awgn(butterworth_filter(burst, 6, 0.4), 21.0, (6, 0.4), seed=2)
    tf = normalize_tf(dgt(burst))
    fp = gen_fingerprint(tf)
    shape_ok = fp.features.shape == (204,)

    grid = tile_patches(tf)
    cover = np.zeros(tf.values.shape, dtype=int)
    sizes_ok = True
    for t0, t1, f0, f1 in grid.patches:
        sizes_ok = sizes_ok and (t1 - t0) * (f1 - f0) == 150
        cover[t0:t1, f0:f1] += 1
    tiling_ok = (len(grid.patches) == 50 and sizes_ok
                 and cover.max() == 1 and cover.sum() == 50 * 150)

    worst = 0.0
    for p, (t0, t1, f0, f1) in enumerate(grid.patches):
        cells = tf.values[t0:t1, f0:f1]
        got = np.array(fp.features[4 * p:4 * p + 4])
        want = np.array(moments_extended(cells))
        worst = max(worst, np.max(np.abs(got - want)))
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.random(150)
        diff = np.abs(np.array(patch_stats(x)) - np.array(moments_extended(x)))
        worst = max(worst, diff.max())
    ok = shape_ok and tiling_ok and worst <= 1e-12
    assert verdict(2, f"204 features, 50 disjoint 150-cell patches, moment "
                      f"oracle max err {worst:.2e}", ok)


def test_criterion_3_feature_selection_oracles():
    rng = np.random.default_rng(4)

    X = rng.standard_normal((18, 6))
    X[9:, 0] += 2.0
    y = np.concatenate([np.ones(9), np.full(9, 2)]).astype(int)
    fset_small = LabeledFingerprintSet(X=X, labels=y)
    relieff_err = np.max(np.abs(
        rank_relieff(fset_small, n_k=4).scores - relieff_bruteforce(X, y, 4)
    ))

    a = rng.standard_normal(13) * 1.7 + 0.4
    b = rng.standard_normal(19)
    t, dof = welch_t(a, b)
    t0, dof0 = welch_oracle(a, b)
    welch_err = max(abs(t - t0), abs(dof - dof0) / dof0)

    X = rng.standard_normal((60, 5))
    X[30:, 1] += 1.0
    fset = LabeledFingerprintSet(
        X=X, labels=np.concatenate([np.ones(30), np.full(30, 2)])
    )
    r_bc = rank_bc(fset)
    bins = max(2, int(np.ceil(np.sqrt(60))))
    bc_err = max(
        abs(r_bc.scores[j]
            - bc_histogram_oracle(fset.X1[:, j], fset.X2[:, j], bins))
        for j in range(5)
    )
    bc_in_range = np.all((r_bc.scores >= 0) & (r_bc.scores <= 1 + 1e-12))

    Y = project_pca(fset, 5).transform(fset.X)
    cov = np.cov(Y, rowvar=False, bias=True)
    pca_offdiag = np.max(np.abs(cov - np.diag(np.diag(cov))))

    basis = project_lda(fset)
    X1, X2 = fset.X1, fset.X2
    mu1, mu2 = X1.mean(axis=0), X2.mean(axis=0)
    s_w = (X1 - mu1).T @ (X1 - mu1) + (X2 - mu2).T @ (X2 - mu2)
    s_w = s_w + (1e-6 * np.trace(s_w) / 5) * np.eye(5)
    w, *_ = np.linalg.lstsq(s_w, mu1 - mu2, rcond=None)
    lda_err = (np.max(np.abs(basis.basis.ravel() - w))
               / np.max(np.abs(w)))

    hist = np.array(
        rank_nca(fset, iterations=30).meta["objective_history"]
    )
    nca_ok = len(hist) >= 2 and np.all(np.diff(hist) <= 1e-12)

    ok = (relieff_err <= 1e-9 and welch_err <= 1e-10 and bc_err <= 1e-12
          and bc_in_range and pca_offdiag <= 1e-8 and lda_err <= 1e-8
          and nca_ok)
    assert verdict(3, f"Relief-F {relieff_err:.1e}, Welch {welch_err:.1e}, "
                      f"BC {bc_err:.1e}, PCA offdiag {pca_offdiag:.1e}, "
                      f"LDA {lda_err:.1e}, NCA monotone {nca_ok}", ok)


def test_criterion_4_svm_correctness(experiment):
    checked = 0
    feasible = True
    for models in experiment["models"].values():
        for cand in models.values():
            for c in cand.meta["candidates"]:
                diag = c.model.diagnostics
                a = diag["alphas"]
                feasible = feasible and np.all(a >= -1e-12)
                feasible = feasible and np.all(a <= c.model.cost_c + 1e-12)
                feasible = feasible and abs(diag["sum_alpha_y"]) <= 1e-6
                checked += 1

    X = np.array([[0.0, 0.0], [0.2, 0.1], [1.0, 1.1], [1.2, 0.9]])
    labels = np.array([1, 1, 2, 2])
    model = train_svm(X, labels, c=1.0, zeta=0.7)
    grid = svm_dual_grid_oracle(X, np.array([1.0, 1.0, -1.0, -1.0]), 1.0, 0.7)
    toy_err = abs(model.diagnostics["dual_objective"] - grid)

    rng = np.random.default_rng(5)
    probe = rng.standard_normal((10_000, 2)) * 3
    scores = svm_score(model, probe)
    sign_ok = np.array_equal(svm_decide(model, probe),
                             np.where(scores > 0, 1, -1))
    ys = np.where(rng.random(10_000) < 0.5, 1, -1)
    margin_ok = np.array_equal(margin(model, probe, ys), 2.0 * ys * scores)

    ok = feasible and toy_err <= 1e-4 and sign_ok and margin_ok
    assert verdict(4, f"dual feasibility on {checked} trained models, toy "
                      f"dual gap {toy_err:.1e}, sign/margin identities", ok)


def test_criterion_5_protocol_identities(experiment):
    identities = True
    attacks_ok = True
    for reports in experiment["reports"].values():
        for r in reports:
            attacks_ok = attacks_ok and r.attack_count() == 72
            for e in r.entries:
                if e["kind"] == "authorized":
                    identities = identities and abs(
                        e["tvr"] + e["frr"] - 1.0) <= 1e-12
                else:
                    identities = identities and abs(
                        e["fvr"] + e["trr"] - 1.0) <= 1e-12
    audit_ok = all(touched <= authorized
                   for _, _, touched, authorized in experiment["audits"])
    ok = identities and attacks_ok and audit_ok
    assert verdict(5, f"TVR+FRR=1 / FVR+TRR=1 on all reports, 72 attacks per "
                      f"trial, rogue-free training audit {audit_ok}", ok)


def test_criterion_6_synthetic_cohort_gates(experiment):
    reports = experiment["reports"][21.0]
    gates = [r.gates_pass() for r in reports]
    min_tvr = min(e["tvr"] for r in reports
                  for e in r.rows(kind="authorized"))
    max_fvr = max(e["fvr"] for r in reports for e in r.entries
                  if e["kind"] in ("other", "rogue"))
    runtime = experiment["runtime_21"]
    ok = all(gates) and runtime <= 1800.0
    assert verdict(6, f"21 dB gates {gates}, min TVR {min_tvr:.3f}, max FVR "
                      f"{max_fvr:.3f}, runtime {runtime:.0f}s", ok)


def test_criterion_7_degradation_and_replay(experiment):
    def mean_tvr(snr):
        rows = [e["tvr"] for r in experiment["reports"][snr]
                for e in r.rows(kind="authorized")]
        return float(np.mean(rows))

    tvr3, tvr27 = mean_tvr(3.0), mean_tvr(27.0)
    trend_ok = tvr3 <= tvr27 + 0.02

    config = ExperimentConfig(
        snr_grid=[21.0], n_bursts=6, n_z=2, k_folds=2, n_train=6,
        n_train_other=30, nr_grid=[10], methods=["relieff"], master_seed=0,
        relieff_neighbors=3,
    )
    profiles = default_cohort()
    trials = default_trials([p.radio_id for p in profiles])

    def replay():
        store = generate_dataset(profiles, 21.0, config)
        report = run_trial(trials[0], 21.0, "relieff", store, config)
        blob = json.dumps(report.to_dict(), sort_keys=True).encode()
        rows = np.concatenate(
            [store.select(p.radio_id) for p in profiles]
        ).tobytes()
        return blob, rows

    first, second = replay(), replay()
    replay_ok = first[0] == second[0] and first[1] == second[1]

    ok = trend_ok and replay_ok
    assert verdict(7, f"mean TVR 3dB {tvr3:.3f} <= 27dB {tvr27:.3f} + 0.02, "
                      f"bitwise replay {replay_ok}", ok)


def test_selected_models_differ_across_radios(experiment):
    signatures = set()
    for models in experiment["models"].values():
        for cand in models.values():
            signatures.add(
                (cand.n_r, tuple(int(i) for i in cand.model.feature_indices))
            )
    assert len(signatures) > 1
