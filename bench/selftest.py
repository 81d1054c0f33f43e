"""Show that every output check of the benchmark catches a fault.

Each check first runs on a correct output of the program, which it must
pass, and then on a copy with one feature, decision, rate or ranking
perturbed, which it must reject. Run from the root of a source checkout:

    python3 bench/selftest.py

It prints one line per check and exits with status 0 only if every check
passed its correct input and rejected its perturbed one. It takes a few
seconds.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from types import SimpleNamespace

import numpy as np

import run

rfdna = run.import_program()
if rfdna is None:
    sys.exit(2)

from rfdna import (  # noqa: E402
    featsel, fingerprint, gabor, harness, modelsel, signals, svm)

import checks  # noqa: E402

SNR = 21.0
FSPEC = (6, 0.4)


class Outcome:
    def __init__(self):
        self.failures = 0

    def expect(self, name, check, good, bad):
        """``good`` and ``bad`` are argument tuples for ``check``."""
        try:
            check(*good)
        except checks.CheckFailed as exc:
            self.failures += 1
            print(f"FAIL {name}: rejected a correct output: {exc}")
            return
        try:
            check(*bad)
        except checks.CheckFailed as exc:
            print(f"ok   {name}: caught {exc}")
            return
        self.failures += 1
        print(f"FAIL {name}: passed a perturbed output")


def nudge(values, index, rel=1e-6):
    out = np.array(values, dtype=np.float64, copy=True)
    out[index] = out[index] * (1 + rel) + rel
    return out


def burst(profile, b, z):
    clean = signals.butterworth_filter(signals.synth_burst(
        profile, 200, seed=checks.seed_sequence(0, 1, 0, b)), *FSPEC)
    noisy = signals.add_awgn(clean, SNR, filter_spec=FSPEC,
                             seed=checks.seed_sequence(0, 2, 0, b, z))
    return clean, noisy


def fingerprint_checks(out, profiles, workdir):
    clean, noisy = burst(profiles[0], 0, 0)
    params = gabor.GaborParams()
    got = fingerprint.gen_fingerprint(
        gabor.normalize_tf(gabor.dgt(noisy, params))).features
    want = checks.oracle_features(noisy.samples, params)
    out.expect("features vs direct-sum oracle", checks.check_features,
               (got, want, "row"), (nudge(got, 17), want, "row"))
    louder = clean.samples + 0.99 * (noisy.samples - clean.samples)
    out.expect("post-filter SNR", checks.check_snr,
               (clean.samples, noisy.samples, SNR, "burst"),
               (clean.samples, louder, SNR, "burst"))

    config = harness.ExperimentConfig(snr_grid=[SNR], n_bursts=2, n_z=2,
                                      n_test_realizations=0)
    ids = [p.radio_id for p in profiles[:2]]
    store = harness.generate_dataset(profiles[:2], SNR, config)
    path = workdir / "selftest.rfdn"
    store.save(path)
    loaded = fingerprint.FingerprintStore.load(path)
    path.unlink()
    flipped = fingerprint.FingerprintStore()
    for rid in ids:
        for z in range(2):
            for b, row in enumerate(loaded.select(rid, [z])):
                if (rid, z, b) == (ids[1], 1, 0):
                    row = row.copy()
                    row[5] = np.nextafter(row[5], np.inf)
                flipped.add(fingerprint.Fingerprint(
                    row, radio_id=rid, snr_db=SNR, realization=z))
    out.expect("reloaded store bitwise equal", checks.check_store_equal,
               (store, loaded, ids, 2, 2), (store, flipped, ids, 2, 2))


def svm_checks(out, rng):
    X = rng.standard_normal((60, 204))
    X[:30, :8] += 1.5
    labels = np.r_[np.ones(30), np.full(30, 2)]
    idx = np.arange(8)
    model = svm.train_svm(X[:, idx], labels, c=1.0, zeta=0.3,
                          feature_indices=idx)
    row = X[3]
    decision = svm.svm_decide(model, row[idx])
    out.expect("decision vs explicit kernel sum", checks.check_decision,
               (model, row, decision, "row"),
               (model, row, -decision, "row"))

    lopsided = dataclasses.replace(model, dual_coeffs=nudge(
        model.dual_coeffs, 0, rel=1e-3))
    out.expect("dual feasibility", checks.check_dual_feasible,
               (model, "fit"), (lopsided, "fit"))

    pair = modelsel.build_margin_pmfs(model, X[:30, idx], X[30:, idx])
    heavy = dataclasses.replace(pair, pmf_pos=nudge(pair.pmf_pos, 50, 1e-3))
    out.expect("margin PMF sums to 1", checks.check_pmf,
               (pair, "pmf"), (heavy, "pmf"))

    n = len(X)
    rate = float(np.mean(svm.svm_decide(model, X[:, idx]) == 1))
    entry = {"kind": "authorized", "claimed_id": "R01", "actual_id": "R01",
             "tvr": rate, "frr": 1 - rate, "n": n}
    off = dict(entry, tvr=rate + 1.0 / n)
    out.expect("report rate vs explicit kernel sums",
               checks.check_report_rate, (entry, model, X), (off, model, X))
    return model


def selection_checks(out, rng):
    cands = []
    for n_r in (10, 20, 30, 40):
        pos = rng.dirichlet(np.ones(20))
        neg = rng.dirichlet(np.ones(20))
        pair = SimpleNamespace(
            pmf_pos=pos, pmf_neg=neg, mean_pos=float(rng.normal(2)),
            mean_neg=float(rng.normal(-2)), var_pos=float(rng.random()),
            var_neg=float(rng.random()),
            bc=featsel.bhattacharyya(pos, neg))
        cands.append(SimpleNamespace(n_r=n_r, tvr_train=0.95,
                                     fvr_others_train=0.02, pmf_pair=pair))
    chosen = modelsel.select_best(cands)
    other = next(c for c in cands if c is not chosen)
    out.expect("model choice by the paper's rule", checks.check_selection,
               (chosen, cands, "radio"), (other, cands, "radio"))


def report_checks(out):
    auth = [f"R{i:02d}" for i in range(1, 7)]
    rogues = [f"R{i:02d}" for i in range(7, 19)]
    entries = []
    for c in auth:
        entries.append({"kind": "authorized", "claimed_id": c,
                        "actual_id": c, "tvr": 0.97, "frr": 0.03})
        for o in auth:
            if o != c:
                entries.append({"kind": "other", "claimed_id": c,
                                "actual_id": o, "fvr": 0.0, "trr": 1.0})
        for r in rogues:
            entries.append({"kind": "rogue", "claimed_id": c,
                            "actual_id": r, "fvr": 0.05, "trr": 0.95})
    good = SimpleNamespace(trial_id=1, entries=entries)
    short = SimpleNamespace(trial_id=1, entries=entries[:-1])
    out.expect("72 attacks per report", checks.check_report,
               (good, 6, 12), (short, 6, 12))
    low = copy.deepcopy(entries)
    low[0].update(tvr=0.25, frr=0.75)
    out.expect("mean TVR gate", checks.check_report, (good, 6, 12),
               (SimpleNamespace(trial_id=1, entries=low), 6, 12))
    odd = copy.deepcopy(entries)
    odd[0]["frr"] = 0.04
    out.expect("TVR + FRR = 1", checks.check_report, (good, 6, 12),
               (SimpleNamespace(trial_id=1, entries=odd), 6, 12))
    out.expect("rogue-free training", checks.check_rogue_free,
               (auth * 3, auth, "trial"), (auth + ["R09"], auth, "trial"))
    out.expect("authorized acceptance", checks.check_acceptance,
               (0.95, 0.02), (0.89, 0.02))
    out.expect("spoof acceptance", checks.check_acceptance,
               (0.95, 0.02), (0.95, 0.11))


def ranking_checks(out, rng):
    X = rng.standard_normal((40, 204))
    X[:20, :5] += 1.0
    fset = featsel.LabeledFingerprintSet(
        X=X, labels=np.r_[np.ones(20), np.full(20, 2)])
    feats = np.arange(0, 204, 29)

    rel = featsel.rank_relieff(fset, n_k=5)
    dup = rel.order.copy()
    dup[1] = dup[0]
    out.expect("ranking is a permutation", checks.check_permutation,
               (rel.order, "relieff"), (dup, "relieff"))
    out.expect("Relief-F vs brute force", checks.check_relieff,
               (rel.scores, X, fset.labels, 5, "relieff"),
               (nudge(rel.scores, 3), X, fset.labels, 5, "relieff"))

    tt = featsel.rank_ttest(fset)
    bad_t = copy.deepcopy(tt)
    bad_t.meta["t"] = nudge(tt.meta["t"], feats[2])
    out.expect("Welch t vs oracle", checks.check_welch,
               (tt, fset.X1, fset.X2, feats, "ttest"),
               (bad_t, fset.X1, fset.X2, feats, "ttest"))

    bins = max(2, int(np.ceil(np.sqrt(40))))
    bc = featsel.rank_bc(fset, bins=bins)
    bad_bc = copy.deepcopy(bc)
    bad_bc.scores = nudge(bc.scores, feats[1], 1e-9)
    out.expect("BC vs histogram oracle", checks.check_bc,
               (bc, fset.X1, fset.X2, feats, bins, "bc"),
               (bad_bc, fset.X1, fset.X2, feats, bins, "bc"))
    above = copy.deepcopy(bc)
    above.scores[100] = 1.1
    out.expect("BC in [0, 1]", checks.check_bc,
               (bc, fset.X1, fset.X2, feats, bins, "bc"),
               (above, fset.X1, fset.X2, feats, bins, "bc"))

    pca = featsel.project_pca(fset, 204)
    mixed = copy.deepcopy(pca)
    mixed.basis[:, 0] += 1e-3 * mixed.basis[:, 1]
    out.expect("PCA scores decorrelated", checks.check_pca,
               (pca, X, "pca"), (mixed, X, "pca"))

    lda = featsel.project_lda(fset)
    tilted = copy.deepcopy(lda)
    tilted.basis[7, 0] *= 1.01
    out.expect("LDA solves the scatter system", checks.check_lda,
               (lda, fset.X1, fset.X2, 1e-6, "lda"),
               (tilted, fset.X1, fset.X2, 1e-6, "lda"))

    nca = featsel.rank_nca(fset, iterations=5)
    rising = copy.deepcopy(nca)
    rising.meta["objective_history"] = list(
        nca.meta["objective_history"]) + [nca.meta["objective_history"][-1]
                                          + 1e-6]
    out.expect("NCA objective non-increasing", checks.check_nca,
               (nca, "nca"), (rising, "nca"))

    dra = featsel.rank_dra(featsel.train_grlvq_relevance(fset, epochs=2))
    over = copy.deepcopy(dra)
    over.scores[4] = 1.2
    out.expect("DRA relevance in [0, 1]", checks.check_relevance,
               (dra, "dra"), (over, "dra"))


def main():
    out = Outcome()
    rng = np.random.default_rng(0)
    profiles = harness.default_cohort()
    workdir = run.ROOT / ".bench_out"
    workdir.mkdir(exist_ok=True)
    fingerprint_checks(out, profiles, workdir)
    svm_checks(out, rng)
    selection_checks(out, rng)
    report_checks(out)
    ranking_checks(out, rng)
    print(f"{out.failures} check(s) did not behave")
    return 1 if out.failures else 0


if __name__ == "__main__":
    sys.exit(main())
