"""The benchmark's three workloads.

Each workload is a closed loop: one caller issues one operation and waits
for it to return before the next. ``setup`` builds the inputs from the seed,
``round`` runs one whole round of the timed operations and ``check`` tests
the outputs of the rounds against computations made apart from the program.
Every round of a workload repeats the same operations on the same inputs.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass

import numpy as np

from rfdna import featsel, fingerprint, gabor, harness, signals, svm
from rfdna.errors import RfdnaError

import checks

SNR_DB = 21.0
TEST_SEED_OFFSET = 1 << 20     # master seed offset of the test capture
PRESENT_BURST_KEY, PRESENT_NOISE_KEY = 9, 10   # seed keys of verify bursts


@dataclass
class Round:
    seconds: float
    op_ms: list            # per-operation latency samples, ms
    attempted: int
    failed: int
    output: object = None


def _trial_one(profiles):
    return harness.default_trials([p.radio_id for p in profiles])[0]


def _by_id(profiles, ids):
    table = {p.radio_id: p for p in profiles}
    return [table[r] for r in ids]


def _training_pool(store, trial, claimed, config):
    """Training pool of one claimed radio, drawn as ``train_best_model``
    draws it: ``n_train / n_z_train`` rows of the claimed radio and
    ``n_train_other / n_z_train`` rows of each other authorized radio per
    training realization."""
    train_z = config.train_realizations
    per_z1 = config.n_train // len(train_z)
    per_z2 = config.n_train_other // len(train_z)
    others = [r for r in trial.authorized_ids if r != claimed]
    X1 = np.concatenate([store.select(claimed, [z])[:per_z1] for z in train_z])
    X2 = np.concatenate([store.select(o, [z])[:per_z2]
                         for z in train_z for o in others])
    return featsel.LabeledFingerprintSet(
        X=np.concatenate([X1, X2]),
        labels=np.concatenate([np.ones(len(X1)), np.full(len(X2), 2)]),
    )


def _check_models(models):
    """Every kept candidate is dual-feasible with PMFs that sum to 1, and the
    selected one is the paper's choice from the candidate table."""
    for claimed, selected in models.items():
        cands = selected.meta["candidates"]
        for cand in cands:
            what = f"{claimed} N_r={cand.n_r}"
            checks.check_dual_feasible(cand.model, what)
            checks.check_pmf(cand.pmf_pair, what)
        checks.check_selection(selected, cands, claimed)


class Workload:
    name = ""
    setup_repeats = 3      # set-up time is the median of these

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(checks.seed_sequence(seed, 77))
        self.observed = {}     # figures the checks saw, for the result file

    def setup(self):
        raise NotImplementedError

    def round(self, state) -> Round:
        raise NotImplementedError

    def check(self, state, rounds) -> None:
        raise NotImplementedError

    def cleanup(self) -> None:
        """Remove what the rounds wrote to the work directory."""


# ---------------------------------------------------------------------------
# capture: cohort -> fingerprints -> store -> disk -> reloaded store
# ---------------------------------------------------------------------------

class Capture(Workload):
    name = "capture"
    N_BURSTS, N_Z = 3, 3
    ORACLE_ROWS = 12

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.path = self.workdir / f"capture-{seed}-{os.getpid()}.rfdn"

    def config(self):
        return harness.ExperimentConfig(
            snr_grid=[SNR_DB], n_bursts=self.N_BURSTS, n_z=self.N_Z,
            master_seed=self.seed)

    def setup(self):
        profiles = harness.default_cohort()
        config = self.config()
        fspec = (config.filter_order, config.filter_cutoff)
        # Fill the package's filter and preamble caches once per radio.
        for ridx, profile in enumerate(profiles):
            clean = signals.butterworth_filter(signals.synth_burst(
                profile, config.template_len,
                seed=checks.seed_sequence(self.seed, 99, ridx)), *fspec)
            noisy = signals.add_awgn(clean, SNR_DB, filter_spec=fspec,
                                     seed=checks.seed_sequence(self.seed, 98))
            fingerprint.gen_fingerprint(gabor.normalize_tf(gabor.dgt(noisy)))
        return {"profiles": profiles, "config": config}

    def round(self, state):
        profiles, config = state["profiles"], state["config"]
        expected = len(profiles) * config.n_bursts * config.n_z
        t0 = time.perf_counter()
        try:
            store = harness.generate_dataset(profiles, SNR_DB, config)
            store.save(self.path)
            loaded = fingerprint.FingerprintStore.load(self.path)
        except RfdnaError:
            dt = time.perf_counter() - t0
            return Round(dt, [1e3 * dt / expected], expected, expected)
        dt = time.perf_counter() - t0
        return Round(dt, [1e3 * dt / expected], expected, 0, (store, loaded))

    def check(self, state, rounds):
        profiles, config = state["profiles"], state["config"]
        ids = [p.radio_id for p in profiles]
        done = [r.output for r in rounds if r.output is not None]
        if not done:
            return
        store, loaded = done[-1]
        checks.check_store_equal(store, loaded, ids, config.n_bursts,
                                 config.n_z)
        first = done[0][1]
        for rid in ids:
            checks.require(first.select(rid).tobytes()
                           == loaded.select(rid).tobytes(),
                           f"{rid}: rounds produced different stores")
        fspec = (config.filter_order, config.filter_cutoff)
        params = gabor.GaborParams()
        for k in range(self.ORACLE_ROWS):
            ridx = int(self.rng.integers(len(profiles)))
            b = int(self.rng.integers(config.n_bursts))
            z = int(self.rng.integers(config.n_z))
            what = f"{ids[ridx]} burst {b} z={z}"
            clean = signals.butterworth_filter(signals.synth_burst(
                profiles[ridx], config.template_len,
                seed=checks.seed_sequence(self.seed, 1, ridx, b)), *fspec)
            noisy = signals.add_awgn(
                clean, SNR_DB, filter_spec=fspec,
                seed=checks.seed_sequence(self.seed, 2, ridx, b, z,
                                          checks.snr_key(SNR_DB)))
            checks.check_snr(clean.samples, noisy.samples, SNR_DB, what)
            checks.check_features(
                loaded.select(ids[ridx], [z])[b],
                checks.oracle_features(noisy.samples, params), what)

    def cleanup(self):
        self.path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# verify: one pre-captured burst at a time, dgt to svm_decide
# ---------------------------------------------------------------------------

class Verify(Workload):
    name = "verify"
    # Presentations per claimed identity: the radio itself, each other
    # authorized radio, each rogue.
    PER_OWN, PER_OTHER, PER_ROGUE = 60, 12, 5
    ORACLE_PRESENTATIONS = 48
    TEST_BURSTS = 10       # test rows per radio for evaluate_trial
    RATE_ENTRIES = 12

    def config(self):
        # One training realization of 40 bursts per radio. With 20 bursts a
        # radio's own acceptance fell to 0.77 on some seeds.
        return harness.ExperimentConfig(
            snr_grid=[SNR_DB], n_bursts=40, n_z=2, n_test_realizations=1,
            k_folds=5, n_train=40, n_train_other=20, nr_grid=[20, 60, 120],
            methods=["relieff"], master_seed=self.seed)

    def setup(self):
        profiles = harness.default_cohort()
        trial = _trial_one(profiles)
        config = self.config()
        # The training realization of the six authorized radios, then a
        # test realization of all 18 radios captured under a separate master
        # seed. Rogue rows are in the store before training, so the access
        # log shows whether training reads them.
        store = harness.generate_dataset(
            _by_id(profiles, trial.authorized_ids), SNR_DB,
            dataclasses.replace(config, n_z=1, n_test_realizations=0))
        tests = harness.generate_dataset(profiles, SNR_DB, dataclasses.replace(
            config, n_bursts=self.TEST_BURSTS, n_z=1, n_test_realizations=0,
            master_seed=self.seed + TEST_SEED_OFFSET))
        test_z = config.test_realizations[0]
        for p in profiles:
            for row in tests.select(p.radio_id):
                store.add(fingerprint.Fingerprint(
                    features=row, radio_id=p.radio_id, snr_db=SNR_DB,
                    realization=test_z))
        mark = len(store.access_log)
        models = {
            claimed: harness.train_best_model(trial, claimed, "relieff",
                                              SNR_DB, store, config)
            for claimed in trial.authorized_ids
        }
        touched = list(store.access_log[mark:])
        report = harness.evaluate_trial(trial, SNR_DB, "relieff", models,
                                        store, config)
        fspec = (config.filter_order, config.filter_cutoff)
        index = {p.radio_id: i for i, p in enumerate(profiles)}
        next_burst = dict.fromkeys(index, 0)
        presentations = []
        for claimed in trial.authorized_ids:
            for profile in profiles:
                rid = profile.radio_id
                if rid == claimed:
                    kind, count = "own", self.PER_OWN
                elif rid in trial.authorized_ids:
                    kind, count = "other", self.PER_OTHER
                else:
                    kind, count = "rogue", self.PER_ROGUE
                for _ in range(count):
                    b = next_burst[rid]
                    next_burst[rid] += 1
                    key = (index[rid], b)
                    clean = signals.butterworth_filter(signals.synth_burst(
                        profile, config.template_len,
                        seed=checks.seed_sequence(
                            self.seed, PRESENT_BURST_KEY, *key)), *fspec)
                    noisy = signals.add_awgn(
                        clean, SNR_DB, filter_spec=fspec,
                        seed=checks.seed_sequence(
                            self.seed, PRESENT_NOISE_KEY, *key))
                    presentations.append((claimed, kind, noisy))
        return {"trial": trial, "config": config, "store": store,
                "models": models, "touched": touched, "report": report,
                "presentations": presentations}

    def round(self, state):
        models = state["models"]
        params = gabor.GaborParams()
        decisions, op_ms, failed = [], [], 0
        t_round = time.perf_counter()
        for claimed, _, burst in state["presentations"]:
            cand = models[claimed]
            t0 = time.perf_counter()
            try:
                tf = gabor.normalize_tf(gabor.dgt(burst, params))
                fp = fingerprint.gen_fingerprint(tf)
                x = cand.meta["reducer"].transform(fp.features, cand.n_r)[0]
                decision = svm.svm_decide(cand.model, x)
            except RfdnaError:
                failed += 1
                decision = None
            op_ms.append(1e3 * (time.perf_counter() - t0))
            decisions.append(decision)
        dt = time.perf_counter() - t_round
        return Round(dt, op_ms, len(decisions), failed, decisions)

    def check(self, state, rounds):
        models, pres = state["models"], state["presentations"]
        trial, store, report = state["trial"], state["store"], state["report"]
        self.observed = {
            "min_tvr": min(e["tvr"] for e in report.rows("authorized")),
            "max_fvr": max(e["fvr"] for e in report.entries
                           if e["kind"] != "authorized"),
            "selected_nr": {c: int(m.n_r) for c, m in models.items()},
        }
        checks.check_rogue_free(state["touched"], trial.authorized_ids,
                                "verify set-up")
        _check_models(models)
        checks.check_report(report, len(trial.authorized_ids),
                            len(trial.rogue_ids))
        test_z = state["config"].test_realizations
        picks = self.rng.choice(len(report.entries), self.RATE_ENTRIES,
                                replace=False)
        for i in sorted(picks):
            entry = report.entries[i]
            checks.check_report_rate(entry, models[entry["claimed_id"]].model,
                                     store.select(entry["actual_id"], test_z))
        decisions = rounds[-1].output
        for r in rounds[:-1]:
            checks.require(r.output == decisions,
                           "rounds made different decisions")
        ok = [i for i, d in enumerate(decisions) if d is not None]
        own = [decisions[i] == 1 for i in ok if pres[i][1] == "own"]
        spoof = [decisions[i] == 1 for i in ok if pres[i][1] != "own"]
        if own and spoof:
            self.observed["authorized_acceptance"] = float(np.mean(own))
            self.observed["spoof_acceptance"] = float(np.mean(spoof))
            checks.check_acceptance(self.observed["authorized_acceptance"],
                                    self.observed["spoof_acceptance"])
        params = gabor.GaborParams()
        picks = self.rng.choice(len(ok), min(self.ORACLE_PRESENTATIONS,
                                             len(ok)), replace=False)
        for i in sorted(ok[p] for p in picks):
            claimed, kind, burst = pres[i]
            feats = checks.oracle_features(burst.samples, params)
            what = f"presentation {i} ({kind} for {claimed})"
            checks.check_decision(models[claimed].model, feats, decisions[i],
                                  what)


# ---------------------------------------------------------------------------
# rank: all eight selection methods on each trial-1 training pool
# ---------------------------------------------------------------------------

class Rank(Workload):
    name = "rank"
    ORACLE_FEATURES = 8

    def config(self):
        # Two training realizations, no test realization: the pool of each
        # claimed radio holds 24 of its rows and 8 of each other's, which
        # keeps a round (six NCA fits) near a third of the run length.
        return harness.ExperimentConfig(
            snr_grid=[SNR_DB], n_bursts=12, n_z=2, n_test_realizations=0,
            n_train=24, n_train_other=8, master_seed=self.seed)

    def setup(self):
        profiles = harness.default_cohort()
        trial = _trial_one(profiles)
        config = self.config()
        store = harness.generate_dataset(
            _by_id(profiles, trial.authorized_ids), SNR_DB, config)
        pools = {claimed: _training_pool(store, trial, claimed, config)
                 for claimed in trial.authorized_ids}
        return {"config": config, "pools": pools}

    def round(self, state):
        config, pools = state["config"], state["pools"]
        fitted, failed = {}, 0
        t0 = time.perf_counter()
        for claimed, pool in pools.items():
            for method in harness.METHODS:
                try:
                    fitted[(claimed, method)] = harness.Reducer(method).fit(
                        pool, config)
                except RfdnaError:
                    failed += 1
        dt = time.perf_counter() - t0
        n = len(pools) * len(harness.METHODS)
        return Round(dt, [1e3 * dt / n], n, failed, fitted)

    def check(self, state, rounds):
        config, pools = state["config"], state["pools"]
        fitted = rounds[-1].output
        for r in rounds[:-1]:
            for key, red in r.output.items():
                later = fitted.get(key)
                if red.ranking is not None and later is not None:
                    checks.require(
                        np.array_equal(red.ranking.order,
                                       later.ranking.order),
                        f"{key}: rounds produced different rankings")
        brute = list(pools)[int(self.rng.integers(len(pools)))]
        for (claimed, method), red in sorted(fitted.items()):
            pool = pools[claimed]
            what = f"{claimed} {method}"
            feats = self.rng.choice(checks.N_FEATURES, self.ORACLE_FEATURES,
                                    replace=False)
            if red.ranking is not None:
                checks.check_permutation(red.ranking.order, what)
            if method == "relieff" and claimed == brute:
                checks.check_relieff(red.ranking.scores, pool.X, pool.labels,
                                     config.relieff_neighbors, what)
            elif method == "ttest":
                checks.check_welch(red.ranking, pool.X1, pool.X2, feats, what)
            elif method == "bc":
                bins = max(2, int(np.ceil(np.sqrt(pool.X.shape[0]))))
                checks.check_bc(red.ranking, pool.X1, pool.X2, feats, bins,
                                what)
            elif method == "pca":
                checks.check_pca(red.basis, pool.X, what)
            elif method == "lda":
                checks.check_lda(red.basis, pool.X1, pool.X2, 1e-6, what)
            elif method == "nca":
                checks.check_nca(red.ranking, what)
            elif method == "dra":
                checks.check_relevance(red.ranking, what)


WORKLOADS = {w.name: w for w in (Capture, Verify, Rank)}
