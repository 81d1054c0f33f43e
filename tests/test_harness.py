import copy
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import rfdna.harness as harness
from rfdna.errors import (InvalidModel, InvalidValue, MissingData,
                          NumericalFailure)
from rfdna.fingerprint import N_FEATURES, Fingerprint, FingerprintStore
from rfdna.harness import (
    ExperimentConfig,
    Reducer,
    TrialConfig,
    VerificationReport,
    Verifier,
    default_cohort,
    default_trials,
    emit_report,
    evaluate_trial,
    generate_dataset,
    train_best_model,
    training_pool,
)
from rfdna.modelsel import model_quality, passes_gate
from rfdna.svm import svm_score
from rfdna.signals import CAPTURE_FILTER, TEMPLATE_LEN
from rfdna import cli

from oracles import generate_dataset_serial, train_best_model_reference


def tiny_config(**overrides):
    base = dict(
        snr_grid=[21.0], n_bursts=8, n_z=2, k_folds=2, n_train=8,
        n_train_other=8, nr_grid=[5, 20], methods=["relieff"], master_seed=0,
        relieff_neighbors=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def trial_report(trial, snr_db, method, store, config):
    """Train every authorized radio's verifier, then score the trial, as
    ``snr_sweep`` does for each trial."""
    models = harness.train_trial(trial, snr_db, method, store, config)
    return evaluate_trial(trial, snr_db, method, models, store, config)


def write_config(config, path):
    """Write ``config`` as the JSON object ``ExperimentConfig.from_json``
    reads."""
    Path(path).write_text(json.dumps(dataclasses.asdict(config)))


@pytest.fixture(scope="module")
def cohort():
    return default_cohort()


@pytest.fixture(scope="module")
def trials(cohort):
    return default_trials([p.radio_id for p in cohort])


@pytest.fixture(scope="module")
def store21(cohort):
    return generate_dataset(cohort, 21.0, tiny_config())


@pytest.fixture(scope="module")
def trial1_models(trials, store21):
    config = tiny_config()
    trial = trials[0]
    store = copy.deepcopy(store21)
    store.access_log.clear()
    models = {
        claimed: train_best_model(trial, claimed, "relieff", 21.0, store,
                                  config)
        for claimed in trial.authorized_ids
    }
    return models, store.access_log[:]


@pytest.fixture(scope="module")
def report(trials, store21, trial1_models):
    models, _ = trial1_models
    return evaluate_trial(trials[0], 21.0, "relieff", models, store21,
                          tiny_config())


class TestConfig:
    def test_realization_split(self):
        config = tiny_config(n_z=4, n_test_realizations=1, n_train=9,
                             n_train_other=9)
        assert config.train_realizations == [0, 1, 2]
        assert config.test_realizations == [3]

    def test_needs_training_realizations(self):
        with pytest.raises(InvalidValue):
            tiny_config(n_z=1, n_test_realizations=1)

    def test_json_roundtrip(self, tmp_path):
        config = tiny_config(master_seed=99)
        path = tmp_path / "config.json"
        write_config(config, path)
        assert ExperimentConfig.from_json(path) == config

    def test_capture_chain_is_not_a_setting(self):
        config = tiny_config()
        assert config.template_len == TEMPLATE_LEN
        assert (config.filter_order, config.filter_cutoff) == CAPTURE_FILTER
        assert not {"template_len", "filter_order", "filter_cutoff"} & {
            f.name for f in dataclasses.fields(config)}

    def test_snr_grid_sorted(self):
        assert tiny_config(snr_grid=[27, 3, 21]).snr_grid == [3, 21, 27]

    @pytest.mark.parametrize("grid", [
        [], [None], [21.0, None], [float("inf")], [float("nan")], ["21"],
        [True],
    ])
    def test_snr_grid_must_be_finite_numbers(self, grid):
        with pytest.raises(InvalidValue):
            tiny_config(snr_grid=grid)

    @pytest.mark.parametrize("methods", [["foo"], ["relieff", "foo"], []])
    def test_unknown_method_rejected(self, methods):
        with pytest.raises(InvalidValue):
            tiny_config(methods=methods)

    @pytest.mark.parametrize("overrides", [
        {"n_bursts": 0}, {"n_bursts": 2.5}, {"n_bursts": True},
        {"k_folds": 0}, {"k_folds": 1},
        {"n_train": 0}, {"n_train_other": 0},
        # 3 training realizations; the other quota is valid in each case
        {"n_z": 4, "n_train": 2, "n_train_other": 9},
        {"n_z": 4, "n_train": 9, "n_train_other": 2},
        {"n_z": 4, "n_train": 8, "n_train_other": 9},   # does not split
        {"n_z": 4, "n_train": 9, "n_train_other": 10},
        {"n_z": 3, "n_train": 5},                       # 2 realizations
        {"relieff_neighbors": 0},
        {"nr_grid": []}, {"nr_grid": [0]}, {"nr_grid": [-5, 10]},
        {"nr_grid": [2.5]}, {"nr_grid": [True]},
        {"n_test_realizations": -1},
        # beyond harness.MAX_ABS_SNR_DB
        {"snr_grid": [21.0, 5000.0]}, {"snr_grid": [-5000.0, 21.0]},
        {"snr_grid": [1000.5]},
        # a repeated entry
        {"methods": ["bc", "relieff", "bc"]}, {"snr_grid": [21.0, 27.0, 21]},
        {"nr_grid": [5, 20, 5]},
        # a scalar where a list belongs
        {"snr_grid": 21}, {"nr_grid": 5}, {"methods": 5},
        # a seed SeedSequence refuses, or one it would truncate
        {"master_seed": -1}, {"master_seed": "x"}, {"master_seed": 1.5},
        {"master_seed": True},
    ])
    def test_bad_values_rejected(self, overrides):
        with pytest.raises(InvalidValue):
            tiny_config(**overrides)

    def test_snr_limits_accepted(self):
        limit = harness.MAX_ABS_SNR_DB
        assert tiny_config(snr_grid=[limit, -limit]).snr_grid == [-limit,
                                                                   limit]

    def test_smallest_values_accepted(self, trials):
        config = tiny_config(n_bursts=1, n_z=3, k_folds=2, n_train=2,
                             n_train_other=2, relieff_neighbors=1,
                             nr_grid=[1], n_test_realizations=1)
        store = FingerprintStore()
        for rid in trials[0].authorized_ids:
            for z in range(3):
                store.add(Fingerprint(np.full(N_FEATURES, z + 1.0),
                                      radio_id=rid, realization=z))
        pool, blocks, short = training_pool(store, trials[0], "R01", config)
        assert [(len(X1), len(X2)) for X1, X2 in blocks] == [(1, 5), (1, 5)]
        assert short is False


class TestCohortAndTrials:
    def test_cohort_shape(self, cohort):
        assert len(cohort) == 18
        ids = [p.radio_id for p in cohort]
        assert len(set(ids)) == 18
        offsets = [p.carrier_freq_offset for p in cohort]
        assert len(set(round(v, 9) for v in offsets)) == 18

    def test_cohort_deterministic(self, cohort):
        assert default_cohort() == cohort

    def test_trial_layout(self, cohort, trials):
        ids = [p.radio_id for p in cohort]
        assert len(trials) == 3
        seen = []
        for t in trials:
            assert len(t.authorized_ids) == 6
            assert len(t.rogue_ids) == 12
            assert set(t.authorized_ids) | set(t.rogue_ids) == set(ids)
            seen.extend(t.authorized_ids)
        assert sorted(seen) == sorted(ids)

    def test_trial_validation(self):
        with pytest.raises(InvalidValue):
            TrialConfig(1, ["a"], ["b"] * 12)
        with pytest.raises(InvalidValue):
            TrialConfig(1, ["a"] * 6, ["a"] + ["b"] * 11)
        with pytest.raises(InvalidValue):
            default_trials(["R%02d" % i for i in range(4)])


class TestDataset:
    def test_counts_and_replay(self, cohort):
        config = tiny_config(n_bursts=3)
        a = generate_dataset(cohort[:2], 15.0, config)
        b = generate_dataset(cohort[:2], 15.0, config)
        assert len(a) == 2 * 3 * 2
        for rid in ("R01", "R02"):
            for z in (0, 1):
                ra, rb = a.select(rid, [z]), b.select(rid, [z])
                assert ra.shape == (3, N_FEATURES)
                assert np.array_equal(ra, rb)

    def test_noise_realizations_differ(self, cohort):
        config = tiny_config(n_bursts=2)
        store = generate_dataset(cohort[:1], 9.0, config)
        assert not np.array_equal(store.select("R01", [0]),
                                  store.select("R01", [1]))

    def test_snr_changes_fingerprints(self, cohort):
        config = tiny_config(n_bursts=2)
        lo = generate_dataset(cohort[:1], 0.0, config)
        hi = generate_dataset(cohort[:1], 27.0, config)
        assert not np.array_equal(lo.select("R01"), hi.select("R01"))


class TestParallelDataset:
    """Radios are fingerprinted on a thread pool; the store must not depend
    on the worker count."""

    @pytest.mark.parametrize("cpus, workers", [(1, 1), (2, 2), (3, 3),
                                               (64, 4)])
    def test_store_bytes_match_serial_loop(self, cohort, tmp_path,
                                           monkeypatch, cpus, workers):
        config = tiny_config(n_bursts=2, master_seed=7)
        pools = []
        real_pool = harness.ThreadPoolExecutor
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(harness, "ThreadPoolExecutor",
                            lambda max_workers: pools.append(max_workers)
                            or real_pool(max_workers=max_workers))
        got, want = tmp_path / "threaded.rfdn", tmp_path / "serial.rfdn"
        generate_dataset(cohort[:4], 15.0, config).save(got)
        generate_dataset_serial(cohort[:4], 15.0, config).save(want)
        assert pools == [workers]
        assert got.read_bytes() == want.read_bytes()

    def test_columns_and_bytes_match_rows_added_one_by_one(self, cohort,
                                                             tmp_path):
        config = tiny_config(n_bursts=2, n_z=2, n_test_realizations=1,
                             n_train=2, n_train_other=2, master_seed=3)
        got = generate_dataset(cohort[:3], 15.0, config)
        want = generate_dataset_serial(cohort[:3], 15.0, config)
        assert len(got) == 3 * 2 * 2
        assert got.radio_ids() == want.radio_ids() == ["R01", "R02", "R03"]
        for column in ("_features", "_id_code", "_realization"):
            a, b = getattr(got, column), getattr(want, column)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        got.save(tmp_path / "got.rfdn")
        want.save(tmp_path / "want.rfdn")
        assert ((tmp_path / "got.rfdn").read_bytes()
                == (tmp_path / "want.rfdn").read_bytes())

    def test_store_is_built_from_whole_columns(self, cohort, monkeypatch):
        def refuse(self, fp):
            raise AssertionError("generate_dataset added a row")

        monkeypatch.setattr(FingerprintStore, "add", refuse)
        assert len(generate_dataset(cohort[:2], 15.0,
                                    tiny_config(n_bursts=1))) == 4

    @pytest.mark.parametrize("n_bursts", [2**40, 2**70])
    def test_unallocatable_dataset_refused_before_any_worker(
            self, cohort, monkeypatch, n_bursts):
        pools = []
        monkeypatch.setattr(harness, "ThreadPoolExecutor",
                            lambda max_workers: pools.append(max_workers))
        with pytest.raises(InvalidValue, match="cannot hold") as info:
            generate_dataset(cohort[:3], 15.0,
                             tiny_config(n_bursts=n_bursts))
        assert info.type is InvalidValue
        assert pools == []

    def test_repeated_radio_id_refused_before_allocation(self, cohort,
                                                         monkeypatch):
        # Two different emitters under one id would merge into one radio.
        # The id check comes first: this dataset could not be allocated.
        twin = dataclasses.replace(cohort[1], radio_id="R01")
        pools = []
        monkeypatch.setattr(harness, "ThreadPoolExecutor",
                            lambda max_workers: pools.append(max_workers))
        with pytest.raises(InvalidValue, match="repeat a radio id") as info:
            generate_dataset([cohort[0], twin], 15.0,
                             tiny_config(n_bursts=2**70))
        assert info.type is InvalidValue
        assert pools == []

    def test_worker_error_reaches_caller(self, cohort, monkeypatch):
        # -4000 dB passes the finite-SNR check; add_awgn refuses it inside
        # every worker, since no finite noise scale gives that SNR.
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        with pytest.raises(InvalidValue, match="noise scale") as info:
            generate_dataset(cohort[:3], -4000.0, tiny_config(n_bursts=1))
        assert info.type is InvalidValue

    @pytest.mark.parametrize("snr", [float("nan"), float("inf"), None, "21"])
    def test_bad_snr_rejected(self, cohort, snr):
        with pytest.raises(InvalidValue):
            generate_dataset(cohort[:2], snr, tiny_config(n_bursts=1))

    def test_first_failing_radio_in_cohort_order_wins(self, cohort,
                                                      monkeypatch):
        # R02 fails after R03 in time; the caller still sees R02's error.
        real_synth = harness.synth_burst

        def synth(profile, *args, **kwargs):
            if profile.radio_id == "R02":
                time.sleep(0.2)
                raise InvalidValue("R02")
            if profile.radio_id == "R03":
                raise NumericalFailure("R03")
            return real_synth(profile, *args, **kwargs)

        monkeypatch.setattr(harness, "synth_burst", synth)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
        with pytest.raises(InvalidValue, match="R02"):
            generate_dataset(cohort[:3], 15.0, tiny_config(n_bursts=1))

    def test_empty_cohort_gives_empty_store(self):
        assert len(generate_dataset([], 15.0, tiny_config())) == 0


class TestReducer:
    def test_unknown_method(self, store21):
        import rfdna.featsel as featsel
        rows = store21.select("R01", [0])
        fset = featsel.LabeledFingerprintSet(
            X=np.concatenate([rows, store21.select("R02", [0])]),
            labels=np.concatenate([np.ones(len(rows)), np.full(len(rows), 2)]),
        )
        with pytest.raises(InvalidValue):
            Reducer("nonsense").fit(fset, tiny_config())

    def test_lda_single_component(self, store21):
        import rfdna.featsel as featsel
        rows1 = store21.select("R01", [0])
        rows2 = store21.select("R02", [0])
        fset = featsel.LabeledFingerprintSet(
            X=np.concatenate([rows1, rows2]),
            labels=np.concatenate([np.ones(len(rows1)),
                                   np.full(len(rows2), 2)]),
        )
        red = Reducer("lda").fit(fset, tiny_config())
        assert red.nr_values([1, 5, 50]) == [1]
        assert red.transform(rows1, 1).shape == (len(rows1), 1)
        assert set(red.cut(1)) == {"basis", "mean"}

    def test_ranking_transform_selects_columns(self, store21):
        import rfdna.featsel as featsel
        rows1 = store21.select("R01", [0])
        rows2 = store21.select("R02", [0])
        fset = featsel.LabeledFingerprintSet(
            X=np.concatenate([rows1, rows2]),
            labels=np.concatenate([np.ones(len(rows1)),
                                   np.full(len(rows2), 2)]),
        )
        red = Reducer("relieff").fit(fset, tiny_config())
        idx = red.cut(5)["indices"]
        assert np.array_equal(red.transform(rows1, 5), rows1[:, idx])
        assert red.nr_values([1, 5, 500]) == [1, 5]


class TestPcaRank:
    """PCA keeps at most the pool's numerical rank: the 48-row pools of
    ``tiny_config`` give 47 components."""

    def test_nr_values_stop_at_the_rank(self, trials, store21):
        pool = training_pool(store21, trials[0], "R01", tiny_config())[0]
        assert pool.X.shape == (48, N_FEATURES)
        red = Reducer("pca").fit(pool, tiny_config())
        assert red.basis.basis.shape == (N_FEATURES, 47)
        assert red.nr_values([1, 20, 47, 48, 100, 204]) == [1, 20, 47]

    def test_no_candidate_above_the_rank(self, trials, store21):
        cand = train_best_model(trials[0], "R01", "pca", 21.0, store21,
                                tiny_config(nr_grid=[5, 47, 48, 100]))
        assert [c.n_r for c in cand.meta["candidates"]] == [5, 47]
        for c in cand.meta["candidates"]:
            assert c.model.support_vectors.shape[1] == c.n_r

    def test_rank_capped_verifier_reloads_bitwise(self, trials, store21,
                                                  tmp_path):
        cand = train_best_model(trials[0], "R01", "pca", 21.0, store21,
                                tiny_config(nr_grid=[47, 100]))
        path = tmp_path / "verifier.npz"
        Verifier.of(cand).save(path)
        v = Verifier.load(path)
        assert v.n_r == 47
        assert same_bits(v.cut["basis"],
                         cand.meta["reducer"].basis.basis)
        rows = store21.select("R07", [1])
        want = svm_score(cand.model, cand.meta["reducer"].transform(rows, 47))
        got = svm_score(v.model, harness.apply_cut(v.cut, rows))
        assert got.tobytes() == want.tobytes()


class TestTraining:
    def test_unauthorized_claim_rejected(self, trials, store21):
        with pytest.raises(InvalidModel):
            train_best_model(trials[0], "R07", "relieff", 21.0, store21,
                             tiny_config())

    def test_empty_store_rejected(self, trials):
        with pytest.raises(MissingData):
            train_best_model(trials[0], "R01", "relieff", 21.0,
                             FingerprintStore(), tiny_config())

    def test_selected_candidate_structure(self, trial1_models):
        models, _ = trial1_models
        config = tiny_config()
        for claimed, cand in models.items():
            assert cand.n_r in config.nr_grid
            assert cand.meta["claimed_id"] == claimed
            assert len(cand.meta["candidates"]) >= 1
            assert any(c is cand for c in cand.meta["candidates"])
            assert cand.model.feature_indices is not None
            assert len(cand.model.feature_indices) == cand.n_r
            assert 0.0 <= cand.tvr_train <= 1.0
            assert 0.0 <= cand.fvr_others_train <= 1.0

    def test_training_never_touches_rogues(self, trials, trial1_models):
        _, log = trial1_models
        assert set(log) <= set(trials[0].authorized_ids)
        assert len(log) > 0

    def test_training_replay_is_deterministic(self, trials, store21):
        config = tiny_config()
        a = train_best_model(trials[0], "R01", "relieff", 21.0, store21,
                             config)
        b = train_best_model(trials[0], "R01", "relieff", 21.0, store21,
                             config)
        assert a.n_r == b.n_r
        assert np.array_equal(a.model.support_vectors, b.model.support_vectors)
        assert a.model.bias == b.model.bias


def same_bits(a, b) -> bool:
    """Equal to the last bit: same dtype, shape and bytes (None matches
    only None)."""
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


class TestAgainstReferenceSweep:
    """``train_best_model`` against
    ``tests/oracles.train_best_model_reference``, the sweep that rebuilds
    every realization's labels, folds and cut at every retained count."""

    @pytest.fixture(scope="class")
    def store20(self, cohort):
        # Blocks of 10 and 50 rows: large enough that a PCA or LDA cut of
        # the joined block differs in its last bits from the cut of each
        # class block.
        return generate_dataset(cohort[:6], 21.0,
                                tiny_config(n_bursts=20, n_z=3))

    @pytest.mark.parametrize("method", ["relieff", "bc", "pca", "lda",
                                        "ttest", "dra"])
    @pytest.mark.parametrize("store_name, overrides", [
        ("store21", {}),
        ("store21", {"n_z": 3, "k_folds": 3, "nr_grid": [1, 7, 30]}),
        ("store20", {"n_bursts": 20, "n_z": 3, "k_folds": 3, "n_train": 20,
                     "n_train_other": 20, "nr_grid": [1, 7, 30, 100]})],
        ids=["one-realization", "two-realizations", "large-blocks"])
    def test_every_candidate_is_bitwise_equal(self, trials, request, method,
                                              store_name, overrides):
        config = tiny_config(**overrides)
        for claimed in ("R01", "R04"):
            runs = []
            for train in (train_best_model, train_best_model_reference):
                store = copy.deepcopy(request.getfixturevalue(store_name))
                store.access_log.clear()
                runs.append((train(trials[0], claimed, method, 21.0, store,
                                   config), store.access_log))
            (got, got_log), (want, want_log) = runs
            assert got_log == want_log
            assert got.n_r == want.n_r
            for key in ("gate_fallback", "pool_underfilled", "claimed_id",
                        "snr_db"):
                assert got.meta[key] == want.meta[key]
            for a, b in zip(got.meta["candidates"], want.meta["candidates"],
                            strict=True):
                assert (a.n_r, a.tvr_train, a.fvr_others_train) == (
                    b.n_r, b.tvr_train, b.fvr_others_train)
                for name in ("support_vectors", "dual_coeffs", "bias",
                             "kernel_zeta", "cost_c", "feature_indices",
                             "scaler_mean", "scaler_scale"):
                    assert same_bits(getattr(a.model, name),
                                     getattr(b.model, name)), name
                assert a.model.diagnostics.keys() == b.model.diagnostics.keys()
                for name, value in a.model.diagnostics.items():
                    assert same_bits(value, b.model.diagnostics[name]), name
                for f in dataclasses.fields(a.pmf_pair):
                    assert same_bits(getattr(a.pmf_pair, f.name),
                                     getattr(b.pmf_pair, f.name)), f.name


class TestDegradationMeta:
    """The selected candidate and the report say whether model choice fell
    back and whether the training pool fell short of its quota."""

    def test_no_gate_survivor_sets_fallback(self, trial1_models):
        models, _ = trial1_models
        cand = models["R04"]
        assert not any(map(passes_gate, cand.meta["candidates"]))
        assert cand.meta["gate_fallback"] is True

    def test_normal_config_sets_neither(self, trials, store21, trial1_models):
        models, _ = trial1_models
        cand = models["R01"]
        assert any(map(passes_gate, cand.meta["candidates"]))
        assert cand.meta["gate_fallback"] is False
        assert cand.meta["pool_underfilled"] is False
        assert training_pool(store21, trials[0], "R01", tiny_config())[2] \
            is False

    def test_report_meta_has_both_per_claimed_radio(self, trials, store21):
        ids = trials[0].authorized_ids
        report = trial_report(trials[0], 21.0, "relieff", store21,
                              tiny_config())
        assert report.meta["gate_fallback"] == {r: r == "R04" for r in ids}
        assert report.meta["pool_underfilled"] == dict.fromkeys(ids, False)

    @pytest.mark.parametrize("n_train,n_train_other,short", [
        (10, 10, False), (12, 10, True), (10, 12, True)])
    def test_pool_quota_per_class(self, trials, n_train, n_train_other,
                                  short):
        # Five rows per radio and realization; two training realizations,
        # so a quota of 6 rows per realization is one row short.
        store = FingerprintStore()
        rows = np.random.default_rng(0).random((6 * 3 * 5, N_FEATURES))
        for k, row in enumerate(rows):
            store.add(Fingerprint(row, radio_id=trials[0].authorized_ids[
                k // 15], realization=k // 5 % 3))
        config = tiny_config(n_bursts=5, n_z=3, n_train=n_train,
                             n_train_other=n_train_other)
        assert training_pool(store, trials[0], "R01", config)[2] is short

    def test_replay_config_is_underfilled(self, cohort, trials):
        # Criterion 7's replay config: one training realization of 6 bursts
        # against a quota of 30 rows per other authorized radio.
        config = tiny_config(n_bursts=6, n_train=6, n_train_other=30,
                             nr_grid=[10])
        store = generate_dataset(cohort, 21.0, config)
        report = trial_report(trials[0], 21.0, "relieff", store, config)
        assert report.meta["pool_underfilled"] == dict.fromkeys(
            trials[0].authorized_ids, True)


class TestEvaluation:
    def test_entry_structure(self, report):
        assert len(report.rows(kind="authorized")) == 6
        assert len(report.rows(kind="other")) == 30
        assert len(report.rows(kind="rogue")) == 72
        assert len(report.entries) == 108

    def test_rate_identities(self, report):
        for e in report.entries:
            if e["kind"] == "authorized":
                assert e["tvr"] + e["frr"] == pytest.approx(1.0, abs=1e-12)
            else:
                assert e["fvr"] + e["trr"] == pytest.approx(1.0, abs=1e-12)
            assert e["n"] > 0

    def test_missing_model_rejected(self, trials, store21, trial1_models):
        models, _ = trial1_models
        partial = dict(list(models.items())[:-1])
        with pytest.raises(InvalidModel):
            evaluate_trial(trials[0], 21.0, "relieff", partial, store21,
                           tiny_config())

    def test_mispresented_model_rejected(self, trials, store21, trial1_models):
        models, _ = trial1_models
        ids = trials[0].authorized_ids
        swapped = dict(models)
        swapped[ids[0]], swapped[ids[1]] = models[ids[1]], models[ids[0]]
        with pytest.raises(InvalidModel):
            evaluate_trial(trials[0], 21.0, "relieff", swapped, store21,
                           tiny_config())

    @pytest.mark.parametrize("form", ["verifier", "candidate"])
    @pytest.mark.parametrize("method, snr", [("bc", 21.0), ("relieff", 3.0)],
                             ids=["method", "snr"])
    def test_verifier_of_other_settings_rejected(self, trials, store21,
                                                 trial1_models, form, method,
                                                 snr):
        # Relief-F models trained at 21 dB, as a Verifier or as the
        # candidate train_best_model returns: each knows what it was
        # trained for, so no caller can present it as anything else.
        models, _ = trial1_models
        if form == "verifier":
            models = {c: Verifier.of(cand) for c, cand in models.items()}
        with pytest.raises(InvalidModel, match=re.escape(
                f"('R01', 'relieff', 21.0) presented as "
                f"('R01', '{method}', {snr})")):
            evaluate_trial(trials[0], snr, method, models, store21,
                           tiny_config())

    def test_identity_checked_before_any_store_row_is_read(
            self, trials, store21, trial1_models):
        # A BC candidate at the third claimed id, among Relief-F ones: no
        # test realization of the first two is scored before the refusal.
        models, _ = trial1_models
        trial, config = trials[0], tiny_config()
        third = trial.authorized_ids[2]
        store = copy.deepcopy(store21)
        bc = train_best_model(trial, third, "bc", 21.0, store, config)
        store.access_log.clear()
        with pytest.raises(InvalidModel, match=re.escape(
                f"model of ('{third}', 'bc', 21.0) presented as "
                f"('{third}', 'relieff', 21.0)")):
            evaluate_trial(trial, 21.0, "relieff", {**models, third: bc},
                           store, config)
        assert store.access_log == []

    def test_gates_logic(self, report):
        good = VerificationReport(1, 21.0, "relieff", [
            {"kind": "authorized", "claimed_id": "a", "actual_id": "a",
             "n_r": 5, "tvr": 0.95, "frr": 0.05, "n": 10},
            {"kind": "rogue", "claimed_id": "a", "actual_id": "x",
             "n_r": 5, "fvr": 0.10, "trr": 0.90, "n": 10},
        ])
        assert good.gates_pass()
        bad = copy.deepcopy(good)
        bad.entries[1]["fvr"] = 0.11
        assert not bad.gates_pass()
        bad2 = copy.deepcopy(good)
        bad2.entries[0]["tvr"] = 0.89
        assert not bad2.gates_pass()

    def test_dict_roundtrip(self, trials, store21):
        def roundtrip(r):
            return VerificationReport.from_dict(
                json.loads(json.dumps(r.to_dict())))

        report = trial_report(trials[0], 21.0, "relieff", store21,
                              tiny_config())
        back = roundtrip(report)
        assert back.trial_id == report.trial_id
        assert back.snr_db == report.snr_db
        assert back.entries == report.entries
        assert set(back.meta["selected_nr"]) == set(trials[0].authorized_ids)
        assert back.meta == report.meta

        stub = VerificationReport(
            trial_id=1, snr_db=3.0, method="relieff", entries=[],
            meta={"skipped": True, "eliminated": True,
                  "eliminated_at_snr": 15.0})
        assert roundtrip(stub).meta == stub.meta


class TestVerifierFile:
    @pytest.fixture(scope="class")
    def saved(self, trials, store21, tmp_path_factory):
        """Per method: the fitted candidates of trial 1 and the verifiers
        saved from them and loaded back."""
        tmp = tmp_path_factory.mktemp("verifiers")
        out = {}
        for method in ("relieff", "bc", "pca", "lda"):
            config = tiny_config(methods=[method])
            cands = harness.train_trial(trials[0], 21.0, method, store21,
                                        config)
            loaded = {}
            for claimed, cand in cands.items():
                path = tmp / f"{method}_{claimed}.npz"
                Verifier.of(cand).save(path)
                loaded[claimed] = Verifier.load(path)
            out[method] = config, cands, loaded
        return out

    @pytest.mark.parametrize("method", ["relieff", "bc", "pca", "lda"])
    def test_loaded_verifiers_give_the_same_report(self, trials, store21,
                                                   saved, method):
        config, cands, loaded = saved[method]
        want = evaluate_trial(trials[0], 21.0, method, cands, store21, config)
        got = evaluate_trial(trials[0], 21.0, method, loaded, store21, config)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
        assert got.meta["selected_nr"] == {c: v.n_r
                                           for c, v in cands.items()}

    @pytest.mark.parametrize("method", ["relieff", "bc", "pca", "lda"])
    def test_loaded_scores_and_indices_are_the_fitted_ones(
            self, trials, store21, saved, method):
        _, cands, loaded = saved[method]
        rows = store21.select("R07", [1])
        for claimed, cand in cands.items():
            v = loaded[claimed]
            want = svm_score(cand.model, cand.meta["reducer"].transform(
                rows, cand.n_r))
            got = svm_score(v.model, harness.apply_cut(v.cut, rows))
            assert got.tobytes() == want.tobytes()
            if method in ("pca", "lda"):
                assert v.model.feature_indices is None
            else:
                assert np.array_equal(v.model.feature_indices,
                                      cand.model.feature_indices)
            assert v.flags == {key: cand.meta[key] for key in
                               ("gate_fallback", "pool_underfilled")}

    @pytest.fixture
    def one_file(self, saved, tmp_path):
        _, cands, _ = saved["relieff"]
        path = tmp_path / "verifier.npz"
        Verifier.of(cands["R01"]).save(path)
        return path

    def test_missing_and_truncated_files_rejected(self, one_file, tmp_path):
        with pytest.raises(InvalidValue):
            Verifier.load(tmp_path / "absent.npz")
        # The first member's compression method, in the central directory,
        # set to one zipfile does not support.
        data = bytearray(one_file.read_bytes())
        at = data.index(b"PK\x01\x02") + 10
        data[at:at + 2] = (99).to_bytes(2, "little")
        unsupported = tmp_path / "unsupported.npz"
        unsupported.write_bytes(bytes(data))
        with pytest.raises(InvalidValue):
            Verifier.load(unsupported)
        one_file.write_bytes(one_file.read_bytes()[:500])
        with pytest.raises(InvalidValue):
            Verifier.load(one_file)

    @pytest.mark.parametrize("change, check", [
        (lambda d: {"version": d["version"] + 1}, "version 1"),
        (lambda d: {"n_r": 0}, "array shapes"),
        (lambda d: {"support_vectors": d["support_vectors"][:, :-1]},
         "array shapes"),
        (lambda d: {"n_r": d["n_r"] + 1}, "array shapes"),
        (lambda d: {"indices": d["indices"][:-1]}, "array shapes"),
        (lambda d: {"indices": d["indices"] + N_FEATURES},
         "feature indices in 0..203"),
        (lambda d: {"dual_coeffs": d["dual_coeffs"][:-1]}, "array shapes"),
        (lambda d: {"bias": np.nan}, "finite arrays"),
        (lambda d: {"support_vectors": np.full_like(d["support_vectors"],
                                                    np.inf)},
         "finite arrays"),
    ], ids=["version", "n_r-0", "sv-columns", "n_r", "indices-length",
            "index-204", "dual-coeffs", "nan-bias", "inf-support-vector"])
    def test_wrong_version_or_inconsistent_arrays_rejected(self, one_file,
                                                           change, check):
        with np.load(one_file) as npz:
            data = {name: npz[name] for name in npz.files}
        np.savez(one_file, **{**data, **change(data)})
        with pytest.raises(InvalidValue, match=re.escape(
                f"verifier (fails {check}")):
            Verifier.load(one_file)

    @pytest.mark.parametrize("claimed, method, snr", [
        ("R02", "relieff", 21.0), ("R01", "bc", 21.0),
        ("R01", "relieff", 27.0)])
    def test_another_enrolment_rejected(self, trials, store21, saved,
                                        one_file, claimed, method, snr):
        # The file holds R01's Relief-F verifier at 21 dB; loading returns
        # what it holds, and evaluate_trial refuses it as anything else.
        config, _, loaded = saved["relieff"]
        v = Verifier.load(one_file)
        assert (v.claimed_id, v.method, v.snr_db) == ("R01", "relieff", 21.0)
        with pytest.raises(InvalidModel, match=re.escape(
                f"('R01', 'relieff', 21.0) presented as "
                f"('{claimed}', '{method}', {snr})")):
            evaluate_trial(trials[0], snr, method, {**loaded, claimed: v},
                           store21, config)


class TestEmission:
    def test_emit_formats(self, report, tmp_path):
        written = emit_report([report], tmp_path / "out")
        names = {p.name for p in written}
        assert "reports.json" in names
        assert "reports.csv" in names
        assert any(n.startswith("plotdata_trial1") for n in names)
        data = json.loads((tmp_path / "out" / "reports.json").read_text())
        assert len(data) == 1 and len(data[0]["entries"]) == 108
        csv_lines = (tmp_path / "out" / "reports.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + 108
        plot = json.loads(next(p for p in written
                               if p.name.startswith("plotdata")).read_text())
        assert len(plot["groups"]) == 6
        assert all(len(g["rogue_fvr"]) == 12 for g in plot["groups"])

    def test_emit_nothing_rejected(self, tmp_path):
        with pytest.raises(InvalidValue, match="no reports to emit"):
            emit_report([], tmp_path)


class TestSweepElimination:
    def test_failing_method_is_skipped_below_failure_snr(self, monkeypatch):
        calls, loaded = [], []

        def fake_evaluate_trial(trial, snr, method, models, store, config):
            calls.append((snr, trial.trial_id))
            ok = snr >= 20
            entry = {"kind": "authorized", "claimed_id": "a", "actual_id": "a",
                     "n_r": 5, "tvr": 1.0 if ok else 0.5,
                     "frr": 0.0 if ok else 0.5, "n": 4}
            return VerificationReport(trial.trial_id, snr, method, [entry])

        def store_at(snr):
            loaded.append(snr)
            return FingerprintStore()

        monkeypatch.setattr(harness, "train_trial", lambda *args: {})
        monkeypatch.setattr(harness, "evaluate_trial", fake_evaluate_trial)
        config = tiny_config(snr_grid=[3.0, 15.0, 21.0])
        trials = [TrialConfig(1, [f"A{i}" for i in range(6)],
                              [f"B{i}" for i in range(12)])]
        reports = harness.snr_sweep(trials, config, store_at)
        assert [r.snr_db for r in reports] == [21.0, 15.0, 3.0]
        assert reports[0].gates_pass()
        assert reports[1].meta.get("eliminated") is True
        assert reports[2].meta.get("skipped") is True
        assert reports[2].meta.get("eliminated_at_snr") == 15.0
        assert (3.0, 1) not in calls
        assert loaded == [21.0, 15.0]      # no store once all are eliminated


def loaded_after_import(module, prefixes) -> list:
    """The modules named by ``prefixes`` that importing ``module`` loads, in
    a fresh interpreter: this one has imported them all already."""
    code = (f"import json, sys, {module}; print(json.dumps(sorted(m for m "
            f"in sys.modules if m.startswith({tuple(prefixes)!r}))))")
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    return json.loads(out.stdout)


def test_cli_import_loads_no_scipy_signal_or_stats():
    assert loaded_after_import("rfdna.cli",
                               ["scipy.signal", "scipy.stats"]) == []


def test_package_import_loads_no_submodule_or_scipy():
    # The package root holds only __version__; each name is imported from
    # its module.
    assert loaded_after_import("rfdna", ["rfdna.", "scipy"]) == []


# Trial 1 with Relief-F at the CI command's config; prints the SHA-256 of
# the saved store, of each saved verifier and of the report.
_REPLAY = """
import hashlib, json, sys
from pathlib import Path
from rfdna.harness import (ExperimentConfig, Verifier, default_cohort,
                           default_trials, evaluate_trial, generate_dataset,
                           train_trial)
out = Path(sys.argv[1])
config = ExperimentConfig(snr_grid=[21.0], n_bursts=40, n_z=2, n_train=40,
                          n_train_other=20, nr_grid=[20, 60, 120])
profiles = default_cohort()
trial = default_trials([p.radio_id for p in profiles])[0]
store = generate_dataset(profiles, 21.0, config)
store.save(out / "store.rfdn")
models = train_trial(trial, 21.0, "relieff", store, config)
for claimed, cand in models.items():
    Verifier.of(cand).save(out / f"{claimed}.npz")
report = evaluate_trial(trial, 21.0, "relieff", models, store, config)
digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
digests["report"] = hashlib.sha256(json.dumps(
    report.to_dict(), sort_keys=True).encode()).hexdigest()
print(json.dumps(digests))
"""


def test_trial_replays_bitwise_under_one_and_two_blas_threads(tmp_path):
    src = Path(harness.__file__).resolve().parents[1]
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        run = subprocess.run(
            [sys.executable, "-c", _REPLAY, str(out)], capture_output=True,
            text=True, check=True, env={**os.environ, "PYTHONPATH": str(src),
                                        "OPENBLAS_NUM_THREADS": threads})
        digests.append(json.loads(run.stdout))
    assert len(digests[0]) == 8      # store, six verifiers, report
    assert digests[0] == digests[1]


def cli_config(**overrides):
    # Two realizations, one for training: each radio's training realization
    # holds 6 rows, above the per-realization quota of 4, so the training
    # pool takes a prefix of every block.
    return tiny_config(**{"n_bursts": 6, "n_train": 4, "n_train_other": 4,
                          **overrides})


@pytest.fixture(scope="class")
def cli_run(tmp_path_factory):
    """fingerprint -> select -> train -> evaluate through ``cli.main``."""
    tmp = tmp_path_factory.mktemp("cli")
    root = tmp / "data"
    config_path = tmp / "config.json"
    write_config(cli_config(), config_path)
    base = ["--data-root", str(root), "--config", str(config_path)]
    rc = {cmd: cli.main(base + [cmd])
          for cmd in ("fingerprint", "select", "train", "evaluate")}
    return root, rc


def store_path(root, tag="21") -> Path:
    """The one fingerprint store of SNR ``tag`` under ``root``; its name
    ends in a digest of the settings that made it."""
    (path,) = Path(root).glob(f"fingerprints_{tag}dB_*.rfdn")
    return path


def trained_path(root, kind, method, claimed, tag="21") -> Path:
    """The one ``kind`` file (``verifier``, ``candidates`` or ``ranking``)
    of ``method`` and ``claimed`` at SNR ``tag`` under ``root``; its name
    ends in a digest of the settings that trained it."""
    (path,) = Path(root).glob(f"{kind}_{method}_{claimed}_snr{tag}_*.*")
    return path


def report_json(**fields) -> str:
    """A one-report ``reports.json`` with one authorized entry, with
    ``fields`` replacing the report's own."""
    entry = {"kind": "authorized", "claimed_id": "R01", "actual_id": "R01",
             "n_r": 5, "tvr": 1.0, "n": 3}
    report = {"trial_id": 1, "snr_db": 21.0, "method": "relieff",
              "entries": [entry]}
    return json.dumps([{**report, **fields}])


def assert_refused(capsys, argv, error, text=""):
    """``cli.main(argv)`` refuses its input: exit status 2 and one stderr
    line naming ``error`` and holding ``text``."""
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"rfdna: {error.__name__}: ")
    assert text in err and err.count("\n") == 1


class TestCli:
    def test_fingerprint_report(self, cli_run, report):
        root, rc = cli_run
        assert rc["fingerprint"] == 0
        store = FingerprintStore.load(store_path(root))
        assert len(store) == 18 * 6 * 2

        emit_report([report], root / "reports_fixture")
        rc = cli.main(["--data-root", str(root), "report",
                       "--reports", str(root / "reports_fixture" /
                                        "reports.json"),
                       "--out", str(root / "reports2")])
        assert rc == 0
        assert (root / "reports2" / "reports.json").exists()

    def test_select_ranks_the_training_pool(self, cli_run, trials):
        root, rc = cli_run
        assert rc["select"] == 0
        store = FingerprintStore.load(store_path(root))
        cand = train_best_model(trials[0], "R01", "relieff", 21.0, store,
                                cli_config())
        ranking = cand.meta["reducer"].ranking
        with open(trained_path(root, "ranking", "relieff", "R01"),
                  newline="") as fh:
            rows = list(csv.reader(fh))
        # Best feature first; a score's repr reads back as the same float.
        assert rows == [["feature_index", "score", "rank", "method"]] + [
            [str(i), repr(float(ranking.scores[i])), str(rank), "relieff"]
            for rank, i in enumerate(ranking.order)]

    def test_train_exit_code_follows_gates(self, cli_run, trials):
        root, rc = cli_run
        store = FingerprintStore.load(store_path(root))
        gates = []
        for claimed in trials[0].authorized_ids:
            cand = train_best_model(trials[0], claimed, "relieff", 21.0,
                                    store, cli_config())
            gates.append(cand.tvr_train >= 0.90
                         and cand.fvr_others_train <= 0.10)
            assert trained_path(root, "verifier", "relieff", claimed).suffix \
                == ".npz"
            with open(trained_path(root, "candidates", "relieff", claimed),
                      newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["n_r", "tvr_train", "fvr_others_train", "bc",
                               "mean_distance", "variance_sum", "selected"]
            # One row per candidate in N_r order, floats as their repr.
            want = []
            for c in cand.meta["candidates"]:
                distance, bc, variance = model_quality(c.pmf_pair)
                want.append([str(c.n_r), *map(repr, (
                    c.tvr_train, c.fvr_others_train, bc, distance,
                    variance)), str(int(c.n_r == cand.n_r))])
            assert rows[1:] == want
        assert rc["train"] == (0 if all(gates) else 1)

    def test_evaluate_exit_code_follows_gates(self, cli_run, trials):
        root, rc = cli_run
        store = FingerprintStore.load(store_path(root))
        want = trial_report(trials[0], 21.0, "relieff", store, cli_config())
        data = json.loads((root / "reports" / "reports.json").read_text())
        assert data == [json.loads(json.dumps(want.to_dict()))]
        assert rc["evaluate"] == (0 if want.gates_pass() else 1)

    def test_evaluate_scores_the_saved_verifiers(self, cli_run, trials,
                                                 tmp_path, monkeypatch,
                                                 capsys):
        # A copy of the data root without retraining: evaluate reads the
        # verifier files and never calls train_best_model.
        root, _ = cli_run
        copy_root = tmp_path / "data"
        copy_root.mkdir()
        for path in [*root.glob("verifier_*.npz"), store_path(root)]:
            (copy_root / path.name).write_bytes(path.read_bytes())
        config_path = tmp_path / "config.json"
        write_config(cli_config(), config_path)

        def no_training(*args):
            raise AssertionError("evaluate retrained a verifier")

        monkeypatch.setattr(harness, "train_best_model", no_training)
        base = ["--data-root", str(copy_root), "--config", str(config_path)]
        cli.main(base + ["evaluate"])
        got = json.loads((copy_root / "reports" / "reports.json").read_text())
        want = json.loads((root / "reports" / "reports.json").read_text())
        assert got == want

        trained_path(copy_root, "verifier", "relieff", "R03").unlink()
        assert_refused(capsys, base + ["evaluate"], MissingData, "rfdna train")

    def test_evaluate_refuses_a_swapped_verifier_before_making_a_store(
            self, cli_run, tmp_path, capsys):
        # R02's Relief-F verifier under R01's file name, and no store: the
        # file is refused as it is loaded, so no cohort is fingerprinted.
        root, _ = cli_run
        copy_root = tmp_path / "data"
        copy_root.mkdir()
        for path in root.glob("verifier_*.npz"):
            (copy_root / path.name).write_bytes(path.read_bytes())
        trained_path(copy_root, "verifier", "relieff", "R01").write_bytes(
            trained_path(root, "verifier", "relieff", "R02").read_bytes())
        config_path = tmp_path / "config.json"
        write_config(cli_config(), config_path)
        assert_refused(capsys, ["--data-root", str(copy_root), "--config",
                                str(config_path), "evaluate"], InvalidModel,
                       "model of ('R02', 'relieff', 21.0) presented as "
                       "('R01', 'relieff', 21.0)\n")
        assert not list(copy_root.glob("fingerprints_*.rfdn"))
        assert not (copy_root / "reports").exists()

    def test_every_configured_method_is_trained_and_evaluated(
            self, cli_run, trials, tmp_path):
        root, _ = cli_run
        copy_root = tmp_path / "data"
        copy_root.mkdir()
        store_name = store_path(root).name
        (copy_root / store_name).write_bytes((root / store_name).read_bytes())
        config_path = tmp_path / "config.json"
        write_config(cli_config(), config_path)
        methods = ["bc", "relieff"]
        base = ["--data-root", str(copy_root), "--config", str(config_path),
                "--methods", methods[0], "--methods", methods[1]]
        rc = {cmd: cli.main(base + [cmd]) for cmd in ("train", "evaluate")}

        ids = trials[0].authorized_ids
        names = sorted(p.name for p in copy_root.glob("verifier_*.npz"))
        assert [name.rsplit("_", 1)[0] for name in names] == [
            f"verifier_{m}_{c}_snr21" for m in methods for c in ids]
        assert len({name.rsplit("_", 1)[1] for name in names}) == 1
        store = FingerprintStore.load(copy_root / store_name)
        train_ok, want = True, []
        for method in methods:
            models = harness.train_trial(trials[0], 21.0, method, store,
                                         cli_config())
            train_ok = train_ok and all(map(passes_gate, models.values()))
            want.append(evaluate_trial(trials[0], 21.0, method, models,
                                       store, cli_config()))
        data = json.loads((copy_root / "reports" / "reports.json")
                          .read_text())
        assert [d["method"] for d in data] == methods
        assert data == [json.loads(json.dumps(r.to_dict())) for r in want]
        assert rc["train"] == (0 if train_ok else 1)
        assert rc["evaluate"] == (
            0 if all(r.gates_pass() for r in want) else 1)

    @pytest.mark.parametrize("config, command, error", [
        (None, "evaluate", MissingData), ({"n_z": 1}, "select", InvalidValue),
        (None, "select --claimed-id ../x", InvalidModel),
        ({"n_z": 1}, "train", InvalidValue), (None, "report", InvalidValue),
        ({"n_z": 1}, "fingerprint", InvalidValue),
        ({"n_z": 1}, "sweep", InvalidValue),
        ({"master_seed": -1}, "fingerprint", InvalidValue),
        # nothing held out to score
        ({"n_test_realizations": 0}, "evaluate", InvalidValue),
        ({"n_test_realizations": 0}, "sweep", InvalidValue)],
        ids=["evaluate", "select", "claimed-id", "train", "report",
             "fingerprint", "sweep", "master-seed", "untested-evaluate",
             "untested-sweep"])
    def test_failed_command_creates_no_data_root(self, tmp_path, capsys,
                                                 config, command, error):
        root = tmp_path / "missing"
        args = ["--data-root", str(root), *command.split()]
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            args[2:2] = ["--config", str(path)]
        assert_refused(capsys, args, error)
        assert not root.exists()

    @pytest.mark.parametrize("command", ["fingerprint", "sweep"])
    @pytest.mark.parametrize("snrs", [["21.0000001", "21.0000002"],
                                      ["21", "21.0000001"],
                                      ["-3", "-3.000001"]])
    def test_snrs_sharing_a_tag_get_a_store_each(self, tmp_path,
                                                  monkeypatch, cohort,
                                                  command, snrs):
        # Both SNRs print as one 6-significant-digit tag; the digest in
        # the file name keeps their stores apart.
        config_path = tmp_path / "config.json"
        config = cli_config()
        write_config(config, config_path)
        root = tmp_path / "data"
        argv = ["--data-root", str(root), "--config", str(config_path)]
        for snr in snrs:
            argv += ["--snr", snr]
        monkeypatch.setattr(harness, "train_trial", lambda *args: {})
        monkeypatch.setattr(
            harness, "evaluate_trial", lambda trial, snr, method, *args:
            VerificationReport(trial.trial_id, snr, method, []))
        assert cli.main(argv + [command]) == 0
        (tag,) = {f"{float(snr):g}" for snr in snrs}
        got = [FingerprintStore.load(p).select("R01").tobytes()
               for p in root.glob(f"fingerprints_{tag}dB_*.rfdn")]
        # Each store holds the rows made at its own SNR: R01, the first
        # radio, is seeded alike in a cohort of one.
        want = {generate_dataset(cohort[:1], float(snr), config)
                .select("R01").tobytes() for snr in snrs}
        assert len(got) == len(want) == 2
        assert set(got) == want

    @pytest.mark.parametrize("command", ["select", "train", "evaluate"])
    def test_every_command_makes_a_missing_store(self, cli_run, tmp_path,
                                                 capsys, command):
        # Each makes the store that `fingerprint` made in ``cli_run``, and
        # prints the line `fingerprint` prints.
        root, _ = cli_run
        copy_root = tmp_path / "data"
        copy_root.mkdir()
        for path in root.glob("verifier_*.npz"):
            (copy_root / path.name).write_bytes(path.read_bytes())
        config_path = tmp_path / "config.json"
        write_config(cli_config(), config_path)
        assert cli.main(["--data-root", str(copy_root), "--config",
                         str(config_path), command]) in (0, 1)
        made = store_path(copy_root)
        assert made.name == store_path(root).name
        assert made.read_bytes() == store_path(root).read_bytes()
        assert capsys.readouterr().out.startswith(
            f"SNR 21 dB: {18 * 6 * 2} fingerprints -> {made}\n")

    def test_train_makes_its_own_store_beside_another_configs(
            self, tmp_path):
        # `fingerprint` under config A, then `train` under config B (more
        # bursts, another seed): B trains on a store of its own, and A's
        # store is neither read nor written.
        config_a, config_b = tmp_path / "a.json", tmp_path / "b.json"
        write_config(cli_config(n_bursts=2), config_a)
        write_config(cli_config(n_bursts=4, master_seed=9), config_b)
        root, fresh = tmp_path / "data", tmp_path / "fresh"
        assert cli.main(["--data-root", str(root), "--config",
                         str(config_a), "fingerprint"]) == 0
        store_a = store_path(root)
        # A save replaces the file (os.replace), so an unchanged inode and
        # mtime mean it was not written again.
        stat = store_a.stat()
        before = store_a.read_bytes(), stat.st_ino, stat.st_mtime_ns
        for data_root in (root, fresh):
            assert cli.main(["--data-root", str(data_root), "--config",
                             str(config_b), "train"]) in (0, 1)
        stat = store_a.stat()
        assert (store_a.read_bytes(), stat.st_ino, stat.st_mtime_ns) == before
        (store_b,) = set(root.glob("*.rfdn")) - {store_a}
        assert len(FingerprintStore.load(store_b)) == 18 * 4 * 2
        names = sorted(p.name for p in fresh.glob("verifier_*.npz"))
        assert len(names) == 6
        assert sorted(p.name for p in root.glob("verifier_*.npz")) == names
        assert all((root / name).read_bytes() == (fresh / name).read_bytes()
                   for name in names)

    def test_store_name_digests_every_dataset_input(self, tmp_path, cohort,
                                                    monkeypatch):
        # Each named input of generate_dataset changes the name; a setting
        # that only training reads does not. No store is fingerprinted.
        monkeypatch.setattr(harness, "generate_dataset",
                            lambda *args: FingerprintStore())
        roots = iter(range(100))

        def name(profiles=cohort, snr=21.0, **overrides):
            root = tmp_path / str(next(roots))
            cli._store(root, profiles, cli_config(**overrides), snr)
            return store_path(root, f"{snr:g}").name

        base = name()
        assert re.fullmatch(r"fingerprints_21dB_[0-9a-f]{12}\.rfdn", base)
        assert {name(nr_grid=[7]), name(k_folds=3), name(methods=["bc"]),
                name(n_train=2, n_train_other=2)} == {base}
        last = cohort[-1]
        edited = [dataclasses.replace(last, **{f.name: "R99" if f.name ==
                  "radio_id" else getattr(last, f.name) + 0.001})
                  for f in dataclasses.fields(last)]
        names = [name(cohort[:-1] + [p]) for p in edited] + [
            name(cohort[::-1]), name(cohort[:-1]), name(n_bursts=7),
            name(n_z=3), name(master_seed=1), name(snr=21.0000001),
            name(snr=18.0)]
        assert len(set(names + [base])) == len(names) + 1

    @pytest.mark.parametrize("snr, digest", [(21.0, "6aac6e7b9c96"),
                                             (18.0, "eb8aae1eebdf")])
    def test_store_names_are_kept(self, cohort, snr, digest):
        # The CI command's config. A store's name is a fixed function of
        # its dataset inputs, so a store already saved is found again.
        config = ExperimentConfig(snr_grid=[21.0], n_bursts=40, n_z=2,
                                  n_train=40, n_train_other=20,
                                  nr_grid=[20, 60, 120])
        assert cli._path(Path("data"), cohort, config, snr,
                         "fingerprints").name == (
            f"fingerprints_{snr:g}dB_{digest}.rfdn")

    def test_trained_file_names_digest_every_setting(self, cohort):
        # A verifier, candidate table or ranking is named by every input of
        # its store and every config field but the SNR grid and the methods:
        # the SNR it was trained at is in the store's inputs, the methods
        # only say which files a command writes.
        changes = {"n_bursts": 7, "n_z": 3, "k_folds": 3, "n_train": 2,
                   "n_train_other": 2, "nr_grid": [5], "master_seed": 1,
                   "n_test_realizations": 0, "relieff_neighbors": 4}
        assert set(changes) | {"snr_grid", "methods"} == {
            f.name for f in dataclasses.fields(ExperimentConfig)}

        def name(profiles=cohort, snr=21.0, kind="verifier", **overrides):
            return cli._path(Path("data"), profiles, cli_config(**overrides),
                             snr, kind, "relieff", "R01").name

        base = name()
        assert re.fullmatch(r"verifier_relieff_R01_snr21_[0-9a-f]{12}\.npz",
                            base)
        digest = base[-16:-4]
        assert name(kind="candidates") == (
            f"candidates_relieff_R01_snr21_{digest}.csv")
        assert name(kind="ranking") == (
            f"ranking_relieff_R01_snr21_{digest}.csv")
        assert {name(methods=["bc", "relieff"]),
                name(snr_grid=[3.0, 21.0])} == {base}
        last = cohort[-1]
        edited = [dataclasses.replace(last, **{f.name: "R99" if f.name ==
                  "radio_id" else getattr(last, f.name) + 0.001})
                  for f in dataclasses.fields(last)]
        names = [name(cohort[:-1] + [p]) for p in edited] + [
            name(cohort[::-1]), name(cohort[:-1]), name(snr=21.0000001),
            name(snr=18.0)] + [name(**{k: v}) for k, v in changes.items()]
        assert len(set(names + [base])) == len(names) + 1

    def test_evaluate_refuses_verifiers_of_other_settings(self, trials,
                                                          tmp_path, capsys):
        # `train` under config B, then `evaluate` under config A (fewer
        # bursts, another seed) in the same root: A finds no verifier of
        # its own, so it is refused before it makes a store, and B's
        # verifiers are not scored on A's data.
        b = cli_config(n_bursts=4, master_seed=9)
        config_a, config_b = tmp_path / "a.json", tmp_path / "b.json"
        write_config(cli_config(n_bursts=2), config_a)
        write_config(b, config_b)
        root = tmp_path / "data"
        base = ["--data-root", str(root), "--config"]
        assert cli.main(base + [str(config_b), "train"]) in (0, 1)
        capsys.readouterr()
        trained = sorted(root.iterdir())
        assert_refused(capsys, base + [str(config_a), "evaluate"],
                       MissingData, "rfdna train")
        assert sorted(root.iterdir()) == trained
        # Under B, evaluate gives the reports training in memory gives.
        rc = cli.main(base + [str(config_b), "evaluate"])
        store = FingerprintStore.load(store_path(root))
        assert len(store) == 18 * 4 * 2
        models = harness.train_trial(trials[0], 21.0, "relieff", store, b)
        want = evaluate_trial(trials[0], 21.0, "relieff", models, store, b)
        emit_report([want], tmp_path / "want")
        assert {p.name: p.read_bytes() for p in (root / "reports").iterdir()
                } == {p.name: p.read_bytes()
                      for p in (tmp_path / "want").iterdir()}
        assert rc == (0 if want.gates_pass() else 1)

    def test_missing_explicit_manifest_rejected(self, tmp_path, capsys):
        # A missing --manifest is a typo, not a request for the default
        # cohort.
        config_path = tmp_path / "config.json"
        write_config(cli_config(), config_path)
        assert_refused(capsys, ["--data-root", str(tmp_path), "--config",
                                str(config_path), "--manifest",
                                str(tmp_path / "typo_cohort.json"),
                                "fingerprint"], InvalidValue)
        assert not list(tmp_path.glob("*.rfdn"))

    def test_data_root_comes_only_from_its_flag(self, tmp_path,
                                                monkeypatch):
        # No environment variable names the data root: without
        # --data-root it is ./data. No store is fingerprinted.
        monkeypatch.setattr(harness, "generate_dataset",
                            lambda *args: FingerprintStore())
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("RFDNA_DATA", str(tmp_path / "env"))
        config_path = tmp_path / "config.json"
        write_config(cli_config(), config_path)
        assert cli.main(["--config", str(config_path), "fingerprint"]) == 0
        assert store_path(tmp_path / "data").exists()
        assert not (tmp_path / "env").exists()

    def test_cohort_comes_only_from_the_manifest_flag(self, tmp_path,
                                                      monkeypatch, cohort):
        # A cohort.json in the data root is a file like any other: without
        # --manifest the cohort is the built-in one. No store is
        # fingerprinted.
        monkeypatch.setattr(harness, "generate_dataset",
                            lambda *args: FingerprintStore())
        root = tmp_path / "data"
        root.mkdir()
        other = cohort[::-1]
        (root / "cohort.json").write_text(json.dumps({
            "profiles": [dataclasses.asdict(p) for p in other]}))
        config_path = tmp_path / "config.json"
        write_config(cli_config(), config_path)
        assert cli.main(["--data-root", str(root), "--config",
                         str(config_path), "fingerprint"]) == 0
        name = store_path(root).name
        assert name == cli._path(root, cohort, cli_config(), 21.0,
                                 "fingerprints").name
        assert name != cli._path(root, other, cli_config(), 21.0,
                                 "fingerprints").name

    def test_zero_test_realizations_accepted_for_training(self, tmp_path):
        # evaluate and sweep refuse a config with nothing held out (see
        # test_failed_command_creates_no_data_root); select and train read
        # only the training realizations, so they run on it.
        path = tmp_path / "config.json"
        write_config(cli_config(n_test_realizations=0), path)
        root = tmp_path / "data"
        base = ["--data-root", str(root), "--config", str(path)]
        assert cli.main(base + ["select"]) == 0
        assert cli.main(base + ["train"]) in (0, 1)
        assert trained_path(root, "ranking", "relieff", "R01").exists()
        assert len(list(root.glob("verifier_relieff_*.npz"))) == 6

    def test_reports_directory_holds_only_the_last_run(self, cli_run,
                                                       tmp_path, monkeypatch):
        # A sweep writes plot data for all three trials; a later evaluate
        # of trial 1 leaves only its own, so the directory is what `report
        # --out` re-emits from its reports.json.
        root, _ = cli_run
        copy_root = tmp_path / "data"
        copy_root.mkdir()
        for path in [*root.glob("verifier_*.npz"), store_path(root)]:
            (copy_root / path.name).write_bytes(path.read_bytes())
        config_path = tmp_path / "config.json"
        write_config(cli_config(), config_path)
        base = ["--data-root", str(copy_root), "--config", str(config_path)]
        entry = {"kind": "authorized", "claimed_id": "R01",
                 "actual_id": "R01", "n_r": 5, "tvr": 1.0, "frr": 0.0,
                 "n": 3}
        with monkeypatch.context() as m:
            m.setattr(harness, "train_trial", lambda *args: {})
            m.setattr(harness, "evaluate_trial",
                      lambda trial, snr, method, *args: VerificationReport(
                          trial.trial_id, snr, method, [entry]))
            assert cli.main(base + ["sweep"]) == 0
        reports = copy_root / "reports"
        assert len(list(reports.glob("plotdata_*.json"))) == 3
        assert cli.main(base + ["evaluate"]) in (0, 1)
        assert [p.name for p in reports.glob("plotdata_*.json")] == [
            "plotdata_trial1_snr21.0_relieff.json"]
        assert cli.main(base + ["report", "--out",
                                str(tmp_path / "again")]) == 0
        assert {p.name: p.read_bytes() for p in reports.iterdir()} == {
            p.name: p.read_bytes() for p in (tmp_path / "again").iterdir()}

    @pytest.mark.parametrize("text", ["{", "[]", "null", "3", None])
    def test_config_not_a_json_object_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        root = tmp_path / "data"
        assert_refused(capsys, ["--data-root", str(root), "--config",
                                str(path), "fingerprint"], InvalidValue)
        assert not list(root.glob("*.rfdn"))

    @pytest.mark.parametrize("text", [
        "not json",
        json.dumps({"trial_id": 1}),
        json.dumps([{"trial_id": 1}]),
        json.dumps([{"trial_id": 1, "snr_db": 21.0, "method": "relieff",
                     "entries": {}}]),
        json.dumps([{"trial_id": 1, "snr_db": 21.0, "method": "relieff",
                     "entries": [], "meta": []}]),
        json.dumps([{"trial_id": 1, "snr_db": 21.0, "method": "relieff",
                     "entries": [{"claimed_id": "R01", "actual_id": "R02",
                                  "n_r": 5, "fvr": 0.0, "n": 3}]}]),
        json.dumps([{"trial_id": 1, "snr_db": 21.0, "method": "relieff",
                     "entries": [{"kind": "authorized", "claimed_id": "R01",
                                  "actual_id": "R01", "n_r": 5, "fvr": 0.0,
                                  "n": 3}]}]),
        json.dumps([{"trial_id": 1, "snr_db": 21.0, "method": "relieff",
                     "entries": [{"kind": "rogue", "claimed_id": "R01",
                                  "actual_id": "R07", "n_r": 5, "fvr": "0",
                                  "n": 3}]}]),
        # trial id, SNR and method name the plot-data file
        report_json(method="a/b"), report_json(snr_db="x"),
        report_json(snr_db=5000.0), report_json(trial_id="../x"),
        report_json(trial_id=0),
        # entry ids key the plot data
        report_json(entries=[
            {"kind": "authorized", "claimed_id": "R01", "actual_id": "R01",
             "n_r": 5, "tvr": 1.0, "n": 3},
            {"kind": "rogue", "claimed_id": "R01", "actual_id": [7],
             "n_r": 5, "fvr": 0.0, "n": 3}]),
    ], ids=["not-json", "not-a-list", "no-snr", "entries-object",
            "meta-list", "no-kind", "authorized-without-tvr", "text-rate",
            "method-path", "text-snr", "far-snr", "trial-id-path",
            "trial-id-zero", "list-actual-id"])
    def test_report_input_checked_before_writing(self, tmp_path, capsys,
                                                 text):
        src = tmp_path / "reports.json"
        src.write_text(text)
        out = tmp_path / "out"
        assert_refused(capsys, ["--data-root", str(tmp_path), "report",
                                "--reports", str(src), "--out", str(out)],
                       InvalidValue)
        assert not out.exists()

    def test_plot_data_named_by_report_fields(self, tmp_path):
        src = tmp_path / "reports.json"
        src.write_text(report_json(snr_db=-3))
        assert cli.main(["--data-root", str(tmp_path), "report", "--reports",
                         str(src), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "plotdata_trial1_snr-3_relieff.json"
                ).exists()

    def test_missing_report_file_rejected(self, tmp_path, capsys):
        assert_refused(capsys, ["--data-root", str(tmp_path), "report"],
                       InvalidValue)

    def test_list_flags_repeat_before_subcommand(self, tmp_path,
                                                 monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_fingerprint",
                            lambda args: seen.append(cli._setup(args)[2])
                            or 0)
        # A repeated value is dropped; methods keep the order of first use.
        rc = cli.main(["--data-root", str(tmp_path), "--snr", "27",
                       "--snr", "21", "--snr", "27", "--methods", "bc",
                       "--methods", "pca", "--methods", "bc",
                       "fingerprint"])
        assert rc == 0
        assert seen[0].snr_grid == [21.0, 27.0]
        assert seen[0].methods == ["bc", "pca"]

    def test_overrides_are_validated(self, tmp_path, capsys):
        # The config file's 21 dB grid is valid; --snr replaces it.
        path = tmp_path / "config.json"
        write_config(cli_config(), path)
        assert_refused(capsys, ["--data-root", str(tmp_path), "--config",
                                str(path), "--snr", "5000", "train"],
                       InvalidValue, "snr_grid")

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_burst": 3}))
        assert_refused(capsys, ["--data-root", str(tmp_path), "--config",
                                str(path), "fingerprint"], InvalidValue)

    @pytest.mark.parametrize("data", [
        {"svm_c": 1.0},                   # a removed setting
        {"snr_grid": [None]},
        {"snr_grid": []},
        {"methods": ["foo"]},
        {"n_bursts": 0},
        {"k_folds": 1},
        {"n_train": 0},
        {"relieff_neighbors": 0},
        {"nr_grid": [0]},
        {"template_len": 10},
        {"filter_cutoff": 1.5},
        {"n_test_realizations": -1},
        {"snr_grid": [21.0, 5000.0]},     # 21 dB alone is a valid grid
        {"snr_grid": 21}, {"nr_grid": 5}, {"methods": 5},
    ])
    def test_bad_config_rejected_before_any_store(self, tmp_path, capsys,
                                                  data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_bursts": 1, "n_z": 2, **data}))
        root = tmp_path / "data"
        assert_refused(capsys, ["--data-root", str(root), "--config",
                                str(path), "fingerprint"], InvalidValue)
        assert not list(root.glob("*.rfdn"))

    @pytest.mark.parametrize("command", ["select", "train", "evaluate"])
    @pytest.mark.parametrize("trial", ["0", "4"])
    def test_trial_out_of_range_rejected(self, tmp_path, capsys, command,
                                         trial):
        assert_refused(capsys, ["--data-root", str(tmp_path), command,
                                "--trial", trial], InvalidValue)

    @pytest.mark.parametrize("data, text", [
        # an older manifest's burst count, which the config now sets
        ({"n_bursts": 2, "profiles": [
            dataclasses.asdict(p) for p in default_cohort()]}, "config key"),
        ({"profiles": [{"radio_id": ""}]}, "radio_id"),
        # cohorts the trial layout refuses, so no command could use a store
        ({"profiles": []}, "18 radios"),
        ({"profiles": [dataclasses.asdict(p)
                       for p in default_cohort()[:17]]}, "18 radios")],
        ids=["n-bursts", "empty-id", "no-radio", "17-radios"])
    def test_malformed_manifest_rejected(self, tmp_path, capsys, data,
                                         text):
        path = tmp_path / "cohort.json"
        path.write_text(json.dumps(data))
        root = tmp_path / "data"
        assert_refused(capsys, ["--data-root", str(root), "--manifest",
                                str(path), "fingerprint"], InvalidValue,
                       text)
        assert not root.exists()

    @pytest.mark.parametrize("use_manifest", [True, False])
    def test_fingerprint_and_sweep_use_one_burst_count(
            self, tmp_path, monkeypatch, use_manifest):
        # The burst count is the config file's (3), with or without a
        # manifest, which holds only profiles.
        manifest = tmp_path / "cohort.json"
        manifest.write_text(json.dumps({
            "profiles": [dataclasses.asdict(p) for p in default_cohort()]}))
        config_path = tmp_path / "config.json"
        write_config(tiny_config(n_bursts=3), config_path)

        def sweep(trials, config, store_at):
            store_at(config.snr_grid[-1])      # generates and saves a store
            return []

        monkeypatch.setattr(harness, "snr_sweep", sweep)
        monkeypatch.setattr(harness, "emit_report", lambda reports, out: [])
        stores = {}
        for command in ("fingerprint", "sweep"):
            root = tmp_path / command
            flags = ["--manifest", str(manifest)] if use_manifest else []
            assert cli.main(["--data-root", str(root), "--config",
                             str(config_path)] + flags + [command]) == 0
            stores[command] = store_path(root)
        assert len(FingerprintStore.load(stores["sweep"])) == 18 * 3 * 2
        assert stores["sweep"].name == stores["fingerprint"].name
        assert (stores["sweep"].read_bytes()
                == stores["fingerprint"].read_bytes())

    def test_sweep_reuses_a_saved_store(self, tmp_path, monkeypatch):
        config_path = tmp_path / "config.json"
        write_config(cli_config(), config_path)
        base = ["--data-root", str(tmp_path), "--config", str(config_path)]
        assert cli.main(base + ["--snr", "21", "fingerprint"]) == 0
        saved = store_path(tmp_path)
        # A save replaces the file (os.replace), so an unchanged inode and
        # mtime mean it was not written again.
        stat = saved.stat()
        before = saved.read_bytes(), stat.st_ino, stat.st_mtime_ns

        generated, stores = [], {}
        real_generate = harness.generate_dataset
        monkeypatch.setattr(
            harness, "generate_dataset", lambda profiles, snr, config:
            generated.append(snr) or real_generate(profiles, snr, config))

        def fake_evaluate_trial(trial, snr, method, models, store, config):
            # A report with no entries passes the gates, so no SNR is
            # eliminated and the sweep asks for every store.
            stores[snr] = store
            return VerificationReport(trial.trial_id, snr, method, [])

        monkeypatch.setattr(harness, "train_trial", lambda *args: {})
        monkeypatch.setattr(harness, "evaluate_trial", fake_evaluate_trial)
        assert cli.main(base + ["--snr", "21", "--snr", "18", "sweep"]) == 0
        assert generated == [18.0]
        assert (saved.read_bytes(), saved.stat().st_ino,
                saved.stat().st_mtime_ns) == before
        assert store_path(tmp_path, "18") != saved
        assert len(list(tmp_path.glob("*.rfdn"))) == 2
        reloaded = FingerprintStore.load(saved)
        assert all(np.array_equal(stores[21.0].select(rid),
                                  reloaded.select(rid))
                   for rid in reloaded.radio_ids())
