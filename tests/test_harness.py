import copy
import csv
import json

import numpy as np
import pytest

import rfdna.harness as harness
from rfdna.errors import InvalidModel, InvalidValue, MissingData
from rfdna.fingerprint import N_FEATURES, FingerprintStore
from rfdna.harness import (
    ExperimentConfig,
    Reducer,
    TrialConfig,
    VerificationReport,
    default_cohort,
    default_trials,
    emit_report,
    evaluate_trial,
    generate_dataset,
    train_best_model,
)
from rfdna import cli


def tiny_config(**overrides):
    base = dict(
        snr_grid=[21.0], n_bursts=8, n_z=2, k_folds=2, n_train=8,
        n_train_other=8, nr_grid=[5, 20], methods=["relieff"], master_seed=0,
        relieff_neighbors=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


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
        config = tiny_config(n_z=4, n_test_realizations=1)
        assert config.train_realizations == [0, 1, 2]
        assert config.test_realizations == [3]

    def test_needs_training_realizations(self):
        with pytest.raises(InvalidValue):
            tiny_config(n_z=1, n_test_realizations=1)

    def test_json_roundtrip(self, tmp_path):
        config = tiny_config(master_seed=99)
        path = tmp_path / "config.json"
        config.to_json(path)
        assert ExperimentConfig.from_json(path) == config

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
        assert red.indices(1) is None

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
        idx = red.indices(5)
        assert np.array_equal(red.transform(rows1, 5), rows1[:, idx])
        assert red.nr_values([1, 5, 500]) == [1, 5]


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


class TestEvaluation:
    def test_entry_structure(self, report):
        assert len(report.rows(kind="authorized")) == 6
        assert len(report.rows(kind="other")) == 30
        assert report.attack_count() == 72
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

        report = harness.run_trial(trials[0], 21.0, "relieff", store21,
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
        from rfdna.errors import InvalidInput
        with pytest.raises(InvalidInput):
            emit_report([], tmp_path)


class TestSweepElimination:
    def test_failing_method_is_skipped_below_failure_snr(self, monkeypatch):
        calls, loaded = [], []

        def fake_run_trial(trial, snr, method, store, config):
            calls.append((snr, trial.trial_id))
            ok = snr >= 20
            entry = {"kind": "authorized", "claimed_id": "a", "actual_id": "a",
                     "n_r": 5, "tvr": 1.0 if ok else 0.5,
                     "frr": 0.0 if ok else 0.5, "n": 4}
            return VerificationReport(trial.trial_id, snr, method, [entry])

        def store_at(snr):
            loaded.append(snr)
            return FingerprintStore()

        monkeypatch.setattr(harness, "run_trial", fake_run_trial)
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


def cli_config(**overrides):
    # Two realizations, one for training: each radio's training realization
    # holds 6 rows, above the per-realization quota of 4, so the training
    # pool takes a prefix of every block.
    return tiny_config(n_bursts=6, n_train=4, n_train_other=4, **overrides)


@pytest.fixture(scope="class")
def cli_run(tmp_path_factory):
    """fingerprint -> select -> train -> evaluate through ``cli.main``."""
    tmp = tmp_path_factory.mktemp("cli")
    root = tmp / "data"
    config_path = tmp / "config.json"
    cli_config().to_json(config_path)
    base = ["--data-root", str(root), "--config", str(config_path)]
    rc = {cmd: cli.main(base + [cmd])
          for cmd in ("fingerprint", "select", "train", "evaluate")}
    return root, rc


class TestCli:
    def test_fingerprint_report(self, cli_run, report):
        root, rc = cli_run
        assert rc["fingerprint"] == 0
        store = FingerprintStore.load(root / "fingerprints_21dB.rfdn")
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
        store = FingerprintStore.load(root / "fingerprints_21dB.rfdn")
        cand = train_best_model(trials[0], "R01", "relieff", 21.0, store,
                                cli_config())
        with open(root / "ranking_relieff_R01_snr21.csv", newline="") as fh:
            exported = [int(row["feature_index"])
                        for row in csv.DictReader(fh)]
        assert exported == cand.meta["reducer"].ranking.order.tolist()

    def test_train_exit_code_follows_gates(self, cli_run, trials):
        root, rc = cli_run
        store = FingerprintStore.load(root / "fingerprints_21dB.rfdn")
        gates = []
        for claimed in trials[0].authorized_ids:
            cand = train_best_model(trials[0], claimed, "relieff", 21.0,
                                    store, cli_config())
            gates.append(cand.tvr_train >= 0.90
                         and cand.fvr_others_train <= 0.10)
            assert (root / f"model_relieff_{claimed}_snr21.json").exists()
            with open(root / f"candidates_relieff_{claimed}_snr21.csv",
                      newline="") as fh:
                selected = [int(row["n_r"]) for row in csv.DictReader(fh)
                            if row["selected"] == "1"]
            assert selected == [cand.n_r]
        assert rc["train"] == (0 if all(gates) else 1)

    def test_evaluate_exit_code_follows_gates(self, cli_run, trials):
        root, rc = cli_run
        store = FingerprintStore.load(root / "fingerprints_21dB.rfdn")
        want = harness.run_trial(trials[0], 21.0, "relieff", store,
                                 cli_config())
        data = json.loads((root / "reports" / "reports.json").read_text())
        assert data == [json.loads(json.dumps(want.to_dict()))]
        assert rc["evaluate"] == (0 if want.gates_pass() else 1)

    def test_list_flags_repeat_before_subcommand(self, tmp_path,
                                                 monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_fingerprint",
                            lambda args: seen.append(cli._load_config(args))
                            or 0)
        rc = cli.main(["--data-root", str(tmp_path), "--snr", "27",
                       "--snr", "21", "--methods", "bc", "--methods", "pca",
                       "--nr-grid", "20", "--nr-grid", "5", "fingerprint"])
        assert rc == 0
        assert seen[0].snr_grid == [21.0, 27.0]
        assert seen[0].methods == ["bc", "pca"]
        assert seen[0].nr_grid == [5, 20]

    def test_overrides_are_validated(self, tmp_path):
        with pytest.raises(InvalidValue):
            cli.main(["--data-root", str(tmp_path), "--n-z", "1", "train"])

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_burst": 3}))
        with pytest.raises(InvalidValue):
            cli.main(["--data-root", str(tmp_path), "--config", str(path),
                      "fingerprint"])

    @pytest.mark.parametrize("data", [
        {"svm_c": 1.0},                   # a removed setting
        {"snr_grid": [None]},
        {"snr_grid": []},
        {"methods": ["foo"]},
    ])
    def test_bad_config_rejected_before_any_store(self, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_bursts": 1, "n_z": 2, **data}))
        root = tmp_path / "data"
        with pytest.raises(InvalidValue):
            cli.main(["--data-root", str(root), "--config", str(path),
                      "fingerprint"])
        assert not list(root.glob("*.rfdn"))

    @pytest.mark.parametrize("command", ["select", "train", "evaluate"])
    @pytest.mark.parametrize("trial", ["0", "4"])
    def test_trial_out_of_range_rejected(self, tmp_path, command, trial):
        with pytest.raises(InvalidValue):
            cli.main(["--data-root", str(tmp_path), command,
                      "--trial", trial])

    def test_malformed_manifest_rejected(self, tmp_path):
        path = tmp_path / "cohort.json"
        path.write_text(json.dumps({"n_bursts": 0, "profiles": []}))
        with pytest.raises(InvalidValue):
            cli.main(["--data-root", str(tmp_path), "--manifest", str(path),
                      "fingerprint"])
        assert not list(tmp_path.glob("*.rfdn"))
