"""Command-line entry points for the verification pipeline.

Subcommands mirror the pipeline stages: fingerprint -> select / train /
evaluate -> sweep -> report. The data root comes from --data-root or
the RFDNA_DATA environment variable. Exit code is 0 only when every gate
requested by the command passes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import featsel, harness, signals
from .errors import InvalidValue
from .fingerprint import FingerprintStore
from .harness import ExperimentConfig, default_cohort, default_trials
from .modelsel import export_candidates


def _data_root(args) -> Path:
    root = args.data_root or os.environ.get("RFDNA_DATA", "data")
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_config(args) -> ExperimentConfig:
    """The config file (or defaults) with the command-line overrides applied,
    validated once as a whole."""
    if args.config:
        config = ExperimentConfig.from_json(args.config)
    else:
        config = ExperimentConfig()
    overrides = {
        name: getattr(args, name)
        for name in ("n_bursts", "n_z", "k_folds", "master_seed")
        if getattr(args, name) is not None
    }
    if args.snr:
        overrides["snr_grid"] = sorted(set(args.snr))
    if args.methods:
        overrides["methods"] = args.methods
    if args.nr_grid:
        overrides["nr_grid"] = sorted(set(args.nr_grid))
    return dataclasses.replace(config, **overrides)


def _load_cohort(args, root: Path):
    manifest = args.manifest or (root / "cohort.json")
    if Path(manifest).exists():
        profiles, n_bursts = signals.load_manifest(manifest)
        return profiles, n_bursts
    return default_cohort(), None


def _store_path(root: Path, snr) -> Path:
    return root / f"fingerprints_{snr:g}dB.rfdn"


def cmd_fingerprint(args) -> int:
    root = _data_root(args)
    config = _load_config(args)
    profiles, n_bursts = _load_cohort(args, root)
    if n_bursts:
        config = dataclasses.replace(config, n_bursts=n_bursts)
    for snr in config.snr_grid:
        store = harness.generate_dataset(profiles, snr, config)
        path = _store_path(root, snr)
        store.save(path)
        print(f"SNR {snr:g} dB: {len(store)} fingerprints -> {path}")
    return 0


def _trial_setup(args):
    """Data root, config, trial and the store at the highest configured SNR:
    the common inputs of the single-trial commands."""
    root = _data_root(args)
    config = _load_config(args)
    profiles, _ = _load_cohort(args, root)
    trials = default_trials([p.radio_id for p in profiles])
    if not 1 <= args.trial <= len(trials):
        raise InvalidValue(f"--trial must lie in 1..{len(trials)}, got "
                           f"{args.trial}")
    trial = trials[args.trial - 1]
    snr = config.snr_grid[-1]
    return root, config, trial, snr, FingerprintStore.load(
        _store_path(root, snr))


def cmd_select(args) -> int:
    root, config, trial, snr, store = _trial_setup(args)
    claimed = args.claimed_id or trial.authorized_ids[0]
    fset, _, _ = harness.training_pool(store, trial, claimed, config)
    for method in config.methods:
        reducer = harness.Reducer(method).fit(fset, config)
        if reducer.ranking is not None:
            out = root / f"ranking_{method}_{claimed}_snr{snr:g}.csv"
            featsel.export_ranking(reducer.ranking, out)
            print(f"{method}: ranking -> {out}")
        else:
            print(f"{method}: projection method, no ranking export")
    return 0


def cmd_train(args) -> int:
    root, config, trial, snr, store = _trial_setup(args)
    method = config.methods[0]
    ok = True
    for claimed in trial.authorized_ids:
        cand = harness.train_best_model(
            trial, claimed, method, snr, store, config
        )
        model_path = root / f"model_{method}_{claimed}_snr{snr:g}.json"
        cand.model.save(model_path)
        export_candidates(
            cand.meta["candidates"], cand,
            root / f"candidates_{method}_{claimed}_snr{snr:g}.csv",
        )
        gate = cand.tvr_train >= 0.90 and cand.fvr_others_train <= 0.10
        ok = ok and gate
        print(f"{claimed}: N_r={cand.n_r} tvr_train={cand.tvr_train:.3f} "
              f"fvr_others={cand.fvr_others_train:.3f} -> {model_path}")
    return 0 if ok else 1


def cmd_evaluate(args) -> int:
    root, config, trial, snr, store = _trial_setup(args)
    method = config.methods[0]
    report = harness.run_trial(trial, snr, method, store, config)
    harness.emit_report([report], root / "reports")
    print(f"trial {trial.trial_id} @ {snr:g} dB: gates "
          f"{'pass' if report.gates_pass() else 'FAIL'}")
    return 0 if report.gates_pass() else 1


def cmd_sweep(args) -> int:
    root = _data_root(args)
    config = _load_config(args)
    profiles, _ = _load_cohort(args, root)
    trials = default_trials([p.radio_id for p in profiles])

    def loader(snr):
        path = _store_path(root, snr)
        if path.exists():
            return FingerprintStore.load(path)
        store = harness.generate_dataset(profiles, snr, config)
        store.save(path)
        return store

    reports = harness.snr_sweep(trials, config, loader)
    harness.emit_report(reports, root / "reports")
    ok = all(r.gates_pass() for r in reports if r.entries)
    print(f"{len(reports)} reports -> {root / 'reports'}")
    return 0 if ok else 1


def cmd_report(args) -> int:
    root = _data_root(args)
    src = Path(args.reports or (root / "reports" / "reports.json"))
    data = json.loads(src.read_text())
    reports = [harness.VerificationReport.from_dict(d) for d in data]
    harness.emit_report(reports, args.out or (root / "reports"))
    print(f"re-emitted {len(reports)} reports")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rfdna", description="RF-DNA radio identity verification"
    )
    parser.add_argument("--data-root", default=None)
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--manifest", default=None, help="cohort manifest")
    parser.add_argument("--n-bursts", dest="n_bursts", type=int)
    parser.add_argument("--n-z", dest="n_z", type=int)
    parser.add_argument("--k-folds", dest="k_folds", type=int)
    parser.add_argument("--master-seed", dest="master_seed", type=int)
    parser.add_argument("--snr", type=float, action="append",
                        help="SNR in dB; repeat for more")
    parser.add_argument("--methods", action="append", choices=harness.METHODS,
                        help="selection method; repeat for more")
    parser.add_argument("--nr-grid", dest="nr_grid", type=int,
                        action="append", help="retained count; repeat for more")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("fingerprint", help="fingerprint the cohort per SNR")
    p = sub.add_parser("select", help="export feature rankings")
    p.add_argument("--trial", type=int, default=1)
    p.add_argument("--claimed-id", default=None)
    p = sub.add_parser("train", help="train per-radio best models")
    p.add_argument("--trial", type=int, default=1)
    p = sub.add_parser("evaluate", help="evaluate one trial")
    p.add_argument("--trial", type=int, default=1)
    sub.add_parser("sweep", help="full SNR sweep with elimination")
    p = sub.add_parser("report", help="re-emit result tables")
    p.add_argument("--reports", default=None)
    p.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    handler = {
        "fingerprint": cmd_fingerprint,
        "select": cmd_select,
        "train": cmd_train,
        "evaluate": cmd_evaluate,
        "sweep": cmd_sweep,
        "report": cmd_report,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
