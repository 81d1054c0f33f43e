"""Command-line entry points for the verification pipeline.

Subcommands mirror the pipeline stages: fingerprint -> select / train
(writes verifiers) -> evaluate (reads them) -> sweep -> report. The data
root comes from --data-root or the RFDNA_DATA environment variable. Exit
status 0: every gate the command checks passes; 1: a gate failed; 2: the
input was refused, with one ``rfdna: <error class>: <message>`` line on
stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import featsel, harness, signals
from .errors import InvalidValue, MissingData, RfdnaError
from .fingerprint import FingerprintStore
from .harness import ExperimentConfig, default_cohort, default_trials
from .modelsel import export_candidates, passes_gate


def _data_root(args) -> Path:
    """The data root; only a command that writes there creates it, after
    its inputs are checked."""
    return Path(args.data_root or os.environ.get("RFDNA_DATA", "data"))


def _cohort_and_config(args, root: Path):
    """The cohort (the manifest's, else the default) and the config file (or
    defaults) with ``--snr`` and ``--methods`` applied, validated once as a
    whole. The burst count is the manifest's if there is one, else the
    config's, so every command sees one count per cohort. A grid whose SNRs
    would share a file name is refused."""
    manifest = args.manifest or (root / "cohort.json")
    if args.manifest or Path(manifest).exists():
        profiles, n_bursts = signals.load_manifest(manifest)
    else:
        profiles, n_bursts = default_cohort(), None
    if args.config:
        config = ExperimentConfig.from_json(args.config)
    else:
        config = ExperimentConfig()
    overrides = {} if n_bursts is None else {"n_bursts": n_bursts}
    if args.snr:
        overrides["snr_grid"] = sorted(set(args.snr))
    if args.methods:
        overrides["methods"] = list(dict.fromkeys(args.methods))
    config = dataclasses.replace(config, **overrides)
    tags = [f"{snr:g}" for snr in config.snr_grid]
    if len(set(tags)) != len(tags):
        raise InvalidValue(f"snr_grid {config.snr_grid!r} gives two SNRs one "
                           f"file name ({tags!r}); make them differ in the "
                           f"first 6 significant digits")
    return profiles, config


def _store_path(root: Path, snr) -> Path:
    return root / f"fingerprints_{snr:g}dB.rfdn"


def cmd_fingerprint(args) -> int:
    root = _data_root(args)
    profiles, config = _cohort_and_config(args, root)
    root.mkdir(parents=True, exist_ok=True)
    for snr in config.snr_grid:
        store = harness.generate_dataset(profiles, snr, config)
        path = _store_path(root, snr)
        store.save(path)
        print(f"SNR {snr:g} dB: {len(store)} fingerprints -> {path}")
    return 0


def _require(path: Path, command: str) -> Path:
    if not path.exists():
        raise MissingData(f"{path} does not exist: run 'rfdna {command}' "
                          f"first")
    return path


def _trial_setup(args):
    """Data root, config, trial and the store at the highest configured SNR:
    the common inputs of the single-trial commands."""
    root = _data_root(args)
    profiles, config = _cohort_and_config(args, root)
    trials = default_trials([p.radio_id for p in profiles])
    if not 1 <= args.trial <= len(trials):
        raise InvalidValue(f"--trial must lie in 1..{len(trials)}, got "
                           f"{args.trial}")
    trial = trials[args.trial - 1]
    snr = config.snr_grid[-1]
    return root, config, trial, snr, FingerprintStore.load(
        _require(_store_path(root, snr), "fingerprint"))


def _verifier_path(root: Path, method, claimed, snr) -> Path:
    return root / f"verifier_{method}_{claimed}_snr{snr:g}.npz"


def cmd_select(args) -> int:
    root, config, trial, snr, store = _trial_setup(args)
    claimed = args.claimed_id or trial.authorized_ids[0]
    fset = harness.training_pool(store, trial, claimed, config)[0]
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
    ok = True
    for method in config.methods:
        models = harness.train_trial(trial, snr, method, store, config)
        for claimed, cand in models.items():
            path = _verifier_path(root, method, claimed, snr)
            harness.Verifier.of(cand, method, snr).save(path)
            export_candidates(
                cand.meta["candidates"], cand,
                root / f"candidates_{method}_{claimed}_snr{snr:g}.csv",
            )
            print(f"{method} {claimed}: N_r={cand.n_r} "
                  f"tvr_train={cand.tvr_train:.3f} "
                  f"fvr_others={cand.fvr_others_train:.3f} -> {path}")
        ok = ok and all(map(passes_gate, models.values()))
    return 0 if ok else 1


def cmd_evaluate(args) -> int:
    root, config, trial, snr, store = _trial_setup(args)
    verifiers = {
        method: {claimed: harness.Verifier.load(
            _require(_verifier_path(root, method, claimed, snr), "train"),
            claimed, method, snr) for claimed in trial.authorized_ids}
        for method in config.methods
    }
    reports = [harness.evaluate_trial(trial, snr, method, models, store,
                                      config)
               for method, models in verifiers.items()]
    harness.emit_report(reports, root / "reports")
    for r in reports:
        print(f"{r.method} trial {trial.trial_id} @ {snr:g} dB: gates "
              f"{'pass' if r.gates_pass() else 'FAIL'}")
    return 0 if all(r.gates_pass() for r in reports) else 1


def cmd_sweep(args) -> int:
    root = _data_root(args)
    profiles, config = _cohort_and_config(args, root)
    trials = default_trials([p.radio_id for p in profiles])
    root.mkdir(parents=True, exist_ok=True)

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
    src = args.reports or (root / "reports" / "reports.json")
    data = signals.read_json(src, "reports")
    if not isinstance(data, list):
        raise InvalidValue(f"{src} does not hold a list of reports")
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
    parser.add_argument("--snr", type=float, action="append",
                        help="SNR in dB; repeat for more")
    parser.add_argument("--methods", action="append", choices=harness.METHODS,
                        help="selection method; repeat for more")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("fingerprint", help="fingerprint the cohort per SNR")
    p = sub.add_parser("select", help="export feature rankings")
    p.add_argument("--trial", type=int, default=1)
    p.add_argument("--claimed-id", default=None)
    p = sub.add_parser("train", help="train and save per-radio verifiers")
    p.add_argument("--trial", type=int, default=1)
    p = sub.add_parser("evaluate", help="score one trial's saved verifiers")
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
    try:
        return handler(args)
    except RfdnaError as exc:
        print(f"rfdna: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
