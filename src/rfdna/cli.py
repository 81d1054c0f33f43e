"""Command-line entry points for the verification pipeline.

Subcommands mirror the pipeline stages: fingerprint -> select / train
(writes verifiers) -> evaluate (reads them) -> sweep -> report. The data
root comes only from --data-root (default ``data``), the cohort only from
--manifest (else the built-in one). Exit status 0: every gate the command
checks passes; 1: a gate failed; 2: the input was refused, with one
``rfdna: <error class>: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from . import harness, signals
from .errors import InvalidValue, MissingData, RfdnaError, check_count
from .fingerprint import FingerprintStore
from .harness import (ExperimentConfig, default_cohort, default_trials,
                      write_csv)
from .modelsel import model_quality, passes_gate


def _setup(args):
    """The inputs of every command but ``report``, checked before any file
    is written: the data root (a directory, if it exists), the cohort
    (``--manifest``'s, else the built-in one), the config file (or defaults)
    with ``--snr`` and ``--methods`` applied, and the cohort's trials."""
    profiles = (signals.load_manifest(args.manifest) if args.manifest
                else default_cohort())
    config = (ExperimentConfig.from_json(args.config) if args.config
              else ExperimentConfig())
    overrides = {}
    if args.snr:
        overrides["snr_grid"] = sorted(set(args.snr))
    if args.methods:
        overrides["methods"] = list(dict.fromkeys(args.methods))
    config = dataclasses.replace(config, **overrides)
    trials = default_trials([p.radio_id for p in profiles])
    return _directory(args.data_root), profiles, config, trials


def _directory(path) -> Path:
    """``path`` to write into; refused if it or a parent is a file."""
    path = Path(path)
    if any(p.exists() and not p.is_dir() for p in (path, *path.parents)):
        raise InvalidValue(f"{path} is not a directory")
    return path


def _trial(args, trials):
    if not 1 <= args.trial <= len(trials):
        raise InvalidValue(f"--trial must lie in 1..{len(trials)}, got "
                           f"{args.trial}")
    return trials[args.trial - 1]


def _path(root: Path, profiles, config, snr, kind, *ids) -> Path:
    """``root``'s file of ``kind`` for ``ids`` at ``snr``, named by a digest
    of what made it: a store (``fingerprints``) by every input of
    ``generate_dataset``, a trained file by those and every config field but
    ``snr_grid`` and ``methods``. So no command reads another's file."""
    key = [[dataclasses.astuple(p) for p in profiles], config.n_bursts,
           config.n_z, config.master_seed, float(snr)]
    if kind == "fingerprints":
        name, suffix = f"fingerprints_{snr:g}dB", ".rfdn"
    else:
        key.append({k: v for k, v in dataclasses.asdict(config).items()
                    if k not in ("snr_grid", "methods")})
        name = f"{'_'.join([kind, *ids])}_snr{snr:g}"
        suffix = ".npz" if kind == "verifier" else ".csv"
    digest = hashlib.sha256(json.dumps(key).encode()).hexdigest()[:12]
    return root / f"{name}_{digest}{suffix}"


def _store(root: Path, profiles, config, snr, remake=False):
    """The fingerprint store of ``profiles`` at ``snr``: loaded from
    ``root`` if it is there and ``remake`` is false, else made and saved."""
    path = _path(root, profiles, config, snr, "fingerprints")
    if path.exists() and not remake:
        return FingerprintStore.load(path)
    store = harness.generate_dataset(profiles, snr, config)
    root.mkdir(parents=True, exist_ok=True)
    store.save(path)
    print(f"SNR {snr:g} dB: {len(store)} fingerprints -> {path}")
    return store


def cmd_fingerprint(args) -> int:
    root, profiles, config, _ = _setup(args)
    for snr in config.snr_grid:
        _store(root, profiles, config, snr, remake=True)
    return 0


def cmd_select(args) -> int:
    root, profiles, config, trials = _setup(args)
    trial, snr = _trial(args, trials), config.snr_grid[-1]
    claimed = trial.check_authorized(trial.authorized_ids[0]
                                     if args.claimed_id is None
                                     else args.claimed_id)
    store = _store(root, profiles, config, snr)
    fset = harness.training_pool(store, trial, claimed, config)[0]
    for method in config.methods:
        reducer = harness.Reducer(method).fit(fset, config)
        ranking = reducer.ranking
        if ranking is not None:
            out = _path(root, profiles, config, snr, "ranking", method,
                        claimed)
            write_csv(out, ["feature_index", "score", "rank", "method"],
                      ([int(i), repr(float(ranking.scores[i])), rank, method]
                       for rank, i in enumerate(ranking.order)))
            print(f"{method}: ranking -> {out}")
        else:
            print(f"{method}: projection method, no ranking export")
    return 0


def cmd_train(args) -> int:
    root, profiles, config, trials = _setup(args)
    trial, snr = _trial(args, trials), config.snr_grid[-1]
    store = _store(root, profiles, config, snr)
    ok = True
    for method in config.methods:
        models = harness.train_trial(trial, snr, method, store, config)
        for claimed, cand in models.items():
            path = _path(root, profiles, config, snr, "verifier", method,
                         claimed)
            harness.Verifier.of(cand).save(path)
            rows = []
            for c in cand.meta["candidates"]:
                distance, bc, variance = model_quality(c.pmf_pair)
                rows.append([c.n_r, *map(repr, (
                    c.tvr_train, c.fvr_others_train, bc, distance,
                    variance)), int(c is cand)])
            write_csv(_path(root, profiles, config, snr, "candidates",
                            method, claimed),
                      ["n_r", "tvr_train", "fvr_others_train", "bc",
                       "mean_distance", "variance_sum", "selected"], rows)
            print(f"{method} {claimed}: N_r={cand.n_r} "
                  f"tvr_train={cand.tvr_train:.3f} "
                  f"fvr_others={cand.fvr_others_train:.3f} -> {path}")
        ok = ok and all(map(passes_gate, models.values()))
    return 0 if ok else 1


def cmd_evaluate(args) -> int:
    root, profiles, config, trials = _setup(args)
    check_count("n_test_realizations", config.n_test_realizations, 1)
    trial, snr = _trial(args, trials), config.snr_grid[-1]
    # A missing or foreign verifier is refused before a store is made.
    verifiers = {method: {} for method in config.methods}
    for method, models in verifiers.items():
        for claimed in trial.authorized_ids:
            path = _path(root, profiles, config, snr, "verifier", method,
                         claimed)
            if not path.exists():
                raise MissingData(f"{path} does not exist: run 'rfdna "
                                  f"train' under these settings first")
            models[claimed] = harness.Verifier.load(path).enrolled_as(
                claimed, method, snr)
    store = _store(root, profiles, config, snr)
    reports = [harness.evaluate_trial(trial, snr, method, models, store,
                                      config)
               for method, models in verifiers.items()]
    harness.emit_report(reports, root / "reports")
    for r in reports:
        print(f"{r.method} trial {trial.trial_id} @ {snr:g} dB: gates "
              f"{'pass' if r.gates_pass() else 'FAIL'}")
    return 0 if all(r.gates_pass() for r in reports) else 1


def cmd_sweep(args) -> int:
    root, profiles, config, trials = _setup(args)
    check_count("n_test_realizations", config.n_test_realizations, 1)
    reports = harness.snr_sweep(
        trials, config, lambda snr: _store(root, profiles, config, snr))
    harness.emit_report(reports, root / "reports")
    ok = all(r.gates_pass() for r in reports if r.entries)
    print(f"{len(reports)} reports -> {root / 'reports'}")
    return 0 if ok else 1


def cmd_report(args) -> int:
    root = Path(args.data_root)
    out = _directory(args.out or root / "reports")
    src = args.reports or (root / "reports" / "reports.json")
    data = signals.read_json(src, "reports")
    if not isinstance(data, list):
        raise InvalidValue(f"{src} does not hold a list of reports")
    reports = [harness.VerificationReport.from_dict(d) for d in data]
    harness.emit_report(reports, out)
    print(f"re-emitted {len(reports)} reports")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rfdna", description="RF-DNA radio identity verification"
    )
    parser.add_argument("--data-root", default="data")
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
