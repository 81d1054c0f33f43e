"""Command-line entry points for the verification pipeline.

Subcommands mirror the pipeline stages: fingerprint -> train (writes
verifiers and the feature ranking each was trained on) -> evaluate (reads
the verifiers) -> sweep -> report. The data root comes only from
--data-root (default ``data``), the cohort only from --manifest (else the
built-in one). Exit status 0: every gate the command checks passes; 1: a
gate failed; 2: the input was refused, with one ``rfdna: <error class>:
<message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
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


def cmd_train(args) -> int:
    root, profiles, config, trials = _setup(args)
    ok = True
    for snr in config.snr_grid:
        store = _store(root, profiles, config, snr)
        for method, trial in itertools.product(config.methods, trials):
            models = harness.train_trial(trial, snr, method, store, config)
            for claimed, cand in models.items():
                path = _path(root, profiles, config, snr, "verifier", method,
                             claimed)
                harness.Verifier.of(cand).save(path)
                ranking = cand.meta["reducer"].ranking
                if ranking is not None:         # LDA and PCA rank nothing
                    write_csv(_path(root, profiles, config, snr, "ranking",
                                    method, claimed),
                              ["feature_index", "score", "rank", "method"],
                              ([int(i), repr(float(ranking.scores[i])), rank,
                                method]
                               for rank, i in enumerate(ranking.order)))
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
                print(f"{method} {claimed} @ {snr:g} dB: N_r={cand.n_r} "
                      f"tvr_train={cand.tvr_train:.3f} "
                      f"fvr_others={cand.fvr_others_train:.3f} -> {path}")
            ok = ok and all(map(passes_gate, models.values()))
        del store
    return 0 if ok else 1


def cmd_evaluate(args) -> int:
    root, profiles, config, trials = _setup(args)
    check_count("n_test_realizations", config.n_test_realizations, 1)

    def verifier(snr, method, claimed):
        path = _path(root, profiles, config, snr, "verifier", method, claimed)
        if not path.exists():
            raise MissingData(f"{path} does not exist: run 'rfdna train' "
                              f"under these settings first")
        return harness.Verifier.load(path).enrolled_as(claimed, method, snr)

    # Every verifier is checked before a store is made, then loaded again
    # with its SNR's store: one SNR's store and verifiers are held at a time.
    runs = list(itertools.product(config.methods, trials))
    for snr in config.snr_grid:
        for method, trial in runs:
            for claimed in trial.authorized_ids:
                verifier(snr, method, claimed)
    reports = []
    for snr in config.snr_grid:
        store = _store(root, profiles, config, snr)
        reports += [harness.evaluate_trial(
            t, snr, m, {c: verifier(snr, m, c) for c in t.authorized_ids},
            store, config) for m, t in runs]
        del store
    harness.emit_report(reports, root / "reports")
    for r in reports:
        print(f"{r.method} trial {r.trial_id} @ {r.snr_db:g} dB: gates "
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

    commands = {
        "fingerprint": (cmd_fingerprint, "fingerprint the cohort per SNR"),
        "train": (cmd_train, "train and save per-radio verifiers and "
                  "feature rankings"),
        "evaluate": (cmd_evaluate, "score the saved verifiers"),
        "sweep": (cmd_sweep, "full SNR sweep with elimination"),
        "report": (cmd_report, "re-emit result tables"),
    }
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in commands.items():
        sub.add_parser(name, help=text)
    sub.choices["report"].add_argument("--reports", default=None)
    sub.choices["report"].add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        return commands[args.command][0](args)
    except RfdnaError as exc:
        print(f"rfdna: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
