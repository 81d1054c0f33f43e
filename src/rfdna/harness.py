"""Experiment orchestration: cohorts, datasets, training, trials, SNR sweeps.

The verification protocol mirrors a three-trial layout: 18 radios split into
three groups of six authorized radios, with the other twelve acting as rogues
for each trial. Training and model selection only ever touch authorized
radios' fingerprints; rogues appear at evaluation time only.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

from . import featsel
from .errors import InvalidInput, InvalidModel, InvalidValue, MissingData, TrainingFailed
from .fingerprint import FingerprintStore, gen_fingerprint
from .gabor import GaborParams, dgt, normalize_tf
from .modelsel import CandidateModel, build_margin_pmfs, select_best
from .signals import (
    EmitterProfile,
    add_awgn,
    butterworth_filter,
    synth_burst,
)
from .svm import svm_decide, train_svm

METHODS = ("dra", "lda", "pca", "nca", "poeacc", "bc", "ttest", "relieff")
_ZETA_SCALE = 10.0      # SVM kernel width zeta = _ZETA_SCALE / N_r


@dataclass
class TrialConfig:
    trial_id: int
    authorized_ids: list[str]
    rogue_ids: list[str]

    def __post_init__(self):
        if len(self.authorized_ids) != 6 or len(self.rogue_ids) != 12:
            raise InvalidValue("a trial needs 6 authorized and 12 rogue radios")
        if set(self.authorized_ids) & set(self.rogue_ids):
            raise InvalidValue("authorized and rogue sets must be disjoint")


@dataclass
class ExperimentConfig:
    snr_grid: list = field(default_factory=lambda: list(range(-3, 28, 3)))
    n_bursts: int = 1000
    n_z: int = 10
    k_folds: int = 5
    n_train: int = 900           # class-1 training fingerprints
    n_train_other: int = 1080    # per other authorized radio
    nr_grid: list = field(default_factory=lambda: list(range(1, 201)))
    methods: list = field(default_factory=lambda: ["relieff"])
    master_seed: int = 0
    template_len: int = 200
    filter_order: int = 6
    filter_cutoff: float = 0.4
    n_test_realizations: int = 1
    relieff_neighbors: int = 10

    def __post_init__(self):
        if not self.snr_grid or not all(
                isinstance(s, numbers.Real) and not isinstance(s, bool)
                and math.isfinite(s) for s in self.snr_grid):
            raise InvalidValue(f"snr_grid must be finite SNRs in dB, got "
                               f"{self.snr_grid!r}")
        self.snr_grid = sorted(self.snr_grid)
        if not self.methods or not set(self.methods) <= set(METHODS):
            raise InvalidValue(f"methods must be some of {METHODS}, got "
                               f"{self.methods!r}")
        if self.n_z <= self.n_test_realizations:
            raise InvalidValue("need at least one training realization")

    @property
    def train_realizations(self) -> list[int]:
        return list(range(self.n_z - self.n_test_realizations))

    @property
    def test_realizations(self) -> list[int]:
        return list(range(self.n_z - self.n_test_realizations, self.n_z))

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        data = json.loads(Path(path).read_text())
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidValue(f"unknown config keys {sorted(unknown)}")
        return cls(**data)

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2))


def _seed(master: int, *key: int):
    return np.random.SeedSequence([int(master)] + [int(k) & 0xFFFFFFFF for k in key])


def _snr_key(snr_db) -> int:
    return int(round(snr_db * 1000)) + 1_000_000


def default_cohort() -> list[EmitterProfile]:
    """Synthetic 18-radio emitter cohort with moderately spread impairments.

    Carrier offsets are laid out in radio-id order, in three groups of six
    with an enlarged gap between groups. Verification trials draw authorized
    sets from contiguous id blocks, so each radio's closest spectral
    neighbours end up inside its own trial (the verifier trains against
    them) while radios from other trials stay at least a triple step away.
    The remaining impairments are walked with coprime strides on top."""
    n_radios = 18
    idx = np.arange(n_radios)
    step, gap = 0.01, 0.05
    cfo = (5 * step + gap) * (idx // 6) + step * (idx % 6)
    cfo = cfo - cfo.mean()
    tau = np.linspace(6.0, 48.0, n_radios)[(7 * idx) % n_radios]
    pn = np.linspace(0.002, 0.012, n_radios)[(11 * idx) % n_radios]
    pa = np.linspace(0.0, 0.45, n_radios)[(13 * idx) % n_radios]
    gain = np.linspace(0.90, 1.10, n_radios)[(5 * idx + 2) % n_radios]
    phase = np.linspace(-0.12, 0.12, n_radios)[(13 * idx + 7) % n_radios]
    return [
        EmitterProfile(
            radio_id=f"R{i + 1:02d}",
            iq_gain_imbalance=float(gain[i]),
            iq_phase_imbalance=float(phase[i]),
            carrier_freq_offset=float(cfo[i]),
            phase_noise_std=float(pn[i]),
            pa_nonlinearity=float(pa[i]),
            ramp_time_constant=float(tau[i]),
        )
        for i in range(n_radios)
    ]


def default_trials(radio_ids: list[str]) -> list[TrialConfig]:
    """Three trials of six authorized radios each; the other twelve radios
    serve as that trial's rogues."""
    if len(radio_ids) != 18:
        raise InvalidValue("trial layout needs exactly 18 radios")
    trials = []
    for t in range(3):
        auth = radio_ids[6 * t:6 * (t + 1)]
        rogues = [r for r in radio_ids if r not in auth]
        trials.append(TrialConfig(trial_id=t + 1, authorized_ids=auth,
                                  rogue_ids=rogues))
    return trials


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------

def generate_dataset(
    profiles: list[EmitterProfile],
    snr_db,
    config: ExperimentConfig,
) -> FingerprintStore:
    """Fingerprint every burst x noise realization of the cohort at one SNR."""
    params = GaborParams()
    store = FingerprintStore()
    fspec = (config.filter_order, config.filter_cutoff)
    for ridx, profile in enumerate(profiles):
        for b in range(config.n_bursts):
            clean = synth_burst(
                profile, config.template_len,
                seed=_seed(config.master_seed, 1, ridx, b),
            )
            clean = butterworth_filter(clean, *fspec)
            for z in range(config.n_z):
                noisy = add_awgn(
                    clean, snr_db, filter_spec=fspec,
                    seed=_seed(config.master_seed, 2, ridx, b, z,
                               _snr_key(snr_db)),
                )
                tf = normalize_tf(dgt(noisy, params))
                store.add(gen_fingerprint(
                    tf, radio_id=profile.radio_id, snr_db=snr_db,
                    realization=z,
                ))
    return store


# ---------------------------------------------------------------------------
# Feature reducers (uniform interface over rankings and projections)
# ---------------------------------------------------------------------------

class Reducer:
    """Fits one selection method and maps raw fingerprints to the retained
    representation for any requested size."""

    def __init__(self, method: str):
        self.method = method
        self.ranking = None
        self.basis = None

    def fit(self, fset: featsel.LabeledFingerprintSet,
            config: ExperimentConfig) -> "Reducer":
        m = self.method
        if m == "dra":
            lam = featsel.train_grlvq_relevance(
                fset, seed=_seed(config.master_seed, 3))
            self.ranking = featsel.rank_dra(lam)
        elif m == "lda":
            self.basis = featsel.project_lda(fset)
        elif m == "pca":
            self.basis = featsel.project_pca(fset, fset.n_features)
        elif m == "nca":
            self.ranking = featsel.rank_nca(fset)
        elif m == "poeacc":
            self.ranking = featsel.rank_poeacc(fset)
        elif m == "bc":
            self.ranking = featsel.rank_bc(fset)
        elif m == "ttest":
            self.ranking = featsel.rank_ttest(fset)
        elif m == "relieff":
            self.ranking = featsel.rank_relieff(
                fset, n_k=config.relieff_neighbors
            )
        else:
            raise InvalidValue(f"unknown feature selection method {m!r}")
        return self

    def nr_values(self, nr_grid) -> list[int]:
        if self.method == "lda":
            return [1]
        cap = (self.basis.basis.shape[1] if self.basis is not None
               else len(self.ranking.order))
        return [n for n in nr_grid if 1 <= n <= cap]

    def transform(self, X: np.ndarray, n_r: int) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.basis is not None:
            return (X - self.basis.mean) @ self.basis.basis[:, :n_r]
        return X[:, featsel.select_top(self.ranking, n_r)]

    def indices(self, n_r: int):
        if self.ranking is not None:
            return featsel.select_top(self.ranking, n_r)
        return None


# ---------------------------------------------------------------------------
# Training and model selection
# ---------------------------------------------------------------------------

def training_pool(store: FingerprintStore, trial: TrialConfig, claimed: str,
                  config: ExperimentConfig):
    """Training pool of one claimed radio: ``(pool, rows1, rows2)``.

    ``rows1[i]`` holds the first ``n_train // n_z_train`` rows of the claimed
    radio in the i-th training realization; ``rows2[i]`` stacks the first
    ``n_train_other // n_z_train`` rows of each other authorized radio in
    that realization, in trial order. ``pool`` is every block labeled 1 (the
    claimed radio) or 2, the set feature selection is fitted on. Only
    authorized radios are read.

    A realization holding fewer rows than its quota (``n_bursts`` below
    ``n_train // n_z_train`` or ``n_train_other // n_z_train``) contributes
    all of its rows: the pool is then smaller than the config asks for, and
    nothing reports it."""
    if claimed not in trial.authorized_ids:
        raise InvalidModel(f"{claimed} is not authorized in trial "
                           f"{trial.trial_id}")
    train_z = config.train_realizations
    per_z1 = max(1, config.n_train // len(train_z))
    per_z2 = max(1, config.n_train_other // len(train_z))
    others = [r for r in trial.authorized_ids if r != claimed]
    rows1 = [store.select(claimed, [z])[:per_z1] for z in train_z]
    rows2 = [np.concatenate([store.select(o, [z])[:per_z2] for o in others])
             for z in train_z]
    X1 = np.concatenate(rows1)
    X2 = np.concatenate(rows2)
    if len(X1) == 0 or len(X2) == 0:
        raise MissingData("training realizations missing from store")
    pool = featsel.LabeledFingerprintSet(
        X=np.concatenate([X1, X2]),
        labels=np.concatenate([np.ones(len(X1)), np.full(len(X2), 2)]),
    )
    return pool, rows1, rows2


def train_best_model(
    trial: TrialConfig,
    claimed_id: str,
    method: str,
    snr_db,
    store: FingerprintStore,
    config: ExperimentConfig,
) -> CandidateModel:
    """Sweep retained-feature counts for one claimed identity and return the
    margin-PMF-selected verifier.

    For each count, one SVM is trained per (training realization, fold) pair
    and the lowest-validation-error one represents that count."""
    if len(store) == 0:
        raise MissingData(f"no fingerprints available at SNR {snr_db}")
    pool, rows1, rows2 = training_pool(store, trial, claimed_id, config)
    reducer = Reducer(method).fit(pool, config)

    candidates = []
    n_z_train = len(rows1)
    k = config.k_folds
    for n_r in reducer.nr_values(config.nr_grid):
        Xr1 = [reducer.transform(r, n_r) for r in rows1]
        Xr2 = [reducer.transform(r, n_r) for r in rows2]
        best = None
        for zi in range(n_z_train):
            Xz = np.concatenate([Xr1[zi], Xr2[zi]])
            yz = np.concatenate([
                np.ones(len(Xr1[zi]), dtype=np.int64),
                np.full(len(Xr2[zi]), 2, dtype=np.int64),
            ])
            folds = np.concatenate([
                np.arange(len(Xr1[zi])) % k, np.arange(len(Xr2[zi])) % k,
            ])
            for fold in range(k):
                tr = folds != fold
                va = ~tr
                if not va.any() or len(np.unique(yz[tr])) < 2:
                    continue
                try:
                    model = train_svm(
                        Xz[tr], yz[tr], zeta=_ZETA_SCALE / Xz.shape[1],
                        feature_indices=reducer.indices(n_r),
                    )
                except TrainingFailed as exc:
                    model = exc.model
                pred = svm_decide(model, Xz[va])
                truth = np.where(yz[va] == 1, 1, -1)
                err = float(np.mean(pred != truth))
                if best is None or err < best[0]:
                    best = (err, model)
        if best is None:
            continue
        model = best[1]
        Xp1 = np.concatenate(Xr1)
        Xp2 = np.concatenate(Xr2)
        tvr_train = float(np.mean(svm_decide(model, Xp1) == 1))
        fvr_others = float(np.mean(svm_decide(model, Xp2) == 1))
        pair = build_margin_pmfs(model, Xp1, Xp2)
        candidates.append(CandidateModel(
            model=model, n_r=n_r, tvr_train=tvr_train,
            fvr_others_train=fvr_others, pmf_pair=pair,
            meta={"reducer": reducer, "claimed_id": claimed_id},
        ))
    if not candidates:
        raise MissingData("no trainable candidate at any retained count")
    selected = select_best(candidates)
    selected.meta["candidates"] = candidates
    return selected


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    trial_id: int
    snr_db: float | None
    method: str
    entries: list            # dicts: kind, claimed_id, actual_id, n_r, rates
    meta: dict = field(default_factory=dict)

    def rows(self, kind=None, claimed_id=None):
        out = self.entries
        if kind is not None:
            out = [e for e in out if e["kind"] == kind]
        if claimed_id is not None:
            out = [e for e in out if e["claimed_id"] == claimed_id]
        return out

    def attack_count(self) -> int:
        return len(self.rows(kind="rogue"))

    def gates_pass(self) -> bool:
        """TVR >= 0.90 for every authorized radio and FVR <= 0.10 for every
        other-authorized and rogue presentation."""
        for e in self.entries:
            if e["kind"] == "authorized" and e["tvr"] < 0.90:
                return False
            if e["kind"] in ("other", "rogue") and e["fvr"] > 0.10:
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "trial_id": self.trial_id, "snr_db": self.snr_db,
            "method": self.method, "entries": self.entries,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        return cls(
            trial_id=data["trial_id"], snr_db=data["snr_db"],
            method=data["method"], entries=data["entries"],
            meta=data.get("meta", {}),
        )


def evaluate_trial(
    trial: TrialConfig,
    snr_db,
    method: str,
    models: dict,
    store: FingerprintStore,
    config: ExperimentConfig,
) -> VerificationReport:
    """Score held-out realizations: TVR per authorized radio plus FVR for
    every other-authorized and rogue presentation of that claimed ID."""
    missing = set(trial.authorized_ids) - set(models)
    if missing:
        raise InvalidModel(f"no model for claimed ids {sorted(missing)}")
    test_z = config.test_realizations
    entries = []
    for claimed in trial.authorized_ids:
        cand = models[claimed]
        if cand.meta.get("claimed_id") not in (None, claimed):
            raise InvalidModel(
                f"model for {cand.meta['claimed_id']} presented as {claimed}"
            )
        reducer = cand.meta["reducer"]
        n_r = cand.n_r

        def verified_rate(radio_id):
            rows = store.select(radio_id, test_z)
            if len(rows) == 0:
                raise MissingData(f"no test fingerprints for {radio_id}")
            pred = svm_decide(cand.model, reducer.transform(rows, n_r))
            return float(np.mean(pred == 1)), len(rows)

        tvr, n = verified_rate(claimed)
        entries.append({
            "kind": "authorized", "claimed_id": claimed, "actual_id": claimed,
            "n_r": int(n_r), "tvr": tvr, "frr": 1.0 - tvr, "n": n,
        })
        for other in trial.authorized_ids:
            if other == claimed:
                continue
            fvr, n = verified_rate(other)
            entries.append({
                "kind": "other", "claimed_id": claimed, "actual_id": other,
                "n_r": int(n_r), "fvr": fvr, "trr": 1.0 - fvr, "n": n,
            })
        for rogue in trial.rogue_ids:
            fvr, n = verified_rate(rogue)
            entries.append({
                "kind": "rogue", "claimed_id": claimed, "actual_id": rogue,
                "n_r": int(n_r), "fvr": fvr, "trr": 1.0 - fvr, "n": n,
            })
    return VerificationReport(
        trial_id=trial.trial_id, snr_db=snr_db, method=method,
        entries=entries,
    )


def run_trial(trial, snr_db, method, store, config) -> VerificationReport:
    models = {
        claimed: train_best_model(trial, claimed, method, snr_db, store, config)
        for claimed in trial.authorized_ids
    }
    report = evaluate_trial(trial, snr_db, method, models, store, config)
    report.meta["selected_nr"] = {
        claimed: int(models[claimed].n_r) for claimed in trial.authorized_ids
    }
    return report


def snr_sweep(
    trials: list[TrialConfig],
    config: ExperimentConfig,
    store_at,
) -> list[VerificationReport]:
    """Evaluate every (SNR, method, trial) from the highest SNR downward;
    ``store_at(snr)`` returns the fingerprint store of one SNR.

    A method failing either benchmark gate at some SNR is eliminated from all
    lower SNRs; skipped combinations are recorded as stub reports."""
    reports = []
    eliminated: dict[str, float] = {}
    for snr in sorted(config.snr_grid, reverse=True):
        if any(m not in eliminated for m in config.methods):
            store = store_at(snr)
        for method in config.methods:
            if method in eliminated:
                for trial in trials:
                    reports.append(VerificationReport(
                        trial_id=trial.trial_id, snr_db=snr, method=method,
                        entries=[],
                        meta={"skipped": True, "eliminated": True,
                              "eliminated_at_snr": eliminated[method]},
                    ))
                continue
            failed = False
            for trial in trials:
                report = run_trial(trial, snr, method, store, config)
                failed = failed or not report.gates_pass()
                reports.append(report)
            if failed:
                eliminated[method] = snr
                for r in reports:
                    if r.method == method and r.snr_db == snr:
                        r.meta["eliminated"] = True
    return reports


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def emit_report(reports: list[VerificationReport], outdir) -> list[Path]:
    """Write ``reports.json``, ``reports.csv`` and one plot-data JSON per
    report with entries; return the written paths."""
    if not reports:
        raise InvalidInput("no reports to emit")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "reports.json"
    path.write_text(json.dumps([r.to_dict() for r in reports], indent=2))
    written = [path]

    path = outdir / "reports.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "trial_id", "snr_db", "method", "kind", "claimed_id",
            "actual_id", "n_r", "rate_verified", "rate_rejected", "n",
        ])
        for r in reports:
            for e in r.entries:
                verified = e.get("tvr", e.get("fvr"))
                writer.writerow([
                    r.trial_id, r.snr_db, r.method, e["kind"],
                    e["claimed_id"], e["actual_id"], e["n_r"],
                    repr(verified), repr(1.0 - verified), e["n"],
                ])
    written.append(path)

    for r in reports:
        if not r.entries:
            continue
        groups = []
        for e in r.rows(kind="authorized"):
            claimed = e["claimed_id"]
            groups.append({
                "claimed_id": claimed,
                "n_r": e["n_r"],
                "tvr": e["tvr"],
                "others_fvr": {
                    o["actual_id"]: o["fvr"]
                    for o in r.rows(kind="other", claimed_id=claimed)
                },
                "rogue_fvr": {
                    o["actual_id"]: o["fvr"]
                    for o in r.rows(kind="rogue", claimed_id=claimed)
                },
            })
        path = outdir / (f"plotdata_trial{r.trial_id}_snr{r.snr_db}_"
                         f"{r.method}.json")
        path.write_text(json.dumps({
            "trial_id": r.trial_id, "snr_db": r.snr_db,
            "method": r.method, "groups": groups,
        }, indent=2))
        written.append(path)
    return written
