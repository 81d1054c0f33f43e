"""Experiment orchestration: cohorts, datasets, training, trials, SNR sweeps.

The verification protocol mirrors a three-trial layout: 18 radios split into
three groups of six authorized radios, with the other twelve acting as rogues
for each trial. Training and model selection only ever touch authorized
radios' fingerprints; rogues appear at evaluation time only.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import featsel
from .errors import (InvalidModel, InvalidValue, MissingData, TrainingFailed,
                     check_count, is_real)
from .fingerprint import (N_FEATURES, FingerprintStore, gen_fingerprint,
                          load_checked, save_arrays)
from .gabor import GaborParams, dgt, normalize_tf
from .modelsel import (FVR_GATE, TVR_GATE, CandidateModel, build_margin_pmfs,
                       passes_gate, select_best)
from .signals import (
    CAPTURE_FILTER,
    TEMPLATE_LEN,
    EmitterProfile,
    add_awgn,
    butterworth_filter,
    read_json,
    synth_burst,
)
from .svm import SvmModel, svm_decide, train_svm

# Each feature selection method's fit: a function of (fset, config) to its
# FeatureRanking or ProjectionBasis. The featsel functions are looked up at
# call time, so a wrapper set on the featsel module sees every fit.
_FITS = {
    "dra": lambda fset, config: featsel.rank_dra(featsel.train_grlvq_relevance(
        fset, seed=_seed(config.master_seed, 3))),
    "lda": lambda fset, config: featsel.project_lda(fset),
    "pca": lambda fset, config: featsel.project_pca(fset, fset.n_features),
    "nca": lambda fset, config: featsel.rank_nca(fset),
    "poeacc": lambda fset, config: featsel.rank_poeacc(fset),
    "bc": lambda fset, config: featsel.rank_bc(fset),
    "ttest": lambda fset, config: featsel.rank_ttest(fset),
    "relieff": lambda fset, config: featsel.rank_relieff(
        fset, n_k=config.relieff_neighbors),
}
METHODS = tuple(_FITS)
_ZETA_SCALE = 10.0      # SVM kernel width zeta = _ZETA_SCALE / N_r
MAX_ABS_SNR_DB = 1000.0     # a config SNR is within +-MAX_ABS_SNR_DB dB


def _is_snr(value) -> bool:
    return is_real(value) and abs(value) <= MAX_ABS_SNR_DB


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
    n_test_realizations: int = 1
    relieff_neighbors: int = 10
    # The fixed capture chain, readable from a config; not settings.
    template_len = TEMPLATE_LEN
    filter_order, filter_cutoff = CAPTURE_FILTER

    def __post_init__(self):
        for name in ("methods", "snr_grid", "nr_grid"):
            values = getattr(self, name)
            if not isinstance(values, list) or not values:
                raise InvalidValue(f"{name} must be a non-empty list, got "
                                   f"{values!r}")
        if not all(map(_is_snr, self.snr_grid)):
            raise InvalidValue(f"snr_grid must be SNRs within "
                               f"+-{MAX_ABS_SNR_DB:g} dB, got "
                               f"{self.snr_grid!r}")
        self.snr_grid = sorted(self.snr_grid)
        if not all(m in METHODS for m in self.methods):
            raise InvalidValue(f"methods must be some of {METHODS}, got "
                               f"{self.methods!r}")
        for name, low in (("n_bursts", 1), ("k_folds", 2),
                          ("relieff_neighbors", 1),
                          ("n_test_realizations", 0), ("master_seed", 0)):
            check_count(name, getattr(self, name), low)
        # At least one training realization.
        check_count("n_z", self.n_z, self.n_test_realizations + 1)
        n_z_train = self.n_z - self.n_test_realizations
        for name in ("n_train", "n_train_other"):
            value = getattr(self, name)
            check_count(name, value, n_z_train)
            if value % n_z_train:
                raise InvalidValue(
                    f"{name} must be a multiple of the training realization "
                    f"count ({n_z_train}), got {value!r}")
        for n in self.nr_grid:
            check_count("nr_grid entry", n, 1)
        for name in ("methods", "snr_grid", "nr_grid"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise InvalidValue(f"{name} repeats an entry: {values!r}")

    @property
    def train_realizations(self) -> list[int]:
        return list(range(self.n_z - self.n_test_realizations))

    @property
    def test_realizations(self) -> list[int]:
        return list(range(self.n_z - self.n_test_realizations, self.n_z))

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        data = read_json(path, "config")
        if not isinstance(data, dict):
            raise InvalidValue(f"config {path} is not a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidValue(f"unknown config keys {sorted(unknown)}")
        return cls(**data)


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
    gain = np.linspace(0.9, 1.1, n_radios)[(5 * idx + 2) % n_radios]
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

def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def generate_dataset(
    profiles: list[EmitterProfile],
    snr_db,
    config: ExperimentConfig,
) -> FingerprintStore:
    """Fingerprint every burst x noise realization of the cohort at one SNR.

    Radios are fingerprinted in parallel on a thread pool with one worker
    per usable CPU (numpy's FFT and power and scipy's filter release the
    GIL). Each radio's bursts and noise are seeded by radio index, and each
    worker writes its radio's rows into its own slab of one preallocated
    feature array, so the store is the same to the byte for any worker count.
    A radio's error is raised for the first failing radio in cohort order; a
    repeated radio id or a dataset too large to allocate raises
    :class:`InvalidValue` before any."""
    if not is_real(snr_db):
        raise InvalidValue(f"snr_db must be a finite number, got {snr_db!r}")
    ids = [p.radio_id for p in profiles]
    if len(set(ids)) != len(ids):
        raise InvalidValue(f"profiles repeat a radio id: {ids!r}")
    params = GaborParams()
    per_radio = config.n_bursts * config.n_z
    n_rows = len(profiles) * per_radio
    try:
        features = np.empty((n_rows, N_FEATURES))
    except (MemoryError, ValueError) as exc:
        raise InvalidValue(f"cannot hold {n_rows} fingerprints: {exc}"
                           ) from None

    def fill_radio(ridx: int, profile: EmitterProfile) -> None:
        rows = features[ridx * per_radio:(ridx + 1) * per_radio].reshape(
            config.n_bursts, config.n_z, N_FEATURES)
        for b in range(config.n_bursts):
            clean = butterworth_filter(synth_burst(
                profile, TEMPLATE_LEN,
                seed=_seed(config.master_seed, 1, ridx, b),
            ))
            for z in range(config.n_z):
                noisy = add_awgn(
                    clean, snr_db,
                    seed=_seed(config.master_seed, 2, ridx, b, z,
                               _snr_key(snr_db)),
                )
                rows[b, z] = gen_fingerprint(
                    normalize_tf(dgt(noisy, params))).features

    workers = max(1, min(_usable_cpus(), len(profiles)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fill_radio, range(len(profiles)), profiles))
    return FingerprintStore(
        radio_ids=ids,
        id_code=np.repeat(np.arange(len(profiles)), per_radio),
        realization=np.tile(np.arange(config.n_z), n_rows // config.n_z),
        features=features)


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
        if self.method not in _FITS:
            raise InvalidValue(
                f"unknown feature selection method {self.method!r}")
        fitted = _FITS[self.method](fset, config)
        if isinstance(fitted, featsel.ProjectionBasis):
            self.basis = fitted
        else:
            self.ranking = fitted
        return self

    def nr_values(self, nr_grid) -> list[int]:
        if self.method == "lda":
            return [1]
        cap = (self.basis.basis.shape[1] if self.basis is not None
               else len(self.ranking.order))
        return [n for n in nr_grid if 1 <= n <= cap]

    def transform(self, X: np.ndarray, n_r: int) -> np.ndarray:
        return apply_cut(self.cut(n_r), X)

    def cut(self, n_r: int) -> dict:
        """The map to ``n_r`` features: the top ``n_r`` ``indices`` of a
        ranking, or the first ``n_r`` ``basis`` columns and ``mean``."""
        if self.basis is not None:
            return {"basis": self.basis.basis[:, :n_r],
                    "mean": self.basis.mean}
        return {"indices": featsel.select_top(self.ranking, n_r)}


def apply_cut(cut: dict, X: np.ndarray) -> np.ndarray:
    """Raw fingerprint rows mapped by a :meth:`Reducer.cut`."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if "basis" in cut:
        return (X - cut["mean"]) @ cut["basis"]
    return X[:, cut["indices"]]


# ---------------------------------------------------------------------------
# Training and model selection
# ---------------------------------------------------------------------------

def training_pool(store: FingerprintStore, trial: TrialConfig, claimed: str,
                  config: ExperimentConfig):
    """Training pool of one claimed radio: ``(pool, blocks, underfilled)``.

    ``blocks[i]`` is the pair ``(X1, X2)`` of the i-th training realization:
    ``X1`` holds the first ``n_train // n_z_train`` rows of the claimed
    radio, ``X2`` stacks the first ``n_train_other // n_z_train`` rows of
    each other authorized radio, in trial order. ``pool`` is every block
    labeled 1 (the claimed radio) or 2, the set feature selection is fitted
    on. Only authorized radios are read.

    A realization holding fewer rows than its quota (``n_bursts`` below
    ``n_train // n_z_train`` or ``n_train_other // n_z_train``) contributes
    all of its rows: the pool is then smaller than the config asks for, and
    ``underfilled`` is true."""
    if claimed not in trial.authorized_ids:
        raise InvalidModel(f"{claimed!r} is not authorized in trial "
                           f"{trial.trial_id}")
    train_z = config.train_realizations
    per_z1 = config.n_train // len(train_z)
    per_z2 = config.n_train_other // len(train_z)
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
    underfilled = (len(X1) < per_z1 * len(train_z)
                   or len(X2) < per_z2 * len(others) * len(train_z))
    return pool, list(zip(rows1, rows2)), underfilled


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
    and the lowest-validation-error one represents that count. Each meta
    holds the claimed id, the SNR and the fitted :class:`Reducer`; the
    selected one's also whether no candidate passed the gate
    (``gate_fallback``) and whether the training pool fell short of its
    quota (``pool_underfilled``)."""
    if len(store) == 0:
        raise MissingData(f"no fingerprints available at SNR {snr_db}")
    pool, blocks, short = training_pool(store, trial, claimed_id, config)
    reducer = Reducer(method).fit(pool, config)
    k = config.k_folds
    # Labels (+1 claimed, -1 others) and fold numbers of each realization.
    splits = [(np.repeat([1, -1], [len(X1), len(X2)]),
               np.concatenate([np.arange(len(X1)), np.arange(len(X2))]) % k)
              for X1, X2 in blocks]

    candidates = []
    for n_r in reducer.nr_values(config.nr_grid):
        cut = reducer.cut(n_r)
        # Each class block is cut on its own: a projection of the joined
        # block can differ in its last bits.
        cut_blocks = [[apply_cut(cut, X) for X in block] for block in blocks]
        best = None
        for (X1, X2), (y, folds) in zip(cut_blocks, splits):
            X = np.concatenate([X1, X2])
            for fold in range(k):
                tr = folds != fold
                if tr.all() or len(np.unique(y[tr])) < 2:
                    continue
                try:
                    model = train_svm(X[tr], y[tr], zeta=_ZETA_SCALE / n_r,
                                      feature_indices=cut.get("indices"))
                except TrainingFailed as exc:
                    model = exc.model
                err = float(np.mean(svm_decide(model, X[~tr]) != y[~tr]))
                if best is None or err < best[0]:
                    best = (err, model)
        if best is None:
            continue
        model = best[1]
        Xp1, Xp2 = (np.concatenate(Xs) for Xs in zip(*cut_blocks))
        tvr_train = float(np.mean(svm_decide(model, Xp1) == 1))
        fvr_others = float(np.mean(svm_decide(model, Xp2) == 1))
        pair = build_margin_pmfs(model, Xp1, Xp2)
        candidates.append(CandidateModel(
            model=model, n_r=n_r, tvr_train=tvr_train,
            fvr_others_train=fvr_others, pmf_pair=pair,
            meta={"reducer": reducer, "claimed_id": claimed_id,
                  "snr_db": snr_db},
        ))
    if not candidates:
        raise MissingData("no trainable candidate at any retained count")
    selected = select_best(candidates)
    selected.meta["candidates"] = candidates
    selected.meta["gate_fallback"] = not any(map(passes_gate, candidates))
    selected.meta["pool_underfilled"] = short
    return selected


def train_trial(trial, snr_db, method, store, config) -> dict:
    """The selected candidate of every authorized radio, by claimed id."""
    return {c: train_best_model(trial, c, method, snr_db, store, config)
            for c in trial.authorized_ids}


VERIFIER_VERSION = 1
_SVM_FIELDS = ("support_vectors", "dual_coeffs", "scaler_mean",
               "scaler_scale", "bias", "kernel_zeta", "cost_c")
_FLAGS = ("gate_fallback", "pool_underfilled")
# The numpy kind of each 0-d member a verifier file holds.
_SCALAR_KINDS = {"claimed_id": "U", "method": "U", "snr_db": "f", "n_r": "i",
                 "bias": "f", "kernel_zeta": "f", "cost_c": "f",
                 "gate_fallback": "b", "pool_underfilled": "b"}


@dataclass
class Verifier:
    """One claimed radio's enrolled verifier, kept as one versioned ``.npz``:
    the map to ``n_r`` features (:meth:`Reducer.cut`), the SVM on them and
    the training flags of :func:`train_best_model`."""
    claimed_id: str
    method: str
    snr_db: float
    n_r: int
    cut: dict
    model: SvmModel
    flags: dict

    @classmethod
    def of(cls, cand: CandidateModel) -> "Verifier":
        """The verifier of a :func:`train_best_model` candidate, enrolled
        for the claimed id, method and SNR it was trained for."""
        reducer = cand.meta["reducer"]
        return cls(cand.meta["claimed_id"], reducer.method,
                   cand.meta["snr_db"], cand.n_r, reducer.cut(cand.n_r),
                   cand.model, {key: cand.meta[key] for key in _FLAGS})

    def save(self, path) -> None:
        # numpy keeps a cut's layout (Fortran order for PCA), so a reloaded
        # verifier scores bitwise as the fitted one.
        save_arrays(path, version=VERIFIER_VERSION, claimed_id=self.claimed_id,
                    method=self.method, snr_db=float(self.snr_db),
                    n_r=self.n_r, **self.cut, **self.flags,
                    **{k: getattr(self.model, k) for k in _SVM_FIELDS})

    @classmethod
    def load(cls, path) -> "Verifier":
        """The verifier at ``path``, enrolled for the claimed id, method and
        SNR it holds; :func:`load_checked` refuses a file that is not an
        intact version-1 verifier."""
        def checks(d):
            yield "0-d scalars of the saved kind", all(
                d[k].shape == () and d[k].dtype.kind == kind
                for k, kind in _SCALAR_KINDS.items())
            yield "finite arrays", all(np.isfinite(d[k]).all() for k in d
                                       if k in _SVM_FIELDS + ("basis", "mean"))
            yield "positive scales", (d["kernel_zeta"] > 0 and d["cost_c"] > 0
                                      and np.all(d["scaler_scale"] > 0))
            n_r, idx = d["n_r"].item(), d.get("indices")
            sv = d["support_vectors"]
            yield f"array shapes for N_r = {n_r}", (
                n_r >= 1 and sv.ndim == 2 and sv.shape[1] == n_r
                and d["dual_coeffs"].shape == (len(sv),)
                and d["scaler_mean"].shape == d["scaler_scale"].shape
                == (n_r,) and (idx.shape == (n_r,) if idx is not None else
                               d["basis"].shape == (N_FEATURES, n_r)
                               and d["mean"].shape == (N_FEATURES,)))
            yield f"feature indices in 0..{N_FEATURES - 1}", (
                idx is None or idx.dtype.kind == "i"
                and np.all((idx >= 0) & (idx < N_FEATURES)))

        def build(d):
            idx = d.get("indices")
            cut = ({"indices": idx} if idx is not None
                   else {"basis": d["basis"], "mean": d["mean"]})
            model = SvmModel(**{k: d[k] for k in _SVM_FIELDS[:4]},
                             **{k: d[k].item() for k in _SVM_FIELDS[4:]},
                             feature_indices=idx)
            return cls(d["claimed_id"].item(), d["method"].item(),
                       d["snr_db"].item(), d["n_r"].item(), cut, model,
                       {key: d[key].item() for key in _FLAGS})

        return load_checked(path, "verifier", VERIFIER_VERSION, "train",
                            checks, build)

    def enrolled_as(self, claimed_id: str, method: str, snr_db) -> "Verifier":
        """This verifier, if enrolled for ``claimed_id``, ``method`` and
        ``snr_db``; else InvalidModel. The one check of a model's identity."""
        found = (self.claimed_id, self.method, float(self.snr_db))
        asked = (claimed_id, method, float(snr_db))
        if found != asked:
            raise InvalidModel(f"model of {found} presented as {asked}")
        return self


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    trial_id: int
    snr_db: float
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

    def gates_pass(self) -> bool:
        """Every authorized TVR and every other-authorized and rogue FVR
        within the gates of :mod:`rfdna.modelsel`."""
        for e in self.entries:
            if e["kind"] == "authorized" and e["tvr"] < TVR_GATE:
                return False
            if e["kind"] in ("other", "rogue") and e["fvr"] > FVR_GATE:
                return False
        return True

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        """The report of :meth:`to_dict`. A report or entry that lacks a key
        :func:`emit_report` reads, whose kind is not one it reads, or whose
        trial id, SNR or method would not make a plot-data file name, raises
        :class:`InvalidValue`."""
        keys = {"trial_id", "snr_db", "method", "entries"}
        if (not isinstance(data, dict) or not keys <= set(data)
                or not isinstance(data["entries"], list)
                or not isinstance(data.get("meta", {}), dict)):
            raise InvalidValue(f"a report needs the keys {sorted(keys)}, a "
                               f"list of entries and an object meta")
        check_count("trial_id", data["trial_id"], 1)
        if data["method"] not in METHODS or not _is_snr(data["snr_db"]):
            raise InvalidValue(f"a report needs a method of {METHODS} and an "
                               f"SNR within +-{MAX_ABS_SNR_DB:g} dB, got "
                               f"{data['method']!r} and {data['snr_db']!r}")
        for e in data["entries"]:
            rate = ("tvr" if isinstance(e, dict)
                    and e.get("kind") == "authorized" else "fvr")
            keys = {"kind", "claimed_id", "actual_id", "n_r", rate, "n"}
            if (not isinstance(e, dict) or not keys <= set(e)
                    or e["kind"] not in ("authorized", "other", "rogue")
                    or not is_real(e[rate])
                    or {type(e["claimed_id"]), type(e["actual_id"])} != {str}):
                raise InvalidValue(f"report entry {e!r} needs text ids, the "
                                   f"keys {sorted(keys)}, a numeric {rate} "
                                   f"and a kind authorized, other or rogue")
        return cls(data["trial_id"], data["snr_db"], data["method"],
                   data["entries"], data.get("meta", {}))


def evaluate_trial(
    trial: TrialConfig,
    snr_db,
    method: str,
    models: dict,
    store: FingerprintStore,
    config: ExperimentConfig,
) -> VerificationReport:
    """Score held-out realizations: TVR per authorized radio plus FVR for
    every other-authorized and rogue presentation of that claimed ID, by each
    claimed id's :class:`Verifier` or :func:`train_best_model` candidate in
    ``models``. The meta holds ``selected_nr`` and the training flags. A
    model enrolled for another claimed id, method or SNR raises
    :class:`InvalidModel` (:meth:`Verifier.enrolled_as`) before any store
    row is read."""
    missing = set(trial.authorized_ids) - set(models)
    if missing:
        raise InvalidModel(f"no model for claimed ids {sorted(missing)}")
    verifiers = {c: models[c] if isinstance(models[c], Verifier)
                 else Verifier.of(models[c]) for c in trial.authorized_ids}
    for claimed, v in verifiers.items():
        v.enrolled_as(claimed, method, snr_db)
    test_z = config.test_realizations
    entries = []
    for claimed, v in verifiers.items():
        others = [r for r in trial.authorized_ids if r != claimed]
        for kind, actual_ids in (("authorized", [claimed]), ("other", others),
                                 ("rogue", trial.rogue_ids)):
            verified, rejected = (("tvr", "frr") if kind == "authorized"
                                  else ("fvr", "trr"))
            for actual in actual_ids:
                rows = store.select(actual, test_z)
                if len(rows) == 0:
                    raise MissingData(f"no test fingerprints for {actual}")
                rate = float(np.mean(
                    svm_decide(v.model, apply_cut(v.cut, rows)) == 1))
                entries.append({
                    "kind": kind, "claimed_id": claimed, "actual_id": actual,
                    "n_r": int(v.n_r), verified: rate, rejected: 1.0 - rate,
                    "n": len(rows),
                })
    meta = {"selected_nr": {c: int(v.n_r) for c, v in verifiers.items()}}
    for key in _FLAGS:
        meta[key] = {c: v.flags[key] for c, v in verifiers.items()}
    return VerificationReport(
        trial_id=trial.trial_id, snr_db=snr_db, method=method,
        entries=entries, meta=meta,
    )


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
        store = None        # freed before the next SNR's store is made
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
            made = [evaluate_trial(t, snr, method,
                                   train_trial(t, snr, method, store, config),
                                   store, config) for t in trials]
            if not all(r.gates_pass() for r in made):
                eliminated[method] = snr
                for r in made:
                    r.meta["eliminated"] = True
            reports += made
    return reports


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def write_csv(path, header, rows) -> None:
    """``header`` and then ``rows`` as one CSV file, the format of every
    table: the reports, rankings and candidates. Floats are written as
    ``repr``, so one read back is the float that was written."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def emit_report(reports: list[VerificationReport], outdir) -> list[Path]:
    """Write ``reports.json``, ``reports.csv`` and one plot-data JSON per
    report with entries, and delete any other plot-data file in ``outdir``
    (an earlier run's); return the written paths. Two reports that would
    write one plot-data file raise :class:`InvalidValue` before any write."""
    if not reports:
        raise InvalidValue("no reports to emit")
    plots = {f"plotdata_trial{r.trial_id}_snr{r.snr_db}_{r.method}.json": r
             for r in reports if r.entries}
    if len(plots) < sum(1 for r in reports if r.entries):
        raise InvalidValue("two reports of one trial, SNR and method")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "reports.json"
    path.write_text(json.dumps([r.to_dict() for r in reports], indent=2))
    written = [path]

    rows = []
    for r in reports:
        for e in r.entries:
            verified = e["tvr" if e["kind"] == "authorized" else "fvr"]
            rows.append([r.trial_id, r.snr_db, r.method, e["kind"],
                         e["claimed_id"], e["actual_id"], e["n_r"],
                         repr(verified), repr(1.0 - verified), e["n"]])
    path = outdir / "reports.csv"
    write_csv(path, ["trial_id", "snr_db", "method", "kind", "claimed_id",
                     "actual_id", "n_r", "rate_verified", "rate_rejected",
                     "n"], rows)
    written.append(path)

    for name, r in plots.items():
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
        path = outdir / name
        path.write_text(json.dumps({
            "trial_id": r.trial_id, "snr_db": r.snr_db,
            "method": r.method, "groups": groups,
        }, indent=2))
        written.append(path)
    for stale in set(outdir.glob("plotdata_*.json")) - set(written):
        stale.unlink()
    return written
