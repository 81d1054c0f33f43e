"""Radio identity verification from RF-DNA fingerprints.

Pipeline: synthesize near-transient bursts, filter and noise-inject them,
compute an oversampled Gabor time-frequency surface, assemble 204-feature
statistical fingerprints, rank features per authorized radio, train a
two-class RBF SVM verifier per radio, and pick the best model from the margin
PMFs without touching rogue data.
"""

from . import errors
from .signals import (
    ComplexBurst,
    EmitterProfile,
    add_awgn,
    butterworth_filter,
    synth_burst,
)
from .gabor import GaborParams, dgt, normalize_tf
from .fingerprint import (
    Fingerprint,
    FingerprintStore,
    gen_fingerprint,
)
from .featsel import (
    FeatureRanking,
    LabeledFingerprintSet,
    ProjectionBasis,
    rank_bc,
    rank_dra,
    rank_nca,
    rank_poeacc,
    rank_relieff,
    rank_ttest,
    project_lda,
    project_pca,
    select_top,
    train_grlvq_relevance,
)
from .svm import SvmModel, margin, svm_decide, svm_score, train_svm
from .modelsel import (
    CandidateModel,
    MarginPmfPair,
    build_margin_pmfs,
    model_quality,
    select_best,
)
from .harness import (
    ExperimentConfig,
    TrialConfig,
    VerificationReport,
    default_cohort,
    default_trials,
    emit_report,
    evaluate_trial,
    generate_dataset,
    snr_sweep,
    train_best_model,
)

__version__ = "0.1.0"
