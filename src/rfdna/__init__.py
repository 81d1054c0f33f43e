"""Radio identity verification from RF-DNA fingerprints.

Pipeline: synthesize near-transient bursts, filter and noise-inject them,
compute an oversampled Gabor time-frequency surface, assemble 204-feature
statistical fingerprints, rank features per authorized radio, train a
two-class RBF SVM verifier per radio, and pick the best model from the margin
PMFs without touching rogue data.
"""

__version__ = "0.1.0"
