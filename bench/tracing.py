"""Per-layer tracing from outside the package.

A :class:`Tracer` replaces the public functions of each ``rfdna`` module, in
every ``rfdna`` module namespace that binds them (``rfdna.harness.train_svm``
as well as ``rfdna.svm.train_svm``), with wrappers that count calls and time
them. Spans nest: each wrapper also charges its duration to the span that
called it, so a caller's self time can be derived. Nothing inside
``src/rfdna`` is edited; :meth:`Tracer.uninstall` puts every original back.

Statistics are kept per phase (``"setup"`` or ``"run"``), in memory, and
turned into metrics by the caller once the traced pass ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import checks

# (module, attribute) of every traced function, and the span name it gets.
# The span name's first component is the layer.
TRACED_FUNCTIONS = (
    ("rfdna.signals", "synth_burst", "signals.synth"),
    ("rfdna.signals", "butterworth_filter", "signals.filter"),
    ("rfdna.signals", "add_awgn", "signals.awgn"),
    ("rfdna.gabor", "dgt", "gabor.dgt"),
    ("rfdna.gabor", "normalize_tf", "gabor.normalize"),
    ("rfdna.fingerprint", "gen_fingerprint", "fingerprint.gen"),
    ("rfdna.featsel", "train_grlvq_relevance", "featsel.dra"),
    ("rfdna.featsel", "rank_dra", "featsel.dra"),
    ("rfdna.featsel", "project_lda", "featsel.lda"),
    ("rfdna.featsel", "project_pca", "featsel.pca"),
    ("rfdna.featsel", "rank_nca", "featsel.nca"),
    ("rfdna.featsel", "rank_poeacc", "featsel.poeacc"),
    ("rfdna.featsel", "rank_bc", "featsel.bc"),
    ("rfdna.featsel", "rank_ttest", "featsel.ttest"),
    ("rfdna.featsel", "rank_relieff", "featsel.relieff"),
    ("rfdna.svm", "train_svm", "svm.fit"),
    ("rfdna.svm", "svm_score", "svm.score"),
    ("rfdna.svm", "svm_decide", "svm.decide"),
    ("rfdna.modelsel", "build_margin_pmfs", "modelsel.pmf"),
    ("rfdna.modelsel", "select_best", "modelsel.select"),
    ("rfdna.harness", "generate_dataset", "harness.generate"),
    ("rfdna.harness", "train_best_model", "harness.train_best_model"),
    ("rfdna.harness", "evaluate_trial", "harness.evaluate"),
)

# FingerprintStore methods, traced on the class.
TRACED_METHODS = (
    ("save", "fingerprint.save"),
    ("load", "fingerprint.load"),
    ("select", "fingerprint.select"),
)


class Tracer:
    """Call counts, inclusive seconds and per-layer child seconds by span."""

    def __init__(self):
        self.phase = "setup"
        self.calls = defaultdict(int)       # (phase, span) -> calls
        self.seconds = defaultdict(float)   # (phase, span) -> inclusive s
        self.child = defaultdict(float)     # (phase, span, layer) -> s
        self.counts = defaultdict(float)    # (phase, counter) -> value
        self._stack = []
        self._undo = []

    # -- recording ------------------------------------------------------

    def count(self, name, value=1):
        self.counts[(self.phase, name)] += value

    def _wrap(self, span, fn, observe):
        layer = span.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = defaultdict(float)
            self._stack.append(frame)
            result = exc = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                phase = self.phase
                self.calls[(phase, span)] += 1
                self.seconds[(phase, span)] += dt
                for child_layer, secs in frame.items():
                    self.child[(phase, span, child_layer)] += secs
                if self._stack:
                    self._stack[-1][layer] += dt
                if observe is not None:
                    observe(self, args, kwargs, result, exc)

        return traced

    # -- installation ---------------------------------------------------

    def install(self, observers=None):
        """Wrap every traced function and store method."""
        observers = observers or {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "rfdna" or name.startswith("rfdna.")]
        for modname, attr, span in TRACED_FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(span, original, observers.get(span))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._undo.append((mod, name, original))
        store_cls = sys.modules["rfdna.fingerprint"].FingerprintStore
        for attr, span in TRACED_METHODS:
            raw = store_cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    self._wrap(span, raw.__func__, observers.get(span)))
            else:
                wrapped = self._wrap(span, raw, observers.get(span))
            setattr(store_cls, attr, wrapped)
            self._undo.append((store_cls, attr, raw))
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- reading --------------------------------------------------------

    def total(self, span, phases=("run",)):
        calls = sum(self.calls[(p, span)] for p in phases)
        secs = sum(self.seconds[(p, span)] for p in phases)
        return calls, secs

    def child_seconds(self, span, layers, phases=("run",)):
        return sum(self.child[(p, span, layer)]
                   for p in phases for layer in layers)

    def counter(self, name, phases=("run",)):
        return sum(self.counts[(p, name)] for p in phases)


# ---------------------------------------------------------------------------
# Observers: counters read from a traced call's arguments and result
# ---------------------------------------------------------------------------

def _observe_fit(tracer, args, kwargs, result, exc):
    model = result
    if exc is not None:
        model = getattr(exc, "model", None)
        if model is None:
            return
        tracer.count("svm.unconverged")
    diag = model.diagnostics
    tracer.count("svm.pair_updates", diag.get("n_updates", 0))
    tracer.count("svm.support_vectors", len(model.dual_coeffs))
    try:
        checks.check_dual_feasible(model, "fit")
    except checks.CheckFailed:
        tracer.count("svm.infeasible_fits")


def _observe_score(tracer, args, kwargs, result, exc):
    rows = args[1] if len(args) > 1 else kwargs.get("fp")
    shape = getattr(rows, "shape", ())
    tracer.count("svm.score_rows", 1 if len(shape) <= 1 else shape[0])


def _observe_nca(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.count("featsel.nca_iterations",
                     len(result.meta["objective_history"]) - 1)


def _observe_select_best(tracer, args, kwargs, result, exc):
    candidates = args[0] if args else kwargs.get("candidates", [])
    survivors = sum(1 for c in candidates
                    if c.tvr_train >= 0.90 and c.fvr_others_train <= 0.10)
    tracer.count("modelsel.candidates", len(candidates))
    tracer.count("modelsel.gate_survivors", survivors)
    if candidates and not survivors:
        tracer.count("modelsel.fallbacks")


def _observe_save(tracer, args, kwargs, result, exc):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    if exc is None and path is not None:
        tracer.count("fingerprint.store_bytes", os.path.getsize(path))


OBSERVERS = {
    "svm.fit": _observe_fit,
    "svm.score": _observe_score,
    "featsel.nca": _observe_nca,
    "modelsel.select": _observe_select_best,
    "fingerprint.save": _observe_save,
}
