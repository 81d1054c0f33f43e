"""Benchmark of the rfdna verifier, end to end and layer by layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload verify --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``capture``, ``verify`` and ``rank``
(see ``bench/README.md``). The inputs are made from ``--seed``. After set-up
the workload repeats whole rounds of its operations until ``--seconds`` have
passed, then checks the outputs against independent computations.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced rounds and rounds with
every layer traced take turns on the same inputs, and the object holds the
per-layer metrics and the tracing overhead. The line before it
records the environment; the same record goes to ``.bench_out/``.

Exit status: 0 when every output check passed, 1 when a check failed (the
result line still printed, with ``"correct": false``), 2 when the program
under ``src/`` cannot be imported from this checkout (nothing printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1   # one BLAS thread: steadier on a shared 2-core machine
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("capture", "verify", "rank"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import rfdna from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(ROOT / "tests"))    # oracles.py, read only
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import rfdna
        import oracles  # noqa: F401
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return None
    if Path(rfdna.__file__).resolve().parent != (src / "rfdna").resolve():
        print(f"bench: rfdna imported from {rfdna.__file__}, not from "
              f"{src}", file=sys.stderr)
        return None
    return rfdna


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "rfdna").glob("*.py")))


def environment(args, rfdna):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "machine": platform.machine(),
        "rfdna_version": rfdna.__version__,
        "rfdna_src_lines": src_lines(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, state, seconds):
    """Whole rounds until ``seconds`` have passed; at least one."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.round(state))
        if time.perf_counter() - start >= seconds:
            return rounds


def measure_traced(workload, state, seconds, tracer, observers):
    """Untraced and traced rounds in turn until ``2 * seconds`` have passed;
    at least one pair. Pairing the rounds keeps the host's drift out of the
    tracing overhead."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(workload.round(state))
        tracer.install(observers)
        try:
            traced.append(workload.round(state))
        finally:
            tracer.uninstall()
        if time.perf_counter() - start >= 2 * seconds:
            return plain, traced


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(setup_times, rounds, rss):
    ops = [ms for r in rounds for ms in r.op_ms]
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "round_s": metric(statistics.median(r.seconds for r in rounds), "s"),
        "op_ms": metric(statistics.median(ops), "ms"),
        "peak_rss_mb": metric(rss, "MiB"),
    }


def per_layer(tracer, plain, traced, workload_name):
    """Per-layer metrics of a traced pass.

    A layer that runs in the rounds is reported per round, averaged over
    the traced rounds; a layer that runs only in set-up is reported for the
    one traced set-up, so every layer is measured on some workload. ``*_us``
    metrics are means per call under the same rule.
    """
    n = len(traced)
    m = {}

    def scope(span):
        """Phases to read for ``span`` and the divisor that goes with them."""
        if tracer.calls[("run", span)]:
            return ("run",), n
        return ("setup",), 1

    def total(span):
        phases, div = scope(span)
        calls, secs = tracer.total(span, phases)
        return calls / div, secs / div

    def counter(name, span):
        phases, div = scope(span)
        return tracer.counter(name, phases) / div

    def mean_us(span):
        calls, secs = total(span)
        return 1e6 * secs / calls if calls else 0.0

    for span in ("signals.synth", "signals.filter", "signals.awgn",
                 "gabor.dgt", "gabor.normalize", "fingerprint.gen"):
        m[f"{span}_us"] = metric(mean_us(span), "us")
    m["fingerprint.count"] = metric(total("fingerprint.gen")[0], "count")
    m["fingerprint.save_s"] = metric(total("fingerprint.save")[1], "s")
    m["fingerprint.load_s"] = metric(total("fingerprint.load")[1], "s")
    m["fingerprint.store_bytes"] = metric(
        counter("fingerprint.store_bytes", "fingerprint.save"), "B")
    calls, secs = total("fingerprint.select")
    m["fingerprint.select_calls"] = metric(calls, "count")
    m["fingerprint.select_s"] = metric(secs, "s")

    for method in ("dra", "lda", "pca", "nca", "poeacc", "bc", "ttest",
                   "relieff"):
        m[f"featsel.{method}_s"] = metric(total(f"featsel.{method}")[1], "s")
    nca_fits = total("featsel.nca")[0]
    m["featsel.nca_iterations"] = metric(
        counter("featsel.nca_iterations", "featsel.nca") / nca_fits
        if nca_fits else 0.0, "1/fit")

    fits, fit_s = total("svm.fit")
    updates = counter("svm.pair_updates", "svm.fit")
    m["svm.fits"] = metric(fits, "count")
    m["svm.fit_s"] = metric(fit_s, "s")
    m["svm.pair_updates"] = metric(updates, "count")
    m["svm.update_us"] = metric(1e6 * fit_s / updates if updates else 0.0,
                                "us")
    m["svm.unconverged"] = metric(counter("svm.unconverged", "svm.fit"),
                                  "count")
    m["svm.support_vectors"] = metric(
        counter("svm.support_vectors", "svm.fit") / fits if fits else 0.0,
        "1/fit")
    m["svm.score_rows"] = metric(counter("svm.score_rows", "svm.score"),
                                 "count")
    m["svm.score_us"] = metric(mean_us("svm.score"), "us")

    calls, secs = total("modelsel.pmf")
    m["modelsel.pmf_calls"] = metric(calls, "count")
    m["modelsel.pmf_s"] = metric(secs, "s")
    for name in ("candidates", "gate_survivors", "fallbacks"):
        m[f"modelsel.{name}"] = metric(
            counter(f"modelsel.{name}", "modelsel.select"), "count")

    m["harness.generate_s"] = metric(total("harness.generate")[1], "s")
    tbm = total("harness.train_best_model")[1]
    phases, div = scope("harness.train_best_model")
    inner = tracer.child_seconds("harness.train_best_model",
                                 ("featsel", "svm", "modelsel"), phases) / div
    m["harness.train_best_model_s"] = metric(tbm, "s")
    m["harness.train_self_s"] = metric(tbm - inner, "s")
    m["harness.evaluate_s"] = metric(total("harness.evaluate")[1], "s")

    m["rfdna.src_lines"] = metric(src_lines(), "lines")
    m["trace.overhead_pct"] = metric(100.0 * statistics.median(
        t.seconds / p.seconds - 1.0 for p, t in zip(plain, traced)), "%")
    p99 = 0.0
    if workload_name == "verify":
        samples = sorted(ms for r in plain for ms in r.op_ms)
        p99 = samples[min(len(samples) - 1, int(0.99 * len(samples)))]
    m["verify.p99_ms"] = metric(p99, "ms")
    return m


def run(args, env):
    import checks
    import tracing
    from workloads import WORKLOADS

    workdir = ROOT / ".bench_out"
    workdir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    problems = []
    try:
        if args.trace:
            tracer = tracing.Tracer().install(tracing.OBSERVERS)
            try:
                state = workload.setup()
            finally:
                tracer.uninstall()
            tracer.phase = "run"
            plain, traced = measure_traced(workload, state, args.seconds,
                                           tracer, tracing.OBSERVERS)
            rounds = plain + traced
            metrics = per_layer(tracer, plain, traced, args.workload)
            infeasible = tracer.counter("svm.infeasible_fits",
                                        ("setup", "run"))
            if infeasible:
                problems.append(f"{int(infeasible)} SVM fits are not "
                                f"dual-feasible")
        else:
            setup_times = []
            for _ in range(workload.setup_repeats):
                state = None    # free the last set-up before the next one
                t0 = time.perf_counter()
                state = workload.setup()
                setup_times.append(time.perf_counter() - t0)
            rounds = measure(workload, state, args.seconds)
            metrics = end_to_end(setup_times, rounds, peak_rss_mb())
        try:
            workload.check(state, rounds)
        except checks.CheckFailed as exc:
            problems.append(str(exc))
    finally:
        workload.cleanup()

    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    record = {"env": env, "round_seconds": [r.seconds for r in rounds],
              "observed": workload.observed,
              "problems": problems, "result": result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (workdir / name).write_text(json.dumps(record, indent=1) + "\n")
    for p in problems:
        print(f"bench: CHECK FAILED: {p}", file=sys.stderr)
    return result


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    rfdna = import_program()
    if rfdna is None:
        return 2
    env = environment(args, rfdna)
    print(json.dumps({"env": env}))
    result = run(args, env)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
