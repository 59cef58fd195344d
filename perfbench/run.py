#!/usr/bin/env python3
"""Corpus benchmark for etacalc: time to certified carriers, then to a verdict.

    python3 perfbench/run.py --workload corpus-default --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the package is imported from ``src/``.
Each pass has two timed phases in this one process:

* build: every corpus instance is constructed the way ``run_corpus``'s
  per-run cache would (``construct_nu`` for conjugation pairs,
  ``construct_eta`` for the rest), keeping capacity and incompatibility
  errors so they can be replayed;
* claims: ``run_corpus(corpus=...)`` with ``etacalc.verify.construct_nu`` and
  ``construct_eta`` rebound to lookups of the build results.

Passes repeat until ``--seconds`` have gone by (at least one); the medians
are reported.  Outputs are checked against references and the last line
of stdout is one JSON object.  The exit code is 0 when every check held,
1 when one failed and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import os

# One thread: set before numpy is imported anywhere in this process.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
REFERENCE = BENCH_DIR / "reference" / "corpus-default.jsonl"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120
WORKLOADS = ("corpus-default", "corpus-general")


class GuardError(Exception):
    """The claims phase constructed something instead of looking it up."""


def timed_setup(workload: str, seed: int):
    """Import etacalc from the checkout and generate the workload."""
    t0 = time.perf_counter()
    if not (SRC / "etacalc" / "__init__.py").is_file():
        print(f"error: {SRC / 'etacalc'} not found; run from a repository checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import etacalc

    if Path(etacalc.__file__).resolve().parent != SRC / "etacalc":
        print(f"error: imported etacalc from {etacalc.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    import corpora

    corpus = corpora.make_corpus(workload, seed)
    return corpus, time.perf_counter() - t0


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def conjugation_group(cp):
    """The group of a conjugation instance, as ``run_corpus`` decides it."""
    if cp.kind == "conjugation" or (cp.kind == "custom" and cp.pair.is_conjugation()):
        return cp.pair.g
    return None


def build(corpus, tracer):
    """Phase 1: construct every instance; returns (nus, etas).

    ``nus`` maps id(group) and ``etas`` maps id(pair) to (object, result,
    label), where the result is the construction or the exception it raised;
    phase 2 replays an exception the way ``run_corpus``'s cache would.
    """
    import corpora
    import etacalc
    from etacalc import verify

    nus, etas = {}, {}
    for cp in corpus.pairs:
        group = conjugation_group(cp)
        with tracer.span("build." + sanitize(corpora.pool_label(cp.label))):
            try:
                if group is not None:
                    value = verify.construct_nu(group, max_cosets=etacalc.DEFAULT_MAX_COSETS)
                else:
                    value = verify.construct_eta(cp.pair, max_cosets=etacalc.DEFAULT_MAX_COSETS)
            except Exception as err:  # replayed in phase 2, reported by check_instances
                value = err
        if group is not None:
            nus[id(group)] = (group, value, cp.label)
        else:
            etas[id(cp.pair)] = (cp.pair, value, cp.label)
    return nus, etas


def claims(corpus, nus, etas, tracer):
    """Phase 2: run_corpus with every construction served from phase 1."""
    from etacalc import verify

    served = Counter()
    constructed = Counter()

    def lookup(store, kind):
        def serve(obj, *, max_cosets=None):
            entry = store.get(id(obj))
            if entry is None or entry[0] is not obj:
                raise GuardError(f"{kind} construction requested for an instance phase 1 never built")
            served[kind] += 1
            if isinstance(entry[1], Exception):
                raise entry[1]
            return entry[1]

        return serve

    def sentinel(name, fn):
        def guarded(*args, **kwargs):
            constructed[name] += 1
            return fn(*args, **kwargs)

        return guarded

    for name in ("construct_nu", "construct_eta"):
        if not hasattr(verify, name):
            raise GuardError(f"etacalc.verify no longer imports {name}; the lookup hook cannot be installed")
    patches = [
        (verify, "construct_nu", lookup(nus, "nu")),
        (verify, "construct_eta", lookup(etas, "eta")),
    ]
    for layer in tracing.LAYERS:
        module = sys.modules[f"etacalc.{layer}"]
        for name in ("construct_nu", "construct_eta", "todd_coxeter"):
            if layer != "verify" and hasattr(module, name):
                patches.append((module, name, sentinel(f"{layer}.{name}", getattr(module, name))))
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, new in patches:
        setattr(owner, attr, new)
    try:
        with tracer.span("verify.run_corpus"):
            reports = verify.run_corpus(corpus=corpus)
    finally:
        tracing.uninstall(originals)
    if constructed:
        raise GuardError(f"construction ran during the claims phase: {dict(constructed)}")
    expected = {"nu": len(nus), "eta": len(etas)}
    if dict(served) != {k: v for k, v in expected.items() if v}:
        raise GuardError(f"lookups served {dict(served)}, expected one per instance {expected}")
    return reports, served


def check_instances(workload, nus, etas) -> list[str]:
    """Problems with the built instances: exceptions, or wrong orders."""
    import corpora

    problems = [
        f"{label}: raised {type(value).__name__}: {value}"
        for store in (nus, etas)
        for _, value, label in store.values()
        if isinstance(value, Exception)
    ]
    if workload == "corpus-general":
        for _, eta, label in etas.values():
            reference = corpora.GENERAL_REFERENCE[corpora.pool_label(label)]
            if not isinstance(eta, Exception) and (eta.order(), eta.tensor_order()) != reference:
                orders = (eta.order(), eta.tensor_order())
                problems.append(f"{label}: orders {orders}, reference {reference}")
    return problems


def check_reports(workload, reports, expected_lines) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over one claims run's reports."""
    if workload == "corpus-default":
        lines = [r.to_json_line() for r in reports]
        bad = sum(a != b for a, b in zip(lines, expected_lines))
        bad += abs(len(lines) - len(expected_lines))
        found = [f"{bad} report lines differ from {REFERENCE.name}"] if bad else []
        return max(len(lines), len(expected_lines)), bad, found
    found = [f"{r.instance} {r.claim}: {r.verdict} {r.detail}" for r in reports if r.verdict != "PASS"]
    return len(reports), len(found), found


def sanitize(label: str) -> str:
    return "".join(c if c.isalnum() or c in "_.-" else "_" for c in label)


def per_layer(tracer, passes, claim_elapsed, notes, wrapped, traced_verify_s, overhead_per_call):
    """The traced run's per-layer metrics, averaged over passes."""
    import corpora
    from etacalc import CLAIM_IDS, default_corpus

    inclusive, self_time, calls = tracer.times()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value / passes, "unit": unit}

    for span_name, variants in tracing.SPAN_METRICS:
        if span_name not in wrapped:
            continue
        for variant in variants:
            if variant == "s":
                put(f"{span_name}.s", inclusive[span_name], "s")
            elif variant == "self_s":
                put(f"{span_name}.self_s", self_time[span_name], "s")
            else:
                put(f"{span_name}.calls", calls[span_name], "count")
    for key in (
        "fpgroup.presentation.generators",
        "fpgroup.presentation.relators",
        "fpgroup.presentation.letters",
        "fpgroup.index",
    ):
        put(key, tracer.counts[key], "count")
    if calls["eta.construct_eta"]:
        ratio = calls["fpgroup.todd_coxeter"] / calls["eta.construct_eta"]
        metrics["eta.enumerations_per_build"] = {"value": ratio, "unit": "ratio"}
    for claim in CLAIM_IDS:
        put(f"verify.claim.{claim}.s", claim_elapsed[claim], "s")
    labels = [cp.label for cp in default_corpus().pairs] + list(corpora.GENERAL_REFERENCE)
    for label in labels:
        name = "build." + sanitize(label)
        put(f"{name}.s", inclusive[name], "s")
    layers = Counter()
    for span_name, seconds in self_time.items():
        layers[tracing.layer_of(span_name)] += seconds
    for layer in (*tracing.LAYERS, "bench"):
        put(f"self.{layer}.s", layers[layer], "s")
    lines = tracing.source_lines()
    for module, count in lines.items():
        metrics[f"lines.{module}"] = {"value": count, "unit": "lines"}
    metrics["lines.total"] = {"value": sum(lines.values()), "unit": "lines"}
    put("trace.overhead_s", overhead_per_call * len(tracer.spans), "s")
    put("trace.verify_s", traced_verify_s, "s")
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    return metrics, sum(layers.values()) / passes


def run(args) -> int:
    corpus, own_setup = timed_setup(args.workload, args.seed)
    expected_lines = []
    if args.workload == "corpus-default":
        expected_lines = REFERENCE.read_text(encoding="utf-8").splitlines()

    setup_samples = [own_setup]
    if not args.trace:
        setup_samples += [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]

    tracer, patches, notes, wrapped, overhead = tracing.NullTracer(), [], [], set(), 0.0
    if args.trace:
        overhead = tracing.calibrate()
        tracer = tracing.Tracer()
        patches, notes, wrapped = tracing.install(tracer)

    builds, claim_times, served = [], [], Counter()
    claim_elapsed = Counter()
    attempted = failed = 0
    problems: list[str] = []
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            gc.collect()
            t0 = time.perf_counter()
            with tracer.span("phase.build"):
                nus, etas = build(corpus, tracer)
            builds.append(time.perf_counter() - t0)
            found = check_instances(args.workload, nus, etas)
            attempted += len(corpus.pairs)
            failed += len(found)
            problems += found
            t1 = time.perf_counter()
            try:
                with tracer.span("phase.claims"):
                    reports, served = claims(corpus, nus, etas, tracer)
            except Exception as err:  # a broken claims phase fails the run, loudly
                reports = []
                problems.append(f"claims phase: {type(err).__name__}: {err}")
                failed += 1
                attempted += 1
            claim_times.append(time.perf_counter() - t1)
            for r in reports:
                claim_elapsed[r.claim] += r.elapsed
            n_attempted, n_failed, found = check_reports(args.workload, reports, expected_lines)
            attempted += n_attempted
            failed += n_failed
            problems += found
            del nus, etas, reports
            if time.perf_counter() >= deadline:
                break
    finally:
        tracing.uninstall(patches)

    passes = len(builds)
    verify_times = [b + c for b, c in zip(builds, claim_times)]
    if args.trace:
        metrics, layer_sum = per_layer(
            tracer, passes, claim_elapsed, notes, wrapped, sum(verify_times), overhead
        )
        print(
            f"traced: layer self times sum to {layer_sum:.3f} s of a traced verify_s of "
            f"{sum(verify_times) / passes:.3f} s per pass",
            file=sys.stderr,
        )
    else:
        metrics = {
            "verify_s": {"value": statistics.median(verify_times), "unit": "s"},
            "build_s": {"value": statistics.median(builds), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    for problem in problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {passes} pass(es), lookups {dict(served)}, "
        f"fail_share {failed}/{attempted} = {failed / max(attempted, 1):.4f}, "
        f"claims_s {statistics.median(claim_times):.3f} s (not gated)",
        file=sys.stderr,
    )
    for name, metric in metrics.items():
        print(f"  {name:44} {metric['value']:14.6f} {metric['unit']}", file=sys.stderr)
    correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one result line each."""
    status = 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        print(json.dumps({"workload": workload, **(json.loads(lines[-1]) if lines else {})}))
        status = max(status, out.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        print(timed_setup(args.workload, args.seed)[1])
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
