#!/usr/bin/env python3
"""Checks of the benchmark's own machinery, run from the checkout root.

    python3 perfbench/selfcheck.py

1. corpus-general under two seeds: the labellings differ, while every
   order and every verdict agrees.
2. The pair generator rejects a central K (D8 x C2 over its centre, where
   both actions are trivial) and K = G.
3. With wrapped names deleted from the package, tracing omits their
   metrics with a note instead of failing.
4. The metric names run.py prints match BENCHMARK.json.

Exits 0 when all hold, 1 otherwise; takes about two minutes on 2 CPUs.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import tracing

sys.path.insert(0, str(run.SRC))

SEEDS = (0, 1)


def seeds_agree() -> list[str]:
    results = []
    for seed in SEEDS:
        corpus, _ = run.timed_setup("corpus-general", seed)
        nus, etas = run.build(corpus, tracing.NullTracer())
        reports, _ = run.claims(corpus, nus, etas, tracing.NullTracer())
        results.append(
            {
                "labelling": {cp.label: cp.pair.g.generating_subset() for cp in corpus.pairs},
                "order": {cp.label: cp.pair.g.table.tobytes() for cp in corpus.pairs},
                "orders": {
                    label: (eta.order(), eta.tensor_order()) for _, eta, label in etas.values()
                },
                "verdicts": {(r.instance, r.claim): r.verdict for r in reports},
            }
        )
    a, b = results
    problems = []
    if a["order"] == b["order"]:
        problems.append("seeds 0 and 1 gave the same multiplication tables")
    if a["labelling"] == b["labelling"]:
        print("note: seeds 0 and 1 picked the same generating subsets", file=sys.stderr)
    for key in ("orders", "verdicts"):
        if a[key] != b[key]:
            problems.append(f"{key} differ between seeds {SEEDS}")
    if set(a["verdicts"].values()) != {"PASS"}:
        problems.append("a corpus-general claim did not pass")
    return problems


def rejects_special_pairs() -> list[str]:
    import corpora
    from etacalc import builtin, cyclic, direct_product

    group = direct_product(builtin("D8"), cyclic(2))
    problems = []
    for what, members in (("central K", group.center_indices()), ("K = G", range(group.n))):
        try:
            corpora.normal_pair(group, members)
        except ValueError:
            continue
        problems.append(f"normal_pair accepted {what}")
    return problems


def tolerates_missing_names() -> list[str]:
    import etacalc.nu as nu_module
    from etacalc import CLAIM_IDS

    removed = {name: getattr(nu_module, name) for name in ("hom_kernel", "GroupHom")}
    for name in removed:
        delattr(nu_module, name)
    tracer = tracing.Tracer()
    try:
        patches, notes, wrapped = tracing.install(tracer)
        tracing.uninstall(patches)
    finally:
        for name, value in removed.items():
            setattr(nu_module, name, value)
    metrics, _ = run.per_layer(tracer, 1, dict.fromkeys(CLAIM_IDS, 0.0), notes, wrapped, 0.0, 0.0)
    problems = []
    for gone in ("perm.hom_kernel.s", "perm.group_hom.s"):
        if gone in metrics:
            problems.append(f"{gone} reported although its name was deleted")
    if not all(any(name in note for note in notes) for name in ("hom_kernel", "group_hom")):
        problems.append(f"expected a note per deleted name, got {notes}")
    return problems


def names_match_benchmark() -> list[str]:
    with open(run.BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [
            sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "corpus-general",
            "--seed", "0", "--seconds", "0", "--trace", str(trace),
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
        declared = {m["name"]: m["unit"] for m in spec[section]}
        printed = {name: m["unit"] for name, m in metrics.items()}
        if declared != printed:
            diff = sorted(set(declared.items()) ^ set(printed.items()))
            problems.append(f"{section} names or units differ: {diff}")
    return problems


def main() -> int:
    problems = []
    for check in (rejects_special_pairs, tolerates_missing_names, seeds_agree, names_match_benchmark):
        found = check()
        print(f"{'FAIL' if found else 'ok  '} {check.__name__}", file=sys.stderr)
        problems += found
    for problem in problems:
        print(f"  {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
