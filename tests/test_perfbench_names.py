"""The traced benchmark run prints exactly the per-layer metrics BENCHMARK.json declares.

perfbench's tracer wraps every public function that one etacalc module
imports from another, and prints a `lines.<module>` metric per file of the
package. Deleting or moving a wrapped function, or adding or removing a
module, changes the printed metric set, and a run whose metrics differ from
the declared ones is not accepted as a result. This dry run installs the
tracer, takes it out again, and reads the metric names without running
anything.
"""

from __future__ import annotations

import importlib
import json
import os
from pathlib import Path
from unittest import mock

from etacalc import CLAIM_IDS

REPO = Path(__file__).resolve().parent.parent


def test_traced_metric_names_match_the_benchmark(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    # run.py pins the thread count of numeric libraries in os.environ on import
    with mock.patch.dict(os.environ):
        run = importlib.import_module("run")
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    patches, notes, wrapped = tracing.install(tracer)
    tracing.uninstall(patches)
    # eta.enumerations_per_build is printed once construct_eta has run
    with tracer.span("eta.construct_eta"):
        pass
    claim_elapsed = dict.fromkeys(CLAIM_IDS, 0.0)
    metrics, _ = run.per_layer(tracer, 1, claim_elapsed, notes, wrapped, 0.0, 0.0)
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert notes == []
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
