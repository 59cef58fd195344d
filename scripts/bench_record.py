"""Write one BENCH record of a checkout: perfbench, the order-16 rows, tier-1, src/ size, host.

    python scripts/bench_record.py --out BENCH_<n>.json [--runs N]

Everything is measured in subprocesses run from the root of the checkout
holding this script, which is imported from its own src/; nothing under
perfbench/ is changed. The record holds:

* workloads: for each perfbench workload, N untraced runs of perfbench/run.py
  (default 10), seeds 1..N, each as long as BENCHMARK.json's run_seconds,
  with the median and the quartiles of each end-to-end metric over the runs;
* traced: one traced pass of each workload, its per-layer metrics as printed;
* order16: one row per group of scripts/nu_order16.py, each in its own
  process with MALLOC_MMAP_THRESHOLD_=131072: build, T's table within the
  build (tensor_s), claims, peak RSS, exit;
* tier1: one run of the tier-1 suite (python -m pytest -q -p no:cacheprovider,
  with PYTHONPATH=src): its wall time s, and how many tests passed and failed
  (errors count as failures);
* src_lines: the line count of each module of src/etacalc, and their total;
* host: CPU count, machine, Python and numpy versions, the commit, and
  whether src/ differs from it.

Numbers drift over hours on a shared host, so compare two records only when
they were written on one host, one right after the other.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("corpus-default", "corpus-general")
END_TO_END = ("verify_s", "build_s", "setup_s", "peak_rss_mb")
TALLY = re.compile(r"(\d+) (passed|failed|errors?)\b")
ROW = re.compile(r"build ([\d.]+) s, T's table ([\d.]+) s, claims ([\d.]+) s, peak RSS (\d+) MB$")
CHECKOUT = Path(__file__).resolve().parent.parent


def perfbench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """perfbench/run.py's result line for one run; its stderr is shown only if it fails."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=CHECKOUT, capture_output=True, text=True)
    if out.returncode:
        sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench printed nothing for {workload} seed {seed}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """The median and quartiles of the values, and the values themselves."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def workload_record(workload: str, runs: int, seconds: float) -> dict:
    seeds = list(range(1, runs + 1))
    results = [perfbench(workload, seed, seconds, 0) for seed in seeds]
    metrics = {}
    for name in END_TO_END:
        metrics[name] = spread([r["metrics"][name]["value"] for r in results])
        metrics[name]["unit"] = results[0]["metrics"][name]["unit"]
    correct = all(r["correct"] for r in results)
    return {"seeds": seeds, "seconds": seconds, "correct": correct, "metrics": metrics}


def traced(workload: str) -> dict:
    """One traced pass's metrics, each as its value."""
    result = perfbench(workload, 1, 0, 1)
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def order16_groups() -> list[str]:
    """The groups scripts/nu_order16.py knows, in its order."""
    sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT / "scripts")]
    from nu_order16 import GROUPS

    return list(GROUPS)


def order16_row(name: str) -> dict:
    env = {**os.environ, "MALLOC_MMAP_THRESHOLD_": "131072", "PYTHONPATH": "src"}
    cmd = [sys.executable, "scripts/nu_order16.py", name]
    out = subprocess.run(cmd, cwd=CHECKOUT, env=env, stdout=subprocess.PIPE, text=True)
    match = ROW.search(out.stdout.splitlines()[0]) if out.stdout else None
    if match is None:
        raise SystemExit(f"nu_order16.py {name} printed no timing line (exit {out.returncode})")
    build, tensor, claims, peak = match.groups()
    return {
        "build_s": float(build),
        "tensor_s": float(tensor),
        "claims_s": float(claims),
        "peak_rss_mb": int(peak),
        "exit": out.returncode,
    }


def tier1() -> dict:
    """The tier-1 suite's wall time and tallies; its output is shown only if a test fails."""
    env = {**os.environ, "PYTHONPATH": "src"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=CHECKOUT, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    tally = {"passed": 0, "failed": 0}
    summary = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    for count, outcome in TALLY.findall(summary):
        tally["passed" if outcome == "passed" else "failed"] += int(count)
    if out.returncode and not tally["failed"]:
        tally["failed"] = 1  # pytest stopped without a tally of failures, say at collection
    if tally["failed"]:
        sys.stderr.write(out.stdout + out.stderr)
    return {"s": round(seconds, 3), **tally}


def src_lines() -> dict:
    modules = sorted((CHECKOUT / "src" / "etacalc").glob("*.py"))
    counts = {path.stem: len(path.read_text(encoding="utf-8").splitlines()) for path in modules}
    return {**counts, "total": sum(counts.values())}


def host() -> dict:
    """The host, and the commit measured: src_edited when src/ differs from it."""
    git = ["git", "rev-parse", "HEAD"]
    commit = subprocess.run(git, cwd=CHECKOUT, capture_output=True, text=True).stdout.strip()
    edited = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"], cwd=CHECKOUT)
    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit or None,
        "src_edited": edited.returncode != 0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    seconds = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    record = {
        "written": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host(),
        "workloads": {w: workload_record(w, args.runs, seconds) for w in WORKLOADS},
        "traced": {w: traced(w) for w in WORKLOADS},
        "order16": {name: order16_row(name) for name in order16_groups()},
        "tier1": tier1(),
        "src_lines": src_lines(),
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    correct = all(w["correct"] for w in record["workloads"].values())
    passed = all(r["exit"] == 0 for r in record["order16"].values())
    return 0 if correct and passed and record["tier1"]["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
