"""Print a digest of every benchmark corpus carrier's columns and BFS tree.

    PYTHONPATH=src python scripts/carrier_digest.py [SEED ...]

Builds construct_eta for every pair of corpus-default and of corpus-general
at each SEED (default 0 and 7), then for the trivial-action pairs of
DEGENERATE, whose G (x) H is trivial because a factor is, and prints one
line per instance: its label, then a SHA-256 of the carrier's columns, of
its tree's edge columns and parents, and of its level bounds, all in the
canonical numbering of tests/oracles.py's bfs_renumber, and checked there
against the carrier's own tree. Two checkouts that print the same lines
build the same carriers up to numbering, point for point and edge for edge,
so a change to enumeration, assembly or certification can be checked
against its parent by comparing the outputs of the two.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "perfbench"), str(REPO / "tests")]

import corpora  # noqa: E402
import numpy as np  # noqa: E402
from oracles import canonical_carrier  # noqa: E402
from etacalc.action import trivial_pair  # noqa: E402
from etacalc.errors import CapacityError  # noqa: E402
from etacalc.eta import construct_eta  # noqa: E402
from etacalc.groups import builtin  # noqa: E402

# (G, H) with a trivial factor, each built with trivial actions
DEGENERATE = (("C1", "C1"), ("C1", "C4"), ("S3", "C1"))


def digest(carrier) -> str:
    sha = hashlib.sha256()
    rows, (column, parent, bounds) = canonical_carrier(carrier)
    for part in (rows.T, column, parent, bounds[1:]):
        part = np.asarray(part, dtype=np.int64)
        sha.update(repr(part.shape).encode() + part.tobytes())
    return sha.hexdigest()


def line(pair) -> str:
    try:
        return digest(construct_eta(pair).carrier)
    except CapacityError as err:
        return f"capacity: {err}"


def main(seeds: list[int]) -> int:
    workloads = [("corpus-default", 0)] + [("corpus-general", seed) for seed in seeds]
    for workload, seed in workloads:
        for cp in corpora.make_corpus(workload, seed).pairs:
            print(f"{workload} seed {seed} {cp.label}: {line(cp.pair)}")
    for g, h in DEGENERATE:
        print(f"degenerate trivial:{g},{h}: {line(trivial_pair(builtin(g), builtin(h)))}")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or [0, 7]))
