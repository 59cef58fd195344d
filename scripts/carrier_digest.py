"""Print a digest of every benchmark corpus carrier's columns and BFS tree.

    PYTHONPATH=src python scripts/carrier_digest.py [SEED ...]

Builds construct_eta for every pair of corpus-default and of corpus-general
at each SEED (default 0 and 7) and prints one line per instance: its
label, then a SHA-256 of the carrier's columns, of its tree's edge columns
and parents, and of its level bounds. Two checkouts that print the same
lines build the same carriers, point for point and edge for edge, so a
change to enumeration, assembly or certification can be checked against
its parent by comparing the outputs of the two.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpora  # noqa: E402
import numpy as np  # noqa: E402
from etacalc.errors import CapacityError  # noqa: E402
from etacalc.eta import construct_eta  # noqa: E402


def digest(carrier) -> str:
    sha = hashlib.sha256()
    bounds = [level.stop for level, _, _ in carrier._levels]
    for part in (carrier._columns, carrier._column, carrier._parent, bounds):
        part = np.asarray(part, dtype=np.int64)
        sha.update(repr(part.shape).encode() + part.tobytes())
    return sha.hexdigest()


def main(seeds: list[int]) -> int:
    workloads = [("corpus-default", 0)] + [("corpus-general", seed) for seed in seeds]
    for workload, seed in workloads:
        for cp in corpora.make_corpus(workload, seed).pairs:
            try:
                line = digest(construct_eta(cp.pair).carrier)
            except CapacityError as err:
                line = f"capacity: {err}"
            print(f"{workload} seed {seed} {cp.label}: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or [0, 7]))
