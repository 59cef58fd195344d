"""Build nu(G) for one group of order 16, or S5, and check every claim on it.

    PYTHONPATH=src python scripts/nu_order16.py [GROUP]

GROUP is a key of GROUPS (default C2xD8). The script builds nu(G) with
construct_nu, then runs every claim through run_corpus on a one-pair
corpus, with verify.construct_nu serving the instance already built, so
the claims time excludes construction. Both run under the row's coset
cap: the default for the order-16 groups, and 4,000,000 for S5, whose
carrier has 3,456,000 points. It exits 1 unless every claim
passes and |nu(G)| and |G (x) G| are the orders listed. It prints one
line: the build time, the claims time and the peak RSS of the process.

The peak RSS moves by about 1.3 MB with glibc's dynamic mmap threshold,
not with what the code allocates: on nu(C2xQ8), builds whose tracemalloc
peaks agree to the KB read 191 and 192 MB. To compare two checkouts at
that level, run both with MALLOC_MMAP_THRESHOLD_=131072 set.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from etacalc import verify
from etacalc.action import conjugation_pair
from etacalc.fpgroup import DEFAULT_MAX_COSETS
from etacalc.groups import builtin, cyclic, dihedral, direct_product, table_from_perms
from etacalc.nu import construct_nu
from etacalc.verify import Corpus, CorpusPair, run_corpus

S5 = Path(__file__).resolve().parent.parent / "tests" / "data" / "s5.json"


def s5():
    return table_from_perms(json.loads(S5.read_text(encoding="utf-8"))["generators"])


# name -> (factory, |nu(G)|, |G (x) G|, coset cap)
GROUPS = {
    "D16": (lambda: dihedral(16), 16_384, 64, DEFAULT_MAX_COSETS),
    "C2xC8": (lambda: direct_product(cyclic(2), cyclic(8)), 16_384, 64, DEFAULT_MAX_COSETS),
    "C4xC4": (lambda: direct_product(cyclic(4), cyclic(4)), 65_536, 256, DEFAULT_MAX_COSETS),
    "C2xC2xC4": (
        lambda: direct_product(builtin("C2xC2"), cyclic(4)), 262_144, 1_024, DEFAULT_MAX_COSETS
    ),
    "C2xD8": (lambda: direct_product(cyclic(2), builtin("D8")), 262_144, 1_024, DEFAULT_MAX_COSETS),
    "C2xQ8": (lambda: direct_product(cyclic(2), builtin("Q8")), 524_288, 2_048, DEFAULT_MAX_COSETS),
    "S5": (s5, 3_456_000, 240, 4_000_000),
}


def main(name: str) -> int:
    factory, nu_order, tensor_order, cap = GROUPS[name]
    group = factory()
    start = time.perf_counter()
    nu = construct_nu(group, max_cosets=cap)
    built = time.perf_counter()
    verify.construct_nu = lambda g, max_cosets: nu
    corpus = Corpus((CorpusPair(f"nu:{name}", "conjugation", conjugation_pair(group)),), (), ())
    reports = run_corpus(max_cosets=cap, corpus=corpus)
    claims = time.perf_counter()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = [r.to_json_line() for r in reports if r.verdict != "PASS"]
    orders = (nu.order(), nu.tensor_order())
    print(
        f"nu({name}): |nu| = {orders[0]}, |T| = {orders[1]}, {len(reports)} claims;"
        f" build {built - start:.2f} s, claims {claims - built:.2f} s, peak RSS {peak:.0f} MB"
    )
    for line in failed:
        print(line)
    return 0 if not failed and orders == (nu_order, tensor_order) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "C2xD8"))
