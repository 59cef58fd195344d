"""Acceptance gate: eleven checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
Criteria 1-5, 7-9 and 11 read a single shared corpus run; criterion 6
compares the closed-form diagonal subgroup against an independent
brute-force enumeration; criterion 10 byte-compares two fresh command line
runs; criterion 11 byte-compares the shared run with the reference reports
that perfbench checks.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from math import prod
from pathlib import Path

import pytest

from etacalc.abelian import canonical_invariants, delta_of_abelian, pi_set
from etacalc.verify import default_corpus, run_corpus

from oracles import brute_delta_of_abelian

FULL_CAP = 10**6
REPO = Path(__file__).resolve().parent.parent
REFERENCE = REPO / "perfbench" / "reference" / "corpus-default.jsonl"


@pytest.fixture(scope="module")
def corpus_run():
    t0 = time.perf_counter()
    reports = run_corpus(max_cosets=FULL_CAP)
    elapsed = time.perf_counter() - t0
    return reports, elapsed


def by_claim(reports, claim: str):
    return [r for r in reports if r.claim == claim]


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion-{criterion:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def test_criterion_01_order_decomposition(corpus_run):
    reports, elapsed = corpus_run
    claims = by_claim(reports, "decomposition")
    passed = [r for r in claims if r.verdict == "PASS"]
    failed = [r for r in claims if r.verdict == "FAIL"]
    ok = not failed and len(passed) >= 12 and elapsed < 300
    verdict(
        1,
        ok,
        f"|eta| = |tensor|*|G|*|H| on {len(passed)} instances "
        f"({len(failed)} failures), corpus run {elapsed:.1f}s (cap {FULL_CAP})",
    )


def test_criterion_02_trivial_action_oracle(corpus_run):
    reports, _ = corpus_run
    claims = by_claim(reports, "ztensor")
    passed = [r for r in claims if r.verdict == "PASS"]
    corpus = default_corpus()
    trivial = [cp for cp in corpus.pairs if cp.kind == "trivial"]
    small = all(cp.pair.g.n <= 12 and cp.pair.h.n <= 12 for cp in trivial)
    ok = len(passed) == len(claims) and len(passed) >= 10 and small
    verdict(
        2,
        ok,
        f"tensor invariants match the Z-tensor of the abelianizations on "
        f"{len(passed)}/{len(claims)} trivial-action instances "
        f"({len(trivial)} pairs with |G|,|H| <= 12)",
    )


def test_criterion_03_biderivation_identities(corpus_run):
    reports, _ = corpus_run
    claims = by_claim(reports, "lemma23")
    passed = [r for r in claims if r.verdict == "PASS"]
    tuples = checks = 0
    for r in claims:
        m_a = re.search(r"\(a\) adopted reading: (\d+) tuples, (\d+) failures", r.detail)
        m_b = re.search(r"\(b\) (\d+) checks, (\d+) failures", r.detail)
        if not (m_a and m_b) or m_a.group(2) != "0" or m_b.group(2) != "0":
            passed = []
            break
        tuples += int(m_a.group(1))
        checks += int(m_b.group(1))
    ok = claims and len(passed) == len(claims)
    verdict(
        3,
        ok,
        f"both bracket identities exhaustive on {len(passed)}/{len(claims)} "
        f"carriers, {tuples} + {checks} checks, zero failures",
    )


def test_criterion_04_derived_subgroup_decomposition(corpus_run):
    reports, _ = corpus_run
    claims = by_claim(reports, "lemma21")
    passed = [r for r in claims if r.verdict == "PASS"]
    groups = sum(1 for cp in default_corpus().pairs if cp.kind == "conjugation")
    ok = len(passed) == len(claims) == groups
    verdict(
        4,
        ok,
        f"|nu(G)'| = |[G,G^phi]|*|G'|^2 with trivial intersections on "
        f"{len(passed)}/{groups} corpus groups",
    )


def test_criterion_05_central_quotient(corpus_run):
    reports, _ = corpus_run
    claims = by_claim(reports, "mu-quotient")
    passed = [r for r in claims if r.verdict == "PASS"]
    groups = sum(1 for cp in default_corpus().pairs if cp.kind == "conjugation")
    ok = len(passed) == len(claims) == groups
    verdict(
        5,
        ok,
        f"|[G,G^phi]| = |mu(G)|*|G'| with mu central on "
        f"{len(passed)}/{groups} corpus groups",
    )


def _abelian_types(limit: int):
    """All invariant-factor chains d1 | d2 | ... with product <= limit."""
    found = [()]
    frontier = [()]
    while frontier:
        chain = frontier.pop()
        start = chain[-1] if chain else 2
        order = prod(chain)
        d = start
        while order * d <= limit:
            if d % start == 0 or not chain:
                longer = chain + (d,)
                found.append(longer)
                frontier.append(longer)
            d += 1
    return sorted(found, key=lambda c: (prod(c), c))


def test_criterion_06_diagonal_formula():
    types = _abelian_types(16)
    mismatches = []
    for chain in types:
        inv = canonical_invariants(chain)
        closed = delta_of_abelian(inv)
        brute = brute_delta_of_abelian(tuple(inv.factors))
        if tuple(closed.factors) != brute:
            mismatches.append((chain, tuple(closed.factors), brute))
        elif pi_set(inv) != pi_set(closed):
            mismatches.append((chain, "pi sets differ", None))
    ok = len(types) == 25 and not mismatches
    verdict(
        6,
        ok,
        f"closed form matches brute-force diagonal subgroup and preserves "
        f"prime support on {len(types) - len(mismatches)}/{len(types)} abelian "
        f"types of order <= 16" + (f"; first mismatch {mismatches[0]}" if mismatches else ""),
    )


def test_criterion_07_prime_support(corpus_run):
    reports, _ = corpus_run
    claims = by_claim(reports, "thmc-pi")
    passed = [r for r in claims if r.verdict == "PASS"]
    groups = sum(1 for cp in default_corpus().pairs if cp.kind == "conjugation")
    ok = len(passed) == len(claims) == groups
    verdict(
        7,
        ok,
        f"pi(G) is contained in pi([G,G^phi]) on {len(passed)}/{groups} "
        f"non-trivial corpus groups",
    )


def test_criterion_08_centralizer_bound(corpus_run):
    reports, _ = corpus_run
    claims = by_claim(reports, "lemma22")
    passed = [r for r in claims if r.verdict == "PASS"]
    proper = [r for r in claims if r.instance.startswith("sub:")]
    ok = len(passed) == len(claims) and len(proper) >= 3
    verdict(
        8,
        ok,
        f"conjugacy class sizes bounded by |T(N,K)| on {len(passed)}/{len(claims)} "
        f"instances, {len(proper)} with proper (N, K)",
    )


def test_criterion_09_compatibility_gate(corpus_run):
    reports, _ = corpus_run
    claims = by_claim(reports, "compat")
    passed = [r for r in claims if r.verdict == "PASS"]
    rejections = [
        r
        for r in claims
        if r.instance.startswith("incompatible:") and r.witness is not None
    ]
    ok = len(passed) == len(claims) and len(rejections) == 1
    verdict(
        9,
        ok,
        f"compatibility accepted on {len(passed) - len(rejections)} corpus pairs "
        f"and rejected the constructed pair with witness "
        f"{rejections[0].witness if rejections else None}",
    )


def test_criterion_10_deterministic_reports():
    runs = [
        subprocess.run(
            [sys.executable, "-m", "etacalc", "verify"],
            capture_output=True,
            timeout=600,
        )
        for _ in range(2)
    ]
    ok = (
        runs[0].returncode == 0
        and runs[1].returncode == 0
        and runs[0].stdout == runs[1].stdout
        and len(runs[0].stdout.splitlines()) > 0
    )
    lines = len(runs[0].stdout.splitlines())
    verdict(
        10,
        ok,
        f"two full verify runs byte-identical: {lines} report lines, "
        f"exit codes {runs[0].returncode}/{runs[1].returncode}",
    )


def test_criterion_11_reference_reports(corpus_run):
    reports, _ = corpus_run
    lines = [r.to_json_line() for r in reports]
    expected = REFERENCE.read_text(encoding="utf-8").splitlines()
    differing = sum(a != b for a, b in zip(lines, expected))
    ok = lines == expected
    verdict(
        11,
        ok,
        f"{len(lines)} report lines against {len(expected)} in {REFERENCE.name}, "
        f"{differing} differing",
    )
