"""Claim reports, corpus plumbing, and verdict semantics."""

from __future__ import annotations

import json
import time

import pytest

from etacalc import verify
from etacalc.action import conjugation_pair, incompatible_example, trivial_pair
from etacalc.eta import construct_eta
from etacalc.groups import builtin
from etacalc.verify import (
    CLAIM_IDS,
    ClaimReport,
    Corpus,
    CorpusPair,
    SubgroupCase,
    corpus_from_json_dict,
    default_corpus,
    run_corpus,
    summary,
    verify_centralizer_bound,
    verify_lemma_identities,
    verify_theorem_A_machinery,
)


@pytest.fixture(scope="module")
def mini_corpus() -> Corpus:
    s3 = builtin("S3")
    return Corpus(
        pairs=(
            CorpusPair("nu:C4", "conjugation", conjugation_pair(builtin("C4"))),
            CorpusPair("nu:S3", "conjugation", conjugation_pair(s3)),
            CorpusPair(
                "trivial:C2,C3", "trivial", trivial_pair(builtin("C2"), builtin("C3"))
            ),
        ),
        incompatible=(
            CorpusPair("incompatible:S3,C2", "incompatible", incompatible_example()),
        ),
        subgroup_cases=(
            SubgroupCase(
                "sub:S3:A3,A3", "nu:S3", s3.derived_indices(), s3.derived_indices()
            ),
        ),
    )


@pytest.fixture(scope="module")
def mini_reports(mini_corpus) -> list[ClaimReport]:
    return run_corpus(corpus=mini_corpus)


def test_default_corpus_shape():
    corpus = default_corpus()
    kinds = [cp.kind for cp in corpus.pairs]
    assert kinds.count("conjugation") == 21
    assert kinds.count("trivial") == 15
    assert len(corpus.pairs) >= 12
    assert len(corpus.incompatible) == 1
    assert len(corpus.subgroup_cases) >= 3
    labels = [cp.label for cp in corpus.pairs] + [
        cp.label for cp in corpus.incompatible
    ]
    assert len(set(labels)) == len(labels)
    hosts = {cp.label for cp in corpus.pairs}
    for case in corpus.subgroup_cases:
        assert case.host in hosts
    # every group in the corpus is small enough for the time budget
    for cp in corpus.pairs:
        assert cp.pair.g.n <= 12 and cp.pair.h.n <= 12


def test_claim_report_json_shape():
    report = ClaimReport(
        claim="compat",
        anchor="compatible actions, eq. (0)",
        instance="nu:C4",
        verdict="PASS",
        detail="fine",
        witness=None,
        elapsed=1.25,
    )
    data = report.to_json_dict()
    assert data["schema"] == 1
    assert "elapsed" not in data
    line = report.to_json_line()
    assert json.loads(line)["claim"] == "compat"
    # keys are sorted so repeated runs serialize identically
    assert line.index('"anchor"') < line.index('"claim"') < line.index('"detail"')


def test_mini_corpus_all_pass_and_sorted(mini_reports):
    assert mini_reports
    assert all(r.verdict == "PASS" for r in mini_reports)
    keys = [(r.instance, r.claim) for r in mini_reports]
    assert keys == sorted(keys)
    stats = summary(mini_reports)
    assert stats["ok"] and stats["fail"] == 0 and stats["skipped"] == 0
    assert stats["total"] == stats["pass"] == len(mini_reports)


def test_incompatible_pair_never_reaches_construction(mini_reports):
    touched = {r.claim for r in mini_reports if r.instance.startswith("incompatible:")}
    assert touched == {"compat"}
    rejection = next(
        r for r in mini_reports if r.instance.startswith("incompatible:")
    )
    assert rejection.verdict == "PASS"
    assert "rejected" in rejection.detail
    assert rejection.witness is not None and rejection.witness["family"] == 1


def test_claim_coverage_on_mini_corpus(mini_reports):
    by_claim = {}
    for r in mini_reports:
        by_claim.setdefault(r.claim, []).append(r.instance)
    assert set(by_claim) == set(CLAIM_IDS)
    # nu-level claims run only on conjugation instances
    for claim in ("lemma21", "mu-quotient", "cor32", "prop31-delta", "thmc-pi"):
        assert set(by_claim[claim]) == {"nu:C4", "nu:S3"}
    # carrier-level claims also cover the trivial pair and subgroup cases
    assert "trivial:C2,C3" in by_claim["decomposition"]
    assert "sub:S3:A3,A3" in by_claim["lemma22"]
    assert "sub:S3:A3,A3" in by_claim["thma"]


@pytest.mark.parametrize(
    "claim_filter, built",
    [
        (None, ["nu:C4", "nu:S3", "trivial:C2,C3"]),
        ("compat", []),
        ("mu-quotient", ["nu:C4", "nu:S3"]),
    ],
)
def test_instances_are_built_once_before_the_checks(
    monkeypatch, mini_corpus, claim_filter, built
):
    # Benchmarks rebind both constructors in etacalc.verify to serve prebuilt
    # instances, so run_corpus must call them through those names, build each
    # instance once, build nu(G) for conjugation instances only, and keep
    # construction out of every report's elapsed time.
    labels = {id(cp.pair): cp.label for cp in mini_corpus.pairs}
    labels.update({id(cp.pair.g): cp.label for cp in mini_corpus.pairs})
    calls = []

    def slow(kind, construct):
        def build(obj, *, max_cosets):
            calls.append((kind, labels[id(obj)]))
            time.sleep(0.2)
            return construct(obj, max_cosets=max_cosets)

        return build

    monkeypatch.setattr(verify, "construct_nu", slow("nu", verify.construct_nu))
    monkeypatch.setattr(verify, "construct_eta", slow("eta", verify.construct_eta))
    reports = run_corpus(corpus=mini_corpus, claim_filter=claim_filter)
    assert [label for _, label in calls] == built
    conjugation = {cp.label for cp in mini_corpus.pairs if cp.kind == "conjugation"}
    assert all((kind == "nu") == (label in conjugation) for kind, label in calls)
    assert reports and all(r.elapsed < 0.2 for r in reports)


def test_lemma_identities_counts_and_both_readings():
    eta = construct_eta(trivial_pair(builtin("C2"), builtin("C2")))
    report = verify_lemma_identities(eta, instance="trivial:C2,C2")
    assert report.verdict == "PASS"
    assert report.claim == "lemma23" and report.anchor == "Lemma 2.3"
    assert "(b) 16 checks, 0 failures" in report.detail
    assert "(a) adopted reading: 16 tuples, 0 failures" in report.detail
    assert "literal reading" in report.detail

    distinct = construct_eta(trivial_pair(builtin("C2"), builtin("C3")))
    report = verify_lemma_identities(distinct, instance="trivial:C2,C3")
    assert "not evaluable" in report.detail


def test_theorem_a_on_proper_subgroups():
    q8 = builtin("Q8")
    eta = construct_eta(conjugation_pair(q8))
    n_sub = q8.subgroup_closure([2])
    k_sub = q8.subgroup_closure([4])
    report = verify_theorem_A_machinery(eta, n_sub, k_sub, instance="sub:Q8:i,j")
    assert report.verdict == "PASS"
    assert "(1) normal subset" in report.detail
    assert "(4)" in report.detail and "(5)" in report.detail

    bound = verify_centralizer_bound(eta, n_sub, k_sub, instance="sub:Q8:i,j")
    assert bound.verdict == "PASS"
    assert "largest class size" in bound.detail


def test_theorem_a_rejects_non_invariant_subgroups():
    s3 = builtin("S3")
    eta = construct_eta(conjugation_pair(s3))
    transposition = next(a for a in s3.non_identity() if s3.element_order(a) == 2)
    n_sub = s3.subgroup_closure([transposition])
    report = verify_theorem_A_machinery(
        eta, n_sub, range(s3.n), instance="sub:S3:bad"
    )
    assert report.verdict == "FAIL"
    assert "precondition" in report.detail
    assert report.witness is not None


def test_claim_filter_selects_substring(mini_corpus):
    reports = run_corpus(corpus=mini_corpus, claim_filter="lemma2")
    assert reports
    assert {r.claim for r in reports} == {"lemma21", "lemma22", "lemma23"}
    nothing = run_corpus(corpus=mini_corpus, claim_filter="nosuchclaim")
    assert nothing == []


def test_capacity_overrun_is_skipped_not_passed():
    big = CorpusPair(
        "trivial:C2xC4,C2xC4",
        "trivial",
        trivial_pair(builtin("C2xC4"), builtin("C2xC4")),
    )
    corpus = Corpus(pairs=(big,), incompatible=(), subgroup_cases=())
    reports = run_corpus(max_cosets=100, corpus=corpus)
    verdicts = {r.claim: r.verdict for r in reports}
    assert verdicts["compat"] == "PASS"
    for claim in ("decomposition", "ztensor", "lemma22", "lemma23", "thma"):
        assert verdicts[claim] == "SKIPPED"
    skipped = next(r for r in reports if r.claim == "decomposition")
    assert "capacity exceeded: 2048 cosets" in skipped.detail
    stats = summary(reports)
    assert stats["skipped"] == 5 and stats["fail"] == 0
    assert stats["pass"] == 1


def test_corpus_from_json_dict_round_trip():
    pair = trivial_pair(builtin("C2"), builtin("C3"))
    corpus = corpus_from_json_dict({"schema": 1, "pairs": [pair.to_json_dict()]})
    assert corpus.pairs[0].label == "pair:0"
    assert corpus.pairs[0].kind == "custom"
    reports = run_corpus(corpus=corpus)
    claims = {r.claim for r in reports}
    assert "decomposition" in claims and "ztensor" in claims
    assert "lemma21" not in claims
    assert all(r.verdict == "PASS" for r in reports)

    with pytest.raises(ValueError):
        corpus_from_json_dict({"schema": 2, "pairs": []})
    with pytest.raises(ValueError):
        corpus_from_json_dict({"schema": 1, "pairs": []})
    with pytest.raises(ValueError):
        corpus_from_json_dict({"schema": 1, "pairs": [3]})


def test_custom_conjugation_pair_gets_nu_claims():
    pair = conjugation_pair(builtin("S3"))
    corpus = corpus_from_json_dict({"schema": 1, "pairs": [pair.to_json_dict()]})
    reports = run_corpus(corpus=corpus)
    claims = {r.claim for r in reports}
    assert {"lemma21", "mu-quotient", "cor32", "prop31-delta", "thmc-pi"} <= claims
    assert all(r.verdict == "PASS" for r in reports)


def test_repeated_runs_serialize_identically(mini_corpus):
    first = [r.to_json_line() for r in run_corpus(corpus=mini_corpus)]
    second = [r.to_json_line() for r in run_corpus(corpus=mini_corpus)]
    assert first == second


def test_summary_counts():
    reports = [
        ClaimReport("a", "x", "i1", "PASS"),
        ClaimReport("b", "x", "i1", "FAIL"),
        ClaimReport("c", "x", "i2", "SKIPPED"),
    ]
    stats = summary(reports)
    assert stats == {
        "total": 3,
        "pass": 1,
        "fail": 1,
        "skipped": 1,
        "ok": False,
    }
