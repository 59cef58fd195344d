"""Claim reports, corpus plumbing, and verdict semantics."""

from __future__ import annotations

import dataclasses
import importlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from etacalc import fpgroup, verify
from etacalc.abelian import AbelianInvariants, z_tensor
from etacalc.action import conjugation_pair, incompatible_example, trivial_pair
from etacalc.eta import DEFAULT_MAX_COSETS, construct_eta
from etacalc.groups import builtin, cyclic, direct_product
from etacalc.nu import construct_nu
from etacalc.perm import GroupHom, PermGroup, abelian_invariants_of, centralizer_index
from etacalc.verify import (
    CLAIM_IDS,
    ClaimReport,
    Corpus,
    CorpusPair,
    SubgroupCase,
    _lemma_identities,
    _theorem_A,
    corpus_from_json_dict,
    default_corpus,
    run_corpus,
    summary,
)

from oracles import (
    conjugation_map,
    fifo_subgroup_tree,
    looped_class_sizes,
    looped_element_orders,
    looped_lemma_identities,
    looped_theorem_A,
    module_tensor_order,
    order_census_invariants,
    tree_dict,
    tree_walk_labels,
)

REPO = Path(__file__).resolve().parent.parent


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


def _reports_on(pairs, cases=(), claim_filter=None) -> dict[tuple[str, str], ClaimReport]:
    """run_corpus over the given pairs and subgroup cases, by (instance, claim)."""
    corpus = Corpus(pairs=tuple(pairs), incompatible=(), subgroup_cases=tuple(cases))
    reports = run_corpus(corpus=corpus, claim_filter=claim_filter)
    return {(r.instance, r.claim): r for r in reports}


def test_lemma_identities_counts_and_both_readings():
    c2, c3 = builtin("C2"), builtin("C3")
    reports = _reports_on(
        [
            CorpusPair("trivial:C2,C2", "trivial", trivial_pair(c2, c2)),
            CorpusPair("trivial:C2,C3", "trivial", trivial_pair(c2, c3)),
        ],
        claim_filter="lemma23",
    )
    report = reports[("trivial:C2,C2", "lemma23")]
    assert report.verdict == "PASS"
    assert report.anchor == "Lemma 2.3"
    assert "(b) 16 checks, 0 failures" in report.detail
    assert "(a) adopted reading: 16 tuples, 0 failures" in report.detail
    assert "literal reading" in report.detail
    assert "not evaluable" in reports[("trivial:C2,C3", "lemma23")].detail


def test_theorem_a_on_proper_subgroups():
    q8 = builtin("Q8")
    case = SubgroupCase(
        "sub:Q8:i,j", "nu:Q8", q8.subgroup_closure([2]), q8.subgroup_closure([4])
    )
    host = CorpusPair("nu:Q8", "conjugation", conjugation_pair(q8))
    reports = _reports_on([host], [case])
    report = reports[("sub:Q8:i,j", "thma")]
    assert report.verdict == "PASS"
    assert "(1) normal subset" in report.detail
    assert "(4)" in report.detail and "(5)" in report.detail

    bound = reports[("sub:Q8:i,j", "lemma22")]
    assert bound.verdict == "PASS"
    assert "largest class size" in bound.detail


def test_theorem_a_rejects_non_invariant_subgroups():
    s3 = builtin("S3")
    transposition = next(a for a in s3.non_identity() if s3.element_order(a) == 2)
    case = SubgroupCase(
        "sub:S3:bad", "nu:S3", s3.subgroup_closure([transposition]), tuple(range(s3.n))
    )
    host = CorpusPair("nu:S3", "conjugation", conjugation_pair(s3))
    report = _reports_on([host], [case], claim_filter="thma")[("sub:S3:bad", "thma")]
    assert report.verdict == "FAIL"
    assert "precondition" in report.detail
    assert report.witness is not None


@pytest.mark.parametrize("workload", ["corpus-default", "corpus-general"])
def test_batched_bracket_checks_equal_the_loops(monkeypatch, workload):
    # every lemma23 and thma job of the default corpus, its subgroup cases
    # included, and of the benchmark's general corpus at seed 0
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    corpus = importlib.import_module("corpora").make_corpus(workload, 0)
    built = verify._build(list(corpus.pairs), DEFAULT_MAX_COSETS)
    loops = {"lemma23": looped_lemma_identities, "thma": looped_theorem_A}
    jobs = 0
    for claim in verify._CLAIMS:
        for instance, cp, args in claim.scope(corpus) if claim.id in loops else ():
            eta = built[cp.label]["eta"]
            subject = verify._tensor_frame(eta, *args) if claim.subject == "frame" else eta
            batched = claim.check(subject)
            assert batched == loops[claim.id](eta, *args), (claim.id, instance)
            jobs += 1
    assert jobs == {"corpus-default": 76, "corpus-general": 32}[workload]


def _oracle_tree(group: PermGroup) -> tuple[list[int], dict]:
    """A group's orbit and tree as the point-at-a-time walks build them."""
    if group.carrier is group:
        return list(group.orbit0()), tree_dict(group._column, group._parent)
    return fifo_subgroup_tree(group.carrier, group.generators)


@pytest.mark.parametrize("workload", ["corpus-default", "corpus-general"])
def test_subgroups_and_homs_equal_the_fifo_oracles(monkeypatch, workload):
    # every subgroup and homomorphism a corpus run builds, in its final state:
    # the level-at-a-time orbit has the FIFO queue's order and tree edges,
    # and the level-at-a-time labelling is the edge-by-edge one
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    corpus = importlib.import_module("corpora").make_corpus(workload, 0)
    subgroups, homs = [], []
    for cls, made in ((PermGroup, subgroups), (GroupHom, homs)):

        def recording_init(self, *args, _init=cls.__init__, _made=made):
            _init(self, *args)
            _made.append(self)

        monkeypatch.setattr(cls, "__init__", recording_init)
    assert summary(run_corpus(corpus=corpus))["ok"]
    for sub in subgroups:
        orbit, tree = _oracle_tree(sub)
        assert sub.orbit0() == tuple(orbit)
        edges = {
            p: (c // 2, 1 - 2 * (c % 2), q)
            for points, cols, parents in sub._levels
            for p, c, q in zip(points.tolist(), cols.tolist(), parents.tolist())
        }
        assert edges == {p: tree[p] for p in orbit[1:]}
    for f in homs:
        orbit, tree = _oracle_tree(f.source)
        labels = tree_walk_labels(orbit, tree, f.target, f.generator_images, f.source.degree)
        assert f._labels.tolist() == labels
    # rho and rho' of each nu; the general corpus builds no nu. Each subgroup
    # case's M is built once, in its frame, which lemma22 and thma share
    assert (len(subgroups), len(homs)) == {
        "corpus-default": (187, 42),
        "corpus-general": (48, 0),
    }[workload]


def test_element_orders_equal_the_scalar_loop(monkeypatch):
    # every group the default corpus's claims take abelian invariants or
    # element orders of: tensor subgroups, and delta of each nu
    seen = []
    recorded_invariants = verify.abelian_invariants_of
    recorded_orders = PermGroup.element_orders

    def invariants(group):
        seen.append(group)
        return recorded_invariants(group)

    def element_orders(group):
        seen.append(group)
        return recorded_orders(group)

    monkeypatch.setattr(verify, "abelian_invariants_of", invariants)
    monkeypatch.setattr(PermGroup, "element_orders", element_orders)
    assert summary(run_corpus())["ok"]
    groups = list({id(g): g for g in seen}.values())
    monkeypatch.undo()
    assert len(groups) > 40
    assert max(g.order() for g in groups) >= 64
    for group in groups:
        assert group.element_orders() == looped_element_orders(group), group


@pytest.mark.parametrize("workload", ["corpus-default", "corpus-general"])
def test_full_pair_frame_is_the_carrier(monkeypatch, workload):
    # For a full pair, lemma22 and thma conjugate by the carrier's generators:
    # the embedded generating subsets of G and H, in order, so the witnesses'
    # conjugator indices are those of the embedded generators.
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    corpus = importlib.import_module("corpora").make_corpus(workload, 0)
    built = verify._build(list(corpus.pairs), DEFAULT_MAX_COSETS)
    for cp in corpus.pairs:
        eta = built[cp.label]["eta"]
        g, h = eta.pair.g, eta.pair.h
        embedded = [eta.embed_g[a] for a in g.generating_subset()]
        embedded += [eta.embed_h[b] for b in h.generating_subset()]
        assert list(eta.carrier.generators) == embedded, cp.label
        frame = verify._tensor_frame(eta, range(g.n), range(h.n))
        assert frame.big_m is eta.carrier and frame.tset is eta.tensor_set
        carrier = eta.carrier
        points = np.arange(carrier.degree)
        for c in carrier.generators:
            assert np.array_equal(carrier.conjugates(points, c), conjugation_map(carrier, c))


@pytest.mark.parametrize("workload", ["corpus-default", "corpus-general"])
def test_conjugates_equal_the_reference_map(monkeypatch, workload):
    # c^-1 p c at every point of every carrier, for each of its generators and
    # three more points c, against right(c) after left multiplication by c^-1
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    corpus = importlib.import_module("corpora").make_corpus(workload, 0)
    built = verify._build(list(corpus.pairs), DEFAULT_MAX_COSETS)
    rng = np.random.default_rng(0)
    for cp in corpus.pairs:
        carrier = built[cp.label]["eta"].carrier
        points = np.arange(carrier.degree)
        for c in [*carrier.generators, *rng.integers(0, carrier.degree, size=3).tolist()]:
            reference = conjugation_map(carrier, c)
            assert np.array_equal(carrier.conjugates(points, c), reference), (cp.label, c)


@pytest.mark.parametrize("workload", ["corpus-default", "corpus-general"])
def test_centralizer_index_equals_the_class_bfs(monkeypatch, workload):
    # every tensor member of every lemma22 frame, its subgroup cases included:
    # the classes grown together equal one scalar BFS per member
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    corpus = importlib.import_module("corpora").make_corpus(workload, 0)
    built = verify._build(list(corpus.pairs), DEFAULT_MAX_COSETS)
    (claim,) = [claim for claim in verify._CLAIMS if claim.id == "lemma22"]
    frames = 0
    for instance, cp, (n_elements, k_elements) in claim.scope(corpus):
        frame = verify._tensor_frame(built[cp.label]["eta"], n_elements, k_elements)
        expected = looped_class_sizes(frame.big_m, frame.tset.members)
        assert frame.sizes == expected, instance
        frames += 1
    assert frames == len(corpus.pairs) + len(corpus.subgroup_cases)


def test_one_frame_per_instance(monkeypatch):
    # lemma22 and thma read one frame per instance, built once, so
    # centralizer_index runs once for each of the 36 pairs and 4 subgroup
    # cases, whether one or both of the claims is selected
    calls = []

    def counted(group, members):
        calls.append(group)
        return centralizer_index(group, members)

    monkeypatch.setattr(verify, "centralizer_index", counted)
    for claim_filter in (None, "lemma22", "thma"):
        calls.clear()
        run_corpus(claim_filter=claim_filter)
        assert len(calls) == 40, claim_filter


def test_abelian_invariants_of_equal_the_census_or_none(monkeypatch):
    # every tensor subgroup of both benchmark corpora and the crossed-module
    # pairs: None exactly when two elements fail to commute; otherwise the
    # element orders, taken one scalar mul at a time, give the invariants by census
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    make_corpus = importlib.import_module("corpora").make_corpus
    data = json.loads((REPO / "tests" / "data" / "module_pairs.json").read_text())
    corpora = [make_corpus("corpus-default", 0), make_corpus("corpus-general", 0)]
    seen = {True: 0, False: 0}
    for corpus in [*corpora, corpus_from_json_dict(data)]:
        built = verify._build(list(corpus.pairs), DEFAULT_MAX_COSETS)
        for cp in corpus.pairs:
            group = built[cp.label]["eta"].tensor_subgroup
            elements = group.elements()
            commutes = all(group.mul(a, b) == group.mul(b, a) for a in elements for b in elements)
            invariants = abelian_invariants_of(group)
            seen[commutes] += 1
            if commutes:
                expected = order_census_invariants(looped_element_orders(group))
                assert invariants is not None and invariants.factors == expected, cp.label
            else:
                assert invariants is None, cp.label
    assert seen == {True: 54, False: 5}


def test_ztensor_witness_keeps_trivial_invariants(monkeypatch):
    # an abelian but trivial tensor subgroup is observed as [], not as null
    monkeypatch.setattr(verify, "trivial_action_baseline", lambda g, h: AbelianInvariants((2,)))
    c2, c3 = builtin("C2"), builtin("C3")
    pair = CorpusPair("trivial:C2,C3", "trivial", trivial_pair(c2, c3))
    report = _reports_on([pair], claim_filter="ztensor")[("trivial:C2,C3", "ztensor")]
    assert report.verdict == "FAIL"
    assert report.witness == {
        "tensor_abelian": True,
        "invariants_match": False,
        "order_match": False,
        "carrier_order": False,
        "expected": [2],
        "observed": [],
    }


def test_order_16_instance_passes_every_claim():
    # nu(C4xC4) on 65,536 points; G is abelian, so conjugation is trivial and
    # ztensor applies: the tensor square is the Z-tensor, of order 4^4
    group = direct_product(cyclic(4), cyclic(4))
    corpus = Corpus(
        pairs=(CorpusPair("nu:C4xC4", "conjugation", conjugation_pair(group)),),
        incompatible=(),
        subgroup_cases=(),
    )
    reports = run_corpus(corpus=corpus)
    assert {r.claim for r in reports} == set(CLAIM_IDS)
    assert all(r.verdict == "PASS" for r in reports), [r.to_json_line() for r in reports]
    tensor_order = z_tensor(group.abelian_invariants(), group.abelian_invariants()).order
    assert tensor_order == 256
    decomposition = next(r for r in reports if r.claim == "decomposition")
    assert decomposition.detail.startswith(f"|eta| = 65536 = {tensor_order} * 16 * 16;")


def _swapped_tensors(eta):
    """eta with the first two distinct non-identity values of tensors swapped, in C order."""
    tensors = eta.tensors.copy()
    pairs = [tuple(p) for p in np.argwhere(tensors != 0).tolist()]
    first = pairs[0]
    second = next(p for p in pairs if tensors[p] != tensors[first])
    tensors[first], tensors[second] = tensors[second], tensors[first]
    return dataclasses.replace(eta, tensors=tensors)


@pytest.mark.parametrize("name, failing_steps", [("S3", {4}), ("D8", {3, 4})])
def test_swapped_tensors_fail_both_checks_as_the_loops_do(name, failing_steps):
    eta = _swapped_tensors(construct_nu(builtin(name)).eta)
    report = _lemma_identities(eta)
    assert report[0] == "FAIL" and report[2]["identity"] == "a"
    assert report == looped_lemma_identities(eta)
    json.dumps(report[2])  # witness values are plain ints

    everything = (range(eta.pair.g.n), range(eta.pair.h.n))
    report = _theorem_A(verify._tensor_frame(eta, *everything))
    assert report[0] == "FAIL"
    failing = {int(part[1]) for part in report[1].split("; ") if part.endswith("FAILS")}
    assert failing == failing_steps
    assert report == looped_theorem_A(eta, *everything)
    json.dumps(report[2])


def _overwritten_tensors(eta):
    """eta with its first non-identity tensor, in C order, set to the next distinct value."""
    tensors = eta.tensors.copy()
    flat = tensors.reshape(-1)  # a view: writing to it writes to tensors
    values = flat[flat != 0]
    flat[np.argmax(flat != 0)] = values[values != values[0]][0]
    return dataclasses.replace(eta, tensors=tensors)


def _module_pair_eta():
    data = json.loads((REPO / "tests" / "data" / "module_pairs.json").read_text(encoding="utf-8"))
    return construct_eta(corpus_from_json_dict(data).pairs[4].pair)  # C6 acting on C7


_IDENTITY_CASES = {
    "nu(S3)": lambda: construct_nu(builtin("S3")).eta,
    "nu(D8)": lambda: construct_nu(builtin("D8")).eta,
    "nu(A4)": lambda: construct_nu(builtin("A4")).eta,
    "C6,C7": _module_pair_eta,
}
_CORRUPTIONS = {
    "intact": lambda eta: eta,
    "swapped": _swapped_tensors,
    "overwritten": _overwritten_tensors,
}


@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
@pytest.mark.parametrize("name", sorted(_IDENTITY_CASES))
def test_identity_a_per_pair_of_classes_equals_the_loops(name, corruption):
    # identity (a) walks one tuple per pair of classes and counts it once per
    # tuple it stands for; the counts, the literal reading and the first
    # failure in (x, y, g, h) order stay the loops'
    eta = _CORRUPTIONS[corruption](_IDENTITY_CASES[name]())
    report = _lemma_identities(eta)
    assert report == looped_lemma_identities(eta)
    assert (report[0] == "PASS") == (corruption == "intact")


@pytest.mark.parametrize("per_block", [1, 2, 5])
@pytest.mark.parametrize("name", ["S3", "D8"])
def test_identity_a_in_blocks_of_x_equals_the_loops(name, per_block, monkeypatch):
    # identity (a) walks pairs of classes, not blocks of x, so the audit
    # budget must not reach it: nu built while its audits walk per_block
    # elements a block is the one built in one block, and on its swapped
    # tensors the counts, the literal reading and the first failure in
    # (x, y, g, h) order stay the loops'
    whole = construct_nu(builtin(name)).eta
    monkeypatch.setattr(fpgroup, "_AUDIT_WALKS", per_block * whole.pair.g.n**2)
    eta = construct_nu(builtin(name)).eta
    assert np.array_equal(eta.tensors, whole.tensors)
    eta = _swapped_tensors(eta)
    report = _lemma_identities(eta)
    assert report[2]["identity"] == "a"
    assert report == looped_lemma_identities(eta)


def test_identity_a_counts_each_pair_of_classes_once_per_tuple():
    # One tensor of nu(A4) overwritten: identity (a) fails at every (g, h) of
    # the one (x, y) that reads it, and the literal reading diverges at a
    # different count than on nu(A4) itself. Counting each failing pair of
    # classes once, or keying (g, h) on the overwritten tensors rather than
    # on the walked brackets, gives other counts.
    eta = _overwritten_tensors(construct_nu(builtin("A4")).eta)
    report = _lemma_identities(eta)
    assert report == looped_lemma_identities(eta)
    assert report[1].startswith(
        "(a) adopted reading: 20736 tuples, 144 failures;"
        " literal reading diverges at 17010 of 20736 tuples;"
    )


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


def test_module_pairs_match_the_module_oracle():
    # G acting on a module A that acts trivially on G: the general eta path
    # with an action that is neither trivial nor conjugation
    data = json.loads((REPO / "tests" / "data" / "module_pairs.json").read_text())
    corpus = corpus_from_json_dict(data)
    orders = []
    for cp in corpus.pairs:
        assert cp.pair.h_on_g.is_trivial() and not cp.pair.g_on_h.is_trivial()
        eta = construct_eta(cp.pair)
        assert eta.tensor_order() == module_tensor_order(cp.pair), cp.label
        orders.append(eta.tensor_order())
    # C2 on C3, C4 and C8; C4 on C5; C6 on C7; C2 and C3 on C2xC2
    assert orders == [3, 4, 4, 5, 7, 2, 4]
    reports = run_corpus(corpus=corpus)
    assert len(reports) == 35
    assert all(r.verdict == "PASS" for r in reports), [r.to_json_line() for r in reports]


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
