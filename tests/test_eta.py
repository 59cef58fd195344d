"""Eta construction: presentations, carriers, embeddings, tensor subgroup."""

from __future__ import annotations

import dataclasses
import importlib
import json
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etacalc.eta as eta_module
from etacalc import cli, fpgroup
from etacalc.abelian import z_tensor
from etacalc.action import ActionPair, ActionTable, conjugation_pair, trivial_pair
from etacalc.errors import (
    CapacityError,
    ConstructionError,
    IncompatibleActionError,
    IncompleteTableError,
    InvarianceError,
)
from etacalc.eta import (
    TensorSet,
    check_decomposition,
    construct_eta,
    trivial_action_baseline,
)
from etacalc.fpgroup import (
    DEFAULT_MAX_COSETS,
    _Enumerator,
    _first_failure,
    _letter_positions,
    todd_coxeter,
)
from etacalc.groups import (
    TableGroup,
    builtin,
    builtin_names,
    cyclic,
    dihedral,
    direct_product,
    symmetric3,
    table_from_perms,
)
from etacalc.perm import abelian_invariants_of
from etacalc.verify import (
    _build,
    _centralizer_bound,
    _tensor_frame,
    _theorem_A,
    corpus_from_json_dict,
    default_corpus,
)
from oracles import (
    bfs_renumber,
    brown_loday_presentation,
    build_eta_presentation,
    canonical_carrier,
    conjugation_map,
    generator_points,
    looped_audit_families,
    looped_invariance_witness,
    naive_canonical,
    naive_shrink,
    tree_dict,
)

REPO = Path(__file__).resolve().parent.parent

# (G, H) with a trivial factor, each built with trivial actions
DEGENERATE = (("C1", "C1"), ("C1", "C4"), ("S3", "C1"))


def test_presentation_smallest_case():
    pair = trivial_pair(cyclic(2), cyclic(2))
    pres = build_eta_presentation(pair)
    assert pres.generators == ("g1", "h1")
    assert len(pres.relators) == 4
    # columns 0 and 2 are g1 and h1
    assert pres.relators[0] == (0, 0)
    assert pres.relators[1] == (2, 2)


def test_presentation_trivial_side_reduces_to_other_group():
    pair = trivial_pair(cyclic(1), cyclic(4))
    pres = build_eta_presentation(pair)
    assert pres.generators == ("h1",)
    assert pres.relators == ((0, 0, 0, 0),)
    with pytest.raises(ValueError):
        build_eta_presentation(trivial_pair(cyclic(1), cyclic(1)))


def test_eta_c2_c2_trivial_actions():
    eta = construct_eta(trivial_pair(cyclic(2), cyclic(2)))
    assert eta.order() == 8
    assert eta.tensor_order() == 2
    assert eta.tensor_set.size == 2
    assert eta.tensors.shape == (2, 2)
    report = check_decomposition(eta)
    assert report["ok"]
    assert report["counts_match"] and report["covers"] and report["generates"]
    invs = abelian_invariants_of(eta.tensor_subgroup)
    assert tuple(invs) == tuple(z_tensor([2], [2]))


def test_eta_c2_c3_has_trivial_tensor():
    eta = construct_eta(trivial_pair(cyclic(2), cyclic(3)))
    assert eta.order() == 6
    assert eta.tensor_order() == 1
    assert eta.tensor_set.members == (0,)
    assert check_decomposition(eta)["ok"]


def test_eta_klein_conjugation():
    eta = construct_eta(conjugation_pair(builtin("C2xC2")))
    assert eta.order() == 256
    assert eta.tensor_order() == 16
    invs = abelian_invariants_of(eta.tensor_subgroup)
    assert tuple(invs) == (2, 2, 2, 2)
    assert check_decomposition(eta)["ok"]


def test_eta_trivial_pairs_match_baseline():
    cases = [("C2", "C4"), ("C4", "C6"), ("C2xC2", "C2")]
    for left, right in cases:
        g, h = builtin(left), builtin(right)
        eta = construct_eta(trivial_pair(g, h))
        base = trivial_action_baseline(g, h)
        assert eta.tensor_order() == base.order
        assert eta.order() == base.order * g.n * h.n
        assert tuple(abelian_invariants_of(eta.tensor_subgroup)) == tuple(base)
        assert check_decomposition(eta)["ok"]


def test_eta_s3_conjugation_structure():
    eta = construct_eta(conjugation_pair(symmetric3()))
    s3 = eta.pair.g
    report = check_decomposition(eta)
    assert report["ok"]
    assert eta.order() == eta.tensor_order() * 36
    # both defining relation families, re-verified with carrier arithmetic
    goh, hog = eta.pair.g_on_h.rows, eta.pair.h_on_g.rows
    carrier = eta.carrier
    for gg in range(6):
        for hh in range(6):
            t = eta.tensor(gg, hh)
            assert t == carrier.comm(eta.embed_g[gg], eta.embed_h[hh])
            for g1 in range(6):
                lhs = carrier.conjugates(t, eta.embed_g[g1])
                rhs = eta.tensor(s3.conj(gg, g1), goh[g1][hh])
                assert lhs == rhs
            for h1 in range(6):
                lhs = carrier.conjugates(t, eta.embed_h[h1])
                rhs = eta.tensor(hog[h1][gg], s3.conj(hh, h1))
                assert lhs == rhs


def test_embeddings_are_faithful_homomorphisms():
    eta = construct_eta(conjugation_pair(builtin("D8")))
    d8, mul = eta.pair.g, eta.carrier.mul
    seen = set()
    for a in range(8):
        for b in range(8):
            assert mul(eta.embed_g[a], eta.embed_g[b]) == eta.embed_g[d8.mul(a, b)]
            assert mul(eta.embed_h[a], eta.embed_h[b]) == eta.embed_h[d8.mul(a, b)]
        seen.add(eta.embed_g[a])
    assert len(seen) == 8
    assert eta.embed_g[0] == 0 and eta.embed_h[0] == 0


@pytest.mark.parametrize(
    "workload, seed", [("corpus-default", 0), ("corpus-general", 0), ("corpus-general", 7)]
)
def test_element_arithmetic_equals_the_carrier_products(monkeypatch, workload, seed):
    # times_g, times_h and times_bracket at every point, for every element,
    # against products and inverses on the carrier's tree at the elements'
    # points as the carrier's generators give them
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    corpus = importlib.import_module("corpora").make_corpus(workload, seed)
    built = _build(list(corpus.pairs), DEFAULT_MAX_COSETS)
    etas = [b["eta"] for b in built.values() if isinstance(b["eta"], eta_module.EtaGroup)]
    assert len(etas) == len(corpus.pairs)  # every instance builds
    for eta in etas:
        carrier, g, h = eta.carrier, eta.pair.g, eta.pair.h
        g_points, h_points = generator_points(eta)
        p, a, b = np.arange(carrier.degree), np.arange(g.n), np.arange(h.n)
        products = carrier.products
        assert np.array_equal(eta.times_g(p, a[:, None]), products(p, g_points[:, None]))
        assert np.array_equal(eta.times_h(p, b[:, None]), products(p, h_points[:, None]))
        x, y = g_points[:, None], h_points[None, :]
        brackets = products(carrier.inverses(products(y, x)), products(x, y))
        expected = products(p, brackets[:, :, None])
        assert np.array_equal(eta.times_bracket(p, a[:, None, None], b[None, :, None]), expected)


def test_tensor_set_is_normal_in_carrier():
    # lemma22 and thma step (1) read invariance off one frame, whose witness
    # names the escaping member by its pair, rewritten once when it is built
    eta = construct_eta(conjugation_pair(symmetric3()))
    carrier = eta.carrier
    everything = (range(6), range(6))
    assert len(_tensor_frame(eta, *everything).sizes) == eta.tensor_set.size
    # find a member whose conjugate is a different member, prune the target
    target = None
    for t in eta.tensor_set.members:
        for c in carrier.generators:
            image = int(carrier.conjugates(t, c))
            if image != t and image != 0:
                target = image
                break
        if target is not None:
            break
    assert target is not None
    pruned = TensorSet(
        tuple(p for p in eta.tensor_set.members if p != target),
        dict(eta.tensor_set.pair_for),
    )
    eta.tensor_set = pruned  # the full pair's frame reads the carrier's tensor set
    frame = _tensor_frame(eta, *everything)
    assert frame.tset is pruned and isinstance(frame.sizes, InvarianceError)
    maps = [conjugation_map(carrier, c) for c in carrier.generators]
    expected = looped_invariance_witness(pruned, maps)
    assert frame.sizes.witness == expected
    for _ in range(2):  # both checks, twice, name the member by the same pair
        assert _centralizer_bound(frame)[::2] == ("FAIL", expected)
        assert _theorem_A(frame)[::2] == ("FAIL", {"step": 1, **expected})
    assert frame.sizes.witness == expected


def _same_up_to_numbering(carrier, rows: np.ndarray) -> None:
    """The carrier's table is rows', point for point and edge for edge, once both are canonical."""
    ours, our_tree = canonical_carrier(carrier)
    theirs, their_tree = bfs_renumber(rows)
    assert np.array_equal(ours, theirs)
    assert tree_dict(*our_tree[:2]) == tree_dict(*their_tree[:2])


def test_eta_keeps_the_enumerated_presentation():
    # The carrier keeps its columns and tree, those of the
    # enumerated presentation on generating subsets up to numbering. Its
    # relators, and the full families, are checked on the carrier by point
    # chasing; neither is written out as words.
    pair = conjugation_pair(symmetric3())
    eta = construct_eta(pair)
    _same_up_to_numbering(eta.carrier, todd_coxeter(build_eta_presentation(pair)).rows)


@pytest.mark.parametrize("workload", ["corpus-default", "corpus-general"])
def test_eta_points_are_coordinates(workload, monkeypatch):
    # t x y is the point (t |G| + x) |H| + y, as construct_eta numbers it: x in
    # G is x |H|, y in H is y, and the tensor subgroup T is the multiples
    # of |G| |H|. The default workload adds the pairs with a trivial factor.
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    corpus = importlib.import_module("corpora").make_corpus(workload, 0)
    pairs = [cp.pair for cp in corpus.pairs]
    if workload == "corpus-default":
        pairs += [trivial_pair(builtin(g), builtin(h)) for g, h in DEGENERATE]
    for pair in pairs:
        eta = construct_eta(pair)
        ng, nh = pair.g.n, pair.h.n
        assert eta.embed_g == tuple(range(0, ng * nh, nh))
        assert eta.embed_h == tuple(range(nh))
        assert all(p % (ng * nh) == 0 for p in eta.tensor_subgroup.orbit0())


def test_doubly_trivial_pair():
    eta = construct_eta(trivial_pair(cyclic(1), cyclic(1)))
    assert eta.order() == 1
    assert eta.tensor_order() == 1
    assert eta.carrier.generators == () and eta.tensors.tolist() == [[0]]
    assert check_decomposition(eta)["ok"]


def test_one_trivial_side_gives_the_other_group():
    eta = construct_eta(trivial_pair(cyclic(1), cyclic(4)))
    assert eta.order() == 4
    assert eta.tensor_order() == 1
    assert check_decomposition(eta)["ok"]


def test_capacity_precheck_reports_exact_carrier_size():
    pair = trivial_pair(builtin("C2xC4"), builtin("C2xC4"))
    with pytest.raises(CapacityError) as exc:
        construct_eta(pair, max_cosets=100)
    assert exc.value.count == 32 * 64


def _tensor_enumeration(pair: ActionPair) -> tuple[int, int]:
    """(index, rows defined) of T's enumeration without a cap.

    No run this small compacts, so the rows defined are its peak.
    """
    pres, _ = eta_module._tensor_presentation(pair)
    enum = _Enumerator(pres, DEFAULT_MAX_COSETS)
    enum.run()
    return enum.alive, enum.nrows


def test_capacity_mid_enumeration_reports_the_limit():
    # nu(Q8)'s tensor factor closes at 64 cosets, but defines more on the way
    pair = conjugation_pair(builtin("Q8"))
    index, peak = _tensor_enumeration(pair)
    assert index < 80 < peak
    with pytest.raises(CapacityError) as exc:
        construct_eta(pair, max_cosets=80)
    assert exc.value.count == 80


def test_capacity_above_the_tensor_peak_reports_the_carrier_size():
    pair = conjugation_pair(builtin("Q8"))
    index, peak = _tensor_enumeration(pair)
    assert peak < index * 64
    with pytest.raises(CapacityError) as exc:
        construct_eta(pair, max_cosets=peak)
    assert exc.value.count == index * 64


def test_capacity_of_the_assembled_carrier_reports_its_size():
    # the tensor factor fits in 50 cosets; the carrier needs 6 * 6 * 6
    with pytest.raises(CapacityError) as exc:
        construct_eta(conjugation_pair(symmetric3()), max_cosets=50)
    assert exc.value.count == 216


def test_incompatible_pair_is_refused():
    s3 = symmetric3()
    c2 = cyclic(2)
    t = next(a for a in s3.elements() if s3.element_order(a) == 2)
    h_on_g = ActionTable.from_rows(
        [list(range(6)), [s3.conj(x, t) for x in range(6)]]
    )
    pair = ActionPair(s3, c2, ActionTable.trivial(6, 2), h_on_g)
    with pytest.raises(IncompatibleActionError):
        construct_eta(pair)


def test_construction_is_deterministic():
    first = construct_eta(conjugation_pair(builtin("D8")))
    second = construct_eta(conjugation_pair(builtin("D8")))
    assert np.array_equal(first.carrier._columns, second.carrier._columns)
    assert first.tensor_order() == second.tensor_order()
    assert first.embed_g == second.embed_g and np.array_equal(first.tensors, second.tensors)


def _relabel(group: TableGroup, order: list[int]) -> TableGroup:
    """The same group with element order[i] renumbered as i."""
    pos = {old: new for new, old in enumerate(order)}
    return TableGroup([[pos[group.mul(a, b)] for b in order] for a in order])


def _normal_pair(group: TableGroup, members: list[int], swap: bool) -> ActionPair:
    """(G, K), or (K, G) when swapped, acting on each other by conjugation in G.

    members lists K's elements as indices of G, identity first; K's own
    index i stands for members[i].
    """
    pos = {x: i for i, x in enumerate(members)}
    k = TableGroup([[pos[group.mul(a, b)] for b in members] for a in members])
    g_on_k = ActionTable.from_rows(
        [[pos[group.conj(x, g)] for x in members] for g in range(group.n)]
    )
    k_on_g = ActionTable.from_rows(
        [[group.conj(x, c) for x in range(group.n)] for c in members]
    )
    if swap:
        return ActionPair(k, group, k_on_g, g_on_k)
    return ActionPair(group, k, g_on_k, k_on_g)


@lru_cache(maxsize=None)
def _normal_subgroups(name: str) -> list[tuple[int, ...]]:
    group = builtin(name)
    found = {group.subgroup_closure([a, b]) for a in range(group.n) for b in range(group.n)}
    return sorted(k for k in found if group.is_normal(k))


_SMALL = sorted(n for n in builtin_names() if builtin(n).n <= 12)


@st.composite
def _labelled_normal_pairs(draw):
    name = draw(st.sampled_from(_SMALL))
    members = list(draw(st.sampled_from(_normal_subgroups(name))))
    swap = draw(st.booleans())
    n = builtin(name).n
    order = [0] + draw(st.permutations(range(1, n)))
    k_tail = draw(st.permutations(range(1, len(members))))
    return name, members, swap, order, k_tail


def _relabelled_pair(name, members, swap, order, k_tail) -> ActionPair:
    group = builtin(name)
    pos = {old: new for new, old in enumerate(order)}
    k_members = sorted(pos[x] for x in members)
    k_members = [k_members[0]] + [k_members[i] for i in k_tail]
    return _normal_pair(_relabel(group, order), k_members, swap)


@settings(max_examples=50, deadline=None)
@given(_labelled_normal_pairs())
def test_eta_order_is_labelling_invariant(case):
    # Relabelling changes generating_subset() and so the whole presentation;
    # the certified carrier must not change.
    name, members, swap, order, k_tail = case
    eta = construct_eta(_relabelled_pair(*case))
    assert check_decomposition(eta)["ok"]
    identity = _relabelled_pair(name, members, swap, list(range(len(order))), range(1, len(members)))
    assert eta.order() == construct_eta(identity).order()


@pytest.mark.parametrize(
    "name, members, order",
    [
        ("A4", lambda g: g.derived_indices(), 384),
        ("D12", lambda g: g.subgroup_closure([1]), 864),
        ("Q8", lambda g: g.subgroup_closure([g.labels.index("i")]), 512),
        ("S3", lambda g: g.derived_indices(), 54),
    ],
    ids=["A4,V4", "D12,C6", "Q8,i", "S3,A3"],
)
def test_normal_subgroup_pairs(name, members, order):
    group = builtin(name)
    for swap in (False, True):
        eta = construct_eta(_normal_pair(group, list(members(group)), swap))
        assert eta.order() == order
        assert check_decomposition(eta)["ok"]


@pytest.mark.parametrize(
    "make_pair",
    [
        lambda: conjugation_pair(symmetric3()),
        lambda: conjugation_pair(builtin("Q8")),
        lambda: conjugation_pair(builtin("A4")),
        lambda: trivial_pair(builtin("C2xC6"), builtin("C6")),
        lambda: trivial_pair(cyclic(1), cyclic(4)),
        lambda: trivial_pair(symmetric3(), cyclic(1)),
        lambda: _relabelled_pair(
            "A4", list(builtin("A4").derived_indices()), False, [0, *range(11, 0, -1)], [3, 1, 2]
        ),
    ],
    ids=["nu(S3)", "nu(Q8)", "nu(A4)", "C2xC6,C6", "C1,C4", "S3,C1", "A4,V4 relabelled"],
)
def test_assembled_table_equals_enumerated_eta(make_pair):
    # The table assembled from G (x) H is the one coset enumeration of the
    # presentation of eta gives, row for row and edge for edge once both
    # are numbered canonically.
    pair = make_pair()
    eta = construct_eta(pair)
    _same_up_to_numbering(eta.carrier, todd_coxeter(build_eta_presentation(pair)).rows)


@pytest.mark.parametrize(
    "group, tensor_order",
    [
        # D_2n with n even: |D_2n (x) D_2n| = 8n (Brown, Johnson, Robertson 1987)
        (dihedral(16), 64),
        # abelian: C4xC4 (x) C4xC4 is the Z-tensor, 4^4
        (direct_product(cyclic(4), cyclic(4)), 256),
    ],
    ids=["D16", "C4xC4"],
)
def test_nu_at_order_16(group, tensor_order):
    eta = construct_eta(conjugation_pair(group))
    assert eta.tensor_order() == tensor_order
    assert eta.order() == tensor_order * 256
    assert check_decomposition(eta)["ok"]


def _least_forms_of(words: np.ndarray) -> list:
    """The distinct relators of the rows in least form, as _shrink's last pass leaves them."""
    return eta_module._least_forms(*eta_module._reduced(*words.T)).tolist()


def test_canonical_relators():
    # columns 2i and 2i + 1 are generator i and its inverse; -1 is no letter
    words = np.array([[5, 1, 3], [0, 1, -1], [2, 4, 3], [-1, 3, -1], [3, -1, 1]])
    # x0 x0^-1 vanishes; each other word becomes the least rotation of it or its inverse
    expected = [
        [0, 2, -1],  # from x1^-1 x0^-1
        [0, 4, 2],  # from x2^-1 x0^-1 x1^-1
        [2, -1, -1],  # from x1^-1
        [4, -1, -1],  # from x1 x2 x1^-1, cyclically reduced
    ]
    assert _least_forms_of(words) == naive_canonical(words).tolist() == expected


def test_shrink_eliminates_through_relators_of_length_one_and_two():
    # x1 = x0, x2 = 1 and x0^2: x0 alone survives, and x1 x2^-1 x0^-1 vanishes
    words = np.array([[0, 3, -1], [4, -1, -1], [0, 0, -1], [2, 5, 1]])
    survivors, relators, columns = eta_module._shrink(3, words)
    assert survivors == [0]
    assert relators.tolist() == [[0, 0, -1]]
    assert columns.tolist() == [0, 1, 0, 1, -1, -1]
    # x0 x1 = 1 makes x1 the inverse of x0, whose columns it reads swapped; x0^3 stays
    survivors, relators, columns = eta_module._shrink(2, np.array([[0, 2, -1], [0, 0, 0]]))
    assert survivors == [0]
    assert relators.tolist() == [[0, 0, 0]]
    assert columns.tolist() == [0, 1, 1, 0]


_CONJUGATION_GROUPS = [
    "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11", "C12",
    "C2xC2", "C2xC4", "C2xC6", "D6", "D8", "D10", "D12", "Q8", "S3", "A4",
]


def _general_pairs() -> dict[str, ActionPair]:
    """The eight pairs (G, K) of perfbench's corpus-general workload, labelled as built."""
    a4, q8, s3 = builtin("A4"), builtin("Q8"), symmetric3()
    a4xc2, s3xc3 = direct_product(a4, cyclic(2)), direct_product(s3, cyclic(3))
    d8, d12, d16 = dihedral(8), dihedral(12), dihedral(16)
    cases = {
        "A4,V4": (a4, a4.derived_indices()),
        "Q8,i": (q8, q8.subgroup_closure([q8.labels.index("i")])),
        "S3,A3": (s3, s3.derived_indices()),
        "D8,C4": (d8, d8.subgroup_closure([1])),
        "D12,C6": (d12, d12.subgroup_closure([1])),
        "A4xC2,V4": (a4xc2, a4xc2.derived_indices()),
        "S3xC3,C3xC3": (s3xc3, [a * 3 + c for a in s3.derived_indices() for c in range(3)]),
        "D16,C8": (d16, d16.subgroup_closure([1])),
    }
    return {label: _normal_pair(g, list(members), False) for label, (g, members) in cases.items()}


def _full_presentation_instances() -> list:
    pairs = {f"nu({name})": conjugation_pair(builtin(name)) for name in _CONJUGATION_GROUPS}
    pairs.update(_general_pairs())
    pairs["nu(D16)"] = conjugation_pair(dihedral(16))
    return [pytest.param(pair, id=label) for label, pair in pairs.items()]


@pytest.mark.parametrize("pair", _full_presentation_instances())
def test_shrunk_tensor_presentation_matches_brown_loday(pair, monkeypatch):
    # T is enumerated from a shrunk presentation; enumerated from Brown and
    # Loday's in full instead, it has the same index and gives eta the same
    # table, row for row and edge for edge once both are numbered canonically.
    index = len(eta_module._tensor_table(pair, DEFAULT_MAX_COSETS)[0])
    eta = construct_eta(pair)
    full = brown_loday_presentation(pair)
    columns = np.arange(2 * len(full.generators))
    monkeypatch.setattr(eta_module, "_tensor_presentation", lambda p: (full, columns))
    reference = construct_eta(pair)
    assert index * pair.g.n * pair.h.n == reference.order()
    _same_up_to_numbering(eta.carrier, canonical_carrier(reference.carrier)[0])


def test_a_too_weak_tensor_presentation_is_refused(monkeypatch, capsys):
    # The first family for a1 over one generator of D8 alone presents a
    # group twice the size of D8 (x) D8. Enumerating T from it must end in
    # a failed audit, never in a carrier of the wrong order.
    pair = conjugation_pair(builtin("D8"))
    weak = brown_loday_presentation(pair, a1s=pair.g.generating_subset()[:1])
    rows = np.array([w + (-1,) * (3 - len(w)) for w in weak.relators])
    monkeypatch.setattr(eta_module, "_tensor_relators", lambda p: rows)
    assert len(eta_module._tensor_table(pair, DEFAULT_MAX_COSETS)[0]) == 2 * 32
    with pytest.raises(ConstructionError):
        construct_eta(pair)
    assert cli.main(["tensor", "--builtin", "D8", "--conjugation"]) == 6
    assert capsys.readouterr().out == ""


_AUDITED_PAIRS = [
    pytest.param(lambda: conjugation_pair(symmetric3()), id="nu(S3)"),
    pytest.param(lambda: _general_pairs()["A4,V4"], id="A4,V4"),
]


def _corrupt_columns(monkeypatch, corrupt) -> None:
    """Make construct_eta corrupt its columns in place before its carrier is built on them."""
    carry = eta_module.regular_representation

    def corrupted(columns):
        corrupt(columns)
        return carry(columns)

    monkeypatch.setattr(eta_module, "regular_representation", corrupted)


@pytest.mark.parametrize("make_pair", _AUDITED_PAIRS)
def test_audit_refuses_a_corrupted_column_pair(make_pair, monkeypatch):
    # Two images of generator 0 swapped and its inverse column rebuilt: both
    # columns stay mutually inverse permutations, and only G's Cayley graph,
    # chased from the fibre through every row, can tell.
    def corrupt(table):
        forward = table[0]
        forward[[0, 1]] = forward[[1, 0]]
        table[1, forward] = np.arange(table.shape[1])

    _corrupt_columns(monkeypatch, corrupt)
    with pytest.raises(ConstructionError, match="relator|family"):
        construct_eta(make_pair())


@pytest.mark.parametrize("make_pair", _AUDITED_PAIRS)
def test_audit_refuses_a_broken_inverse_column(make_pair, monkeypatch):
    # Generator 0's column is intact; two entries of its inverse's are swapped.
    def corrupt(table):
        table[1, [0, 1]] = table[1, [1, 0]]

    _corrupt_columns(monkeypatch, corrupt)
    with pytest.raises(ConstructionError, match=r"Cayley relator of the g-side .*\^-1$"):
        construct_eta(make_pair())


@pytest.mark.parametrize("make_pair", _AUDITED_PAIRS)
def test_audit_refuses_an_h_column_that_is_not_its_step(make_pair, monkeypatch):
    # Two images of H's first generator swapped and its inverse column
    # rebuilt: the carrier still reaches every point, and times_h, which
    # G's rows and both families are chased through, never reads the
    # columns, so only comparing each H column with its step can tell.
    pair = make_pair()
    first = 2 * len(pair.g.generating_subset())

    def corrupt(table):
        forward = table[first]
        forward[[0, 1]] = forward[[1, 0]]
        table[first + 1, forward] = np.arange(table.shape[1])

    _corrupt_columns(monkeypatch, corrupt)
    with pytest.raises(ConstructionError, match=f"column {first} of H is not its step at point 0"):
        construct_eta(pair)


@pytest.mark.parametrize(
    "make_pair",
    [lambda: conjugation_pair(symmetric3()), lambda: trivial_pair(cyclic(3), cyclic(2))],
    ids=["nu(S3)", "C3,C2"],
)
def test_audit_refuses_rows_shifted_off_the_identity(make_pair):
    # Every row of G preceded by b' for H's first generator b: each G column
    # after row x is still row xs, since the shift is on the other side. In
    # eta(C3, C2) = C3 x C2 the shift is by a central involution, so both
    # families hold too, and only the identity row, which now moves the
    # fibre, can tell.
    eta = construct_eta(make_pair())
    b = eta.pair.h.generating_subset()[0]
    shifted = eta.g_arrays[:, eta.times_h(np.arange(eta.order()), b)]
    with pytest.raises(ConstructionError, match="identity row of G moves the fibre"):
        eta_module._audit_carrier(dataclasses.replace(eta, g_arrays=shifted))


def _undefine(table):
    table[3, 5] = -1


def _fix_every_point(table):
    table[:] = np.arange(table.shape[1])  # every column the identity


@pytest.mark.parametrize(
    "corrupt, message",
    [(_undefine, "undefined entry"), (_fix_every_point, "not connected")],
    ids=["undefined-entry", "unreached-point"],
)
def test_carrier_refuses_an_incomplete_assembly(corrupt, message, monkeypatch):
    # the carrier's own tree must reach every point through eta's columns
    _corrupt_columns(monkeypatch, corrupt)
    with pytest.raises(ConstructionError, match=f"eta's columns: .*{message}") as exc:
        construct_eta(conjugation_pair(symmetric3()))
    assert isinstance(exc.value.__cause__, IncompleteTableError)


def test_audit_checks_the_families_on_generators():
    # nu(S3)'s carrier and rows satisfy S3's Cayley graph and H's steps,
    # but not the families of S3 acting trivially on itself.
    eta = construct_eta(conjugation_pair(symmetric3()))
    with pytest.raises(ConstructionError, match="first relation family"):
        eta_module._audit_carrier(dataclasses.replace(eta, pair=trivial_pair(*[symmetric3()] * 2)))


# Two mutants of the construction that keep every column and row a gather
# from a table of right multiplications in T, so they still commute with
# left multiplication by T and the fibre t = e still speaks for every point.


def _changed_cocycle(monkeypatch) -> list:
    """Change one step of G's first generator at the last (x, y), both not the identity.

    The new step is the least index of a t(a, b)^+-1, or of the identity,
    whose column of T's table acts unlike the old one; a trivial side or a
    trivial T leaves nothing to change. Returns a list that records each
    pair whose cocycle was changed.
    """
    tensor_table, cocycle = eta_module._tensor_table, eta_module._cocycle
    changed, first_row = [], []

    def recording(pair, max_cosets):
        steps, columns = tensor_table(pair, max_cosets)
        # where coset 0 goes under each index _cocycle can give
        first_row[:] = [steps[0, columns]]
        return steps, columns

    def mutated(pair):
        k = cocycle(pair).copy()
        gens, row = pair.g.generating_subset(), first_row[0]
        s, x, y = (gens or (0,))[0], pair.g.n - 1, pair.h.n - 1
        unlike = np.flatnonzero(row != row[k[s, x, y]])
        if gens and y and unlike.size:
            k[s, x, y] = unlike[0]
            changed.append(pair)
        return k

    monkeypatch.setattr(eta_module, "_tensor_table", recording)
    monkeypatch.setattr(eta_module, "_cocycle", mutated)
    return changed


def _repointed_column_map(monkeypatch) -> list:
    """Point the last inverse column that a generator's cocycle reads at another survivor's.

    The new column is the least survivor's inverse that acts unlike the
    old one; a T where none does is left as it is. Returns a list that
    records each pair whose column map was changed.
    """
    presentation, changed = eta_module._tensor_presentation, []

    def mutated(pair):
        pres, columns = presentation(pair)
        if pres is None:
            return pres, columns
        read = np.unique(eta_module._cocycle(pair)[list(pair.g.generating_subset())]).tolist()
        k = max(c for c in read if c < len(columns) and columns[c] >= 0)
        first_row = todd_coxeter(pres).rows[0]
        unlike = np.flatnonzero(first_row[1::2] != first_row[columns[k]])
        if unlike.size:
            columns = columns.copy()
            columns[k] = 2 * unlike[0] + 1
            changed.append(pair)
        return pres, columns

    monkeypatch.setattr(eta_module, "_tensor_presentation", mutated)
    return changed


_MUTANTS = {"cocycle": _changed_cocycle, "column-map": _repointed_column_map}


@pytest.mark.parametrize("mutant", sorted(_MUTANTS))
@pytest.mark.parametrize("make_pair", _AUDITED_PAIRS)
def test_audit_refuses_a_mutated_construction(make_pair, mutant, monkeypatch):
    # Either mutant changes where G's elements send whole cosets T x y with
    # y not the identity, the same way at every t, so the columns and rows
    # still commute with left multiplication by T. A loop of G's Cayley
    # graph through a changed edge can now move t, and on these pairs one
    # does, so G's Cayley graph chased from the fibre at such a y fails
    # first; chased from y = e alone, it would hold.
    changed = _MUTANTS[mutant](monkeypatch)
    with pytest.raises(ConstructionError, match="Cayley relator of the g-side"):
        construct_eta(make_pair())
    assert changed


def _presentation_failure(pair, columns: np.ndarray) -> bool:
    """Whether eta's written presentation, or an inverse pair, fails at some point."""
    n, ncols = columns.shape[1], len(columns)
    flat, points = columns.ravel(), np.arange(n, dtype=np.int32)
    pairs = np.arange(ncols)
    words = _letter_positions(build_eta_presentation(pair).relators)
    return bool(
        _first_failure(flat, n, pairs, [pairs, pairs ^ 1], points)
        or _first_failure(flat, n, *words, points)
    )


def _oracle_corpus(workload: str):
    if workload == "module-pairs":
        data = json.loads((REPO / "tests" / "data" / "module_pairs.json").read_text())
        return corpus_from_json_dict(data)
    return importlib.import_module("corpora").make_corpus(workload, 0)


@pytest.mark.parametrize("mutant", [None, *sorted(_MUTANTS)])
@pytest.mark.parametrize("workload", ["corpus-default", "corpus-general", "module-pairs"])
def test_fibre_audit_agrees_with_the_presentation_walked_from_every_point(
    workload, mutant, monkeypatch
):
    # Every pair of the default corpus, of the benchmark's general corpus
    # at seed 0 and of the crossed-module pairs: the point-chasing audit
    # from the fibre refuses exactly the carriers on which eta's
    # presentation, written out as words, fails at some point.
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    corpus = _oracle_corpus(workload)
    changed = _MUTANTS[mutant](monkeypatch) if mutant else []
    audit, audited = eta_module._audit_carrier, []

    def recording(eta):
        audited.append((eta.pair, eta.carrier._columns, True))
        try:
            return audit(eta)
        except ConstructionError:
            audited[-1] = (eta.pair, eta.carrier._columns, False)
            raise

    monkeypatch.setattr(eta_module, "_audit_carrier", recording)
    refused = []
    for cp in corpus.pairs:
        try:
            construct_eta(cp.pair)
        except ConstructionError:
            refused.append(cp.pair)
    for pair, columns, passed in audited:
        assert passed != _presentation_failure(pair, columns)
    # A change acts unlike the original somewhere, so each one is refused:
    # mostly by the audit, or before it when the carrier is not transitive.
    assert list(map(id, refused)) == list(map(id, changed))
    assert bool(changed) == bool(mutant)


def test_decomposition_fails_when_the_factors_do_not_generate():
    # With G embedded as the identity, the factors generate only T H; the
    # covering check catches it, and generation is read off it.
    eta = construct_eta(conjugation_pair(symmetric3()))
    identity_rows = np.tile(np.arange(eta.order(), dtype=np.int32), (6, 1))
    report = check_decomposition(dataclasses.replace(eta, g_arrays=identity_rows))
    assert report["counts_match"]
    assert not report["covers"] and not report["generates"]
    assert not report["ok"]


_FAMILY_CASES = {
    "nu(S3)": lambda: conjugation_pair(symmetric3()),
    "nu(D8)": lambda: conjugation_pair(builtin("D8")),
    "A4,V4": lambda: _general_pairs()["A4,V4"],
}


@lru_cache(maxsize=None)
def _family_case(name: str):
    return construct_eta(_FAMILY_CASES[name]())


# one block, then one conjugator per block
@pytest.mark.parametrize("walks", [fpgroup._AUDIT_WALKS, 1, 7])
@pytest.mark.parametrize("target", ["tensors", "g_on_h", "h_on_g"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_family_audit_names_the_first_failure_of_the_loops(target, walks, data):
    # A corrupted bracket fails the first family already at the identity
    # conjugator; a corrupted action entry fails only the family that reads
    # it, at the conjugator it belongs to.
    eta = _family_case(data.draw(st.sampled_from(sorted(_FAMILY_CASES))))
    pair, tensors = eta.pair, eta.tensors.copy()
    rows = {side: [list(r) for r in getattr(pair, side).rows] for side in ("g_on_h", "h_on_g")}
    if target == "tensors":
        table, size = tensors, eta.order()
    else:
        table, size = rows[target], len(rows[target][0])
    a = data.draw(st.integers(0, len(table) - 1))
    x = data.draw(st.integers(0, len(table[0]) - 1))
    table[a][x] = data.draw(st.integers(0, size - 1).filter(lambda v: v != table[a][x]))
    loose = SimpleNamespace(
        g=pair.g,
        h=pair.h,
        g_on_h=ActionTable.from_rows(rows["g_on_h"]),
        h_on_g=ActionTable.from_rows(rows["h_on_g"]),
    )
    corrupted = dataclasses.replace(eta, pair=loose, tensors=tensors)
    expected = looped_audit_families(corrupted)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fpgroup, "_AUDIT_WALKS", walks)
        if expected is None:
            eta_module._audit_families(corrupted)
            return
        with pytest.raises(ConstructionError) as err:
            eta_module._audit_families(corrupted)
    assert str(err.value) == expected
    assert expected.startswith("second" if target == "h_on_g" else "first")


def _assert_shrinks_alike(m: int, words: np.ndarray) -> None:
    assert _least_forms_of(words) == naive_canonical(words).tolist()
    survivors, relators, columns = eta_module._shrink(m, words)
    expected = naive_shrink(m, words)
    assert survivors == expected[0]
    assert relators.tolist() == expected[1].tolist()
    assert columns.tolist() == expected[2].tolist()


def _corpus_tensor_pairs() -> list:
    pairs = [(cp.label, cp.pair) for cp in default_corpus().pairs]
    pairs += _general_pairs().items()
    # S5's 316,800 rows hold the most repeats, rotations and inverses of one relator
    s5 = json.loads((REPO / "tests" / "data" / "s5.json").read_text(encoding="utf-8"))
    pairs.append(("nu:S5", conjugation_pair(table_from_perms(s5["generators"], degree=5))))
    return [pytest.param(pair, id=label) for label, pair in pairs if pair.g.n > 1 and pair.h.n > 1]


@pytest.mark.parametrize("pair", _corpus_tensor_pairs())
def test_shrink_matches_the_round_by_round_oracle(pair):
    _assert_shrinks_alike((pair.g.n - 1) * (pair.h.n - 1), eta_module._tensor_relators(pair))


def test_shrink_matches_the_oracle_on_the_written_cases():
    _assert_shrinks_alike(3, np.array([[0, 3, -1], [4, -1, -1], [0, 0, -1], [2, 5, 1]]))
    _assert_shrinks_alike(2, np.array([[0, 2, -1], [0, 0, 0]]))
    # x0 x1 written as a rotation, as its inverse and as a gapped row, each
    # alone and then all together with a duplicate, beside x1 x2 x2
    forms = [[0, 2, -1], [2, 0, -1], [3, 1, -1], [-1, 0, 2]]
    for rows in [*([form] for form in forms[1:]), [*forms, forms[0]]]:
        _assert_shrinks_alike(3, np.array([*rows, [2, 4, 4]]))


@st.composite
def _rows(draw) -> tuple[int, np.ndarray]:
    m = draw(st.integers(1, 5))
    letter = st.integers(-1, 2 * m - 1)
    rows = draw(st.lists(st.tuples(letter, letter, letter), min_size=1, max_size=30))
    return m, np.array(rows)


@settings(max_examples=300, deadline=None)
@given(_rows())
def test_shrink_matches_the_oracle_on_random_rows(case):
    # Few generators and many short relators: merges within one round
    # disagree on signs, so the order they are made in shows.
    _assert_shrinks_alike(*case)
