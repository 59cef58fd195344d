"""Eta construction: presentations, carriers, embeddings, tensor subgroup."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etacalc.abelian import z_tensor
from etacalc.action import ActionPair, ActionTable, conjugation_pair, trivial_pair
from etacalc.errors import (
    CapacityError,
    IncompatibleActionError,
    InvarianceError,
)
from etacalc.eta import (
    TensorSet,
    build_eta_presentation,
    check_decomposition,
    construct_eta,
    trivial_action_baseline,
)
from etacalc.fpgroup import todd_coxeter
from etacalc.groups import (
    TableGroup,
    builtin,
    builtin_names,
    cyclic,
    dihedral,
    direct_product,
    symmetric3,
)
from etacalc.perm import abelian_invariants_of


def test_presentation_smallest_case():
    pair = trivial_pair(cyclic(2), cyclic(2))
    pres = build_eta_presentation(pair)
    assert pres.generators == ("g1", "h1")
    assert len(pres.relators) == 4
    rendered = [str(r) for r in pres.relators]
    assert rendered[0] == "g1^2"
    assert rendered[1] == "h1^2"


def test_presentation_trivial_side_reduces_to_other_group():
    pair = trivial_pair(cyclic(1), cyclic(4))
    pres = build_eta_presentation(pair)
    assert pres.generators == ("h1",)
    assert [str(r) for r in pres.relators] == ["h1^4"]
    with pytest.raises(ValueError):
        build_eta_presentation(trivial_pair(cyclic(1), cyclic(1)))


def test_eta_c2_c2_trivial_actions():
    eta = construct_eta(trivial_pair(cyclic(2), cyclic(2)))
    assert eta.order() == 8
    assert eta.tensor_order() == 2
    assert eta.tensor_set.size == 2
    assert len(eta.tensor_map) == 4
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
                lhs = carrier.conj(t, eta.embed_g[g1])
                rhs = eta.tensor(s3.conj(gg, g1), goh[g1][hh])
                assert lhs == rhs
            for h1 in range(6):
                lhs = carrier.conj(t, eta.embed_h[h1])
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


def test_tensor_set_is_normal_in_carrier():
    eta = construct_eta(conjugation_pair(symmetric3()))
    carrier = eta.carrier
    maps = [carrier.conj_map(c) for c in carrier.generators]
    eta.tensor_set.require_invariant_under(maps)
    # find a member whose conjugate is a different member, prune the target
    target = None
    for t in eta.tensor_set.members:
        for c in carrier.generators:
            image = carrier.conj(t, c)
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
    with pytest.raises(InvarianceError) as exc:
        pruned.require_invariant_under(maps, labels=[str(i) for i in range(len(maps))])
    assert "member" in exc.value.witness


def test_eta_keeps_the_enumerated_presentation():
    # The assembled table is audited against the one presentation on
    # generating subsets; the carrier is audited against the full families,
    # which are never presented.
    pair = conjugation_pair(symmetric3())
    eta = construct_eta(pair)
    assert eta.presentation is eta.table.presentation
    assert eta.presentation == build_eta_presentation(pair)


def test_doubly_trivial_pair():
    eta = construct_eta(trivial_pair(cyclic(1), cyclic(1)))
    assert eta.order() == 1
    assert eta.tensor_order() == 1
    assert eta.presentation is None
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


def test_capacity_mid_enumeration_reports_the_limit():
    # nu(S3)'s tensor factor defines 26 cosets before it closes at 6
    with pytest.raises(CapacityError) as exc:
        construct_eta(conjugation_pair(symmetric3()), max_cosets=20)
    assert exc.value.count == 20


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
    assert np.array_equal(first.table.rows, second.table.rows)
    assert first.tensor_order() == second.tensor_order()
    assert first.embed_g == second.embed_g and first.tensor_map == second.tensor_map


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
    # presentation of eta gives, row for row and edge for edge.
    pair = make_pair()
    eta = construct_eta(pair)
    reference = todd_coxeter(build_eta_presentation(pair))
    assert np.array_equal(eta.table.rows, reference.rows)
    assert eta.table._tree == reference._tree


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
