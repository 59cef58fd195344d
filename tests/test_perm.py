"""Permutation engine: composition, chains, closures, homs, kernels."""

from __future__ import annotations

from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etacalc.errors import (
    CapacityError,
    DegreeMismatchError,
    IllDefinedHomError,
    MembershipError,
)
from etacalc.groups import (
    builtin,
    builtin_names,
    cyclic,
    regular_permgroup,
    table_from_permgroup,
)
from etacalc.perm import (
    GroupHom,
    Perm,
    PermGroup,
    abelian_invariants_of,
    centralizer_index,
    compose,
    derived_subgroup,
    group_from_generators,
    hom_kernel,
    normal_closure,
)
from oracles import naive_closure


def P(*cycles, degree):
    return Perm.from_cycles(degree, cycles)


def s3():
    return group_from_generators([P((0, 1), degree=3), P((0, 1, 2), degree=3)])


def d8():
    # Symmetries of the square with vertices 0,1,2,3 in cyclic order.
    return group_from_generators([P((0, 1, 2, 3), degree=4), P((1, 3), degree=4)])


def a4():
    return group_from_generators(
        [P((0, 1, 2), degree=4), P((0, 1), (2, 3), degree=4)]
    )


def test_compose_is_left_to_right():
    # The first factor acts first: compose(p, q)(x) = q(p(x)).
    p = P((0, 1), degree=3)
    q = P((1, 2), degree=3)
    assert compose(p, q).as_list() == [2, 0, 1]
    assert compose(p, q) == P((0, 2, 1), degree=3)
    assert compose(q, p) == P((0, 1, 2), degree=3)


def test_perm_basics():
    p = P((0, 1, 2), degree=5)
    assert p(0) == 1 and p(2) == 0 and p(3) == 3
    assert p.order() == 3
    assert (p * p * p).is_identity()
    assert p.inverse() * p == Perm.identity(5)
    assert p.degree == 5
    assert Perm.identity(1).is_identity()
    q = P((3, 4), degree=5)
    assert (p * q).order() == 6
    assert p.commutator(q).is_identity()  # disjoint supports commute
    r = P((2, 3), degree=5)
    assert p.commutator(r) == p.inverse() * r.inverse() * p * r
    assert p.conj(r) == r.inverse() * p * r


def test_perm_validation():
    with pytest.raises(ValueError):
        Perm([0, 0, 1])
    with pytest.raises(ValueError):
        Perm([1, 2, 3])
    with pytest.raises(ValueError):
        Perm([-1, 0])
    with pytest.raises(ValueError):
        Perm.from_cycles(3, [(0, 3)])
    with pytest.raises(DegreeMismatchError):
        P((0, 1), degree=2) * P((0, 1), degree=3)


def test_perm_hash_and_repr():
    p = P((0, 2), (1, 3), degree=4)
    q = Perm([2, 3, 0, 1])
    assert p == q and hash(p) == hash(q)
    assert "(0 2)" in repr(p)
    assert repr(Perm.identity(4)) == "Perm.identity(4)"


def test_group_orders():
    assert s3().order() == 6
    assert d8().order() == 8
    assert a4().order() == 12
    c4 = group_from_generators([P((0, 1, 2, 3), degree=4)])
    assert c4.order() == 4


def test_trivial_group():
    t = group_from_generators([])
    assert t.degree == 1
    assert t.order() == 1
    assert t.is_trivial()
    assert Perm.identity(1) in t
    assert t.elements() == [Perm.identity(1)]
    t4 = group_from_generators([], degree=4)
    assert t4.degree == 4 and t4.order() == 1


def test_elements_close_under_product():
    g = s3()
    elems = g.elements()
    assert len(elems) == 6
    assert len(set(elems)) == 6
    for a in elems:
        for b in elems:
            assert a * b in g


def test_membership_matches_naive_closure():
    gens = [P((0, 1, 2, 3), degree=4), P((1, 3), degree=4)]
    table = naive_closure([tuple(g.as_list()) for g in gens])
    g = group_from_generators(gens)
    assert g.order() == len(table) == 8
    for images in permutations(range(4)):
        expected = images in table
        assert g.contains(Perm(list(images))) == expected


@st.composite
def generators_and_probe(draw):
    degree = draw(st.integers(min_value=2, max_value=5))
    k = draw(st.integers(min_value=1, max_value=2))
    gens = [Perm(draw(st.permutations(range(degree)))) for _ in range(k)]
    probe = Perm(draw(st.permutations(range(degree))))
    return gens, probe


# Pinned: (1 2) opens the chain at base 1 and (0 2) fixes 1, yet the orbit
# of 1 must still reach 0 through (0 2); the group is S3 and (0 1) is in it.
@settings(max_examples=30, deadline=None)
@given(generators_and_probe())
@example(([Perm([0, 2, 1]), Perm([2, 1, 0])], Perm([1, 0, 2])))
def test_membership_differential_random(case):
    gens, probe = case
    table = naive_closure([tuple(g.as_list()) for g in gens])
    if len(table) > 200:
        return
    g = group_from_generators(gens)
    assert g.order() == len(table)
    assert g.contains(probe) == (tuple(probe.as_list()) in table)


def test_membership_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        s3().contains(Perm.identity(2))


def test_capacity_refusal():
    gens = [
        Perm(list(range(1, 11)) + [0]),
        P((0, 1), degree=11),
    ]
    with pytest.raises(CapacityError) as exc:
        group_from_generators(gens)  # symmetric group on 11 points, ~4e7
    assert exc.value.count > 10**6
    with pytest.raises(CapacityError):
        group_from_generators(
            [Perm(list(range(1, 7)) + [0]), P((0, 1), degree=7)], max_order=100
        )


def test_chain_keeps_few_strong_generators():
    # Draining the deepest level first sifts each Schreier generator against
    # complete lower levels; shallow-first installs tens of thousands on S9.
    n = 9
    g = group_from_generators([Perm(list(range(1, n)) + [0]), P((0, 1), degree=n)])
    assert g.order() == 362880
    assert len(g._pool) <= 4 * n


def test_relabeling_invariance():
    gens = [P((0, 1, 2, 3), degree=6), P((1, 3), degree=6)]
    relabel = P((0, 4), (1, 5, 2), degree=6)
    conj = [relabel.inverse() * g * relabel for g in gens]
    assert group_from_generators(gens).order() == group_from_generators(conj).order()
    assert (
        abelian_invariants_of(group_from_generators(gens)).factors
        == abelian_invariants_of(group_from_generators(conj)).factors
    )


def test_subgroup():
    g = d8()
    r = P((0, 1, 2, 3), degree=4)
    s = P((1, 3), degree=4)
    sub = g.subgroup([r * r, s])
    assert sub.order() == 4
    assert sub.is_subgroup_of(g)
    assert not g.is_subgroup_of(sub)
    with pytest.raises(MembershipError):
        g.subgroup([P((0, 1), degree=4)])


def test_normal_closure():
    g = s3()
    a3 = normal_closure(g, [P((0, 1, 2), degree=3)])
    assert a3.order() == 3
    whole = normal_closure(g, [P((0, 1), degree=3)])
    assert whole.order() == 6
    center = normal_closure(d8(), [P((0, 2), (1, 3), degree=4)])
    assert center.order() == 2
    with pytest.raises(MembershipError):
        normal_closure(a4(), [P((0, 1), degree=4)])


def test_normal_closure_is_normal():
    g = a4()
    v4 = normal_closure(g, [P((0, 1), (2, 3), degree=4)])
    assert v4.order() == 4
    for x in v4.elements():
        for c in g.generators:
            assert v4.contains(c.inverse() * x * c)


def test_derived_subgroup():
    assert derived_subgroup(s3()).order() == 3
    assert derived_subgroup(d8()).order() == 2
    assert derived_subgroup(a4()).order() == 4
    c6 = group_from_generators([P((0, 1, 2, 3, 4, 5), degree=6)])
    assert derived_subgroup(c6).order() == 1
    assert derived_subgroup(c6).degree == 6


def test_centralizer_index():
    g = s3()
    assert centralizer_index(g, P((0, 1), degree=3)) == 3
    assert centralizer_index(g, P((0, 1, 2), degree=3)) == 2
    assert centralizer_index(g, Perm.identity(3)) == 1
    with pytest.raises(MembershipError):
        centralizer_index(a4(), P((0, 1), degree=4))


def test_abelian_invariants():
    c6 = group_from_generators([P((0, 1, 2, 3, 4, 5), degree=6)])
    assert abelian_invariants_of(c6).factors == (6,)
    c2xc4 = group_from_generators([P((0, 1), degree=6), P((2, 3, 4, 5), degree=6)])
    assert abelian_invariants_of(c2xc4).factors == (2, 4)
    assert abelian_invariants_of(s3()).factors == (2,)
    assert abelian_invariants_of(a4()).factors == (3,)
    assert abelian_invariants_of(d8()).factors == (2, 2)
    klein = group_from_generators([P((0, 1), degree=4), P((2, 3), degree=4)])
    assert abelian_invariants_of(klein).factors == (2, 2)


def regular_cyclic(n):
    """Regular representation of a cyclic group through the certified path."""
    base = Perm(np.roll(np.arange(n), -1))
    gens = [base]
    cur = base
    for _ in range(n - 2):
        cur = cur * base
        gens.append(cur)
    edges = {0: None}
    for k in range(1, n):
        edges[k] = (0, 1, k - 1)
    return PermGroup._regular_from_edges(gens, n, edges)


def test_certified_regular_carrier():
    g = regular_cyclic(6)
    assert g.order() == 6
    assert g._free0
    for p in g.elements():
        assert g.contains(p)
    assert sorted(g.element_orders()) == [1, 2, 3, 3, 6, 6]
    sub = g.subgroup([g.generators[1]])  # the square of the base rotation
    assert sub.order() == 3
    assert sub._free0
    assert sub.is_subgroup_of(g)
    assert not sub.contains(g.generators[0])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(builtin_names()), st.data())
def test_free_subgroup_matches_table_closure(name, data):
    # Generators are added one at a time, redundant ones included, so every
    # step of the incremental orbit walk is compared with the table closure.
    group = builtin(name)
    seed = data.draw(st.lists(st.sampled_from(range(group.n)), max_size=4))
    reg, perms = regular_permgroup(group)
    sub = reg.subgroup([perms[a] for a in seed])
    assert sorted(sub.orbit0()) == list(group.subgroup_closure(seed))
    assert sub.order() == len(group.subgroup_closure(seed))
    for p in reg.elements():
        assert sub.contains(p) == (p(0) in group.subgroup_closure(seed))


def tree_label(source, images, pt):
    """Target point that the source's Schreier-tree path to pt labels it with."""
    level = source._levels[0]
    path = []
    while level.edges[pt] is not None:
        slot, sign, pt = level.edges[pt]
        path.append(images[slot] if sign > 0 else images[slot].inverse())
    label = 0
    for img in reversed(path):
        label = img(label)
    return label


def assert_breaks_labelling(source, images, edge):
    pt, i = edge
    g = source.generators[i]
    assert tree_label(source, images, g(pt)) != images[i](tree_label(source, images, pt))


def test_hom_graph_mode():
    # C4 onto C2: the odd rotations go to the flip.
    g = regular_cyclic(4)
    c2 = regular_cyclic(2)
    t = c2.generators[0]
    f = GroupHom(g, c2, [t, Perm.identity(2), t])
    k = hom_kernel(f)
    assert k.order() == 2
    assert k.contains(g.generators[1])
    assert f.image_group().order() == 2
    assert f.apply(g.generators[0]) == t
    assert f.apply(g.generators[1]).is_identity()
    assert f.apply(g.generators[2]) == t
    with pytest.raises(MembershipError):
        f.apply(Perm([1, 0, 2, 3]))


def test_hom_graph_mode_rejects():
    # A hom C4 -> C3 sending r to t would send r^4 = 1 to t^4 = t, so every
    # assignment with r -> t is refused, here two of them.
    g = regular_cyclic(4)
    c3 = regular_cyclic(3)
    t = c3.generators[0]
    for images in ([t, t * t, t * t * t], [t, t, t]):
        with pytest.raises(IllDefinedHomError) as exc:
            GroupHom(g, c3, images)
        assert_breaks_labelling(g, images, exc.value.edge)


def single_rotation(n):
    """C_n = <r | r^n> on n points, r the rotation, as a certified carrier."""
    r = Perm(np.roll(np.arange(n), -1))
    edges = {0: None}
    for k in range(1, n):
        edges[k] = (0, 1, k - 1)
    return PermGroup._regular_from_edges([r], n, edges)


def test_hom_relator_mode():
    # C4 = <r | r^4> onto C2 with r -> t: the relator r^4 is the tree's one
    # closing edge, from point 3 back to 0, so the labelling checks exactly it.
    c4 = single_rotation(4)
    c2 = regular_cyclic(2)
    t = c2.generators[0]
    r = c4.generators[0]
    f = GroupHom(c4, c2, [t])
    assert f.apply(r) == t
    assert f.apply(r * r).is_identity()
    k = hom_kernel(f)
    assert k.order() == 2
    assert k.contains(r * r)
    assert f.image_group().order() == 2


def test_hom_relator_mode_rejects():
    # C4 = <r | r^4> onto C3 with r -> t fails on r^4, the closing edge.
    c4 = single_rotation(4)
    c3 = regular_cyclic(3)
    t = c3.generators[0]
    with pytest.raises(IllDefinedHomError) as exc:
        GroupHom(c4, c3, [t])
    assert exc.value.edge == (3, 0)
    assert_breaks_labelling(c4, [t], exc.value.edge)


def test_hom_image_must_be_in_target():
    c2 = regular_cyclic(2)
    c4 = regular_cyclic(4)
    with pytest.raises(MembershipError):
        GroupHom(c2, c4, [P((0, 1), degree=4)])


def test_hom_needs_free_source_and_target():
    reg, _ = regular_permgroup(builtin("S3"))
    c2 = regular_cyclic(2)
    t = c2.generators[0]
    with pytest.raises(ValueError):
        GroupHom(s3(), c2, [t, Perm.identity(2)])
    with pytest.raises(ValueError):
        GroupHom(reg, s3(), [Perm.identity(3)] * 5)


def test_kernel_order_identity():
    # |source| = |kernel| * |image| for a quotient with a bigger kernel.
    g = regular_cyclic(12)
    c3 = regular_cyclic(3)
    t = c3.generators[0]
    powers = [t if k % 3 == 1 else t * t if k % 3 == 2 else Perm.identity(3) for k in range(1, 12)]
    f = GroupHom(g, c3, powers)
    k = hom_kernel(f)
    assert k.order() * f.image_group().order() == g.order() == 12
    assert k.order() == 4


def test_hom_s3_natural_and_sign():
    # S3's regular action onto itself (kernel 1) and onto C2 by sign (kernel 3).
    table = table_from_permgroup(s3())
    reg, perms = regular_permgroup(table)
    natural = GroupHom(reg, reg, perms[1:])
    assert hom_kernel(natural).order() == 1
    assert natural.image_group().order() == 6
    c2 = regular_cyclic(2)
    t = c2.generators[0]
    signs = [t if table.element_order(a) == 2 else Perm.identity(2) for a in table.non_identity()]
    sign = GroupHom(reg, c2, signs)
    k = hom_kernel(sign)
    assert k.order() * sign.image_group().order() == reg.order()
    assert k.order() == 3
    assert all(sign.apply(g).is_identity() for g in k.generators)
    bad = [perms[table.non_identity()[-1]]] * 5
    with pytest.raises(IllDefinedHomError) as exc:
        GroupHom(reg, reg, bad)
    assert_breaks_labelling(reg, bad, exc.value.edge)


def test_kernel_s4_sign():
    # S4 acting on itself, onto C2 by sign: the kernel is A4.
    s4 = group_from_generators([P((0, 1, 2, 3), degree=4), P((0, 1), degree=4)])
    table = table_from_permgroup(s4)
    elems = sorted(s4.elements(), key=lambda p: tuple(p.as_list()))
    elems.remove(Perm.identity(4))
    elems.insert(0, Perm.identity(4))  # the element order of table_from_permgroup
    odd = [sum(len(c) - 1 for c in p.cycles()) % 2 == 1 for p in elems]
    reg, perms = regular_permgroup(table)
    c2 = regular_cyclic(2)
    t = c2.generators[0]
    f = GroupHom(reg, c2, [t if odd[a] else Perm.identity(2) for a in table.non_identity()])
    k = hom_kernel(f)
    assert k.order() == 12
    assert k.order() * f.image_group().order() == reg.order() == 24
    for a in range(24):
        assert k.contains(perms[a]) == (not odd[a])
        assert f.apply(perms[a]) == (t if odd[a] else Perm.identity(2))


@st.composite
def assignments_to_cyclic(draw):
    """A builtin group G, m, and an image in Z_m for every element of G.

    The images come from a genuine homomorphism G -> C_m (found by trying
    every generator assignment against the table), possibly with one entry
    perturbed.
    """
    group = builtin(draw(st.sampled_from(builtin_names())))
    m = draw(st.integers(min_value=1, max_value=6))
    gens = group.generating_subset()
    homs = []
    for ks in product(range(m), repeat=len(gens)):
        assign = {0: 0}
        frontier = [0]
        for x in frontier:
            for s, k in zip(gens, ks):
                y = group.mul(x, s)
                if y not in assign:
                    assign[y] = (assign[x] + k) % m
                    frontier.append(y)
        if table_hom(group, assign, m):
            homs.append(assign)
    assign = dict(homs[draw(st.integers(min_value=0, max_value=len(homs) - 1))])
    if group.n > 1 and m > 1 and draw(st.booleans()):
        a = draw(st.sampled_from(group.non_identity()))
        assign[a] = (assign[a] + draw(st.integers(min_value=1, max_value=m - 1))) % m
    return group, m, assign


def table_hom(group, assign, m):
    return all(
        assign[group.mul(a, b)] == (assign[a] + assign[b]) % m
        for a in group.elements()
        for b in group.elements()
    )


# Pinned: C2xC2 -> C3 is consistent along the first generator's edges
# (element 1 maps to 0 and the map is constant on the cosets of <1>) and
# breaks only on the second's, first at point 2.
@settings(max_examples=60, deadline=None)
@given(assignments_to_cyclic())
@example((builtin("C2xC2"), 3, {0: 0, 1: 0, 2: 1, 3: 1}))
def test_hom_labelling_matches_table_oracle(case):
    group, m, assign = case
    source, _ = regular_permgroup(group)
    target, powers = regular_permgroup(cyclic(m))
    images = [powers[assign[a]] for a in group.non_identity()]
    if not table_hom(group, assign, m):
        with pytest.raises(IllDefinedHomError) as exc:
            GroupHom(source, target, images)
        assert_breaks_labelling(source, images, exc.value.edge)
        return
    f = GroupHom(source, target, images)
    k = hom_kernel(f)
    # In the right-regular action element a sends 0 to a.
    assert set(k.orbit0()) == {a for a in group.elements() if assign[a] == 0}
    assert k.order() * f.image_group().order() == group.n
