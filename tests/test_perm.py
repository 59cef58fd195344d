"""Permutation engine: composition, free carriers, closures, homs, kernels."""

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
    table_from_perms,
)
from etacalc.perm import (
    GroupHom,
    Perm,
    PermGroup,
    abelian_invariants_of,
    centralizer_index,
    compose,
    derived_subgroup,
    hom_kernel,
    normal_closure,
)
from oracles import naive_closure


def P(*cycles, degree):
    return Perm.from_cycles(degree, cycles)


def carrier(name):
    """Right-regular carrier of a builtin group, and its elements by label."""
    group = builtin(name)
    reg, perms = regular_permgroup(group)
    return reg, dict(zip(group.labels, perms))


def s3():
    return carrier("S3")


def d8():
    # r1 is a rotation of order 4, r2 its square (the centre), s a reflection.
    return carrier("D8")


def a4():
    return carrier("A4")


S3_GENS = [P((0, 1), degree=3), P((0, 1, 2), degree=3)]
# Symmetries of the square with vertices 0,1,2,3 in cyclic order.
D8_GENS = [P((0, 1, 2, 3), degree=4), P((1, 3), degree=4)]
A4_GENS = [P((0, 1, 2), degree=4), P((0, 1), (2, 3), degree=4)]


def images(gens):
    return [tuple(g.as_list()) for g in gens]


def elements_of(table, degree):
    """Image tuples of a table_from_perms group, read back from its cycle labels."""
    out = set()
    for label in table.labels:
        cycles = [] if label == "e" else [c.split() for c in label[1:-1].split(")(")]
        out.add(tuple(Perm.from_cycles(degree, cycles).as_list()))
    return out


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
    c4 = [P((0, 1, 2, 3), degree=4)]
    for gens, n in ((S3_GENS, 6), (D8_GENS, 8), (A4_GENS, 12), (c4, 4)):
        table = table_from_perms(gens)
        assert table.n == n
        assert elements_of(table, gens[0].degree) == naive_closure(images(gens))


def test_trivial_group():
    t = table_from_perms([])
    assert t.n == 1 and t.labels == ("e",)
    t4 = table_from_perms([], degree=4)
    assert t4.n == 1 and elements_of(t4, 4) == naive_closure([tuple(range(4))])
    trivial = PermGroup(4)
    assert trivial.order() == 1
    assert trivial.is_trivial()
    assert Perm.identity(4) in trivial
    assert trivial.elements() == [Perm.identity(4)]


def test_elements_close_under_product():
    g, _ = s3()
    elems = g.elements()
    assert len(elems) == 6
    assert len(set(elems)) == 6
    for a in elems:
        for b in elems:
            assert a * b in g


def test_membership_matches_naive_closure():
    closure = naive_closure(images(D8_GENS))
    members = elements_of(table_from_perms(D8_GENS), 4)
    assert len(members) == len(closure) == 8
    for p in permutations(range(4)):
        assert (p in members) == (p in closure)


@st.composite
def generators_and_probe(draw):
    degree = draw(st.integers(min_value=2, max_value=5))
    k = draw(st.integers(min_value=1, max_value=2))
    gens = [Perm(draw(st.permutations(range(degree)))) for _ in range(k)]
    probe = Perm(draw(st.permutations(range(degree))))
    return gens, probe


# Pinned: (1 2) and (0 2) generate S3, with (0 1) in it although neither
# generator moves 0 to 1 on its own.
@settings(max_examples=30, deadline=None)
@given(generators_and_probe())
@example(([Perm([0, 2, 1]), Perm([2, 1, 0])], Perm([1, 0, 2])))
def test_membership_differential_random(case):
    gens, probe = case
    closure = naive_closure(images(gens))
    if len(closure) > 200:
        return
    members = elements_of(table_from_perms(gens), probe.degree)
    assert len(members) == len(closure)
    assert members == closure
    assert (tuple(probe.as_list()) in members) == (tuple(probe.as_list()) in closure)


def test_membership_degree_mismatch():
    g, _ = s3()
    with pytest.raises(DegreeMismatchError):
        g.contains(Perm.identity(2))


def test_capacity_refusal():
    # Symmetric groups on 9 and 11 points are refused at their 513th element.
    for n in (9, 11):
        gens = [Perm(list(range(1, n)) + [0]), P((0, 1), degree=n)]
        with pytest.raises(CapacityError) as exc:
            table_from_perms(gens)
        assert exc.value.count == 513


def test_relabeling_invariance():
    gens = [P((0, 1, 2, 3), degree=6), P((1, 3), degree=6)]
    relabel = P((0, 4), (1, 5, 2), degree=6)
    conj = [relabel.inverse() * g * relabel for g in gens]
    table, conj_table = table_from_perms(gens), table_from_perms(conj)
    assert table.n == conj_table.n == 8
    assert elements_of(table, 6) == naive_closure(images(gens))
    assert elements_of(conj_table, 6) == naive_closure(images(conj))
    assert table.abelian_invariants().factors == conj_table.abelian_invariants().factors


def test_subgroup():
    g, el = d8()
    sub = g.subgroup([el["r2"], el["s"]])
    assert sub.order() == 4
    assert sub.is_subgroup_of(g)
    assert not g.is_subgroup_of(sub)
    with pytest.raises(MembershipError):
        g.subgroup([P((0, 1), degree=8)])


def test_normal_closure():
    g, el = s3()
    a3 = normal_closure(g, [el["(0 1 2)"]])
    assert a3.order() == 3
    whole = normal_closure(g, [el["(0 1)"]])
    assert whole.order() == 6
    d8_group, d8_el = d8()
    center = normal_closure(d8_group, [d8_el["r2"]])
    assert center.order() == 2
    with pytest.raises(MembershipError):
        normal_closure(a4()[0], [P((0, 1), degree=12)])


def test_normal_closure_is_normal():
    g, el = a4()
    v4 = normal_closure(g, [el["(0 1)(2 3)"]])
    assert v4.order() == 4
    for x in v4.elements():
        for c in g.generators:
            assert v4.contains(c.inverse() * x * c)


def test_derived_subgroup():
    assert derived_subgroup(s3()[0]).order() == 3
    assert derived_subgroup(d8()[0]).order() == 2
    assert derived_subgroup(a4()[0]).order() == 4
    c6, _ = carrier("C6")
    assert derived_subgroup(c6).order() == 1
    assert derived_subgroup(c6).degree == 6


def test_centralizer_index():
    g, el = s3()
    assert centralizer_index(g, el["(0 1)"]) == 3
    assert centralizer_index(g, el["(0 1 2)"]) == 2
    assert centralizer_index(g, el["e"]) == 1
    with pytest.raises(MembershipError):
        centralizer_index(a4()[0], P((0, 1), degree=12))


def test_abelian_invariants():
    assert abelian_invariants_of(carrier("C6")[0]).factors == (6,)
    assert abelian_invariants_of(carrier("C2xC4")[0]).factors == (2, 4)
    assert abelian_invariants_of(s3()[0]).factors == (2,)
    assert abelian_invariants_of(a4()[0]).factors == (3,)
    assert abelian_invariants_of(d8()[0]).factors == (2, 2)
    assert abelian_invariants_of(carrier("C2xC2")[0]).factors == (2, 2)


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
    for p in g.elements():
        assert g.contains(p)
    assert sorted(g.element_orders()) == [1, 2, 3, 3, 6, 6]
    sub = g.subgroup([g.generators[1]])  # the square of the base rotation
    assert sub.order() == 3
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
    """Target point that the source's spanning-tree path to pt labels it with."""
    path = []
    while source._tree[pt] is not None:
        slot, sign, pt = source._tree[pt]
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
    table = table_from_perms(S3_GENS)
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
    gens = [P((0, 1, 2, 3), degree=4), P((0, 1), degree=4)]
    table = table_from_perms(gens)
    elems = sorted(naive_closure(images(gens)))  # the identity is the least
    assert table.n == len(elems) == 24
    assert elements_of(table, 4) == set(elems)
    odd = [sum(len(c) - 1 for c in Perm(p).cycles()) % 2 == 1 for p in elems]
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
