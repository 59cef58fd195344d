"""Carriers with points as elements: arithmetic, closures, homs, kernels.

Small carriers are built as eta(G, C1), which is G's regular action; a
permutation given by generators is closed into a table (table_from_perms).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etacalc.action import ActionPair, ActionTable, conjugation_pair, trivial_pair
from etacalc.errors import (
    CapacityError,
    DegreeMismatchError,
    IllDefinedHomError,
    IncompleteTableError,
    InvarianceError,
    MembershipError,
)
from etacalc.eta import construct_eta
from etacalc.groups import TableGroup, builtin, builtin_names, cyclic, table_from_perms
from etacalc.perm import (
    GroupHom,
    PermGroup,
    abelian_invariants_of,
    centralizer_index,
    derived_subgroup,
    hom_kernel,
    normal_closure,
)
from oracles import (
    compose_columns,
    conjugation_map,
    naive_closure,
    right_multiplication,
    tree_dict,
)


def P(*cycles, degree):
    """Image list of the permutation with the given cycles."""
    images = list(range(degree))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return images


@lru_cache(maxsize=None)
def regular_of(group: TableGroup):
    """eta(G, C1): the regular carrier of G; embed_g[a] is the point of a."""
    return construct_eta(trivial_pair(group, cyclic(1)))


def carrier(name):
    """Regular carrier of a builtin group, and its elements by label."""
    group = builtin(name)
    eta = regular_of(group)
    return eta.carrier, dict(zip(group.labels, eta.embed_g))


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
    return [tuple(g) for g in gens]


def elements_of(table, degree):
    """Image tuples of a table_from_perms group, read back from its cycle labels."""
    out = set()
    for label in table.labels:
        cycles = [] if label == "e" else [c.split() for c in label[1:-1].split(")(")]
        out.add(tuple(P(*[[int(x) for x in c] for c in cycles], degree=degree)))
    return out


def test_compose_is_left_to_right():
    # The first factor acts first: (0 1) then (1 2) is (0 2 1), in the
    # carrier's products as in the permutations the labels name.
    g, el = s3()
    p, q = el["(0 1)"], el["(1 2)"]
    assert g.mul(p, q) == el["(0 2 1)"]
    assert g.mul(q, p) == el["(0 1 2)"]
    assert right_multiplication(g, q)[p] == g.mul(p, q)


def test_perm_basics():
    g, el = s3()
    p, r = el["(0 1 2)"], el["(1 2)"]
    assert g.mul(g.mul(p, p), p) == 0
    assert g.mul(g.inv(p), p) == 0 and g.inv(0) == 0
    assert sorted(g.element_orders()) == [1, 2, 2, 2, 3, 3]
    assert g.comm(p, g.mul(p, p)) == 0  # powers commute
    assert g.comm(p, r) == g.mul(g.mul(g.mul(g.inv(p), g.inv(r)), p), r)
    assert g.conjugates(p, r) == g.mul(g.mul(g.inv(r), p), r) == g.inv(p)
    assert g.conjugates(p, r) == conjugation_map(g, r)[p]


def test_perm_validation():
    for bad in ([0, 0, 1], [1, 2, 3], [-1, 0], [], [[0, 1]]):
        with pytest.raises(ValueError):
            table_from_perms([bad])
    with pytest.raises(DegreeMismatchError):
        table_from_perms([P((0, 1), degree=2), P((0, 1), degree=3)])
    with pytest.raises(DegreeMismatchError):
        table_from_perms([P((0, 1), degree=2)], degree=3)


def test_perm_hash_and_repr():
    # What is left of a permutation's repr is its cycle label in the table.
    p = P((0, 2), (1, 3), degree=4)
    assert p == [2, 3, 0, 1]
    table = table_from_perms([p, [2, 3, 0, 1]])
    assert table.labels == ("e", "(0 2)(1 3)")
    same = table_from_perms([[2, 3, 0, 1]])
    assert table == same and hash(table) == hash(same)
    assert table_from_perms([], degree=4).labels == ("e",)


def test_group_orders():
    c4 = [P((0, 1, 2, 3), degree=4)]
    for gens, n in ((S3_GENS, 6), (D8_GENS, 8), (A4_GENS, 12), (c4, 4)):
        table = table_from_perms(gens)
        assert table.n == n
        assert elements_of(table, len(gens[0])) == naive_closure(images(gens))


def test_trivial_group():
    t = table_from_perms([])
    assert t.n == 1 and t.labels == ("e",)
    t4 = table_from_perms([], degree=4)
    assert t4.n == 1 and elements_of(t4, 4) == naive_closure([tuple(range(4))])
    trivial = PermGroup(s3()[0])
    assert trivial.order() == 1
    assert 0 in trivial
    assert trivial.elements() == [0]
    one = regular_of(cyclic(1)).carrier
    assert one.order() == 1 and one.elements() == [0] and one.generators == ()


def test_elements_close_under_product():
    g, _ = s3()
    elems = g.elements()
    assert len(elems) == 6
    assert len(set(elems)) == 6
    for a in elems:
        for b in elems:
            assert g.mul(a, b) in g


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
    gens = [draw(st.permutations(range(degree))) for _ in range(k)]
    probe = draw(st.permutations(range(degree)))
    return gens, probe


# Pinned: (1 2) and (0 2) generate S3, with (0 1) in it although neither
# generator moves 0 to 1 on its own.
@settings(max_examples=30, deadline=None)
@given(generators_and_probe())
@example(([[0, 2, 1], [2, 1, 0]], [1, 0, 2]))
def test_membership_differential_random(case):
    gens, probe = case
    closure = naive_closure(images(gens))
    if len(closure) > 200:
        return
    members = elements_of(table_from_perms(gens), len(probe))
    assert len(members) == len(closure)
    assert members == closure
    assert (tuple(probe) in members) == (tuple(probe) in closure)


def test_membership_degree_mismatch():
    # A point off the carrier is no element of it, nor of any subgroup.
    g, el = s3()
    assert not g.contains(g.degree)
    with pytest.raises(MembershipError):
        g.subgroup([g.degree])


def test_capacity_refusal():
    # Symmetric groups on 9 and 11 points are refused at their 513th element.
    for n in (9, 11):
        gens = [list(range(1, n)) + [0], P((0, 1), degree=n)]
        with pytest.raises(CapacityError) as exc:
            table_from_perms(gens)
        assert exc.value.count == 513


def test_relabeling_invariance():
    gens = [P((0, 1, 2, 3), degree=6), P((1, 3), degree=6)]
    relabel = P((0, 4), (1, 5, 2), degree=6)
    # relabel^-1 g relabel, left to right: x -> relabel(g(relabel^-1(x)))
    back = [relabel.index(x) for x in range(6)]
    conj = [[relabel[g[back[x]]] for x in range(6)] for g in gens]
    table, conj_table = table_from_perms(gens), table_from_perms(conj)
    assert table.n == conj_table.n == 8
    assert elements_of(table, 6) == naive_closure(images(gens))
    assert elements_of(conj_table, 6) == naive_closure(images(conj))
    assert table.abelian_invariants().factors == conj_table.abelian_invariants().factors


def test_subgroup():
    g, el = d8()
    sub = g.subgroup([el["r2"], el["s"]])
    assert sub.order() == 4
    assert set(sub.orbit0()) < set(g.orbit0())
    assert sub.same_subgroup_as(g.subgroup([el["s"], el["sr2"]]))
    assert not sub.same_subgroup_as(g)
    with pytest.raises(MembershipError):
        sub.subgroup([el["r1"]])


def test_normal_closure():
    g, el = s3()
    a3 = normal_closure(g, [el["(0 1 2)"]])
    assert a3.order() == 3
    whole = normal_closure(g, [el["(0 1)"]])
    assert whole.order() == 6
    d8_group, d8_el = d8()
    center = normal_closure(d8_group, [d8_el["r2"]])
    assert center.order() == 2
    a4_group = a4()[0]
    with pytest.raises(MembershipError):
        normal_closure(a4_group, [a4_group.degree])


def test_normal_closure_is_normal():
    g, el = a4()
    v4 = normal_closure(g, [el["(0 1)(2 3)"]])
    assert v4.order() == 4
    for x in v4.elements():
        for c in g.generators:
            assert v4.contains(int(g.conjugates(x, c)))


def test_derived_subgroup():
    assert derived_subgroup(s3()[0]).order() == 3
    assert derived_subgroup(d8()[0]).order() == 2
    assert derived_subgroup(a4()[0]).order() == 4
    c6, _ = carrier("C6")
    assert derived_subgroup(c6).order() == 1
    assert derived_subgroup(c6).degree == 6


def test_centralizer_index():
    g, el = s3()
    members = [el[x] for x in ("(0 1)", "(0 1 2)", "e", "(1 2)", "(0 2 1)", "(0 2)")]
    assert centralizer_index(g, members) == [3, 2, 1, 3, 2, 3]
    rotations = [el[x] for x in ("(0 2 1)", "(0 1 2)", "(0 2 1)", "e")]
    assert centralizer_index(g, rotations) == [2, 2, 2, 1]
    assert centralizer_index(g, []) == []
    # a set that is not normal: the first escape, conjugator outermost
    maps = [conjugation_map(g, c) for c in g.generators]
    for subset in (members[:5], [el["(0 1 2)"]], [0, el["(1 2)"]]):
        with pytest.raises(InvarianceError) as exc:
            centralizer_index(g, subset)
        escapes = [(i, j) for i, m in enumerate(maps) for j, t in enumerate(subset)
                   if int(m[t]) not in subset]
        conjugator, member = escapes[0]
        assert exc.value.witness == {"conjugator": conjugator, "member": member}
    a4_group = a4()[0]
    with pytest.raises(MembershipError):
        centralizer_index(a4_group, [0, a4_group.degree])


def test_abelian_invariants():
    assert abelian_invariants_of(carrier("C6")[0]).factors == (6,)
    assert abelian_invariants_of(carrier("C2xC4")[0]).factors == (2, 4)
    assert abelian_invariants_of(carrier("C2xC2")[0]).factors == (2, 2)
    assert abelian_invariants_of(carrier("C1")[0]).factors == ()
    # a non-abelian group has no invariants of its own
    for group in (s3()[0], a4()[0], d8()[0]):
        assert abelian_invariants_of(group) is None


def regular_cyclic(n):
    """C_n with each non-trivial rotation a generator, through the certified path."""
    points = np.arange(n)
    columns = np.array([(points + s * k) % n for k in range(1, n) for s in (1, -1)], dtype=np.int32)
    return PermGroup.regular(columns)


def test_element_orders_past_ten_to_the_five_elements():
    # C_(2^17), generated by the rotations by 1, 2, 4, ..., 2^16 so that its
    # tree is 17 levels deep: every order is listed, with no cap of its own
    n = 2**17
    points = np.arange(n)
    columns = np.array([(points + s * 2**k) % n for k in range(17) for s in (1, -1)])
    orders = np.bincount(PermGroup.regular(columns).element_orders())
    census = {int(d): int(orders[d]) for d in np.flatnonzero(orders)}
    assert census == {1: 1, **{2**k: 2 ** (k - 1) for k in range(1, 18)}}


def test_certified_regular_carrier():
    g = regular_cyclic(6)
    assert g.order() == 6
    assert g.generators == (1, 2, 3, 4, 5)
    for p in g.elements():
        assert g.contains(p)
    assert sorted(g.element_orders()) == [1, 2, 3, 3, 6, 6]
    sub = g.subgroup([g.generators[1]])  # the square of the base rotation
    assert sub.order() == 3
    assert set(sub.orbit0()) <= set(g.orbit0())
    assert not sub.contains(g.generators[0])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(builtin_names()), st.data())
def test_free_subgroup_matches_table_closure(name, data):
    # Generators are added one at a time, redundant ones included, so every
    # step of the incremental orbit walk is compared with the table closure.
    group = builtin(name)
    eta = regular_of(group)
    seed = data.draw(st.lists(st.sampled_from(range(group.n)), max_size=4))
    sub = eta.carrier.subgroup([eta.embed_g[a] for a in seed])
    closure = group.subgroup_closure(seed)
    assert set(sub.orbit0()) == {eta.embed_g[a] for a in closure}
    assert sub.order() == len(closure)
    for a in group.elements():
        assert sub.contains(eta.embed_g[a]) == (a in closure)


def tree_label(source, target, images, pt):
    """Target element that the source's spanning-tree path to pt labels it with."""
    tree = tree_dict(source._column, source._parent)
    path = []
    while tree[pt] is not None:
        slot, sign, pt = tree[pt]
        path.append(images[slot] if sign > 0 else target.inv(images[slot]))
    label = target.identity
    for img in reversed(path):
        label = target.mul(label, img)
    return label


def assert_breaks_labelling(source, target, images, edge):
    pt, i = edge
    g = source.generators[i]
    expected = target.mul(tree_label(source, target, images, pt), images[i])
    assert tree_label(source, target, images, source.mul(pt, g)) != expected


def test_hom_graph_mode():
    # C4 onto C2: the odd rotations go to the flip.
    g = regular_cyclic(4)
    c2 = cyclic(2)
    f = GroupHom(g, c2, [1, 0, 1])
    k = hom_kernel(f)
    assert k.order() == 2
    assert k.contains(g.generators[1])
    assert f.image_group() == (0, 1)
    assert f.apply(g.generators[0]) == 1
    assert f.apply(g.generators[1]) == 0
    assert f.apply(g.generators[2]) == 1
    with pytest.raises(MembershipError):
        f.apply(g.degree)


def test_hom_graph_mode_rejects():
    # A hom C4 -> C3 sending r to t would send r^4 = 1 to t^4 = t, so every
    # assignment with r -> t is refused, here two of them.
    g = regular_cyclic(4)
    c3 = cyclic(3)
    for images in ([1, 2, 0], [1, 1, 1]):
        with pytest.raises(IllDefinedHomError) as exc:
            GroupHom(g, c3, images)
        assert_breaks_labelling(g, c3, images, exc.value.edge)


def single_rotation(n):
    """C_n = <r | r^n> on n points, r the rotation, as a certified carrier.

    Its tree reaches 1, 2, ... by r from 0, and n - 1, n - 2, ... by r^-1.
    """
    points = np.arange(n)
    columns = np.array([(points + 1) % n, (points - 1) % n], dtype=np.int32)
    return PermGroup.regular(columns)


@pytest.mark.parametrize(
    "columns",
    [[[1, -1], [1, 0]], [[0, 1], [0, 1]]],
    ids=["undefined-entry", "unreached-point"],
)
def test_regular_rejects_an_incomplete_table(columns):
    # the carrier's own tree must reach every point along defined entries
    with pytest.raises(IncompleteTableError):
        PermGroup.regular(np.array(columns, dtype=np.int32))


def test_hom_relator_mode():
    # C4 = <r | r^4> onto C2 with r -> t: the tree is 0 - 1 - 2 by r and
    # 0 - 3 by r^-1, so the relator r^4 is the one r edge off the tree, from
    # point 2 to 3, and the labelling checks exactly it.
    c4 = single_rotation(4)
    r = c4.generators[0]
    f = GroupHom(c4, cyclic(2), [1])
    assert f.apply(r) == 1
    assert f.apply(c4.mul(r, r)) == 0
    k = hom_kernel(f)
    assert k.order() == 2
    assert k.contains(c4.mul(r, r))
    assert len(f.image_group()) == 2


def test_hom_relator_mode_rejects():
    # C4 = <r | r^4> onto C3 with r -> t fails on r^4, the edge from 2 to 3.
    c4 = single_rotation(4)
    c3 = cyclic(3)
    with pytest.raises(IllDefinedHomError) as exc:
        GroupHom(c4, c3, [1])
    assert exc.value.edge == (2, 0)
    assert_breaks_labelling(c4, c3, [1], exc.value.edge)


def test_hom_image_must_be_in_target():
    c2 = regular_cyclic(2)
    for image in (4, -1):
        with pytest.raises(MembershipError):
            GroupHom(c2, cyclic(4), [image])


def test_kernel_order_identity():
    # |source| = |kernel| * |image| for a quotient with a bigger kernel.
    g = regular_cyclic(12)
    f = GroupHom(g, cyclic(3), [k % 3 for k in range(1, 12)])
    k = hom_kernel(f)
    assert k.order() * len(f.image_group()) == g.order() == 12
    assert k.order() == 4


def test_hom_s3_natural_and_sign():
    # S3's regular action onto itself (kernel 1) and onto C2 by sign (kernel 3).
    table = table_from_perms(S3_GENS)
    eta = regular_of(table)
    reg = eta.carrier
    gens = table.generating_subset()
    natural = GroupHom(reg, table, gens)
    assert hom_kernel(natural).order() == 1
    assert len(natural.image_group()) == 6
    assert all(natural.apply(eta.embed_g[a]) == a for a in table.elements())
    signs = [1 if table.element_order(a) == 2 else 0 for a in gens]
    sign = GroupHom(reg, cyclic(2), signs)
    k = hom_kernel(sign)
    assert k.order() * len(sign.image_group()) == reg.order()
    assert k.order() == 3
    assert all(sign.apply(g) == 0 for g in k.generators)
    # both generators are involutions; an element of order 3 is no image for them
    three = next(a for a in table.elements() if table.element_order(a) == 3)
    bad = [three] * len(gens)
    with pytest.raises(IllDefinedHomError) as exc:
        GroupHom(reg, table, bad)
    assert_breaks_labelling(reg, table, bad, exc.value.edge)


def parity(images):
    return sum(1 for x in range(len(images)) for y in range(x) if images[y] > images[x]) % 2


def test_kernel_s4_sign():
    # S4 acting on itself, onto C2 by sign: the kernel is A4.
    gens = [P((0, 1, 2, 3), degree=4), P((0, 1), degree=4)]
    table = table_from_perms(gens)
    elems = sorted(naive_closure(images(gens)))  # the identity is the least
    assert table.n == len(elems) == 24
    assert elements_of(table, 4) == set(elems)
    odd = [parity(p) == 1 for p in elems]
    eta = regular_of(table)
    f = GroupHom(eta.carrier, cyclic(2), [int(odd[a]) for a in table.generating_subset()])
    k = hom_kernel(f)
    assert k.order() == 12
    assert k.order() * len(f.image_group()) == eta.carrier.order() == 24
    for a in range(24):
        assert k.contains(eta.embed_g[a]) == (not odd[a])
        assert f.apply(eta.embed_g[a]) == int(odd[a])


def extend(group, images, m):
    """The assignment G -> Z_m a generator assignment spreads along G's BFS tree."""
    assign = {0: 0}
    frontier = [0]
    for x in frontier:
        for s, k in zip(group.generating_subset(), images):
            y = group.mul(x, s)
            if y not in assign:
                assign[y] = (assign[x] + k) % m
                frontier.append(y)
    return assign


def table_hom(group, assign, m):
    return all(
        assign[group.mul(a, b)] == (assign[a] + assign[b]) % m
        for a in group.elements()
        for b in group.elements()
    )


@st.composite
def assignments_to_cyclic(draw):
    """A builtin group G, m, and an image in Z_m for each generator of G.

    The images come from a genuine homomorphism G -> C_m (found by trying
    every generator assignment against the table), possibly with one image
    perturbed.
    """
    group = builtin(draw(st.sampled_from(builtin_names())))
    m = draw(st.integers(min_value=1, max_value=6))
    gens = group.generating_subset()
    homs = [
        ks for ks in product(range(m), repeat=len(gens)) if table_hom(group, extend(group, ks, m), m)
    ]
    ks = list(homs[draw(st.integers(min_value=0, max_value=len(homs) - 1))])
    if gens and m > 1 and draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=len(gens) - 1))
        ks[i] = (ks[i] + draw(st.integers(min_value=1, max_value=m - 1))) % m
    return group, m, tuple(ks)


# Pinned: C2xC2 -> C3 with its generators 1 and 2 sent to 0 and 1 is
# consistent along the first generator's edges and breaks on the second's.
@settings(max_examples=60, deadline=None)
@given(assignments_to_cyclic())
@example((builtin("C2xC2"), 3, (0, 1)))
def test_hom_labelling_matches_table_oracle(case):
    group, m, ks = case
    eta = regular_of(group)
    source, target = eta.carrier, cyclic(m)
    assign = extend(group, ks, m)
    if not table_hom(group, assign, m):
        with pytest.raises(IllDefinedHomError) as exc:
            GroupHom(source, target, ks)
        assert_breaks_labelling(source, target, ks, exc.value.edge)
        return
    f = GroupHom(source, target, ks)
    k = hom_kernel(f)
    assert set(k.orbit0()) == {eta.embed_g[a] for a in group.elements() if assign[a] == 0}
    assert k.order() * len(f.image_group()) == group.n


def _rotation_pair(order):
    """(D_order, its rotations) acting on each other by conjugation in the dihedral group."""
    group = builtin(f"D{order}")
    members = list(group.subgroup_closure([1]))
    pos = {x: i for i, x in enumerate(members)}
    k = TableGroup([[pos[group.mul(a, b)] for b in members] for a in members])
    g_on_k = ActionTable.from_rows([[pos[group.conj(x, g)] for x in members] for g in range(group.n)])
    k_on_g = ActionTable.from_rows([[group.conj(x, c) for x in range(group.n)] for c in members])
    return ActionPair(group, k, g_on_k, k_on_g)


ARITHMETIC_CARRIERS = {
    "nu(S3)": lambda: conjugation_pair(builtin("S3")),
    "nu(Q8)": lambda: conjugation_pair(builtin("Q8")),
    "D8,C4": lambda: _rotation_pair(8),
}


@lru_cache(maxsize=None)
def arithmetic_carrier(name):
    return construct_eta(ARITHMETIC_CARRIERS[name]())


def inverse_word(word):
    return [c ^ 1 for c in reversed(word)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ARITHMETIC_CARRIERS)), st.data())
def test_point_arithmetic_matches_column_composition(name, data):
    # An element is the point a word over the raw table columns sends 0 to;
    # products, inverses, conjugates, commutators and membership must agree
    # with composing the columns along the corresponding words.
    eta = arithmetic_carrier(name)
    g = eta.carrier
    columns = eta.carrier._columns.tolist()
    words = st.lists(st.integers(min_value=0, max_value=len(columns) - 1), max_size=12)
    u, v = data.draw(words), data.draw(words)
    p, q = compose_columns(columns, u)[0], compose_columns(columns, v)[0]

    def point(word):
        return compose_columns(columns, word)[0]

    assert g.mul(p, q) == point(u + v)
    assert g.inv(p) == point(inverse_word(u))
    assert g.comm(p, q) == point(inverse_word(u) + inverse_word(v) + u + v)
    assert right_multiplication(g, q).tolist() == compose_columns(columns, v)
    assert g.conjugates(p, q) == point(inverse_word(v) + u + v)
    sub = g.subgroup([p])
    powers = naive_closure([tuple(compose_columns(columns, u))])
    assert sub.order() == len(powers)
    for probe in (v, u + u, inverse_word(u), u + v):
        assert sub.contains(point(probe)) == (tuple(compose_columns(columns, probe)) in powers)


@pytest.mark.parametrize("name", sorted(ARITHMETIC_CARRIERS))
def test_array_arithmetic_matches_scalar(name):
    g = arithmetic_carrier(name).carrier
    rng = np.random.default_rng(0)
    p = np.append(rng.integers(0, g.degree, size=30), 0)
    q = np.append(rng.integers(0, g.degree, size=20), 0)
    products = g.products(p[:, None], q[None, :])
    assert products.tolist() == [[g.mul(a, b) for b in q.tolist()] for a in p.tolist()]
    assert g.inverses(p).tolist() == [g.inv(a) for a in p.tolist()]
    conjugates = g.conjugates(p[:, None], q[None, :])
    scalar = [[g.mul(g.mul(g.inv(b), a), b) for b in q.tolist()] for a in p.tolist()]
    assert conjugates.tolist() == scalar
    trivial = construct_eta(trivial_pair(cyclic(1), cyclic(1))).carrier
    assert trivial.products([0], 0).tolist() == [0] and trivial.inverses([0]).tolist() == [0]
