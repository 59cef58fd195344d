"""Multiplication-table groups, stock constructions, Cayley presentations."""

from __future__ import annotations

import re
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etacalc import fpgroup
from etacalc.fpgroup import Presentation, todd_coxeter
from etacalc.groups import (
    TableGroup,
    alternating4,
    builtin,
    builtin_names,
    cyclic,
    dihedral,
    direct_product,
    quaternion8,
    symmetric3,
    table_from_perms,
)
from etacalc.action import trivial_pair
from etacalc.eta import construct_eta
from oracles import (
    looped_derived_indices,
    looped_table_failure,
    naive_closure,
    order_census_invariants,
)


def test_cyclic():
    c6 = cyclic(6)
    assert c6.n == 6
    assert c6.identity == 0
    assert c6.labels == ("e", "g1", "g2", "g3", "g4", "g5")
    assert c6.mul(2, 5) == 1
    assert c6.inv(2) == 4
    assert c6.element_order(1) == 6
    assert c6.element_order(3) == 2
    assert c6.is_abelian()
    assert cyclic(1).n == 1


@pytest.mark.parametrize("name", builtin_names())
def test_derived_indices_equal_the_loop(name):
    # G' and G^ab are cached; both calls agree with the loops, the second from the cache
    group = builtin(name)
    derived = looped_derived_indices(group)
    # the order of each coset of G' in G/G', one coset at a time
    cosets = {frozenset(group.mul(x, d) for d in derived): x for x in range(group.n)}
    orders = []
    for x in cosets.values():
        k, power = 1, x
        while power not in derived:
            power, k = group.mul(power, x), k + 1
        orders.append(k)
    for _ in range(2):
        assert group.derived_indices() == derived
        assert group.abelian_invariants().factors == order_census_invariants(orders)
    assert group.derived_indices() is group.derived_indices()
    assert group.abelian_invariants() is group.abelian_invariants()


def test_derived_indices_with_the_identity_last():
    s3 = symmetric3()
    order = list(range(s3.n - 1, -1, -1))
    pos = {old: new for new, old in enumerate(order)}
    moved = TableGroup([[pos[s3.mul(a, b)] for b in order] for a in order])
    assert moved.identity == s3.n - 1
    assert moved.derived_indices() == looped_derived_indices(moved)
    assert len(moved.derived_indices()) == 3


def test_dihedral():
    d8 = dihedral(8)
    assert d8.n == 8
    assert d8.labels == ("e", "r1", "r2", "r3", "s", "sr1", "sr2", "sr3")
    r1, s = 1, 4
    assert d8.element_order(r1) == 4
    assert d8.element_order(s) == 2
    # s r1 s = r1^-1
    assert d8.conj(r1, s) == d8.inv(r1)
    assert not d8.is_abelian()
    assert d8.center_indices() == (0, 2)
    assert d8.derived_indices() == (0, 2)
    assert d8.abelian_invariants().factors == (2, 2)
    with pytest.raises(ValueError):
        dihedral(5)


def test_quaternion():
    q8 = quaternion8()
    assert q8.labels == ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    i, j, k = 2, 4, 6
    assert q8.mul(i, j) == k
    assert q8.mul(j, i) == 7  # -k
    assert q8.mul(i, i) == 1  # -1
    assert q8.element_order(i) == 4
    assert q8.element_order(1) == 2
    assert q8.center_indices() == (0, 1)
    assert q8.derived_indices() == (0, 1)
    assert q8.abelian_invariants().factors == (2, 2)


def test_symmetric3():
    s3 = symmetric3()
    assert s3.n == 6
    assert s3.labels[0] == "e"
    assert len(s3.derived_indices()) == 3
    assert s3.abelian_invariants().factors == (2,)
    assert s3.pi() == {2, 3}
    assert sorted(s3.element_order(a) for a in s3.elements()) == [1, 2, 2, 2, 3, 3]


def test_s3_and_a4_list_their_permutations_in_lexicographic_order():
    # all permutations of 3 points, and the even ones of 4 (an even count of
    # inversions), sorted by their image lists; a*b is b after a
    def even(p):
        return sum(p[x] > p[y] for x in range(len(p)) for y in range(x + 1, len(p))) % 2 == 0

    s3 = sorted(permutations(range(3)))
    a4 = [p for p in sorted(permutations(range(4))) if even(p)]
    for group, perms in ((symmetric3(), s3), (alternating4(), a4)):
        index = {p: i for i, p in enumerate(perms)}
        expected = [[index[tuple(b[x] for x in a)] for b in perms] for a in perms]
        assert group.table.tolist() == expected


def test_alternating4():
    a4 = alternating4()
    assert a4.n == 12
    assert len(a4.derived_indices()) == 4
    assert a4.abelian_invariants().factors == (3,)
    assert sorted(a4.element_order(a) for a in a4.elements()) == [1] + [2] * 3 + [3] * 8


def test_direct_product():
    c6 = direct_product(cyclic(2), cyclic(3))
    assert c6.n == 6
    assert c6.abelian_invariants().factors == (6,)
    assert c6.labels[0] == "(e,e)"
    c2xc6 = builtin("C2xC6")
    assert c2xc6.abelian_invariants().factors == (2, 6)


def test_builtin_registry():
    assert builtin("c4").n == 4
    assert builtin("Q8") == quaternion8()
    assert builtin("V4") == builtin("C2xC2")
    assert builtin("s3") == symmetric3()
    with pytest.raises(ValueError):
        builtin("E8")
    names = builtin_names()
    assert "c12" in names and "d8" in names and "a4" in names
    assert "v4" not in names
    for name in names:
        g = builtin(name)
        assert g.identity == 0


@pytest.mark.parametrize(
    "table",
    [
        np.array([[0, 2**32 + 1], [1, 0]]),  # 2^32 + 1 would wrap to 1 in int32
        [[0, 2**31], [1, 0]],  # past int32, as a Python int
        [[0, 2**70], [1, 0]],  # past int64
    ],
)
def test_table_entries_are_checked_before_they_are_narrowed(table):
    with pytest.raises(ValueError, match="^table entries must be element indices$"):
        TableGroup(table)


def test_table_group_keeps_its_own_copy():
    table = np.array([[0, 1], [1, 0]], dtype=np.int32)
    group = TableGroup(table)
    assert table.flags.writeable and not group.table.flags.writeable
    table[0, 0] = 1
    assert group.table.tolist() == [[0, 1], [1, 0]]


def test_table_validation():
    with pytest.raises(ValueError):
        TableGroup([[0, 1], [1, 1]])  # row not a permutation
    with pytest.raises(ValueError):
        TableGroup([[1, 0, 2], [2, 1, 0], [0, 2, 1]])  # Latin but no identity
    loop5 = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 1, 0],
        [3, 4, 0, 2, 1],
        [4, 2, 1, 0, 3],
    ]
    with pytest.raises(ValueError, match="associativity"):
        TableGroup(loop5)
    with pytest.raises(ValueError):
        TableGroup([[0, 1], [1, 0]], labels=["a", "a"])


@pytest.mark.parametrize(
    "table, message",
    [
        # row 1 and column 1 both fail: the row is read first
        ([[0, 1], [1, 1]], "row 1 is not a permutation of the elements"),
        # column 0 and row 1 both fail: column 0 is read first
        ([[0, 1, 2], [0, 2, 2], [2, 0, 1]], "column 0 is not a permutation of the elements"),
        ([[0, 1, 2], [1, 2, 0], [1, 2, 0]], "column 0 is not a permutation of the elements"),
        ([[1, 0, 2], [2, 1, 0], [0, 2, 1]], "table has no two-sided identity"),
        # row 0 is the identity's, but column 0 is not
        ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], "table has no two-sided identity"),
    ],
)
def test_table_validation_names_the_first_failure(table, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TableGroup(table)


def _loop8() -> list[list[int]]:
    """C2 x C2 x C2's table with one intercalate's two values swapped: a loop, not a group."""
    table = [[a ^ b for b in range(8)] for a in range(8)]
    # rows 5 and 6 hold 4 and 7 at columns 1 and 2, crosswise; swap them
    table[5][1], table[5][2], table[6][1], table[6][2] = 7, 4, 4, 7
    return table


def _first_nonassociative(table) -> tuple[int, int, int]:
    n = len(table)
    return next(
        (a, b, c)
        for a in range(n)
        for b in range(n)
        for c in range(n)
        if table[table[a][b]][c] != table[a][table[b][c]]
    )


@pytest.mark.parametrize("walks", [1, 130, 1 << 20])
@pytest.mark.parametrize(
    "table",
    [
        [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 1, 0], [3, 4, 0, 2, 1], [4, 2, 1, 0, 3]],
        _loop8(),
    ],
)
def test_associativity_names_the_first_failing_triple(table, walks, monkeypatch):
    # The triple is the first of a loop over a, then b, then c, at any block size.
    monkeypatch.setattr(fpgroup, "_AUDIT_WALKS", walks)
    triple = _first_nonassociative(table)
    assert triple[0] > 0
    with pytest.raises(ValueError, match=re.escape(f"associativity fails at {triple}") + "$"):
        TableGroup(table)


def _swap_intercalate(table: list[list[int]], r1: int, r2: int) -> None:
    """Swap the two values of the first 2 x 2 subsquare in rows r1 and r2, if any.

    Only subsquares off row and column 0 are swapped, so a group's table
    keeps its identity and stays a Latin square, but no longer associates.
    """
    for c1 in range(1, len(table)):
        c2 = table[r2].index(table[r1][c1])
        if 0 not in (r1, r2, c2) and r1 != r2 and table[r1][c2] == table[r2][c1]:
            table[r1][c1], table[r1][c2] = table[r1][c2], table[r1][c1]
            table[r2][c1], table[r2][c2] = table[r2][c2], table[r2][c1]
            return


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_table_validation_names_the_loops_first_failure(data):
    # Entries overwritten break the Latin square, values relabelled break the
    # identity, and swapped subsquares break associativity; the message is
    # the loop's first failure at any block size.
    name = data.draw(st.sampled_from(["C4", "S3", "C2xC2", "C2xC4", "D8", "Q8"]))
    table = builtin(name).table.tolist()
    n = len(table)
    index = st.integers(0, n - 1)
    for _ in range(data.draw(st.integers(0, 2))):
        _swap_intercalate(table, data.draw(index.filter(bool)), data.draw(index.filter(bool)))
    for _ in range(data.draw(st.integers(0, 2))):
        if data.draw(st.booleans()):
            table[data.draw(index)][data.draw(index)] = data.draw(index)
        else:
            perm = data.draw(st.permutations(range(n)))
            table = [[perm[v] for v in row] for row in table]
    expected = looped_table_failure(table)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fpgroup, "_AUDIT_WALKS", data.draw(st.sampled_from([1, 130, 1 << 20])))
        try:
            TableGroup(table)
            found = None
        except ValueError as err:
            found = str(err)
    assert found == expected


def test_subgroup_machinery():
    s3 = symmetric3()
    a3 = s3.derived_indices()
    assert s3.is_subgroup(a3)
    assert s3.is_normal(a3)
    flip = next(a for a in s3.elements() if s3.element_order(a) == 2)
    two = s3.subgroup_closure([flip])
    assert len(two) == 2
    assert s3.is_subgroup(two)
    assert not s3.is_normal(two)
    assert not s3.is_subgroup([0, flip, s3.mul(flip, flip)][:2] + [5, 4])


def test_generating_subset():
    assert cyclic(6).generating_subset() == (1,)
    assert dihedral(8).generating_subset() == (1, 4)
    q8 = quaternion8()
    gens = q8.generating_subset()
    # greedy ascending picks -1 before i, so three generators here
    assert gens == (1, 2, 4)
    assert len(q8.subgroup_closure(gens)) == 8


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=11), max_size=4))
def test_closure_satisfies_lagrange(seed):
    c12 = cyclic(12)
    size = len(c12.subgroup_closure(seed))
    assert 12 % size == 0


def test_abelian_invariants_of_builtins():
    assert builtin("C12").abelian_invariants().factors == (12,)
    assert builtin("C2xC4").abelian_invariants().factors == (2, 4)
    assert builtin("D10").abelian_invariants().factors == (2,)
    assert builtin("D12").abelian_invariants().factors == (2, 2)
    assert builtin("A4").abelian_invariants().factors == (3,)


def test_json_round_trip():
    q8 = quaternion8()
    data = q8.to_json_dict()
    assert data["schema"] == 1
    assert TableGroup.from_json_dict(data) == q8
    with pytest.raises(ValueError):
        TableGroup.from_json_dict({"labels": [], "table": []})
    with pytest.raises(ValueError):
        TableGroup.from_json_dict({"schema": 1})


def test_json_identity_renumbering():
    # C3 presented with its identity at index 2.
    table = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    g = TableGroup.from_json_dict({"schema": 1, "table": table, "labels": ["a", "b", "e"]})
    assert g.identity == 0
    assert g.labels[0] == "e"
    assert g.element_order(1) == 3


def test_regular_permgroup():
    # eta(G, C1) is G's regular action: its carrier multiplies the points of
    # G's elements as G's table does, and the identity is point 0.
    s3 = symmetric3()
    eta = construct_eta(trivial_pair(s3, cyclic(1)))
    reg, point = eta.carrier, eta.embed_g
    assert reg.order() == 6
    assert sorted(point) == list(range(6))
    for a in s3.elements():
        for b in s3.elements():
            assert reg.mul(point[a], point[b]) == point[s3.mul(a, b)]
        assert reg.inv(point[a]) == point[s3.inv(a)]
    assert point[s3.identity] == 0


def test_table_from_perms():
    gens = [[1, 0, 2], [1, 2, 0]]  # (0 1) and (0 1 2)
    t = table_from_perms(gens)
    closure = sorted(naive_closure([tuple(g) for g in gens]))
    assert t.n == len(closure) == 6
    # Elements are listed in the order of their image tuples, labelled by cycles.
    assert closure == [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    assert t.labels == symmetric3().labels == ("e", "(1 2)", "(0 1)", "(0 1 2)", "(0 2 1)", "(0 2)")
    assert t.identity == 0
    assert t.labels[0] == "e"
    assert t.abelian_invariants().factors == (2,)
    assert sorted(t.element_order(a) for a in t.elements()) == [1, 2, 2, 2, 3, 3]


def _cayley_presentation(group: TableGroup) -> Presentation:
    """Presentation with one generator x_a per non-identity element a.

    The relators are all products x_a x_b = x_(ab) over non-identity pairs;
    a product landing on the identity contributes the two-letter relator.
    """
    others = group.non_identity()
    column = {a: 2 * i for i, a in enumerate(others)}
    # the identity has no column: -1 ^ 1 is -2, and -2 is dropped
    column[group.identity] = -1
    relators = [
        tuple(c for c in (column[a], column[b], column[group.mul(a, b)] ^ 1) if c >= 0)
        for a in others
        for b in others
    ]
    return Presentation(tuple(f"x{a}" for a in others), tuple(relators))


def test_cayley_presentation_enumerates_to_group_order():
    for name in ["C1", "C4", "C2xC2", "S3", "D8", "Q8"]:
        g = builtin(name)
        if g.n == 1:
            continue
        pres = _cayley_presentation(g)
        assert len(pres.generators) == g.n - 1
        assert len(pres.relators) == (g.n - 1) ** 2
        assert todd_coxeter(pres).n == g.n
    big = direct_product(cyclic(2), alternating4())
    assert todd_coxeter(_cayley_presentation(big)).n == 24
