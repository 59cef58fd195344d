"""Workload generation for the corpus benchmark.

Two workloads, both built only from etacalc's public API:

* ``corpus-default``: ``default_corpus()`` unchanged; the seed is ignored.
* ``corpus-general``: pairs (G, K) with K a proper normal subgroup of G and
  both groups acting on each other by conjugation inside G.  The seed
  relabels every group's non-identity elements (the identity stays 0) and
  shuffles the pair order, which changes ``generating_subset()`` and with it
  the enumeration path, while every order stays fixed.
"""

from __future__ import annotations

import random

from etacalc import (
    ActionPair,
    ActionTable,
    Corpus,
    CorpusPair,
    TableGroup,
    builtin,
    cyclic,
    default_corpus,
    dihedral,
    direct_product,
)


def _s3_x_c3() -> tuple[TableGroup, tuple[int, ...]]:
    s3 = builtin("S3")
    group = direct_product(s3, cyclic(3))
    return group, tuple(a * 3 + c for a in s3.derived_indices() for c in range(3))


def _a4_x_c2() -> tuple[TableGroup, tuple[int, ...]]:
    group = direct_product(builtin("A4"), cyclic(2))
    return group, group.derived_indices()


def _with_derived(name: str) -> tuple[TableGroup, tuple[int, ...]]:
    group = builtin(name)
    return group, group.derived_indices()


def _with_rotations(order: int) -> tuple[TableGroup, tuple[int, ...]]:
    group = dihedral(order)
    return group, group.subgroup_closure([1])


def _q8_i() -> tuple[TableGroup, tuple[int, ...]]:
    group = builtin("Q8")
    return group, group.subgroup_closure([group.labels.index("i")])


# Pool of (label, factory, ranks of G and K, |eta|, |[G,H^phi]|).  The
# orders were measured with identity labelling and do not depend on how the
# elements are numbered.  The ranks are the fewest generators of each group.
GENERAL_POOL = (
    ("A4,V4", lambda: _with_derived("A4"), (2, 2), 384, 8),
    ("Q8,i", _q8_i, (2, 1), 512, 16),
    ("S3,A3", lambda: _with_derived("S3"), (2, 1), 54, 3),
    ("D8,C4", lambda: _with_rotations(8), (2, 1), 256, 8),
    ("D12,C6", lambda: _with_rotations(12), (2, 1), 864, 12),
    ("A4xC2,V4", _a4_x_c2, (2, 2), 768, 8),
    ("S3xC3,C3xC3", _s3_x_c3, (2, 2), 1458, 9),
    ("D16,C8", lambda: _with_rotations(16), (2, 1), 2048, 16),
)

GENERAL_DRAWS = 2
MAX_TRIES = 1000

GENERAL_REFERENCE = {
    f"general:{label}": (order, tensor) for label, _, _, order, tensor in GENERAL_POOL
}


def relabel(group: TableGroup, order: list[int]) -> TableGroup:
    """The same group with element ``order[i]`` renumbered as ``i``."""
    if order[0] != group.identity or sorted(order) != list(range(group.n)):
        raise ValueError("relabelling must be a permutation that keeps the identity first")
    pos = {old: new for new, old in enumerate(order)}
    table = [[pos[group.mul(a, b)] for b in order] for a in order]
    return TableGroup(table, [group.labels[a] for a in order])


def normal_pair(group: TableGroup, members) -> ActionPair:
    """(G, K) acting on each other by conjugation inside G.

    ``members`` lists K's elements as indices of G, identity first; K's own
    index i stands for ``members[i]``.  A central K (both actions trivial)
    and K = G (a conjugation pair) are rejected: construct_eta and
    run_corpus treat those specially, and this workload exercises the
    general path.
    """
    members = list(members)
    if members[0] != group.identity or not group.is_normal(members):
        raise ValueError("K must be a normal subgroup listed identity first")
    if len(members) == group.n:
        raise ValueError("K = G gives a conjugation pair")
    pos = {g: i for i, g in enumerate(members)}
    k_group = TableGroup(
        [[pos[group.mul(a, b)] for b in members] for a in members],
        [group.labels[a] for a in members],
    )
    g_on_h = ActionTable.from_rows(
        [[pos[group.conj(k, g)] for k in members] for g in range(group.n)]
    )
    h_on_g = ActionTable.from_rows(
        [[group.conj(x, k) for x in range(group.n)] for k in members]
    )
    pair = ActionPair(group, k_group, g_on_h, h_on_g)
    if pair.g_on_h.is_trivial() or pair.h_on_g.is_trivial():
        raise ValueError("K is central, so both actions are trivial")
    return pair


def _shuffled_tail(rng: random.Random, n: int) -> list[int]:
    tail = list(range(1, n))
    rng.shuffle(tail)
    return [0, *tail]


def pool_label(label: str) -> str:
    """The pool entry a corpus-general instance label was drawn from."""
    return label.split("#", 1)[0]


def _draw(rng: random.Random, base: TableGroup, k_members, ranks) -> ActionPair:
    """A relabelled pair whose generating subsets have the given sizes.

    The size of ``generating_subset()`` sets the number of family relators,
    so fixing it keeps the presentation size the same under every seed;
    the seed still picks the generators and the order of the relators.
    """
    for _ in range(MAX_TRIES):
        g_order = _shuffled_tail(rng, base.n)
        group = relabel(base, g_order)
        if len(group.generating_subset()) != ranks[0]:
            continue
        new_index = {old: new for new, old in enumerate(g_order)}
        k_sorted = sorted(new_index[k] for k in k_members)
        k_order = [k_sorted[i] for i in _shuffled_tail(rng, len(k_sorted))]
        pair = normal_pair(group, k_order)
        if len(pair.h.generating_subset()) == ranks[1]:
            return pair
    raise ValueError(f"no labelling with generating subsets of sizes {ranks}")


def general_corpus(seed: int) -> Corpus:
    """Every pool pair, drawn GENERAL_DRAWS times with independent labellings.

    How long a pair takes depends on its labelling, so one draw per pair
    would make the run time mostly a function of the seed; the sum over
    several draws varies less from seed to seed.
    """
    rng = random.Random(seed)
    pairs = []
    for draw in range(1, GENERAL_DRAWS + 1):
        for label, factory, ranks, _, _ in GENERAL_POOL:
            base, k_members = factory()
            pair = _draw(rng, base, k_members, ranks)
            pairs.append(CorpusPair(f"general:{label}#{draw}", "custom", pair))
    rng.shuffle(pairs)
    return Corpus(tuple(pairs), (), ())


def make_corpus(workload: str, seed: int) -> Corpus:
    if workload == "corpus-default":
        return default_corpus()
    if workload == "corpus-general":
        return general_corpus(seed)
    raise ValueError(f"unknown workload {workload!r}")
