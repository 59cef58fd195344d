"""Construction of the eta group of a compatible pair, with certified audits.

Given groups G and H acting compatibly on each other, the eta group is
presented on one generator per non-identity element of each group, subject
to both multiplication tables and to two families of defining relations:

    [g, h']^(g1) == [g^(g1), (h^(g1))']      for g, g1 in G and h in H
    [g, h']^(h1') == [g^(h1), (h^(h1))']     for g in G and h, h1 in H

where a primed symbol is the generator for the second copy, exponents on
group elements are the mutual actions (conjugation inside a single group),
and exponents on bracketed words are conjugation in the presented group.

The constructor enumerates the presented group onto a regular coset table,
so every element is a coset and two elements are equal exactly when they
move coset 0 to the same place.  Conjugator families are instantiated only
for a generating subset during enumeration; afterwards the full families,
the injectivity of both embeddings, and their homomorphy are all checked
against the finished carrier, with a fall back to the complete relator set
if any audit fails.  A returned EtaGroup therefore satisfies every defining
relation, not just the ones handed to the enumerator; it keeps the
presentation that was enumerated, and build_eta_presentation gives the
complete one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .abelian import z_tensor
from .action import ActionPair, require_compatible
from .errors import CapacityError, ConstructionError, InvarianceError
from .fpgroup import (
    DEFAULT_MAX_COSETS,
    CosetTable,
    Presentation,
    Word,
    regular_representation,
    todd_coxeter,
)
from .groups import TableGroup
from .perm import Perm, PermGroup


def _word_of(prefix: str, element: int) -> Word:
    return Word() if element == 0 else Word.gen(f"{prefix}{element}")


def _table_relators(group: TableGroup, prefix: str) -> list[Word]:
    relators = []
    for a in group.non_identity():
        for b in group.non_identity():
            product = _word_of(prefix, group.mul(a, b))
            relators.append(_word_of(prefix, a) * _word_of(prefix, b) * product.inverse())
    return relators


def _family_relators(
    pair: ActionPair,
    g_conjugators: Iterable[int],
    h_conjugators: Iterable[int],
) -> list[Word]:
    g, h = pair.g, pair.h
    goh, hog = pair.g_on_h.rows, pair.h_on_g.rows
    relators = []
    for gg in g.non_identity():
        base = {hh: _word_of("g", gg).commutator(_word_of("h", hh)) for hh in h.non_identity()}
        for g1 in g_conjugators:
            conj = _word_of("g", g1)
            for hh in h.non_identity():
                image = _word_of("g", g.conj(gg, g1)).commutator(_word_of("h", goh[g1][hh]))
                relators.append(base[hh].conjugate_by(conj) * image.inverse())
    for gg in g.non_identity():
        base = {hh: _word_of("g", gg).commutator(_word_of("h", hh)) for hh in h.non_identity()}
        for hh in h.non_identity():
            for h1 in h_conjugators:
                conj = _word_of("h", h1)
                image = _word_of("g", hog[h1][gg]).commutator(_word_of("h", h.conj(hh, h1)))
                relators.append(base[hh].conjugate_by(conj) * image.inverse())
    return relators


def _presentation(
    pair: ActionPair,
    g_conjugators: Iterable[int],
    h_conjugators: Iterable[int],
) -> Presentation:
    g, h = pair.g, pair.h
    generators = tuple(f"g{a}" for a in g.non_identity()) + tuple(
        f"h{b}" for b in h.non_identity()
    )
    relators = _table_relators(g, "g") + _table_relators(h, "h")
    relators += _family_relators(pair, g_conjugators, h_conjugators)
    return Presentation(generators, tuple(relators))


def build_eta_presentation(pair: ActionPair) -> Presentation:
    """The full defining presentation, conjugators running over everything."""
    if pair.g.n == 1 and pair.h.n == 1:
        raise ValueError("the pair of trivial groups presents no generators")
    return _presentation(pair, range(pair.g.n), range(pair.h.n))


@dataclass(eq=False)
class TensorSet:
    """The distinct bracket values [g, h'], tagged with witnessing pairs.

    The carrier must act regularly, so a member is identified by where it
    moves point 0; ``pair_for`` records the first (g, h) producing each.
    """

    members: tuple[Perm, ...]
    keys: frozenset[int]
    pair_for: dict[int, tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.members)

    def require_invariant_under(
        self, conjugators: Sequence[Perm], labels: Sequence[str] | None = None
    ) -> None:
        """Check closure under conjugation by each given permutation.

        The set is finite, so invariance under a generating set proves the
        full group leaves it invariant.  Raises InvarianceError naming the
        member pair and the offending conjugator.
        """
        for i, c in enumerate(conjugators):
            fwd = c.images
            start = int(c.inverse().images[0])
            for t in self.members:
                key = int(fwd[t.images[start]])
                if key not in self.keys:
                    witness = {
                        "member": self.pair_for[int(t.images[0])],
                        "conjugator": labels[i] if labels else i,
                    }
                    raise InvarianceError(
                        "tensor set is not closed under conjugation", witness=witness
                    )


def _tensor_set_from(tensor_map: dict[tuple[int, int], Perm]) -> TensorSet:
    members: list[Perm] = []
    pair_for: dict[int, tuple[int, int]] = {}
    for (a, b), perm in tensor_map.items():
        key = int(perm.images[0])
        if key not in pair_for:
            pair_for[key] = (a, b)
            members.append(perm)
    return TensorSet(tuple(members), frozenset(pair_for), pair_for)


@dataclass(eq=False)
class EtaGroup:
    """A finished eta construction over a regular permutation carrier.

    ``presentation`` is the one that was enumerated into ``table``: its
    conjugator families may run over generating subsets only, while the
    carrier is audited against the full families. It is None for the pair
    of trivial groups, which is built without enumeration.
    """

    pair: ActionPair
    presentation: Presentation | None
    table: CosetTable | None
    carrier: PermGroup
    embed_g: tuple[Perm, ...]
    embed_h: tuple[Perm, ...]
    tensor_map: dict[tuple[int, int], Perm]
    tensor_set: TensorSet
    tensor_subgroup: PermGroup

    def order(self) -> int:
        return self.carrier.order()

    def tensor_order(self) -> int:
        return self.tensor_subgroup.order()

    def tensor(self, g: int, h: int) -> Perm:
        return self.tensor_map[(g, h)]


def _certify_embedding(group: TableGroup, prefix: str, gen_map: dict[str, Perm], degree: int) -> tuple[Perm, ...]:
    ident = Perm.identity(degree)
    embed = tuple(
        ident if a == 0 else gen_map[f"{prefix}{a}"] for a in range(group.n)
    )
    keys = [int(p.images[0]) for p in embed]
    if len(set(keys)) != group.n:
        raise ConstructionError(f"embedding of the {prefix}-side is not injective")
    for a in range(group.n):
        for b in range(group.n):
            if int(embed[b].images[keys[a]]) != keys[group.mul(a, b)]:
                raise ConstructionError(
                    f"embedding of the {prefix}-side is not a homomorphism"
                )
    return embed


def _audit_families(
    pair: ActionPair,
    embed_g: tuple[Perm, ...],
    embed_h: tuple[Perm, ...],
    tensor_map: dict[tuple[int, int], Perm],
) -> None:
    """Check both full relation families by point chasing on the carrier."""
    g, h = pair.g, pair.h
    goh, hog = pair.g_on_h.rows, pair.h_on_g.rows
    for g1 in range(g.n):
        c = embed_g[g1]
        fwd = c.images
        start = int(c.inverse().images[0])
        for (gg, hh), t in tensor_map.items():
            lhs = int(fwd[t.images[start]])
            rhs = int(tensor_map[(g.conj(gg, g1), goh[g1][hh])].images[0])
            if lhs != rhs:
                raise ConstructionError(
                    f"first relation family fails at g={gg}, g1={g1}, h={hh}"
                )
    for h1 in range(h.n):
        c = embed_h[h1]
        fwd = c.images
        start = int(c.inverse().images[0])
        for (gg, hh), t in tensor_map.items():
            lhs = int(fwd[t.images[start]])
            rhs = int(tensor_map[(hog[h1][gg], h.conj(hh, h1))].images[0])
            if lhs != rhs:
                raise ConstructionError(
                    f"second relation family fails at g={gg}, h={hh}, h1={h1}"
                )


def _trivial_eta(pair: ActionPair) -> EtaGroup:
    carrier = PermGroup._regular_from_edges([], 1, {0: None})
    ident = Perm.identity(1)
    tensor_map = {(0, 0): ident}
    return EtaGroup(
        pair=pair,
        presentation=None,
        table=None,
        carrier=carrier,
        embed_g=(ident,),
        embed_h=(ident,),
        tensor_map=tensor_map,
        tensor_set=_tensor_set_from(tensor_map),
        tensor_subgroup=carrier.subgroup([]),
    )


def construct_eta(pair: ActionPair, *, max_cosets: int = DEFAULT_MAX_COSETS) -> EtaGroup:
    """Enumerate, carry, embed, and audit the eta group of a compatible pair.

    Raises IncompatibleActionError when the pair fails the compatibility
    equations, CapacityError when the carrier would need more cosets than
    allowed, and ConstructionError if any certification audit fails even on
    the complete relator set.
    """
    require_compatible(pair)
    g, h = pair.g, pair.h
    if g.n == 1 and h.n == 1:
        return _trivial_eta(pair)
    if pair.g_on_h.is_trivial() and pair.h_on_g.is_trivial():
        predicted = z_tensor(g.abelian_invariants(), h.abelian_invariants()).order * g.n * h.n
        if predicted > max_cosets:
            raise CapacityError(
                f"carrier needs {predicted} cosets, above the limit of {max_cosets}",
                count=predicted,
            )
    attempts = [
        (g.generating_subset(), h.generating_subset()),
        (range(g.n), range(h.n)),
    ]
    last_error: ConstructionError | None = None
    for index, (g_conj, h_conj) in enumerate(attempts):
        pres = _presentation(pair, g_conj, h_conj)
        table = todd_coxeter(pres, max_cosets=max_cosets)
        carrier, gen_map = regular_representation(table)
        try:
            embed_g = _certify_embedding(g, "g", gen_map, table.n)
            embed_h = _certify_embedding(h, "h", gen_map, table.n)
            tensor_map = {
                (a, b): embed_g[a].commutator(embed_h[b])
                for a in range(g.n)
                for b in range(h.n)
            }
            _audit_families(pair, embed_g, embed_h, tensor_map)
        except ConstructionError as err:
            last_error = err
            continue
        tensor_set = _tensor_set_from(tensor_map)
        tensor_subgroup = carrier.subgroup(tensor_set.members)
        return EtaGroup(
            pair=pair,
            presentation=pres,
            table=table,
            carrier=carrier,
            embed_g=embed_g,
            embed_h=embed_h,
            tensor_map=tensor_map,
            tensor_set=tensor_set,
            tensor_subgroup=tensor_subgroup,
        )
    raise ConstructionError(
        f"complete relator set still fails certification: {last_error}"
    )


def trivial_action_baseline(g: TableGroup, h: TableGroup):
    """Expected tensor invariants when both actions are trivial."""
    return z_tensor(g.abelian_invariants(), h.abelian_invariants())


def restricted_tensor_set(
    eta: EtaGroup,
    n_elements: Sequence[int],
    k_elements: Sequence[int],
) -> TensorSet:
    """The tensor set of a pair of subgroups, read off a finished carrier.

    The elements are indices into the pair's groups; iteration order is
    ascending so the member tuple is deterministic.
    """
    sub = {
        (a, b): eta.tensor_map[(a, b)]
        for a in sorted(n_elements)
        for b in sorted(k_elements)
    }
    return _tensor_set_from(sub)


def check_decomposition(eta: EtaGroup) -> dict:
    """Audit the product decomposition of the carrier into tensor, G, H.

    Four facts are checked: the order is the product of the three factor
    orders, the three-fold products cover the carrier without repetition,
    the factors meet pairwise only in the identity along the product chain,
    and the three factors together generate.
    """
    g, h = eta.pair.g, eta.pair.h
    n_eta = eta.carrier.order()
    t_keys = np.fromiter(sorted(eta.tensor_subgroup.orbit0()), dtype=np.int64)
    g_keys = {int(p.images[0]) for p in eta.embed_g}
    h_keys = {int(p.images[0]) for p in eta.embed_h}
    tensor_order = len(t_keys)
    counts_match = n_eta == tensor_order * g.n * h.n
    chunks = []
    tg_keys: set[int] = set()
    for a in range(g.n):
        after_g = eta.embed_g[a].images[t_keys]
        tg_keys.update(int(x) for x in after_g)
        for b in range(h.n):
            chunks.append(eta.embed_h[b].images[after_g])
    products = np.concatenate(chunks)
    covers = len(np.unique(products)) == n_eta
    tensor_meets_g = set(int(x) for x in t_keys) & g_keys
    tg_meets_h = tg_keys & h_keys
    generators = list(eta.tensor_set.members)
    generators += [p for p in eta.embed_g if not p.is_identity()]
    generators += [p for p in eta.embed_h if not p.is_identity()]
    generated = eta.carrier.subgroup(generators).order() == n_eta
    ok = (
        counts_match
        and covers
        and tensor_meets_g == {0}
        and tg_meets_h == {0}
        and generated
    )
    return {
        "ok": bool(ok),
        "order": n_eta,
        "tensor_order": tensor_order,
        "g_order": g.n,
        "h_order": h.n,
        "counts_match": bool(counts_match),
        "covers": bool(covers),
        "generates": bool(generated),
    }
