"""The nu group of a single group: eta over conjugation, plus its markers.

For a group G, nu(G) is the eta construction applied to the pair (G, G)
with both actions conjugation.  Three distinguished pieces come with it:

  * rho, the homomorphism nu(G) -> G sending both copies of an element to
    the element itself;
  * rho', its restriction to the tensor subgroup, sending [g, h'] to the
    commutator [g, h] in G, whose kernel mu is central in the carrier and
    has the derived subgroup as its quotient;
  * delta, the subgroup generated by the diagonal brackets [g, g'].

Everything is certified at construction time: rho and rho' are each checked
as a labelling of carrier points by points of G's regular action (GroupHom),
mu is generated by the tensor elements whose points rho' labels with the
identity, and mu's centrality is checked generator by generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action import conjugation_pair
from .errors import ConstructionError
from .eta import DEFAULT_MAX_COSETS, EtaGroup, construct_eta
from .groups import TableGroup, regular_permgroup
from .perm import GroupHom, Perm, PermGroup, derived_subgroup, hom_kernel


@dataclass(eq=False)
class NuGroup:
    """nu(G) over a regular carrier, with rho, rho', mu, and delta."""

    group: TableGroup
    eta: EtaGroup
    reg: PermGroup
    reg_perms: tuple[Perm, ...]
    rho: GroupHom
    rho_prime: GroupHom
    mu: PermGroup
    delta: PermGroup

    @property
    def carrier(self) -> PermGroup:
        return self.eta.carrier

    @property
    def tensor_subgroup(self) -> PermGroup:
        return self.eta.tensor_subgroup

    def order(self) -> int:
        return self.eta.order()

    def tensor_order(self) -> int:
        return self.eta.tensor_order()


def construct_nu(group: TableGroup, *, max_cosets: int = DEFAULT_MAX_COSETS) -> NuGroup:
    """Build nu(G) and certify rho, rho', the central mu, and delta."""
    eta = construct_eta(conjugation_pair(group), max_cosets=max_cosets)
    reg, reg_perms = regular_permgroup(group)
    gens = group.generating_subset()
    rho = GroupHom(eta.carrier, reg, [reg_perms[a] for a in gens + gens])

    derived = set(group.derived_indices())
    tensor_gens = eta.tensor_subgroup.generators
    prime_images = []
    for p in tensor_gens:
        a, b = eta.tensor_set.pair_for[int(p.images[0])]
        c = group.comm(a, b)
        if c not in derived:
            raise ConstructionError("a bracket image left the derived subgroup")
        prime_images.append(reg_perms[c])
    rho_prime = GroupHom(eta.tensor_subgroup, reg, prime_images)
    if rho_prime.image_group().order() != len(derived):
        raise ConstructionError(
            "the bracket homomorphism does not cover the derived subgroup"
        )
    mu = hom_kernel(rho_prime)
    for m in mu.generators:
        for c in eta.carrier.generators:
            if m.conj(c) != m:
                raise ConstructionError("kernel of the bracket map is not central")
    diagonal = [eta.tensor_map[(a, a)] for a in group.non_identity()]
    delta = eta.carrier.subgroup(diagonal)
    return NuGroup(
        group=group,
        eta=eta,
        reg=reg,
        reg_perms=reg_perms,
        rho=rho,
        rho_prime=rho_prime,
        mu=mu,
        delta=delta,
    )


def check_derived_decomposition(nu: NuGroup) -> dict:
    """Audit the product form of the derived subgroup of the carrier.

    The derived subgroup must equal the threefold product of the tensor
    subgroup and the two embedded copies of G's derived subgroup: orders
    multiply, the products cover without repetition, and the three factors
    both sit inside and generate it.
    """
    carrier = nu.carrier
    nu_prime = derived_subgroup(carrier)
    derived = nu.group.derived_indices()
    t_keys = np.fromiter(sorted(nu.tensor_subgroup.orbit0()), dtype=np.int64)
    expected = len(t_keys) * len(derived) * len(derived)
    counts_match = nu_prime.order() == expected
    contained = all(nu_prime.contains(p) for p in nu.tensor_subgroup.generators)
    contained = contained and all(
        nu_prime.contains(nu.eta.embed_g[d]) for d in derived if d
    )
    contained = contained and all(
        nu_prime.contains(nu.eta.embed_h[d]) for d in derived if d
    )
    chunks = []
    for a in derived:
        after_g = nu.eta.embed_g[a].images[t_keys]
        for b in derived:
            chunks.append(nu.eta.embed_h[b].images[after_g])
    products = np.concatenate(chunks)
    covers = len(np.unique(products)) == expected
    generators = list(nu.tensor_subgroup.generators)
    generators += [nu.eta.embed_g[d] for d in derived if d]
    generators += [nu.eta.embed_h[d] for d in derived if d]
    regenerated = carrier.subgroup(generators).order() == nu_prime.order()
    ok = counts_match and contained and covers and regenerated
    return {
        "ok": bool(ok),
        "derived_order": nu_prime.order(),
        "tensor_order": len(t_keys),
        "g_derived_order": len(derived),
        "counts_match": bool(counts_match),
        "factors_contained": bool(contained),
        "covers": bool(covers),
        "generates": bool(regenerated),
    }
