"""The nu group of a single group: eta over conjugation, plus its markers.

For a group G, nu(G) is the eta construction applied to the pair (G, G)
with both actions conjugation.  Two distinguished pieces come with it:

  * rho', the homomorphism on the tensor subgroup sending [g, h'] to the
    commutator [g, h] in G, whose kernel mu is central in the carrier and
    has the derived subgroup as its quotient;
  * delta, the subgroup generated by the diagonal brackets [g, g'].

Construction certifies what it builds: rho' is checked as a labelling of
tensor points by elements of G (GroupHom), and mu, generated by the
tensor elements whose points rho' labels with the identity, is checked to
have order |T| / |im rho'| (hom_kernel).  That the image of rho' is G'
and that mu is central are judged as claims, by verify's mu-quotient and
by the checks of `etacalc nu`, so a counterexample is reported, not
raised.  Like every element of the carrier, a tensor or an element of mu
or delta is the point it sends 0 to.
"""

from __future__ import annotations

from dataclasses import dataclass

from .action import conjugation_pair
from .eta import DEFAULT_MAX_COSETS, EtaGroup, construct_eta, product_cover
from .groups import TableGroup
from .perm import GroupHom, PermGroup, derived_subgroup, hom_kernel


@dataclass(eq=False)
class NuGroup:
    """nu(G) over a regular carrier, with rho', mu, and delta."""

    group: TableGroup
    eta: EtaGroup
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
    """Build nu(G) and certify rho' and its kernel mu; mu-quotient judges the rest."""
    eta = construct_eta(conjugation_pair(group), max_cosets=max_cosets)
    pairs = (eta.tensor_set.pair_for[p] for p in eta.tensor_subgroup.generators)
    rho_prime = GroupHom(eta.tensor_subgroup, group, [group.comm(*pair) for pair in pairs])
    mu = hom_kernel(rho_prime)
    diagonal = [eta.tensor(a, a) for a in group.non_identity()]
    delta = eta.carrier.subgroup(diagonal)
    return NuGroup(
        group=group,
        eta=eta,
        rho_prime=rho_prime,
        mu=mu,
        delta=delta,
    )


def check_derived_decomposition(nu: NuGroup) -> dict:
    """Audit the product form of the derived subgroup of the carrier.

    The derived subgroup must equal the threefold product of the tensor
    subgroup and the two embedded copies of G's derived subgroup: orders
    multiply, the products cover without repetition, the three factors
    sit inside it, and T meets G', and T G' meets H', in the identity
    alone (the points they share are listed). That they generate it is
    read off the first three: the products of the contained factors are
    |nu(G)'| distinct points of it.
    """
    nu_prime = derived_subgroup(nu.carrier)
    derived = nu.group.derived_indices()
    tensor_order, g_derived, h_derived, covered, meets = product_cover(nu.eta, derived, derived)
    expected = tensor_order * len(derived) * len(derived)
    counts_match = nu_prime.order() == expected
    factors = [*nu.tensor_subgroup.generators, *g_derived, *h_derived]
    contained = all(nu_prime.contains(p) for p in factors)
    covers = covered == expected
    meets = dict(zip(("tensor_meets_g_derived", "tg_meets_h_derived"), meets))
    generates = counts_match and contained and covers
    return {
        "ok": bool(generates and all(meet == [0] for meet in meets.values())),
        "derived_order": nu_prime.order(),
        "tensor_order": tensor_order,
        "g_derived_order": len(derived),
        "counts_match": bool(counts_match),
        "factors_contained": bool(contained),
        "covers": bool(covers),
        "generates": bool(generates),
        **meets,
    }
