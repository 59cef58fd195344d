"""Regular carriers and their subgroups, whose elements are points.

Every PermGroup is a regular carrier coming out of coset enumeration, or a
subgroup of one. A carrier acts regularly on its points (the coset table of
the trivial subgroup is the regular action), and a subgroup acts freely on
the orbit of 0, so an element is determined by the point it sends 0 to:
here an element is that point, a plain int.

Products read left to right: mul(p, q) is the point of "p, then q", the
image of p under q's right-multiplication array. A carrier keeps its
generators' columns and a spanning tree of its points; a subgroup keeps the
right-multiplication arrays of the generators that grew its orbit. Scalar
arithmetic walks the tree (an element is the product of the generators on
its tree path), and products and inverses walk the paths of whole arrays of
points at once; conjugation by a fixed element is one int array on points
(conj_map), and a group builds those of its generators once
(conjugations). Membership is one tree lookup, and a homomorphism into a
table group is a labelling of source points by target elements, checked
edge by edge (GroupHom). Groups given by arbitrary permutation generators
are closed into multiplication tables instead (groups.table_from_perms).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .abelian import AbelianInvariants, invariants_from_element_orders
from .errors import (
    CapacityError,
    ConstructionError,
    IllDefinedHomError,
    MembershipError,
)

if TYPE_CHECKING:
    from .groups import TableGroup

__all__ = [
    "PermGroup",
    "GroupHom",
    "normal_closure",
    "derived_subgroup",
    "centralizer_index",
    "hom_kernel",
    "abelian_invariants_of",
]

_ELEMENTS_LIMIT = 10**5


class PermGroup:
    """A regular carrier or a subgroup of one; an element is a point.

    The group keeps a spanning tree of the orbit of 0: the edge of a point
    (generator index, sign, parent) says that it is its parent times that
    generator, or its inverse when the sign is negative. Membership is one
    lookup, and the arithmetic methods (mul, inv, conj, comm) work on
    points of the carrier, whichever of its subgroups they are called on.
    """

    def __init__(self, carrier: "PermGroup"):
        """The trivial subgroup of a carrier; _add_free_generator grows it."""
        self.carrier = carrier
        self.degree = carrier.degree
        self.generators: tuple[int, ...] = ()
        # Tree edges, the orbit in tree order, (slot, right-multiplication
        # array) of each generator that walks it, and conjugations() once built.
        self._tree: dict[int, tuple[int, int, int] | None] = {0: None}
        self._orbit: list[int] = [0]
        self._walks: list[tuple[int, np.ndarray]] = []
        self._conjugations: list[np.ndarray] = []

    # -- constructors ---------------------------------------------------------

    @classmethod
    def regular(
        cls, columns: np.ndarray, tree: dict[int, tuple[int, int, int] | None]
    ) -> "PermGroup":
        """Certified regular carrier of a complete table, given by its columns.

        Row 2i of columns is generator i as an int array on points and row
        2i+1 its inverse. The caller certifies that the generators act
        regularly (the coset enumerator's audited table provides exactly
        that) and hands over a spanning tree of the points rooted at 0, each
        point listed after its parent; slot i of an edge names generator i.
        """
        degree = columns.shape[1]
        if len(tree) != degree:
            raise ConstructionError("regular carrier tree does not span the point set")
        self = cls.__new__(cls)
        self.carrier = self
        self.degree = degree
        self.generators = tuple(int(c[0]) for c in columns[::2])
        self._tree = tree
        self._orbit = [0] + [p for p in tree if p != 0]
        self._walks = list(enumerate(columns[::2]))
        self._conjugations = []
        self._columns = columns
        self._levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None
        self._edges: tuple[np.ndarray, np.ndarray] | None = None
        return self

    def subgroup(self, generators: Iterable[int]) -> "PermGroup":
        """Subgroup generated by the given members of this group.

        A subgroup inherits freeness, so plain orbit BFS builds it; a
        generator already in the orbit so far is left out.
        """
        sub = PermGroup(self.carrier)
        for g in generators:
            g = int(g)
            if not self.contains(g):
                raise MembershipError("subgroup generator is not in the group")
            if g not in sub._tree:
                sub._add_free_generator(g)
        return sub

    def _add_free_generator(self, g: int) -> None:
        """Extend the orbit with one more generator.

        The orbit is closed under the earlier generators, so its points are
        walked with the new one only, and the points it reaches with every
        generator. A generator sending 0 into the orbit is, by freeness,
        already a member: it reaches nothing and is never walked.
        """
        slot = len(self.generators)
        self.generators += (g,)
        if g in self._tree:
            return
        walks = self._walks
        walks.append((slot, self.right(g)))
        tree, orbit = self._tree, self._orbit

        def reach(pt: int, s: int, array: np.ndarray) -> None:
            img = int(array[pt])
            if img not in tree:
                tree[img] = (s, 1, pt)
                orbit.append(img)

        start = len(orbit)
        for pt in orbit[:start]:
            reach(pt, *walks[-1])
        i = start
        while i < len(orbit):
            pt = orbit[i]
            i += 1
            for walk in walks:
                reach(pt, *walk)

    # -- arithmetic on points of the carrier ---------------------------------

    def _path(self, q: int) -> list[int]:
        """The columns of the carrier generators on q's tree path: q is their product."""
        tree = self.carrier._tree
        cols = []
        while tree[q] is not None:
            slot, sign, q = tree[q]
            cols.append(2 * slot + (sign < 0))
        cols.reverse()
        return cols

    def right(self, q: int) -> np.ndarray:
        """Right multiplication by q: the array sending each point p to mul(p, q)."""
        c = self.carrier
        arr = np.arange(c.degree, dtype=np.int32)
        for col in self._path(q):
            arr = c._columns[col][arr]
        return arr

    def mul(self, p: int, q: int) -> int:
        columns = self.carrier._columns
        for col in self._path(q):
            p = int(columns[col, p])
        return p

    def inv(self, p: int) -> int:
        """The inverse: the path to p walked backwards from 0, inverting each step."""
        c = self.carrier
        tree, columns = c._tree, c._columns
        x = 0
        while tree[p] is not None:
            slot, sign, p = tree[p]
            x = int(columns[2 * slot + (sign > 0), x])
        return x

    def conj(self, p: int, c: int) -> int:
        """p^c = c^-1 p c, read as (p^-1 c)^-1 c."""
        return self.mul(self.inv(self.mul(self.inv(p), c)), c)

    def comm(self, p: int, q: int) -> int:
        """[p, q] = p^-1 q^-1 p q, read as (q p)^-1 p q."""
        return self.mul(self.mul(self.inv(self.mul(q, p)), p), q)

    def products(self, p, q) -> np.ndarray:
        """mul over arrays: the points p q, with p and q broadcast together.

        The tree paths of all the q are read upwards at once, and p is then
        walked down them together, one gather per level of the tree each way.
        """
        c = self.carrier
        parent, column = c._tree_arrays()
        p, q = np.broadcast_arrays(np.asarray(p), np.asarray(q))
        steps = []
        for _ in c._tree_by_depth():
            steps.append(column[q])
            q = parent[q]
        for col in reversed(steps):
            p = np.where(col < 0, p, c._columns[col, p])
        return np.array(p)

    def inverses(self, p) -> np.ndarray:
        """inv over an array of points: their tree paths walked backwards at once."""
        c = self.carrier
        parent, column = c._tree_arrays()
        p = np.asarray(p)
        x = np.zeros(p.shape, dtype=np.int32)
        for _ in c._tree_by_depth():
            col = column[p]
            x = np.where(col < 0, x, c._columns[col ^ 1, x])
            p = parent[p]
        return x

    def conj_map(self, c: int) -> np.ndarray:
        """Conjugation by c as an array on points: x -> c^-1 x c."""
        return self.right(c)[self._left(self.inv(c))]

    def conjugations(self) -> list[np.ndarray]:
        """The conj_map of each generator, in order; each is built once."""
        maps = self._conjugations
        maps.extend(self.conj_map(c) for c in self.generators[len(maps):])
        return maps

    def _left(self, a: int) -> np.ndarray:
        """Left multiplication by a, grown down the carrier's tree a level at a time."""
        c = self.carrier
        out = np.empty(c.degree, dtype=np.int32)
        out[0] = a
        for points, cols, parents in c._tree_by_depth():
            out[points] = c._columns[cols, out[parents]]
        return out

    def _tree_by_depth(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The carrier's _tree_levels, built once."""
        if self._levels is None:
            self._levels = _tree_levels(self._tree, self._orbit)
        return self._levels

    def _tree_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Each point's parent in the carrier's tree and its edge's column (-1 at 0), built once."""
        if self._edges is None:
            parent = np.zeros(self.degree, dtype=np.int32)
            column = np.full(self.degree, -1, dtype=np.int32)
            for points, cols, parents in self._tree_by_depth():
                parent[points], column[points] = parents, cols
            self._edges = parent, column
        return self._edges

    # -- queries ---------------------------------------------------------------

    def order(self) -> int:
        return len(self._orbit)

    def is_trivial(self) -> bool:
        return self.order() == 1

    def contains(self, p: int) -> bool:
        return p in self._tree

    def __contains__(self, p: int) -> bool:
        return self.contains(p)

    def orbit0(self) -> tuple[int, ...]:
        """Orbit of point 0 in tree order (the coset ordering for carriers)."""
        return tuple(self._orbit)

    def elements(self) -> list[int]:
        """All elements, in tree order."""
        n = self.order()
        if n > _ELEMENTS_LIMIT:
            raise CapacityError(
                f"refusing to enumerate {n} elements (limit {_ELEMENTS_LIMIT})", count=n
            )
        return list(self._orbit)

    def element_orders(self) -> list[int]:
        """Orders of all elements, each the length of its cycle through 0."""
        orders = []
        for p in self.elements():
            k, x = 1, p
            while x != 0:
                x = self.mul(x, p)
                k += 1
            orders.append(k)
        return orders

    def same_subgroup_as(self, other: "PermGroup") -> bool:
        """Two subgroups of one carrier are equal exactly when their orbits are."""
        return self._tree.keys() == other._tree.keys()

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(
            self.mul(a, b) == self.mul(b, a)
            for i, a in enumerate(gens)
            for b in gens[i + 1:]
        )

    def is_central_in(self, group: "PermGroup") -> bool:
        """Every generator of this group commutes with every generator of group."""
        return all(
            self.mul(m, c) == self.mul(c, m) for m in self.generators for c in group.generators
        )

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order()})"


def _tree_levels(tree, orbit) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(points, columns of their tree edges, parents) for each depth below 0."""
    depth = {0: 0}
    levels: list[list[int]] = []
    for p in orbit[1:]:
        d = depth[p] = depth[tree[p][2]] + 1
        if d > len(levels):
            levels.append([])
        levels[d - 1].append(p)
    out = []
    for points in levels:
        edges = [tree[p] for p in points]
        cols = [2 * slot + (sign < 0) for slot, sign, _ in edges]
        out.append((np.array(points), np.array(cols), np.array([e[2] for e in edges])))
    return out


def normal_closure(group: PermGroup, seeds: Iterable[int]) -> PermGroup:
    """Smallest normal subgroup of `group` containing the seeds."""
    closure = group.subgroup(seeds)
    maps = group.conjugations()
    queue = list(closure.generators)
    for x in queue:
        for m in maps:
            y = int(m[x])
            if not closure.contains(y):
                closure._add_free_generator(y)
                queue.append(y)
    return closure


def derived_subgroup(group: PermGroup) -> PermGroup:
    """Normal closure of all commutators of generator pairs."""
    gens = group.generators
    seeds = {group.comm(a, b) for i, a in enumerate(gens) for b in gens[i + 1:]}
    return normal_closure(group, sorted(seeds))


def centralizer_index(group: PermGroup, x: int) -> int:
    """Index of the centralizer of x, i.e. the size of its conjugacy class.

    The class is the orbit of x under the group's conjugations(), which
    the group builds once for every element asked about.
    """
    if not group.contains(x):
        raise MembershipError("element is not in the group")
    maps = group.conjugations()
    seen = {x}
    queue = [x]
    for y in queue:
        for m in maps:
            z = int(m[y])
            if z not in seen:
                seen.add(z)
                queue.append(z)
    return len(seen)


def abelian_invariants_of(group: PermGroup) -> AbelianInvariants:
    """Invariant factors of the abelianization of the group."""
    derived = derived_subgroup(group)
    if derived.order() == 1:  # abelian: its element orders give the invariants
        return invariants_from_element_orders(group.element_orders())
    quotient_order, rem = divmod(group.order(), derived.order())
    if rem:
        raise ConstructionError("derived subgroup order does not divide group order")
    if quotient_order == 1:
        return AbelianInvariants(())
    if quotient_order > 10**5:
        raise CapacityError(
            "abelianization too large to enumerate", count=quotient_order
        )
    reps = [0]
    rep_inverses = [0]

    def is_new(p: int) -> bool:
        return all(not derived.contains(group.mul(p, r)) for r in rep_inverses)

    for r in reps:
        for g in group.generators:
            y = group.mul(r, g)
            if is_new(y):
                reps.append(y)
                rep_inverses.append(group.inv(y))
    if len(reps) != quotient_order:
        raise ConstructionError("coset enumeration of the abelianization went wrong")
    orders = []
    for r in reps:
        power, k = r, 1
        while not derived.contains(power):
            power = group.mul(power, r)
            k += 1
        orders.append(k)
    return invariants_from_element_orders(orders)


class GroupHom:
    """A homomorphism into a table group, given by generator images and verified.

    The source acts freely on the orbit of point 0, as every PermGroup
    does, so a source element is a point and an image is an element index
    of the target. The assignment is a labelling of source points by target
    elements, grown along the source's spanning tree from label(0) = the
    identity, and it extends to a homomorphism exactly when
    label(p g) == label(p) img(g) holds for every orbit point p and generator
    g. That check is complete: a word trivial in the source walks 0 back to
    0, so its image walks the identity back to the identity. The first
    failing (point, generator index) is raised as IllDefinedHomError's edge.
    """

    def __init__(self, source: PermGroup, target: TableGroup, images: Sequence[int]):
        if len(images) != len(source.generators):
            raise ValueError("need exactly one image per source generator")
        images = tuple(int(img) for img in images)
        for img in images:
            if not 0 <= img < target.n:
                raise MembershipError("generator image is not in the target group")
        self.source = source
        self.target = target
        self.generator_images = images
        table, inverse = target.table.tolist(), target.inverse_table.tolist()
        label = [-1] * source.degree
        label[0] = target.identity
        for pt in source._orbit[1:]:
            slot, sign, parent = source._tree[pt]
            img = images[slot] if sign > 0 else inverse[images[slot]]
            label[pt] = table[label[parent]][img]
        labels = np.asarray(label, dtype=np.int64)
        orbit = np.asarray(source._orbit)
        for i, (g, img) in enumerate(zip(source.generators, images)):
            step = source.right(g)
            bad = np.nonzero(labels[step[orbit]] != target.table[labels[orbit], img])[0]
            if bad.size:
                raise IllDefinedHomError(
                    "generator images do not satisfy the source's relations",
                    edge=(int(orbit[bad[0]]), i),
                )
        self._labels = labels

    def apply(self, p: int) -> int:
        if not self.source.contains(p):
            raise MembershipError("element is not in the source group")
        return int(self._labels[p])

    def image_group(self) -> tuple[int, ...]:
        """The image, as the sorted element indices of a subgroup of the target."""
        return self.target.subgroup_closure(self.generator_images)


def hom_kernel(f: GroupHom) -> PermGroup:
    """Kernel of a verified homomorphism, as a subgroup of the source.

    A source element is in the kernel exactly when its point is labelled
    with the identity, and such a point is added as a generator only when
    it is not yet in the kernel's orbit. Verifies |source| = |kernel| *
    |image| before returning.
    """
    source = f.source
    kern = PermGroup(source.carrier)
    for pt in np.nonzero(f._labels == f.target.identity)[0].tolist():
        if not kern.contains(pt):
            kern._add_free_generator(pt)
    if kern.order() * len(f.image_group()) != source.order():
        raise ConstructionError("kernel/image orders do not multiply to the source order")
    return kern
