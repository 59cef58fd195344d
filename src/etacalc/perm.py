"""Regular carriers and their subgroups, whose elements are points.

Every PermGroup is a regular carrier, built from the columns of a regular
action, or a subgroup of one: eta's carrier is built from T's enumerated
coset table and the formulas of G and H (eta.construct_eta), and only T
comes out of coset enumeration. A carrier acts regularly on its points,
and a subgroup acts freely on the orbit of 0, so an element is determined
by the point it sends 0 to: here an element is that point, a plain int.

Products read left to right: mul(p, q) is the point of "p, then q", reached
from p down q's tree path. A carrier keeps the numbering its table was
built in, its generators' columns, and the BFS tree it grows over them as
each point's edge column and parent, two int32 arrays (Holt, Eick and
O'Brien's Schreier vector); a subgroup keeps a mask of its points and its
tree's levels. Scalar arithmetic follows the tree (an element is
the product of the generators on its tree path), and products, inverses and
conjugates follow the paths of whole arrays of points at once. Only the
points in question are gathered: a subgroup is grown, and a homomorphism
into a table group (GroupHom, a labelling of source points by target
elements) checked edge by edge, at the group's own points; the classes of
a normal set are read at only its own points (centralizer_index). Groups
given by arbitrary permutation generators are closed into multiplication
tables instead (groups.table_from_perms).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .abelian import AbelianInvariants, invariants_from_element_orders
from .errors import (
    ConstructionError,
    IllDefinedHomError,
    IncompleteTableError,
    InvarianceError,
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


def _first_reached(reached: np.ndarray, candidates: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The candidates (ascending indices into reached) first to reach their point.

    reached lists the points a BFS level's edges reach, in the order a FIFO
    queue visits the edges, and first is scratch space over the points.
    np.minimum.at keeps the least index of a repeated point, where fancy
    assignment would not promise which one.
    """
    points = reached[candidates]
    first[points] = len(reached)
    np.minimum.at(first, points, candidates)
    return candidates[first[points] == candidates]


def _fifo_tree(columns: np.ndarray) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """The FIFO BFS tree from point 0 over the columns in order, on the points as numbered.

    Returns the levels below the root, each its points as the queue reaches
    them, and each point's edge column and parent as int32 arrays (-1 and 0
    at the root). A level's points' entries, point by point and column by
    column, list its edges in the queue's order. Raises IncompleteTableError
    on an undefined entry or on a point the tree does not reach.
    """
    nc, n = columns.shape
    if columns.min(initial=0) < 0:
        raise IncompleteTableError("the table has an undefined entry")
    column = np.full(n, -1, dtype=np.int32)
    parent = np.full(n, -1, dtype=np.int32)  # -1 until the point is reached
    parent[0] = 0
    first = np.empty(n, dtype=np.intp)  # scratch for _first_reached
    frontier, levels = np.zeros(1, dtype=columns.dtype), []
    while True:
        reached = columns[:, frontier].T.ravel()
        fresh = _first_reached(reached, np.flatnonzero(parent[reached] < 0), first)
        if not fresh.size:
            break
        parents = frontier[fresh // nc]
        frontier = reached[fresh]
        column[frontier], parent[frontier] = fresh % nc, parents
        levels.append(frontier)
    if parent.min(initial=0) < 0:
        raise IncompleteTableError("the table is not connected from point 0")
    return levels, column, parent


class PermGroup:
    """A regular carrier or a subgroup of one; an element is a point.

    The group keeps a spanning tree of the orbit of 0 as levels, arrays
    (points, columns, parents) in the order the orbit grew: each point is
    its parent, of an earlier level, times the generator of its edge's
    column (column 2i is generator i, 2i+1 its inverse). Membership is one
    mask lookup, and the arithmetic methods (mul, inv, comm and the array
    forms products, inverses, conjugates) work on points of the carrier,
    whichever of its subgroups they are called on.
    A subgroup owns its generators, the mask and the levels; a carrier also
    owns its columns and tree, and its levels keep only their points.
    """

    def __init__(self, carrier: "PermGroup"):
        """The trivial subgroup of a carrier; _add_free_generator grows it."""
        self.carrier = carrier
        self.degree = carrier.degree
        self.generators: tuple[int, ...] = ()
        self._mask = np.zeros(self.degree, dtype=bool)
        self._mask[0] = True
        self._levels: list[tuple] = []

    # -- constructors ---------------------------------------------------------

    @classmethod
    def regular(cls, columns: np.ndarray) -> "PermGroup":
        """Certified regular carrier of a complete table, given by its columns.

        Row 2i of columns is generator i as an int array on points and row
        2i+1 its inverse. The caller certifies that the generators act
        regularly (todd_coxeter's relator audit, or construct_eta's point
        chasing, provides exactly that). It grows its own tree over the
        points as numbered: _fifo_tree raises IncompleteTableError on an
        undefined entry or an unreached point.
        """
        levels, column, parent = _fifo_tree(columns)
        self = cls.__new__(cls)
        self.carrier = self
        self.degree = columns.shape[1]
        self.generators = tuple(int(c[0]) for c in columns[::2])
        self._mask = np.ones(self.degree, dtype=bool)
        self._levels = [(points, None, None) for points in levels]
        self._columns = columns
        self._column, self._parent = column, parent
        return self

    def subgroup(self, generators: Iterable[int]) -> "PermGroup":
        """Subgroup generated by the given members.

        A subgroup inherits freeness, so plain orbit BFS builds it; a
        generator already in the orbit so far is left out.
        """
        sub = PermGroup(self.carrier)
        for g in self._members(generators):
            sub._add_free_generator(g)
        return sub

    def _members(self, points: Iterable[int]) -> list[int]:
        """The points as ints, each checked to be an element of this group."""
        points = [int(p) for p in points]
        if not all(map(self.contains, points)):
            raise MembershipError("element is not in the group")
        return points

    def _add_free_generator(self, g: int) -> bool:
        """Extend the orbit with g, a level at a time, unless g is a member.

        The group's own points are gathered down each generator's tree path
        (_walk), each path read once: the orbit so far, closed under the old
        generators, takes the new one only, and each new level every
        generator. Each level lists its edges in FIFO queue order, so the
        tree is the queue's. Returns whether g was added: by freeness,
        unless 0 g is in the orbit.
        """
        if self._mask[g]:
            return False
        self.generators += (g,)
        paths = [self._path(x) for x in self.generators]
        cols = np.arange(0, 2 * len(self.generators), 2, dtype=np.int32)
        first = np.empty(self.degree, dtype=np.intp)  # fresh: only the pages it touches count
        frontier, w = self._orbit(), 1  # the orbit so far takes the new generator only
        while True:
            reached = np.empty((frontier.size, w), dtype=np.int32)
            for j, path in enumerate(paths[-w:]):
                reached[:, j] = self._walk(frontier, path)
            reached = reached.ravel()
            fresh = _first_reached(reached, np.nonzero(~self._mask[reached])[0], first)
            if not fresh.size:
                return True
            parents = frontier[fresh // w]
            frontier = reached[fresh]
            self._mask[frontier] = True
            self._levels.append((frontier, cols[-w:][fresh % w], parents))
            w = len(cols)

    # -- arithmetic on points of the carrier ---------------------------------

    def _path(self, q: int) -> list[int]:
        """The columns of the carrier generators on q's tree path: q is their product."""
        c = self.carrier
        cols = []
        while q:
            cols.append(c._column.item(q))
            q = c._parent.item(q)
        cols.reverse()
        return cols

    def _walk(self, points: np.ndarray, path: list[int]) -> np.ndarray:
        """mul over an array of points by one q, given as _path(q): a plain gather per step."""
        columns = self.carrier._columns
        for col in path:
            points = columns[col][points]
        return points

    def mul(self, p: int, q: int) -> int:
        columns = self.carrier._columns
        for col in self._path(q):
            p = columns.item(col, p)
        return p

    def inv(self, p: int) -> int:
        """The inverse: the path to p walked backwards from 0, inverting each step."""
        c = self.carrier
        x = 0
        while p:
            x = c._columns.item(c._column.item(p) ^ 1, x)
            p = c._parent.item(p)
        return x

    def comm(self, p: int, q: int) -> int:
        """[p, q] = p^-1 q^-1 p q, read as (q p)^-1 p q."""
        return self.mul(self.mul(self.inv(self.mul(q, p)), p), q)

    def products(self, p, q) -> np.ndarray:
        """mul over arrays: the points p q, with p and q broadcast together.

        The tree paths of all the q are read upwards at once, and p is then
        walked down them together, one gather per level each way, down to
        the deepest q.
        """
        c = self.carrier
        p, q = np.broadcast_arrays(np.asarray(p), np.asarray(q))
        steps = []
        while q.any():  # until every q has reached the root 0
            steps.append(c._column[q])
            q = c._parent[q]
        for col in reversed(steps):
            p = np.where(col < 0, p, c._columns[col, p])
        return np.array(p)

    def inverses(self, p) -> np.ndarray:
        """inv over an array of points: their tree paths walked backwards at once."""
        c = self.carrier
        p = np.asarray(p)
        x = np.zeros(p.shape, dtype=np.int32)
        while p.any():  # until every p has reached the root 0
            col = c._column[p]
            x = np.where(col < 0, x, c._columns[col ^ 1, x])
            p = c._parent[p]
        return x

    def conjugates(self, p, c) -> np.ndarray:
        """The points p^c = c^-1 p c, with p and c broadcast together."""
        return self.products(self.products(self.inverses(c), p), c)

    def _orbit(self) -> np.ndarray:
        """The orbit of 0 in tree order."""
        return np.concatenate([np.zeros(1, dtype=np.int32), *(p for p, _, _ in self._levels)])

    # -- queries ---------------------------------------------------------------

    def order(self) -> int:
        return int(np.count_nonzero(self._mask))

    def contains(self, p: int) -> bool:
        return 0 <= p < self.degree and bool(self._mask[p])

    def __contains__(self, p: int) -> bool:
        return self.contains(p)

    def orbit0(self) -> tuple[int, ...]:
        """Orbit of point 0 in tree order (the coset ordering for carriers)."""
        return tuple(self._orbit().tolist())

    def elements(self) -> list[int]:
        """All elements, in tree order."""
        return self._orbit().tolist()

    def element_orders(self) -> list[int]:
        """Orders of all elements, in tree order.

        By Lagrange the order of p is the least divisor d of the order n with
        p^d = 0, or n: all elements' d-th powers are taken at once (products of
        two smaller powers) until every order below n is found.
        """
        elements = np.asarray(self.elements())
        n = elements.size
        orders = np.where(elements == 0, 1, n)
        powers = {1: elements}

        def power(k: int) -> np.ndarray:
            if k not in powers:
                powers[k] = self.products(power(k // 2), power(k - k // 2))
            return powers[k]

        for d in range(2, n):
            if n % d == 0 and not (orders < n).all():
                orders[(orders == n) & (power(d) == 0)] = d
        return orders.tolist()

    def same_subgroup_as(self, other: "PermGroup") -> bool:
        """Two subgroups of one carrier are equal exactly when their orbits are."""
        return np.array_equal(self._mask, other._mask)

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


def normal_closure(group: PermGroup, seeds: Iterable[int]) -> PermGroup:
    """Smallest normal subgroup of `group` containing the seeds.

    A FIFO queue of candidates, the seeds first: each one the closure does
    not hold yet is added as a generator and queues its conjugates by the
    group's generators, in order.
    """
    closure = PermGroup(group.carrier)
    queue = group._members(seeds)
    for x in queue:
        if closure._add_free_generator(x):
            queue.extend(group.conjugates(x, group.generators).tolist())
    return closure


def derived_subgroup(group: PermGroup) -> PermGroup:
    """Normal closure of all commutators of generator pairs."""
    gens = group.generators
    seeds = {group.comm(a, b) for i, a in enumerate(gens) for b in gens[i + 1:]}
    return normal_closure(group, sorted(seeds))


def centralizer_index(group: PermGroup, members: Iterable[int]) -> list[int]:
    """Index of each member's centralizer, i.e. the size of its conjugacy class.

    The members must be closed under conjugation by the group's generators,
    as a finite normal subset is; one pass, conjugator outermost, checks
    that and gives the conjugation edges. The first (conjugator, member)
    index whose image leaves the set is raised as InvarianceError's
    witness. The least member index is then carried back along the edges
    until no label falls; a class, strongly connected, is the set of points
    carrying one label.
    """
    members = np.asarray(group._members(members), dtype=np.intp)
    seen = np.sort(members)
    seen = seen[np.diff(seen, prepend=-1) != 0]
    reached = group.conjugates(members, np.asarray(group.generators, dtype=np.intp)[:, None])
    heads = np.minimum(np.searchsorted(seen, reached), seen.size - 1)
    outside = np.argwhere(seen[heads] != reached)
    if outside.size:
        conjugator, member = outside[0].tolist()
        witness = {"conjugator": conjugator, "member": member}
        raise InvarianceError("members are not closed under conjugation", witness=witness)
    at = np.searchsorted(seen, members)
    label = np.full(seen.size, members.size)
    np.minimum.at(label, at, np.arange(members.size))
    heads = heads[:, label]  # each point's edges, read at its first member
    while True:
        moved = np.minimum(label, label[heads].min(axis=0, initial=members.size))
        if np.array_equal(moved, label):
            return np.bincount(label)[label[at]].tolist()
        label = moved


def abelian_invariants_of(group: PermGroup) -> AbelianInvariants | None:
    """Invariant factors of an abelian group, read from its element orders; None if not abelian."""
    if not group.is_abelian():
        return None
    return invariants_from_element_orders(group.element_orders())


class GroupHom:
    """A homomorphism into a table group, given by generator images and verified.

    The source acts freely on the orbit of point 0, as every PermGroup
    does, so a source element is a point and an image is an element index
    of the target. The assignment is a labelling of source points by target
    elements, grown down the source's spanning tree a level at a time from
    label(0) = the identity, and it extends to a homomorphism exactly when
    label(p g) == label(p) img(g) holds for every orbit point p and generator
    g. It is checked at the orbit alone, and that is complete: a word
    trivial in the source takes 0 back to 0, so its image takes the
    identity back to the identity. The first failing (point, generator
    index) is raised as IllDefinedHomError's edge.
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
        # the image of each column: generator i's at 2i, its inverse's at 2i+1
        steps = np.repeat(np.asarray(images, dtype=np.intp), 2)
        steps[1::2] = target.inverse_table[steps[1::2]]
        labels = np.full(source.degree, -1, dtype=np.int32)
        labels[0] = target.identity
        for points, cols, parents in source._levels:
            if cols is None:  # a carrier's level: its edges are its tree's
                cols, parents = source._column[points], source._parent[points]
            labels[points] = target.table[labels[parents], steps[cols]]
        orbit = source._orbit()
        for i, (g, img) in enumerate(zip(source.generators, images)):
            reached = source._walk(orbit, source._path(g))
            bad = np.nonzero(labels[reached] != target.table[labels[orbit], img])[0]
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
    kern = source.subgroup(np.nonzero(f._labels == f.target.identity)[0].tolist())
    if kern.order() * len(f.image_group()) != source.order():
        raise ConstructionError("kernel/image orders do not multiply to the source order")
    return kern
