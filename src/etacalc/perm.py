"""Permutations, and the groups that act freely on the orbit of point 0.

Elements are bijections of {0, ..., degree-1} with the fixed left-to-right
composition convention (p*q)(x) = q(p(x)).

Every PermGroup is a regular carrier coming out of coset enumeration (or the
right-regular action of a table group), or a subgroup of one. Such a group
acts freely on the orbit of 0, so its element is determined by the point it
sends 0 to: the group keeps one spanning tree of that orbit, membership is
one tree lookup and one compare, and a homomorphism between two of them is a
labelling of source points by target points, checked edge by edge
(GroupHom). Groups given by arbitrary permutation generators are closed into
multiplication tables instead (groups.table_from_perms).
"""

from __future__ import annotations

from collections import deque
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from .abelian import AbelianInvariants, invariants_from_element_orders
from .errors import (
    CapacityError,
    ConstructionError,
    DegreeMismatchError,
    IllDefinedHomError,
    MembershipError,
)

__all__ = [
    "Perm",
    "PermGroup",
    "GroupHom",
    "compose",
    "normal_closure",
    "derived_subgroup",
    "centralizer_index",
    "hom_kernel",
    "abelian_invariants_of",
]

_ELEMENTS_LIMIT = 10**5
_CACHE_BUDGET = 4_000_000  # cached transversal entries, in total array cells


class Perm:
    """A permutation of {0, ..., degree-1}, immutable."""

    __slots__ = ("images", "_bytes")

    def __init__(self, images, *, _trusted: bool = False):
        arr = np.asarray(images, dtype=np.int32)
        if not _trusted:
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError("a permutation needs a non-empty 1-d image array")
            counts = np.bincount(arr, minlength=arr.size) if arr.min() >= 0 else None
            if counts is None or arr.max() >= arr.size or not np.all(counts == 1):
                raise ValueError("images are not a bijection of the point set")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "images", arr)
        object.__setattr__(self, "_bytes", None)

    @staticmethod
    def identity(degree: int) -> "Perm":
        if degree < 1:
            raise ValueError("degree must be at least 1")
        return Perm(np.arange(degree, dtype=np.int32), _trusted=True)

    @staticmethod
    def from_cycles(degree: int, cycles: Sequence[Sequence[int]]) -> "Perm":
        images = np.arange(degree, dtype=np.int32)
        for cyc in cycles:
            pts = [int(x) for x in cyc]
            if len(set(pts)) != len(pts):
                raise ValueError(f"repeated point in cycle {cyc}")
            for a, b in zip(pts, pts[1:] + pts[:1]):
                if not (0 <= a < degree):
                    raise ValueError(f"point {a} out of range for degree {degree}")
                images[a] = b
        return Perm(images)

    @property
    def degree(self) -> int:
        return int(self.images.size)

    def __call__(self, point: int) -> int:
        return int(self.images[point])

    def __mul__(self, other: "Perm") -> "Perm":
        if self.images.size != other.images.size:
            raise DegreeMismatchError(
                f"cannot compose degree {self.degree} with degree {other.degree}"
            )
        return Perm(other.images[self.images], _trusted=True)

    def inverse(self) -> "Perm":
        inv = np.empty_like(self.images)
        inv[self.images] = np.arange(self.images.size, dtype=np.int32)
        return Perm(inv, _trusted=True)

    def conj(self, by: "Perm") -> "Perm":
        """Conjugate by^-1 * self * by."""
        return by.inverse() * self * by

    def commutator(self, other: "Perm") -> "Perm":
        """[self, other] = self^-1 * other^-1 * self * other."""
        return self.inverse() * other.inverse() * self * other

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.images, np.arange(self.images.size)))

    def order(self) -> int:
        seen = np.zeros(self.images.size, dtype=bool)
        result = 1
        for start in range(self.images.size):
            if seen[start]:
                continue
            length = 0
            pt = start
            while not seen[pt]:
                seen[pt] = True
                pt = int(self.images[pt])
                length += 1
            result = lcm(result, length)
        return result

    def cycles(self) -> list[tuple[int, ...]]:
        """Non-trivial cycles, each starting at its least point."""
        seen = np.zeros(self.images.size, dtype=bool)
        out = []
        for start in range(self.images.size):
            if seen[start]:
                continue
            cyc = []
            pt = start
            while not seen[pt]:
                seen[pt] = True
                cyc.append(pt)
                pt = int(self.images[pt])
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def as_list(self) -> list[int]:
        return [int(x) for x in self.images]

    def _key(self) -> bytes:
        if self._bytes is None:
            object.__setattr__(self, "_bytes", self.images.tobytes())
        return self._bytes

    def __eq__(self, other) -> bool:
        if not isinstance(other, Perm):
            return NotImplemented
        return self.images.size == other.images.size and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return f"Perm.identity({self.degree})"
        body = "".join("(" + " ".join(str(p) for p in c) + ")" for c in cyc)
        return f"Perm[{self.degree}]{body}"

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")


def compose(p: Perm, q: Perm) -> Perm:
    """Left-to-right product: compose(p, q)(x) = q(p(x))."""
    return p * q


class PermGroup:
    """A regular carrier or a subgroup of one, acting freely on the orbit of 0.

    The stabilizer of 0 is trivial, so an element is the point it sends 0
    to. The group keeps a spanning tree of that orbit: the element sending
    0 to p (its transversal element) is the product of generators along the
    tree path to p, and membership is one lookup and one array compare.
    """

    def __init__(self, degree: int):
        """The trivial group on degree points; the constructors below grow it."""
        if degree < 1:
            raise ValueError("degree must be at least 1")
        self.degree = degree
        self.generators: tuple[Perm, ...] = ()
        # Tree edges (generator index, sign, parent), the orbit in tree order,
        # the generators that walk the orbit, and cached transversal elements.
        self._tree: dict[int, tuple[int, int, int] | None] = {0: None}
        self._orbit: list[int] = [0]
        self._slots: list[int] = []
        self._cache: dict[int, Perm] = {}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _regular_from_edges(
        cls,
        generators: Sequence[Perm],
        degree: int,
        edges: dict[int, tuple[int, int, int] | None],
    ) -> "PermGroup":
        """Certified regular group whose spanning tree is supplied.

        The caller certifies that the generators act regularly (the coset
        enumerator's audited table provides exactly that) and hands over a
        spanning tree of the single orbit rooted at point 0, each point listed
        after its parent; slot i of an edge names generator i.
        """
        if len(edges) != degree:
            raise ConstructionError("regular carrier tree does not span the point set")
        self = cls(degree)
        self.generators = tuple(generators)
        self._tree = edges
        self._orbit = [0] + [p for p in edges if p != 0]
        self._slots = list(range(len(self.generators)))
        return self

    @classmethod
    def _free_subgroup(cls, degree: int, generators: Sequence[Perm]) -> "PermGroup":
        """Subgroup generated by members of a group acting freely on the orbit of 0.

        A subgroup inherits freeness, so plain orbit BFS builds it.
        """
        self = cls(degree)
        for g in generators:
            self._add_free_generator(g)
        return self

    def _add_free_generator(self, perm: Perm) -> None:
        """Extend the orbit with one more generator.

        The orbit is closed under the earlier generators, so its points are
        walked with the new one only, and the points it reaches with every
        generator. A generator sending 0 into the orbit is, by freeness,
        already a member: it reaches nothing and is never walked.
        """
        slot = len(self.generators)
        self.generators += (perm,)
        if int(perm.images[0]) in self._tree:
            return
        self._slots.append(slot)
        queue: deque[int] = deque()

        def reach(pt: int, s: int) -> None:
            img = int(self.generators[s].images[pt])
            if img not in self._tree:
                self._tree[img] = (s, 1, pt)
                self._orbit.append(img)
                queue.append(img)

        for pt in self._orbit[:]:
            reach(pt, slot)
        while queue:
            pt = queue.popleft()
            for s in self._slots:
                reach(pt, s)

    def _transversal_perm(self, pt: int) -> Perm:
        """The element sending 0 to the orbit point pt."""
        cached = self._cache.get(pt)
        if cached is not None:
            return cached
        steps = []
        cur = pt
        while self._tree[cur] is not None:
            if cur in self._cache:
                break
            slot, sign, parent = self._tree[cur]
            steps.append((slot, sign))
            cur = parent
        u = self._cache.get(cur, Perm.identity(self.degree))
        for slot, sign in reversed(steps):
            g = self.generators[slot]
            u = u * (g if sign > 0 else g.inverse())
        if len(self._cache) * self.degree <= _CACHE_BUDGET:
            self._cache[pt] = u
        return u

    # -- queries ---------------------------------------------------------------

    def order(self) -> int:
        return len(self._orbit)

    def is_trivial(self) -> bool:
        return self.order() == 1

    def contains(self, p: Perm) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatchError(
                f"membership of degree {p.degree} element in degree {self.degree} group"
            )
        pt = int(p.images[0])
        return pt in self._tree and np.array_equal(
            p.images, self._transversal_perm(pt).images
        )

    def __contains__(self, p: Perm) -> bool:
        return self.contains(p)

    def orbit0(self) -> tuple[int, ...]:
        """Orbit of point 0 in tree order (the coset ordering for carriers)."""
        return tuple(self._orbit)

    def elements(self, limit: int = _ELEMENTS_LIMIT) -> list[Perm]:
        """All elements, in the order of the points they send 0 to."""
        n = self.order()
        if n > limit:
            raise CapacityError(
                f"refusing to enumerate {n} elements (limit {limit})", count=n
            )
        return [self._transversal_perm(pt) for pt in self._orbit]

    def element_orders(self) -> list[int]:
        """Orders of all elements, each the length of its cycle through 0.

        On a free orbit every cycle of an element has the same length.
        """
        orders = []
        for p in self.elements():
            k = 1
            pt = int(p.images[0])
            while pt != 0:
                pt = int(p.images[pt])
                k += 1
            orders.append(k)
        return orders

    def subgroup(self, generators: Iterable[Perm]) -> "PermGroup":
        """Subgroup generated by the given members of this group."""
        gens = []
        seen = set()
        for g in generators:
            if not self.contains(g):
                raise MembershipError("subgroup generator is not in the group")
            if g.is_identity():
                continue
            if int(g.images[0]) not in seen:
                seen.add(int(g.images[0]))
                gens.append(g)
        return PermGroup._free_subgroup(self.degree, gens)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return all(other.contains(g) for g in self.generators)

    def same_subgroup_as(self, other: "PermGroup") -> bool:
        return self.order() == other.order() and self.is_subgroup_of(other)

    def is_abelian(self) -> bool:
        gens = [g for g in self.generators if not g.is_identity()]
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if gens[i] * gens[j] != gens[j] * gens[i]:
                    return False
        return True

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order()})"


def normal_closure(group: PermGroup, seeds: Iterable[Perm]) -> PermGroup:
    """Smallest normal subgroup of `group` containing the seeds."""
    seed_list = list(seeds)
    for s in seed_list:
        if not group.contains(s):
            raise MembershipError("normal closure seed is not in the group")
    closure = group.subgroup(seed_list)
    conjugators = [g for g in group.generators if not g.is_identity()]
    inverses = [g.inverse() for g in conjugators]
    queue = [g for g in closure.generators]
    i = 0
    while i < len(queue):
        x = queue[i]
        i += 1
        for c, cinv in zip(conjugators, inverses):
            y = cinv * x * c
            if not closure.contains(y):
                closure._add_free_generator(y)
                queue.append(y)
    return closure


def derived_subgroup(group: PermGroup) -> PermGroup:
    """Normal closure of all commutators of generator pairs."""
    gens = [g for g in group.generators if not g.is_identity()]
    seeds = []
    seen = set()
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            c = gens[i].commutator(gens[j])
            if not c.is_identity() and c._key() not in seen:
                seen.add(c._key())
                seeds.append(c)
    return normal_closure(group, seeds)


def centralizer_index(
    group: PermGroup, x: Perm, conjugators: Sequence[Perm] | None = None
) -> int:
    """Index of the centralizer of x, i.e. the size of its conjugacy class.

    A custom generating set may be passed as conjugators when the caller
    has a smaller one than group.generators; it must generate the group.
    """
    if not group.contains(x):
        raise MembershipError("element is not in the group")
    if conjugators is None:
        conjugators = group.generators
    conjugators = [g for g in conjugators if not g.is_identity()]
    inverses = [g.inverse() for g in conjugators]
    seen = {x._key()}
    queue = deque([x])
    while queue:
        y = queue.popleft()
        for c, cinv in zip(conjugators, inverses):
            z = cinv * y * c
            if z._key() not in seen:
                seen.add(z._key())
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
    reps = [Perm.identity(group.degree)]

    def rep_index(p: Perm) -> int | None:
        for i, r in enumerate(reps):
            if derived.contains(p * r.inverse()):
                return i
        return None

    gens = [g for g in group.generators if not g.is_identity()]
    i = 0
    while i < len(reps):
        r = reps[i]
        i += 1
        for g in gens:
            y = r * g
            if rep_index(y) is None:
                reps.append(y)
    if len(reps) != quotient_order:
        raise ConstructionError("coset enumeration of the abelianization went wrong")
    orders = []
    for r in reps:
        power = r
        k = 1
        while not derived.contains(power):
            power = power * r
            k += 1
        orders.append(k)
    return invariants_from_element_orders(orders)


class GroupHom:
    """A homomorphism given by generator images, with verified well-definedness.

    Source and target act freely on the orbit of point 0, as every PermGroup
    does, so an element of either is the point it sends 0 to. The assignment
    is then a labelling of source points by target points, grown along the
    source's spanning tree from label(0) = 0, and it extends to a
    homomorphism exactly when label(g(p)) == img(g)(label(p)) holds for
    every orbit point p and generator g. That check is complete: a word
    trivial in the source walks 0 back to 0, so its image walks label(0) = 0
    back to 0 as well and is trivial by freeness. The first failing
    (point, generator index) is raised as IllDefinedHomError's edge.
    """

    def __init__(self, source: PermGroup, target: PermGroup, images: Sequence[Perm]):
        if len(images) != len(source.generators):
            raise ValueError("need exactly one image per source generator")
        for img in images:
            if img.degree != target.degree:
                raise DegreeMismatchError("image degree does not match target degree")
            if not target.contains(img):
                raise MembershipError("generator image is not in the target group")
        self.source = source
        self.target = target
        self.generator_images = tuple(images)
        self._image_group: PermGroup | None = None
        label = np.full(source.degree, -1, dtype=np.int64)
        label[0] = 0
        steps: dict[tuple[int, int], np.ndarray] = {}
        for pt in source._orbit[1:]:
            slot, sign, parent = source._tree[pt]
            if (slot, sign) not in steps:
                img = self.generator_images[slot]
                steps[(slot, sign)] = (img if sign > 0 else img.inverse()).images
            label[pt] = steps[(slot, sign)][label[parent]]
        orbit = np.asarray(source._orbit)
        for i, (g, img) in enumerate(zip(source.generators, self.generator_images)):
            bad = np.nonzero(label[g.images[orbit]] != img.images[label[orbit]])[0]
            if bad.size:
                raise IllDefinedHomError(
                    "generator images do not satisfy the source's relations",
                    edge=(int(orbit[bad[0]]), i),
                )
        self._labels = label

    def apply(self, p: Perm) -> Perm:
        if not self.source.contains(p):
            raise MembershipError("element is not in the source group")
        return self.target._transversal_perm(int(self._labels[p(0)]))

    def image_group(self) -> PermGroup:
        if self._image_group is None:
            gens = [g for g in self.generator_images if not g.is_identity()]
            self._image_group = self.target.subgroup(gens)
        return self._image_group


def hom_kernel(f: GroupHom) -> PermGroup:
    """Kernel of a verified homomorphism, as a subgroup of the source.

    A source element is in the kernel exactly when its point is labelled 0,
    so the transversal elements of those points generate it; one is added
    only when its point is not yet in the kernel's orbit. Verifies
    |source| = |kernel| * |image| before returning.
    """
    source = f.source
    kern = PermGroup(source.degree)
    reached = kern._tree
    for pt in np.nonzero(f._labels == 0)[0].tolist():
        if pt not in reached:
            kern._add_free_generator(source._transversal_perm(pt))
    if kern.order() * f.image_group().order() != source.order():
        raise ConstructionError("kernel/image orders do not multiply to the source order")
    return kern
