"""Finite permutation groups with stabilizer chains.

Elements are bijections of {0, ..., degree-1} with the fixed left-to-right
composition convention (p*q)(x) = q(p(x)). Groups carry a chain of point
stabilizers with Schreier-tree transversals.

Groups known to act freely on the orbit of point 0 (regular carriers coming
out of coset enumeration, and their subgroups) use a single-level chain:
the stabilizer of a point is trivial, so no Schreier generators need
processing and membership reduces to one transversal lookup and compare.
Such a group's element is determined by the point it sends 0 to, so a
homomorphism between two of them is a labelling of source points by target
points, checked edge by edge (GroupHom).
"""

from __future__ import annotations

from collections import deque
from math import lcm, prod
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
    "group_from_generators",
    "normal_closure",
    "derived_subgroup",
    "centralizer_index",
    "hom_kernel",
    "abelian_invariants_of",
    "DEFAULT_MAX_ORDER",
]

DEFAULT_MAX_ORDER = 10**6

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


class _Level:
    """One stabilizer-chain level: base point, Schreier tree, generator slots.

    The slots name strong generators that fix the bases of every level above
    this one; together they generate this level's stabilizer.
    """

    __slots__ = ("base", "edges", "order", "gen_slots", "pending", "perm_cache")

    def __init__(self, base: int):
        self.base = base
        self.edges: dict[int, tuple[int, int, int] | None] = {base: None}
        self.order: list[int] = [base]
        self.gen_slots: list[int] = []
        self.pending: deque[tuple[int, int]] = deque()
        self.perm_cache: dict[int, Perm] = {}


class PermGroup:
    """A finite permutation group with a stabilizer chain."""

    def __init__(
        self,
        generators: Iterable[Perm],
        *,
        degree: int | None = None,
        max_order: int = DEFAULT_MAX_ORDER,
    ):
        gens = tuple(generators)
        if degree is None:
            if not gens:
                degree = 1
            else:
                degree = gens[0].degree
        if degree < 1:
            raise ValueError("degree must be at least 1")
        for g in gens:
            if g.degree != degree:
                raise DegreeMismatchError(
                    f"generator degree {g.degree} does not match group degree {degree}"
                )
        if max_order < 1:
            raise ValueError("max_order must be at least 1")
        self.degree = degree
        self.generators = gens
        self._max_order = max_order
        self._pool: list[Perm] = []
        self._levels: list[_Level] = []
        self._free0 = False
        self._order: int | None = None
        for g in gens:
            if not g.is_identity():
                self._attach(g)
        self._drain()
        self._order = self._chain_order()

    # -- alternative constructors ------------------------------------------

    @classmethod
    def _regular_from_edges(
        cls,
        generators: Sequence[Perm],
        degree: int,
        edges: dict[int, tuple[int, int, int] | None],
    ) -> "PermGroup":
        """Certified regular group: one free level whose tree is supplied.

        The caller certifies that the generators act regularly (the coset
        enumerator's audited table provides exactly that) and hands over a
        spanning tree of the single orbit rooted at point 0, each point listed
        after its parent; slot i of an edge names generator i.
        """
        self = cls.__new__(cls)
        self.degree = degree
        self.generators = tuple(generators)
        self._max_order = max(DEFAULT_MAX_ORDER, degree)
        self._pool = list(self.generators)
        level = _Level(0)
        level.edges = edges
        level.order = [0] + [p for p in edges if p != 0]
        level.gen_slots = list(range(len(self._pool)))
        self._levels = [level]
        self._free0 = True
        self._order = degree
        if len(edges) != degree:
            raise ConstructionError("regular carrier tree does not span the point set")
        return self

    @classmethod
    def _free_subgroup(
        cls, degree: int, generators: Sequence[Perm], max_order: int
    ) -> "PermGroup":
        """Subgroup of a group acting freely on the orbit of 0.

        A subgroup inherits freeness, so the chain is a single level built by
        plain orbit BFS; Schreier generators are identity by freeness and are
        never formed.
        """
        self = cls.__new__(cls)
        self.degree = degree
        self.generators = ()
        self._max_order = max_order
        self._pool = []
        self._levels = [_Level(0)]
        self._free0 = True
        self._order = 1
        for g in generators:
            self._add_free_generator(g)
        return self

    # -- chain construction -------------------------------------------------

    def _attach(self, perm: Perm, lvl: int = 0) -> int:
        """Put a strong generator on every level from lvl to k; return k.

        perm must fix the bases above lvl; a generator of the whole group
        enters at level 0. k is the first level at or below lvl whose base
        perm moves; when it fixes every base, a new level opens at its first
        moved point. perm lies in the stabilizer of each level from lvl to k,
        so each of their orbits is built with it and each owes its Schreier
        generators. Leaving it off the levels above k would lose orbit points
        there, and with them group order and members.
        """
        slot = len(self._pool)
        self._pool.append(perm)
        while True:
            if lvl == len(self._levels):
                moved = int(np.nonzero(perm.images != np.arange(self.degree))[0][0])
                self._levels.append(_Level(moved))
            level = self._levels[lvl]
            level.gen_slots.append(slot)
            level.pending.extend((pt, slot) for pt in level.order)
            if perm(level.base) != level.base:
                return lvl
            lvl += 1

    def _drain(self) -> None:
        """Process pending orbit/Schreier work, the deepest level first.

        A Schreier generator of level lvl is sifted through the levels below
        it, so those are completed first: a residue installed from lvl lands
        on levels lvl+1 .. k, and the drain moves down to k before it comes
        back up. Shallow-first order sifts against half-built levels, where
        nearly every Schreier generator leaves a residue that becomes one
        more strong generator (tens of thousands on S9).
        """
        lvl = len(self._levels) - 1
        while lvl >= 0:
            level = self._levels[lvl]
            if not level.pending:
                lvl -= 1
                continue
            pt, slot = level.pending.popleft()
            g = self._pool[slot]
            img = int(g.images[pt])
            if img not in level.edges:
                level.edges[img] = (slot, 1, pt)
                level.order.append(img)
                level.pending.extend((img, s) for s in level.gen_slots)
                self._check_capacity()
            u_pt = self._transversal_perm(lvl, pt)
            u_img_inv = self._transversal_perm(lvl, img).inverse()
            schreier = u_pt * g * u_img_inv
            if not schreier.is_identity():
                deepest = self._sift_attach(schreier, lvl + 1)
                if deepest is not None:
                    lvl = deepest

    def _sift_attach(self, perm: Perm, from_level: int) -> int | None:
        """Sift a Schreier generator of level from_level-1; install any residue.

        The residue fixes the bases of every level above the one where the
        sift stopped, so it goes on levels from_level .. k with k that level
        (or a new one). Returns k, or None when the generator sifts to the
        identity.
        """
        lvl = from_level
        r = perm
        while lvl < len(self._levels):
            level = self._levels[lvl]
            img = r(level.base)
            if img == level.base:
                lvl += 1
                continue
            if img in level.edges:
                r = r * self._transversal_perm(lvl, img).inverse()
                if r.is_identity():
                    return None
                lvl += 1
                continue
            break
        if r.is_identity():
            return None
        return self._attach(r, from_level)

    def _add_free_generator(self, perm: Perm) -> None:
        """Extend the single free level with one more generator.

        The orbit is closed under the earlier generators, so its points are
        walked with the new one only, and the points it reaches with every
        generator. A generator sending 0 into the orbit is, by freeness,
        already a member: it reaches nothing and is never walked.
        """
        level = self._levels[0]
        slot = len(self._pool)
        self._pool.append(perm)
        self.generators += (perm,)
        if int(perm.images[0]) in level.edges:
            return
        level.gen_slots.append(slot)
        queue: deque[int] = deque()

        def reach(pt: int, s: int) -> None:
            img = int(self._pool[s].images[pt])
            if img not in level.edges:
                level.edges[img] = (s, 1, pt)
                level.order.append(img)
                queue.append(img)

        for pt in level.order[:]:
            reach(pt, slot)
        while queue:
            pt = queue.popleft()
            for s in level.gen_slots:
                reach(pt, s)
        self._order = len(level.order)

    def _check_capacity(self) -> None:
        if self._chain_order() > self._max_order:
            raise CapacityError(
                "group order exceeded the configured cap",
                count=self._chain_order(),
            )

    def _chain_order(self) -> int:
        return prod(len(level.order) for level in self._levels) if self._levels else 1

    # -- transversals ---------------------------------------------------------

    def _transversal_perm(self, lvl: int, pt: int) -> Perm:
        level = self._levels[lvl]
        cached = level.perm_cache.get(pt)
        if cached is not None:
            return cached
        steps = []
        cur = pt
        while level.edges[cur] is not None:
            if cur in level.perm_cache:
                break
            slot, sign, parent = level.edges[cur]
            steps.append((slot, sign))
            cur = parent
        u = level.perm_cache.get(cur, Perm.identity(self.degree))
        for slot, sign in reversed(steps):
            g = self._pool[slot]
            u = u * (g if sign > 0 else g.inverse())
        if len(level.perm_cache) * self.degree <= _CACHE_BUDGET:
            level.perm_cache[pt] = u
        return u

    # -- queries ---------------------------------------------------------------

    def order(self) -> int:
        if self._order is None:
            self._order = self._chain_order()
        return self._order

    def is_trivial(self) -> bool:
        return self.order() == 1

    def _sift(self, p: Perm) -> Perm:
        """Reduce p through the chain; the residue is the identity for members."""
        r = p
        for lvl, level in enumerate(self._levels):
            img = r(level.base)
            if img == level.base:
                continue
            if img not in level.edges:
                return r
            r = r * self._transversal_perm(lvl, img).inverse()
        return r

    def contains(self, p: Perm) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatchError(
                f"membership of degree {p.degree} element in degree {self.degree} group"
            )
        return self._sift(p).is_identity()

    def __contains__(self, p: Perm) -> bool:
        return self.contains(p)

    def orbit0(self) -> tuple[int, ...]:
        """Orbit of point 0 in BFS order (the coset ordering for carriers)."""
        if self._levels and self._levels[0].base == 0:
            return tuple(self._levels[0].order)
        orbit = [0]
        seen = {0}
        queue = deque(orbit)
        while queue:
            pt = queue.popleft()
            for g in self.generators:
                img = int(g.images[pt])
                if img not in seen:
                    seen.add(img)
                    orbit.append(img)
                    queue.append(img)
        return tuple(orbit)

    def elements(self, limit: int = _ELEMENTS_LIMIT) -> list[Perm]:
        """All elements, deterministically ordered along the chain."""
        n = self.order()
        if n > limit:
            raise CapacityError(
                f"refusing to enumerate {n} elements (limit {limit})", count=n
            )
        result = [Perm.identity(self.degree)]
        for lvl in range(len(self._levels) - 1, -1, -1):
            level = self._levels[lvl]
            if len(level.order) == 1:
                continue
            new = []
            for pt in level.order:
                u = self._transversal_perm(lvl, pt)
                if pt == level.base:
                    new.extend(result)
                else:
                    new.extend(r * u for r in result)
            result = new
        return result

    def element_orders(self) -> list[int]:
        """Orders of all elements; uses point-0 cycle length on free carriers."""
        if self._free0:
            # On a free orbit every cycle of an element has the same length,
            # so the cycle through 0 gives the order.
            orders = []
            for p in self.elements():
                k = 1
                pt = int(p.images[0])
                while pt != 0:
                    pt = int(p.images[pt])
                    k += 1
                orders.append(k)
            return orders
        return [p.order() for p in self.elements()]

    def subgroup(self, generators: Iterable[Perm]) -> "PermGroup":
        """Subgroup generated by the given members of this group."""
        gens = []
        seen = set()
        for g in generators:
            if not self.contains(g):
                raise MembershipError("subgroup generator is not in the group")
            if g.is_identity():
                continue
            key = int(g.images[0]) if self._free0 else g._key()
            if key not in seen:
                seen.add(key)
                gens.append(g)
        if self._free0:
            return PermGroup._free_subgroup(self.degree, gens, self._max_order)
        return PermGroup(gens, degree=self.degree, max_order=self._max_order)

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


def group_from_generators(
    gens: Iterable[Perm],
    *,
    degree: int | None = None,
    max_order: int = DEFAULT_MAX_ORDER,
) -> PermGroup:
    """Group generated by the given permutations (empty list: trivial group)."""
    return PermGroup(gens, degree=degree, max_order=max_order)


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
                if closure._free0:
                    closure._add_free_generator(y)
                else:
                    closure._attach(y)
                    closure._drain()
                    closure._order = closure._chain_order()
                    closure.generators += (y,)
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

    Source and target must both act freely on the orbit of point 0, as every
    enumeration carrier and its subgroups do, so an element of either is
    the point it sends 0 to. The assignment is then a labelling of source
    points by target points, grown along the source's Schreier tree from
    label(0) = 0, and it extends to a homomorphism exactly when
    label(g(p)) == img(g)(label(p)) holds for every orbit point p and
    generator g. That check is complete: a word trivial in the source walks
    0 back to 0, so its image walks label(0) = 0 back to 0 as well and is
    trivial by freeness. The first failing (point, generator index) is
    raised as IllDefinedHomError's edge.
    """

    def __init__(self, source: PermGroup, target: PermGroup, images: Sequence[Perm]):
        if not (source._free0 and target._free0):
            raise ValueError(
                "a homomorphism needs a source and a target acting freely on the orbit of 0"
            )
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
        level = source._levels[0]
        label = np.full(source.degree, -1, dtype=np.int64)
        label[0] = 0
        steps: dict[tuple[int, int], np.ndarray] = {}
        for pt in level.order[1:]:
            slot, sign, parent = level.edges[pt]
            if (slot, sign) not in steps:
                img = self.generator_images[slot]
                steps[(slot, sign)] = (img if sign > 0 else img.inverse()).images
            label[pt] = steps[(slot, sign)][label[parent]]
        orbit = np.asarray(level.order)
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
        return self.target._transversal_perm(0, int(self._labels[p(0)]))

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
    kern = PermGroup._free_subgroup(source.degree, (), source._max_order)
    reached = kern._levels[0].edges
    for pt in np.nonzero(f._labels == 0)[0].tolist():
        if pt not in reached:
            kern._add_free_generator(source._transversal_perm(0, pt))
    if kern.order() * f.image_group().order() != source.order():
        raise ConstructionError("kernel/image orders do not multiply to the source order")
    return kern
