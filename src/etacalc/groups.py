"""Concrete finite groups as multiplication tables, plus stock constructions.

A TableGroup is the packed form every construction in this package starts
from: elements are indices 0..n-1, the table holds products left-to-right
(table[a][b] is a*b), and validation proves the axioms outright (Latin
square, two-sided identity, associativity) rather than trusting the caller.

The builtin registry pins down small named groups with fixed element
orderings and labels, so anything derived from them (presentations, coset
tables, reports) is reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .abelian import AbelianInvariants, invariants_from_element_orders, pi_set
from .errors import CapacityError, DegreeMismatchError
from .fpgroup import audit_blocks

__all__ = [
    "TableGroup",
    "cyclic",
    "dihedral",
    "quaternion8",
    "symmetric3",
    "alternating4",
    "direct_product",
    "builtin",
    "builtin_names",
    "table_from_perms",
    "check_table_size",
]

_VALIDATION_SIZE_LIMIT = 512


def check_table_size(n: int) -> None:
    """Refuse a group of n elements before any table of it is built."""
    if n > _VALIDATION_SIZE_LIMIT:
        raise CapacityError(
            f"table groups above {_VALIDATION_SIZE_LIMIT} elements are not supported",
            count=n,
        )


class TableGroup:
    """A finite group given by its full multiplication table."""

    def __init__(self, table: Sequence[Sequence[int]], labels: Sequence[str] | None = None):
        n = len(table)  # a ragged table cannot become one array: its row lengths come first
        square = n > 0 and all(len(row) == n for row in table)
        arr = np.asarray(table) if square else None  # beyond int64, numpy picks a wider dtype
        if arr is None or arr.shape != (n, n):
            raise ValueError("multiplication table must be square and non-empty")
        check_table_size(n)
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError("table entries must be element indices")
        arr = arr.astype(np.int32)  # narrowed once in range, and a copy the caller does not hold
        ident = np.arange(n, dtype=np.int32)
        # row i is checked before column i, and both before row i + 1
        bad_rows = np.flatnonzero((np.sort(arr, axis=1) != ident).any(axis=1))
        bad_cols = np.flatnonzero((np.sort(arr, axis=0) != ident[:, None]).any(axis=0))
        if bad_rows.size and (not bad_cols.size or bad_rows[0] <= bad_cols[0]):
            raise ValueError(f"row {bad_rows[0]} is not a permutation of the elements")
        if bad_cols.size:
            raise ValueError(f"column {bad_cols[0]} is not a permutation of the elements")
        identities = np.flatnonzero((arr == ident).all(axis=1) & (arr.T == ident).all(axis=1))
        if not identities.size:
            raise ValueError("table has no two-sided identity")
        e = int(identities[0])
        for block in audit_blocks(n, n * n):
            rows = arr[block]
            bad = arr[rows] != rows.take(arr, axis=1)  # (a*b)*c != a*(b*c), at [a, b, c]
            if bad.any():
                a, b, c = np.argwhere(bad)[0]
                raise ValueError(f"associativity fails at ({a + block.start}, {b}, {c})")
        if labels is None:
            labels = tuple("e" if i == e else f"x{i}" for i in range(n))
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n or len(set(labels)) != n:
                raise ValueError("labels must be distinct and match the table size")
        self.table = arr
        self.table.setflags(write=False)
        self.labels = labels
        self.n = n
        self.identity = e
        inv = (arr == e).argmax(axis=1).astype(np.int32)
        inv.setflags(write=False)
        self.inverse_table = inv

    # -- element arithmetic -------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse_table[a])

    def conj(self, a: int, b: int) -> int:
        """a^b = b^-1 a b."""
        return self.mul(self.mul(self.inv(b), a), b)

    def conj_table(self) -> np.ndarray:
        """conj_table()[a, b] = a^b = b^-1 a b, for all a and b at once; read-only."""
        return self._conj_table

    @cached_property
    def _conj_table(self) -> np.ndarray:
        # the table is read-only, so its conjugates are computed once
        b = np.arange(self.n)
        conj = self.table[self.table[self.inverse_table[None, :], b[:, None]], b[None, :]]
        conj.setflags(write=False)
        return conj

    def comm(self, a: int, b: int) -> int:
        """[a, b] = a^-1 b^-1 a b."""
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    def element_order(self, a: int) -> int:
        k = 1
        cur = a
        while cur != self.identity:
            cur = self.mul(cur, a)
            k += 1
        return k

    def elements(self) -> range:
        return range(self.n)

    def non_identity(self) -> list[int]:
        return [i for i in range(self.n) if i != self.identity]

    # -- subgroup machinery ---------------------------------------------------

    def subgroup_closure(self, seed: Iterable[int]) -> tuple[int, ...]:
        members = {self.identity}
        queue = [self.identity]
        gens = sorted(set(int(x) for x in seed))
        for g in gens:
            if not (0 <= g < self.n):
                raise ValueError(f"element index {g} out of range")
        i = 0
        while i < len(queue):
            x = queue[i]
            i += 1
            for g in gens:
                y = self.mul(x, g)
                if y not in members:
                    members.add(y)
                    queue.append(y)
        return tuple(sorted(members))

    def generating_subset(self) -> tuple[int, ...]:
        """Small generating set, chosen greedily over ascending element indices."""
        return self._generating_subset

    @cached_property
    def _generating_subset(self) -> tuple[int, ...]:
        # the table is read-only, so the choice is made once
        gens: list[int] = []
        current = (self.identity,)
        for x in range(self.n):
            if x not in current:
                gens.append(x)
                current = self.subgroup_closure(gens)
                if len(current) == self.n:
                    break
        return tuple(gens)

    def is_subgroup(self, members: Iterable[int]) -> bool:
        mset = set(int(x) for x in members)
        if self.identity not in mset:
            return False
        return all(self.mul(a, b) in mset for a in mset for b in mset)

    def is_normal(self, members: Iterable[int]) -> bool:
        mset = set(int(x) for x in members)
        if not self.is_subgroup(mset):
            return False
        return all(self.conj(a, g) in mset for a in mset for g in range(self.n))

    def derived_indices(self) -> tuple[int, ...]:
        return self._derived_indices

    @cached_property
    def _derived_indices(self) -> tuple[int, ...]:
        # the table is read-only, so G' is closed once
        t, inv = self.table, self.inverse_table
        comms = t[t[inv[:, None], inv[None, :]], t]  # [a, b] = a^-1 b^-1 a b, for all a and b
        return self.subgroup_closure(comms.ravel().tolist())

    def center_indices(self) -> tuple[int, ...]:
        return tuple(
            a
            for a in range(self.n)
            if all(self.mul(a, b) == self.mul(b, a) for b in range(self.n))
        )

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def abelian_invariants(self) -> AbelianInvariants:
        return self._abelian_invariants

    @cached_property
    def _abelian_invariants(self) -> AbelianInvariants:
        # the table is read-only, so G^ab is read once
        derived = set(self.derived_indices())
        reps = sorted(
            {min(self.mul(x, d) for d in derived) for x in range(self.n)}
        )
        orders = []
        for r in reps:
            cur = r
            k = 1
            while cur not in derived:
                cur = self.mul(cur, r)
                k += 1
            orders.append(k)
        return invariants_from_element_orders(orders)

    def pi(self) -> frozenset[int]:
        return pi_set(self.n)

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "labels": list(self.labels),
            "table": [[int(v) for v in row] for row in self.table],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TableGroup":
        return table_group_from_json(data)[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TableGroup):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.table, other.table)

    def __hash__(self) -> int:
        return hash((self.labels, self.table.tobytes()))

    def __repr__(self) -> str:
        return f"TableGroup(order={self.n})"


def is_int_rows(value) -> bool:
    """Whether a JSON value is a list of lists of integers; a bool, float or string is not one."""
    return isinstance(value, list) and all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in value
    )


def table_group_from_json(data: dict) -> tuple[TableGroup, np.ndarray]:
    """A group read from its JSON object, renumbered so its identity is index 0.

    The other elements keep their order. Returns the group and the order:
    order[i] is the index in the JSON table of the element now numbered i.
    """
    if not isinstance(data, dict) or data.get("schema") != 1:
        raise ValueError('expected an object with "schema": 1')
    if not is_int_rows(data.get("table")):
        raise ValueError('"table" must be a list of rows of JSON integers')
    if data.get("labels") is not None and not isinstance(data["labels"], list):
        raise ValueError('"labels" must be a list')
    group = TableGroup(data["table"], data.get("labels"))
    e = group.identity
    order = np.r_[e, np.delete(np.arange(group.n), e)]
    if e:
        pos = np.argsort(order)
        table = pos[group.table[np.ix_(order, order)]]
        group = TableGroup(table, [group.labels[i] for i in order])
    return group, order


# -- stock constructions -----------------------------------------------------------


def cyclic(n: int) -> TableGroup:
    """Cyclic group of order n; element k is g^k, label e, g1, ..."""
    if n < 1:
        raise ValueError("order must be positive")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    labels = ["e"] + [f"g{k}" for k in range(1, n)]
    return TableGroup(table, labels)


def dihedral(order: int) -> TableGroup:
    """Dihedral group of the given (even, >= 4) order.

    Element i < m is the rotation r^i; element m + i is the reflection r^i s.
    """
    if order < 4 or order % 2:
        raise ValueError("dihedral groups here have even order >= 4")
    m = order // 2

    def idx(rot: int, flip: int) -> int:
        return rot % m + (m if flip else 0)

    table = [[0] * order for _ in range(order)]
    for i in range(m):
        for f1 in (0, 1):
            for j in range(m):
                for f2 in (0, 1):
                    # (r^i s^f1)(r^j s^f2): moving s^f1 across r^j flips its sign
                    rot = (i + (j if not f1 else -j)) % m
                    table[idx(i, f1)][idx(j, f2)] = idx(rot, f1 ^ f2)
    labels = (
        ["e"]
        + [f"r{i}" for i in range(1, m)]
        + ["s"]
        + [f"sr{i}" for i in range(1, m)]
    )
    return TableGroup(table, labels)


def quaternion8() -> TableGroup:
    """Quaternion group on the unit labels 1, -1, i, -i, j, -j, k, -k."""
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {
        ("i", "i"): "-1",
        ("j", "j"): "-1",
        ("k", "k"): "-1",
        ("i", "j"): "k",
        ("j", "k"): "i",
        ("k", "i"): "j",
        ("j", "i"): "-k",
        ("k", "j"): "-i",
        ("i", "k"): "-j",
    }

    def mul(a: str, b: str) -> str:
        sign = 1
        if a.startswith("-"):
            sign, a = -sign, a[1:]
        if b.startswith("-"):
            sign, b = -sign, b[1:]
        if a == "1":
            out = b
        elif b == "1":
            out = a
        else:
            out = base[(a, b)]
        if out.startswith("-"):
            sign, out = -sign, out[1:]
        return out if sign > 0 else f"-{out}"

    index = {u: i for i, u in enumerate(units)}
    table = [[index[mul(a, b)] for b in units] for a in units]
    return TableGroup(table, units)


def _perm_label(images: tuple[int, ...]) -> str:
    """Cycle notation of the non-trivial cycles, each from its least point; e if none."""
    seen: set[int] = set()
    cycles = []
    for start in range(len(images)):
        cycle = []
        pt = start
        while pt not in seen:
            seen.add(pt)
            cycle.append(pt)
            pt = images[pt]
        if len(cycle) > 1:
            cycles.append("(" + " ".join(str(x) for x in cycle) + ")")
    return "".join(cycles) or "e"


def _group_of_perms(images_list: list[tuple[int, ...]]) -> TableGroup:
    perms = np.asarray(images_list, dtype=np.int32)
    index = {row.tobytes(): i for i, row in enumerate(perms)}
    # Row a of the table: a*b, that is b after a, for every b at once.
    table = [[index[row.tobytes()] for row in perms[:, a]] for a in perms]
    return TableGroup(table, [_perm_label(imgs) for imgs in images_list])


def symmetric3() -> TableGroup:
    """All permutations of {0,1,2} in lexicographic order of their images."""
    return table_from_perms([[1, 0, 2], [1, 2, 0]])


def alternating4() -> TableGroup:
    """Even permutations of {0,1,2,3} in lexicographic order of their images."""
    return table_from_perms([[1, 2, 0, 3], [0, 2, 3, 1]])


def direct_product(a: TableGroup, b: TableGroup) -> TableGroup:
    """Direct product on lexicographic pairs: index = i_a * |b| + i_b."""
    n, m = a.n, b.n
    table = [
        [
            int(a.table[x // m, y // m]) * m + int(b.table[x % m, y % m])
            for y in range(n * m)
        ]
        for x in range(n * m)
    ]
    labels = [f"({a.labels[x // m]},{b.labels[x % m]})" for x in range(n * m)]
    return TableGroup(table, labels)


def _builtin_factories() -> dict[str, object]:
    factories: dict[str, object] = {}
    for k in range(1, 13):
        factories[f"c{k}"] = (lambda kk: (lambda: cyclic(kk)))(k)
    factories["c2xc2"] = lambda: direct_product(cyclic(2), cyclic(2))
    factories["v4"] = factories["c2xc2"]
    factories["c2xc4"] = lambda: direct_product(cyclic(2), cyclic(4))
    factories["c2xc6"] = lambda: direct_product(cyclic(2), cyclic(6))
    factories["d6"] = lambda: dihedral(6)
    factories["d8"] = lambda: dihedral(8)
    factories["d10"] = lambda: dihedral(10)
    factories["d12"] = lambda: dihedral(12)
    factories["q8"] = quaternion8
    factories["s3"] = symmetric3
    factories["a4"] = alternating4
    return factories


_BUILTINS = _builtin_factories()


def builtin(name: str) -> TableGroup:
    """Named stock group; lookup is case-insensitive."""
    key = name.lower()
    if key not in _BUILTINS:
        raise ValueError(
            f"unknown builtin group {name!r}; known: {', '.join(builtin_names())}"
        )
    return _BUILTINS[key]()


def builtin_names() -> list[str]:
    skip = {"v4"}
    return sorted(k for k in _BUILTINS if k not in skip)


def _images(perm: Sequence[int]) -> list[int]:
    """The image list of a permutation of {0, ..., degree-1}, validated."""
    arr = np.asarray(perm, dtype=np.int32)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("a permutation needs a non-empty 1-d image array")
    if not np.array_equal(np.sort(arr), np.arange(arr.size)):
        raise ValueError("images are not a bijection of the point set")
    return arr.tolist()


def table_from_perms(generators: Sequence[Sequence[int]], degree: int | None = None) -> TableGroup:
    """Multiplication table of the group the permutations generate.

    Each generator is the image list of a permutation of {0, ..., degree-1}
    and is checked to be one. The image tuples are closed breadth-first, and
    a group above the table limit is refused at its first element past the
    limit, before any table is built. The elements are then listed in
    lexicographic order of their image tuples (the identity, the least,
    comes first), so the table does not depend on how the group was
    generated.
    """
    gens = [_images(g) for g in generators]
    if degree is None:
        degree = len(gens[0]) if gens else 1
    if degree < 1:
        raise ValueError("degree must be at least 1")
    for g in gens:
        if len(g) != degree:
            raise DegreeMismatchError(
                f"generator degree {len(g)} does not match group degree {degree}"
            )
    seen = {tuple(range(degree))}
    frontier = list(seen)
    for p in frontier:
        for g in gens:
            q = tuple([g[x] for x in p])
            if q not in seen:
                seen.add(q)
                check_table_size(len(seen))
                frontier.append(q)
    return _group_of_perms(sorted(seen))

