"""Group actions given by lookup tables, with axiom and compatibility audits.

An action of ``A`` on ``X`` is stored as one row per acting element: row ``a``
is the map ``x -> x^a`` written as a tuple of indices into ``X``.  Exponents
compose on the right, so ``x^(a*b) == (x^a)^b``.

A pair of groups acting on each other is *compatible* when, for all choices
of elements, acting and conjugating interleave:

    g^(h^(g1)) == ((g^(g1^-1))^h)^(g1)
    h^(g^(h1)) == ((h^(h1^-1))^g)^(h1)

with ``x^y = y^-1 x y`` inside a single group.  ``check_compatibility``
tests every triple on both sides and reports each failure; the eta
construction refuses pairs with a nonempty report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IncompatibleActionError, InvalidActionError
from .groups import TableGroup

_SCHEMA = 1


@dataclass(frozen=True)
class ActionTable:
    """Rows of an action: ``rows[a][x]`` is the image of ``x`` under ``a``."""

    acting_size: int
    acted_size: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.acting_size < 1 or self.acted_size < 1:
            raise ValueError("action table sizes must be positive")
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != self.acting_size:
            raise ValueError(
                f"expected {self.acting_size} rows, got {len(rows)}"
            )
        for a, row in enumerate(rows):
            if len(row) != self.acted_size:
                raise ValueError(
                    f"row {a} has length {len(row)}, expected {self.acted_size}"
                )
            for x in row:
                if not 0 <= x < self.acted_size:
                    raise ValueError(f"row {a} contains out-of-range entry {x}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "ActionTable":
        rows = tuple(tuple(row) for row in rows)
        if not rows or not rows[0]:
            raise ValueError("action table must have at least one row and column")
        return cls(len(rows), len(rows[0]), rows)

    @classmethod
    def trivial(cls, acting_size: int, acted_size: int) -> "ActionTable":
        row = tuple(range(acted_size))
        return cls(acting_size, acted_size, tuple(row for _ in range(acting_size)))

    def apply(self, acting: int, acted: int) -> int:
        return self.rows[acting][acted]

    def is_trivial(self) -> bool:
        row = tuple(range(self.acted_size))
        return all(r == row for r in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "schema": _SCHEMA,
            "acting_size": self.acting_size,
            "acted_size": self.acted_size,
            "rows": [list(row) for row in self.rows],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ActionTable":
        if not isinstance(data, dict):
            raise ValueError("action table json must be an object")
        if data.get("schema") != _SCHEMA:
            raise ValueError(f"unsupported action table schema: {data.get('schema')!r}")
        if "rows" not in data:
            raise ValueError("action table json needs a 'rows' field")
        table = cls.from_rows(data["rows"])
        for key in ("acting_size", "acted_size"):
            if key in data and data[key] != getattr(table, key):
                raise ValueError(f"declared {key} disagrees with the rows")
        return table


def validate_action(action: ActionTable, acted: TableGroup, acting: TableGroup) -> list[dict]:
    """Audit the action axioms, returning one record per violated instance.

    Four axioms are checked: each row permutes the acted set, the identity
    row fixes everything, each row respects the acted multiplication, and
    rows compose the way acting products do.  An empty report means the
    table is an action by automorphisms.
    """
    if action.acting_size != acting.n:
        raise ValueError(
            f"action has {action.acting_size} rows but the acting group has order {acting.n}"
        )
    if action.acted_size != acted.n:
        raise ValueError(
            f"action rows have length {action.acted_size} but the acted group has order {acted.n}"
        )
    report: list[dict] = []
    rows = action.rows
    full = list(range(acted.n))
    for a, row in enumerate(rows):
        if sorted(row) != full:
            report.append(
                {
                    "axiom": "row-bijection",
                    "acting": a,
                    "acting_label": acting.labels[a],
                    "row": list(row),
                }
            )
    e = acting.identity
    for x in range(acted.n):
        if rows[e][x] != x:
            report.append(
                {
                    "axiom": "identity-row",
                    "acted": x,
                    "acted_label": acted.labels[x],
                    "image": rows[e][x],
                }
            )
    # One acting element at a time, so each comparison is |X|^2 or |A| |X|.
    arr = np.asarray(rows, dtype=np.intp)
    mul = acted.table
    for a in range(acting.n):
        row = arr[a]
        lhs = row[mul]  # lhs[x, y] = (x y)^a
        rhs = mul[row[:, None], row[None, :]]  # rhs[x, y] = x^a y^a
        for x, y in np.argwhere(lhs != rhs):
            report.append(
                {
                    "axiom": "row-homomorphism",
                    "acting": a,
                    "acting_label": acting.labels[a],
                    "left": int(x),
                    "right": int(y),
                    "lhs": int(lhs[x, y]),
                    "rhs": int(rhs[x, y]),
                }
            )
    for a in range(acting.n):
        lhs = arr[acting.table[a]]  # lhs[b, x] = x^(a b)
        rhs = arr[:, arr[a]]  # rhs[b, x] = (x^a)^b
        for b, x in np.argwhere(lhs != rhs):
            report.append(
                {
                    "axiom": "composition",
                    "first": a,
                    "second": int(b),
                    "acted": int(x),
                    "lhs": int(lhs[b, x]),
                    "rhs": int(rhs[b, x]),
                }
            )
    return report


@dataclass(frozen=True)
class ActionPair:
    """Two groups with mutual actions, audited on construction.

    ``g_on_h.rows[a]`` is the map ``h -> h^a`` for ``a`` in ``g``, and
    ``h_on_g.rows[b]`` is ``g -> g^b`` for ``b`` in ``h``.  Both tables must
    pass ``validate_action``; compatibility is a separate, explicit check.
    """

    g: TableGroup
    h: TableGroup
    g_on_h: ActionTable
    h_on_g: ActionTable

    def __post_init__(self) -> None:
        report = []
        for entry in validate_action(self.g_on_h, acted=self.h, acting=self.g):
            entry["table"] = "g_on_h"
            report.append(entry)
        for entry in validate_action(self.h_on_g, acted=self.g, acting=self.h):
            entry["table"] = "h_on_g"
            report.append(entry)
        if report:
            raise InvalidActionError(
                f"{len(report)} action axiom violation(s)", report=report
            )

    def is_conjugation(self) -> bool:
        if self.g is not self.h and self.g != self.h:
            return False
        t = self.g
        return all(
            self.g_on_h.rows[a][x] == t.conj(x, a)
            and self.h_on_g.rows[a][x] == t.conj(x, a)
            for a in range(t.n)
            for x in range(t.n)
        )

    def to_json_dict(self) -> dict:
        return {
            "schema": _SCHEMA,
            "g": self.g.to_json_dict(),
            "h": self.h.to_json_dict(),
            "g_on_h": self.g_on_h.to_json_dict(),
            "h_on_g": self.h_on_g.to_json_dict(),
        }


def conjugation_pair(group: TableGroup) -> ActionPair:
    """The pair (G, G) where both actions are conjugation inside G."""
    rows = tuple(
        tuple(group.conj(x, a) for x in range(group.n)) for a in range(group.n)
    )
    table = ActionTable(group.n, group.n, rows)
    return ActionPair(group, group, table, table)


def trivial_pair(g: TableGroup, h: TableGroup) -> ActionPair:
    """The pair (G, H) where each group fixes the other pointwise."""
    return ActionPair(
        g,
        h,
        ActionTable.trivial(g.n, h.n),
        ActionTable.trivial(h.n, g.n),
    )


def pair_from_json_dict(data: dict) -> ActionPair:
    if not isinstance(data, dict):
        raise ValueError("pair json must be an object")
    if data.get("schema") != _SCHEMA:
        raise ValueError(f"unsupported pair schema: {data.get('schema')!r}")
    for key in ("g", "h", "g_on_h", "h_on_g"):
        if key not in data:
            raise ValueError(f"pair json needs a '{key}' field")

    def normalized(group_data: dict) -> tuple[TableGroup, list[int]]:
        group = TableGroup.from_json_dict(group_data)
        raw = [list(row) for row in group_data["table"]]
        e = next(
            a
            for a in range(len(raw))
            if all(raw[a][x] == x and raw[x][a] == x for x in range(len(raw)))
        )
        order = [e] + [i for i in range(len(raw)) if i != e]
        pos = [0] * len(raw)
        for new, old in enumerate(order):
            pos[old] = new
        return group, pos

    g, pos_g = normalized(data["g"])
    h, pos_h = normalized(data["h"])

    def remap(table: ActionTable, pos_acting: list[int], pos_acted: list[int]) -> ActionTable:
        rows = [[0] * table.acted_size for _ in range(table.acting_size)]
        for a, row in enumerate(table.rows):
            for x, y in enumerate(row):
                rows[pos_acting[a]][pos_acted[x]] = pos_acted[y]
        return ActionTable.from_rows(rows)

    g_on_h = remap(ActionTable.from_json_dict(data["g_on_h"]), pos_g, pos_h)
    h_on_g = remap(ActionTable.from_json_dict(data["h_on_g"]), pos_h, pos_g)
    return ActionPair(g, h, g_on_h, h_on_g)


def check_compatibility(pair: ActionPair) -> list[dict]:
    """Test both compatibility equations on every triple; report failures.

    Family 1 runs over (g, g1, h) and compares g^(h^(g1)) with
    ((g^(g1^-1))^h)^(g1); family 2 is the mirror over (h, h1, g).  Each
    failing triple is recorded with both side values, so an empty list is
    a proof of compatibility for these tables.
    """
    g, h = pair.g, pair.h
    goh = np.asarray(pair.g_on_h.rows, dtype=np.intp)
    hog = np.asarray(pair.h_on_g.rows, dtype=np.intp)
    failures: list[dict] = []
    # Family 1 one g at a time: arrays are indexed [g1, h].
    for gg, g1, hh, lhs, rhs in _compat_failures(g, h, hog, goh):
        failures.append(
            {
                "family": 1,
                "g": gg,
                "g1": g1,
                "h": hh,
                "g_label": g.labels[gg],
                "g1_label": g.labels[g1],
                "h_label": h.labels[hh],
                "lhs": lhs,
                "rhs": rhs,
                "lhs_label": g.labels[lhs],
                "rhs_label": g.labels[rhs],
            }
        )
    # Family 2 is the mirror, one h at a time over [h1, g].
    for hh, h1, gg, lhs, rhs in _compat_failures(h, g, goh, hog):
        failures.append(
            {
                "family": 2,
                "h": hh,
                "h1": h1,
                "g": gg,
                "h_label": h.labels[hh],
                "h1_label": h.labels[h1],
                "g_label": g.labels[gg],
                "lhs": lhs,
                "rhs": rhs,
                "lhs_label": h.labels[lhs],
                "rhs_label": h.labels[rhs],
            }
        )
    return failures


def _compat_failures(g: TableGroup, h: TableGroup, h_on_g, g_on_h):
    """Failing (g, g1, h, lhs, rhs) of g^(h^(g1)) == ((g^(g1^-1))^h)^(g1).

    The two actions are int arrays indexed [acting, acted].  Triples come
    out in the order of a loop over g, then g1, then h.
    """
    mul, inv = g.table, g.inverse_table
    column = np.arange(g.n)[:, None]
    for gg in range(g.n):
        twisted = mul[mul[:, gg], inv]  # twisted[g1] = g^(g1^-1) = g1 g g1^-1
        lhs = h_on_g[:, gg][g_on_h]  # lhs[g1, h] = g^(h^(g1))
        acted = h_on_g[:, twisted].T  # acted[g1, h] = (g^(g1^-1))^h
        rhs = mul[mul[inv[:, None], acted], column]  # conjugated by g1
        for g1, hh in np.argwhere(lhs != rhs):
            yield gg, int(g1), int(hh), int(lhs[g1, hh]), int(rhs[g1, hh])


def compatibility_triples(pair: ActionPair) -> int:
    """How many triples check_compatibility tests: |G|^2 |H| + |H|^2 |G|."""
    g, h = pair.g.n, pair.h.n
    return g * g * h + h * h * g


def require_compatible(pair: ActionPair) -> None:
    failures = check_compatibility(pair)
    if failures:
        first = failures[0]
        raise IncompatibleActionError(
            f"{len(failures)} compatibility failure(s), first in family {first['family']}",
            report=failures,
        )


def incompatible_example() -> ActionPair:
    """A pair of honest actions that fails the compatibility equations.

    The two-element group acts on the symmetric group of degree three by
    conjugation with a fixed transposition, while the reverse action is
    trivial.  Both tables pass every action axiom, but the first family
    fails at each conjugator that does not commute with the transposition.
    """
    from .groups import cyclic, symmetric3

    s3 = symmetric3()
    c2 = cyclic(2)
    t = next(a for a in s3.elements() if s3.element_order(a) == 2)
    h_on_g = ActionTable.from_rows(
        [
            list(range(s3.n)),
            [s3.conj(x, t) for x in range(s3.n)],
        ]
    )
    return ActionPair(s3, c2, ActionTable.trivial(s3.n, c2.n), h_on_g)
