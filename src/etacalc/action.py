"""Group actions given by lookup tables, with axiom and compatibility audits.

An action of ``A`` on ``X`` is stored as one array with a row per acting
element: row ``a`` is the map ``x -> x^a`` written as indices into ``X``.
Exponents compose on the right, so ``x^(a*b) == (x^a)^b``.

A pair of groups acting on each other is *compatible* when, for all choices
of elements, acting and conjugating interleave:

    g^(h^(g1)) == ((g^(g1^-1))^h)^(g1)
    h^(g^(h1)) == ((h^(h1^-1))^g)^(h1)

with ``x^y = y^-1 x y`` inside a single group.  ``check_compatibility``
tests every triple on both sides and reports each failure; the eta
construction refuses pairs with a nonempty report.  A group's own
conjugation needs neither audit: both equations read ``g^(g1^-1 h g1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IncompatibleActionError, InvalidActionError
from .fpgroup import audit_blocks
from .groups import TableGroup, cyclic, is_int_rows, symmetric3, table_group_from_json

_SCHEMA = 1


@dataclass(frozen=True, eq=False)
class ActionTable:
    """An action's table: ``rows[a, x]`` is the image of ``x`` under ``a``.

    ``rows`` is kept as one read-only ``intp`` array of shape (acting_size,
    acted_size). Construction refuses the first row of the wrong length or
    with an entry out of range, reading a row's length before its entries.
    """

    acting_size: int
    acted_size: int
    rows: np.ndarray

    def __post_init__(self) -> None:
        if self.acting_size < 1 or self.acted_size < 1:
            raise ValueError("action table sizes must be positive")
        if len(self.rows) != self.acting_size:
            raise ValueError(f"expected {self.acting_size} rows, got {len(self.rows)}")
        # a ragged table cannot become one array, so its lengths are read row by row
        lengths = [len(row) for row in self.rows]
        ragged = next((a for a, k in enumerate(lengths) if k != self.acted_size), len(lengths))
        entries = np.asarray(self.rows[:ragged])  # beyond int64, numpy picks a wider dtype
        out = np.argwhere((entries < 0) | (entries >= self.acted_size))
        if out.size:
            a, x = out[0]
            raise ValueError(f"row {a} contains out-of-range entry {self.rows[a][x]}")
        if ragged < len(lengths):
            raise ValueError(
                f"row {ragged} has length {lengths[ragged]}, expected {self.acted_size}"
            )
        rows = entries.astype(np.intp, order="C")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "ActionTable":
        if len(rows) == 0 or len(rows[0]) == 0:
            raise ValueError("action table must have at least one row and column")
        return cls(len(rows), len(rows[0]), rows)

    @classmethod
    def trivial(cls, acting_size: int, acted_size: int) -> "ActionTable":
        return cls(acting_size, acted_size, [range(acted_size)] * acting_size)

    def apply(self, acting: int, acted: int) -> int:
        return int(self.rows[acting, acted])

    def is_trivial(self) -> bool:
        return bool((self.rows == np.arange(self.acted_size)).all())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ActionTable):
            return NotImplemented
        return np.array_equal(self.rows, other.rows)

    def __hash__(self) -> int:
        return hash((self.rows.shape, self.rows.tobytes()))

    def to_json_dict(self) -> dict:
        return {
            "schema": _SCHEMA,
            "acting_size": self.acting_size,
            "acted_size": self.acted_size,
            "rows": self.rows.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ActionTable":
        if not isinstance(data, dict):
            raise ValueError("action table json must be an object")
        if data.get("schema") != _SCHEMA:
            raise ValueError(f"unsupported action table schema: {data.get('schema')!r}")
        if "rows" not in data:
            raise ValueError("action table json needs a 'rows' field")
        if not is_int_rows(data["rows"]):
            raise ValueError("action table rows must be lists of JSON integers")
        table = cls.from_rows(data["rows"])
        for key in ("acting_size", "acted_size"):
            if key in data and data[key] != getattr(table, key):
                raise ValueError(f"declared {key} disagrees with the rows")
        return table


def _spots(bad: np.ndarray) -> list[list[int]]:
    """The indices of bad's true entries in C order: those of a loop over its axes."""
    return np.argwhere(bad).tolist() if bad.any() else []


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
    for (a,) in _spots((np.sort(rows, axis=1) != np.arange(acted.n)).any(axis=1)):
        report.append(
            {
                "axiom": "row-bijection",
                "acting": a,
                "acting_label": acting.labels[a],
                "row": rows[a].tolist(),
            }
        )
    identity_row = rows[acting.identity]
    for (x,) in _spots(identity_row != np.arange(acted.n)):
        report.append(
            {
                "axiom": "identity-row",
                "acted": x,
                "acted_label": acted.labels[x],
                "image": int(identity_row[x]),
            }
        )
    # Each axiom is one broadcast over its triples, in blocks of acting
    # elements; np.argwhere lists failures in the order of a loop over them.
    mul = acted.table
    for block in audit_blocks(acting.n, acted.n * acted.n):
        images = rows[block]
        lhs = images[:, mul]  # lhs[a, x, y] = (x y)^a
        rhs = mul.ravel().take(images[:, :, None] * acted.n + images[:, None, :])  # x^a y^a
        for a, x, y in _spots(lhs != rhs):
            report.append(
                {
                    "axiom": "row-homomorphism",
                    "acting": a + block.start,
                    "acting_label": acting.labels[a + block.start],
                    "left": x,
                    "right": y,
                    "lhs": int(lhs[a, x, y]),
                    "rhs": int(rhs[a, x, y]),
                }
            )
    for block in audit_blocks(acting.n, acting.n * acted.n):
        # gathered along [b, a, x], where both sides are gathers of whole rows
        lhs = rows[acting.table[block].T].transpose(1, 0, 2)  # lhs[a, b, x] = x^(a b)
        rhs = rows[:, rows[block]].transpose(1, 0, 2)  # rhs[a, b, x] = (x^a)^b
        for a, b, x in _spots(lhs != rhs):
            report.append(
                {
                    "axiom": "composition",
                    "first": a + block.start,
                    "second": b,
                    "acted": x,
                    "lhs": int(lhs[a, b, x]),
                    "rhs": int(rhs[a, b, x]),
                }
            )
    return report


@dataclass(frozen=True)
class ActionPair:
    """Two groups with mutual actions, audited on construction.

    ``g_on_h.rows[a, y]`` is ``y^a`` for ``a`` in ``g`` and ``y`` in ``h``, and
    ``h_on_g.rows[b, x]`` is ``x^b`` for ``b`` in ``h`` and ``x`` in ``g``.
    Both tables must pass ``validate_action``, a group's own conjugation
    excepted; compatibility is a separate, explicit check.
    """

    g: TableGroup
    h: TableGroup
    g_on_h: ActionTable
    h_on_g: ActionTable

    def __post_init__(self) -> None:
        if self.is_conjugation():
            return
        found = validate_action(self.g_on_h, acted=self.h, acting=self.g)
        report = [{**entry, "table": "g_on_h"} for entry in found]
        found = validate_action(self.h_on_g, acted=self.g, acting=self.h)
        report += [{**entry, "table": "h_on_g"} for entry in found]
        if report:
            raise InvalidActionError(
                f"{len(report)} action axiom violation(s)", report=report
            )

    def is_conjugation(self) -> bool:
        if self.g is not self.h and self.g != self.h:
            return False
        conj = self.g.conj_table().T  # conj[a, x] = x^a
        return bool(
            np.array_equal(self.g_on_h.rows, conj) and np.array_equal(self.h_on_g.rows, conj)
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
    table = ActionTable(group.n, group.n, group.conj_table().T)
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

    g, g_order = table_group_from_json(data["g"])
    h, h_order = table_group_from_json(data["h"])

    def renumbered(table_data: dict, acting: np.ndarray, acted: np.ndarray) -> ActionTable:
        """The action on the groups' new numbering, one gather from the JSON rows."""
        table = ActionTable.from_json_dict(table_data)
        if table.rows.shape != (acting.size, acted.size):
            return table  # validate_action refuses it by its sizes
        return ActionTable.from_rows(np.argsort(acted)[table.rows[np.ix_(acting, acted)]])

    g_on_h = renumbered(data["g_on_h"], g_order, h_order)
    h_on_g = renumbered(data["h_on_g"], h_order, g_order)
    return ActionPair(g, h, g_on_h, h_on_g)


def check_compatibility(pair: ActionPair) -> list[dict]:
    """Test both compatibility equations on every triple; report failures.

    Family 1 runs over (g, g1, h) and compares g^(h^(g1)) with
    ((g^(g1^-1))^h)^(g1); family 2 is the mirror over (h, h1, g).  Each
    failing triple is recorded with both side values, so an empty list is
    a proof of compatibility for these tables.
    """
    g, h = pair.g, pair.h
    goh, hog = pair.g_on_h.rows, pair.h_on_g.rows
    failures: list[dict] = []
    # family 2 is family 1 with the roles of G and H, and of their names, swapped
    sides = ((g, "g", h, "h", hog, goh), (h, "h", g, "g", goh, hog))
    for family, (a, x, b, y, b_on_a, a_on_b) in enumerate(sides, 1):
        for aa, a1, bb, lhs, rhs in _compat_failures(a, b, b_on_a, a_on_b):
            failures.append(
                {
                    "family": family,
                    x: aa,
                    f"{x}1": a1,
                    y: bb,
                    f"{x}_label": a.labels[aa],
                    f"{x}1_label": a.labels[a1],
                    f"{y}_label": b.labels[bb],
                    "lhs": lhs,
                    "rhs": rhs,
                    "lhs_label": a.labels[lhs],
                    "rhs_label": a.labels[rhs],
                }
            )
    return failures


def _compat_failures(g: TableGroup, h: TableGroup, h_on_g, g_on_h):
    """Failing (g, g1, h, lhs, rhs) of g^(h^(g1)) == ((g^(g1^-1))^h)^(g1).

    The two actions are int arrays indexed [acting, acted]. All triples are
    compared in one broadcast over [g, g1, h], in blocks of g, so they come
    out in the order of a loop over g, then g1, then h.
    """
    twisted = g.conj_table()[:, g.inverse_table]  # twisted[g, g1] = g^(g1^-1)
    conj = g.conj_table().T.ravel()  # conj[g1 |G| + x] = x^(g1)
    by_g = np.ascontiguousarray(h_on_g.T)  # by_g[g, h] = g^h
    shift = np.arange(g.n)[:, None] * g.n  # g1 |G|, along the g1 axis
    for block in audit_blocks(g.n, g.n * h.n):
        lhs = by_g[block][:, g_on_h]  # lhs[g, g1, h] = g^(h^(g1))
        rhs = conj.take(by_g[twisted[block]] + shift)  # ((g^(g1^-1))^h)^(g1)
        for a, a1, b in _spots(lhs != rhs):
            yield a + block.start, a1, b, int(lhs[a, a1, b]), int(rhs[a, a1, b])


def compatibility_triples(pair: ActionPair) -> int:
    """How many triples check_compatibility tests: |G|^2 |H| + |H|^2 |G|."""
    g, h = pair.g.n, pair.h.n
    return g * g * h + h * h * g


def require_compatible(pair: ActionPair) -> None:
    """Refuse a pair that check_compatibility fails; a group's own conjugation is compatible."""
    failures = [] if pair.is_conjugation() else check_compatibility(pair)
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
