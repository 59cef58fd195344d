"""Finitely presented groups: presentations, parsing, coset enumeration.

A Presentation's relators are tuples of coset-table columns: column 2i is
generator i and column 2i + 1 its inverse. Its constructor reduces each
relator freely and drops empty and repeated ones, so the enumerator and the
audit read the relators as they are stored. Presentations built by machine
give the columns directly; text is parsed into them.

The text grammar is `< a, b | a^2, b^3, (a b)^2 >`. Inside relators,
juxtaposition (or `*`) multiplies, `^n` is an integer power, `x^y` with a
non-integer exponent is the conjugate y^-1 x y, `[x, y]` is the commutator
x^-1 y^-1 x y, and `()` is the empty word. `ab` is `a b` and `A` is `a^-1`
unless declared.

Coset enumeration, of the trivial subgroup, is the relator-scanning strategy
with full row filling. Every scan keeps the table's mirror invariant (an
entry and its inverse entry are set and cleared together), which is what
makes coincidence processing able to repair every stale reference by
walking dead rows. Tables are renumbered by breadth-first search from coset
0 over the columns in order before they are returned (bfs_renumber, which
also renumbers tables built by other means), so the numbering depends only
on the group itself, not on the enumeration history.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import CapacityError, ConstructionError, IncompleteTableError, ParseError
from .perm import PermGroup, _first_reached

__all__ = [
    "Presentation",
    "CosetTable",
    "parse_presentation",
    "todd_coxeter",
    "regular_representation",
    "DEFAULT_MAX_COSETS",
]

DEFAULT_MAX_COSETS = 10**6
MAX_WORD_LETTERS = 10**6  # the longest word the parser builds


def _reduce(word: Iterable[int]) -> tuple[int, ...]:
    """Free reduction: cancel each column against a neighbouring inverse column."""
    stack: list[int] = []
    for c in word:
        if stack and stack[-1] == c ^ 1:
            stack.pop()
        else:
            stack.append(c)
    return tuple(stack)


def _inverse(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(c ^ 1 for c in reversed(word))


def _reduced(*parts: tuple[int, ...], times: int = 1) -> tuple[int, ...]:
    """The parts joined, times times over, and reduced; CapacityError above MAX_WORD_LETTERS."""
    letters = sum(map(len, parts)) * times
    if letters > MAX_WORD_LETTERS:
        raise CapacityError(f"a word of {letters} letters is over {MAX_WORD_LETTERS}", count=letters)
    return _reduce(sum(parts, ()) * times)


@dataclass(frozen=True)
class Presentation:
    """Generators and defining relators, each relator a tuple of columns.

    The relators are kept freely reduced, non-empty and distinct, in the
    order of their first occurrence.
    """

    generators: tuple[str, ...]
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("a presentation needs at least one generator")
        ncols = 2 * len(self.generators)
        relators: dict[tuple[int, ...], None] = {}
        for word in self.relators:
            if word and (min(word) < 0 or max(word) >= ncols):
                raise ValueError(f"bad relator columns {word!r}")
            word = _reduce(word)
            if word:
                relators[word] = None
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relators", tuple(relators))


# -- parsing ------------------------------------------------------------------

_TOKEN_KINDS = {
    "<": "LANGLE",
    ">": "RANGLE",
    "|": "PIPE",
    ",": "COMMA",
    "^": "CARET",
    "[": "LBRACK",
    "]": "RBRACK",
    "(": "LPAREN",
    ")": "RPAREN",
    "*": "STAR",
}


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _TOKEN_KINDS:
            tokens.append(_Token(_TOKEN_KINDS[ch], ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("SYM", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("INT", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line=line, column=col)
    tokens.append(_Token("EOF", None, line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind}, found {tok.value!r}", line=tok.line, column=tok.column
            )
        return tok

    def fail(self, message: str) -> None:
        tok = self.peek()
        raise ParseError(message, line=tok.line, column=tok.column)

    def presentation(self) -> Presentation:
        self.expect("LANGLE")
        gens = [self.expect("SYM").value]
        while self.peek().kind == "COMMA":
            self.next()
            gens.append(self.expect("SYM").value)
        self.expect("PIPE")
        known = {name: 2 * i for i, name in enumerate(gens)}
        if len(known) != len(gens):
            self.fail("duplicate generator")
        relators = []
        if self.peek().kind not in ("RANGLE",):
            relators.append(self.word(known))
            while self.peek().kind == "COMMA":
                self.next()
                relators.append(self.word(known))
        self.expect("RANGLE")
        self.expect("EOF")
        return Presentation(tuple(gens), tuple(relators))

    # A word is a reduced tuple of columns; known maps a generator to its column.

    def word(self, known: dict[str, int]) -> tuple[int, ...]:
        result = self.term(known)
        while True:
            kind = self.peek().kind
            if kind == "STAR":
                self.next()
            elif kind not in ("SYM", "LPAREN", "LBRACK"):
                return result
            result = _reduced(result, self.term(known))

    def term(self, known: dict[str, int]) -> tuple[int, ...]:
        value = self.atom(known)
        while self.peek().kind == "CARET":
            self.next()
            tok = self.peek()
            if tok.kind == "INT":
                self.next()
                base = value if tok.value > 0 else _inverse(value)
                value = _reduced(base, times=abs(tok.value))
            elif tok.kind in ("SYM", "LPAREN", "LBRACK"):
                other = self.atom(known)
                value = _reduced(_inverse(other), value, other)
            else:
                self.fail("expected an integer or a word after '^'")
        return value

    def atom(self, known: dict[str, int]) -> tuple[int, ...]:
        tok = self.next()
        if tok.kind == "SYM":
            if tok.value in known:
                return (known[tok.value],)
            # An undeclared name spelled in single-letter generators is their
            # product; an undeclared upper-case letter inverts its lower case.
            letters = []
            for ch in tok.value:
                if ch in known:
                    letters.append(known[ch])
                elif ch.lower() in known:
                    letters.append(known[ch.lower()] ^ 1)
                else:
                    raise ParseError(
                        f"unknown generator {tok.value!r}", line=tok.line, column=tok.column
                    )
            return _reduce(letters)
        if tok.kind == "LPAREN":
            if self.peek().kind == "RPAREN":
                self.next()
                return ()
            inner = self.word(known)
            self.expect("RPAREN")
            return inner
        if tok.kind == "LBRACK":
            left = self.word(known)
            self.expect("COMMA")
            right = self.word(known)
            self.expect("RBRACK")
            return _reduced(_inverse(left), _inverse(right), left, right)
        raise ParseError(
            f"expected a generator, '(' or '[', found {tok.value!r}",
            line=tok.line,
            column=tok.column,
        )


def parse_presentation(text: str) -> Presentation:
    """Parse `< gens | relators >` text into a Presentation."""
    return _Parser(text).presentation()


# -- coset enumeration ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CosetTable:
    """A complete, audited, canonically numbered coset table and its BFS tree."""

    presentation: Presentation
    n: int
    rows: np.ndarray  # (n, ncols) int32: one row per coset, one entry per column
    _tree: tuple = field(repr=False)  # (column, parent, bounds) from bfs_renumber

    @property
    def ncols(self) -> int:
        return 2 * len(self.presentation.generators)


class _Full(Exception):
    pass


class _Enumerator:
    def __init__(self, presentation: Presentation, max_cosets: int):
        self.nc = 2 * len(presentation.generators)
        self.max = max_cosets
        self.tbl = array("i", [-1] * self.nc)
        self.p = array("i", [0])
        self.nrows = 1
        self.alive = 1
        self.relators = presentation.relators

    def rep(self, k: int) -> int:
        p = self.p
        while p[k] != k:
            p[k] = p[p[k]]
            k = p[k]
        return k

    def _merge(self, a: int, b: int, queue: deque) -> None:
        a = self.rep(a)
        b = self.rep(b)
        if a != b:
            lo, hi = (a, b) if a < b else (b, a)
            self.p[hi] = lo
            self.alive -= 1
            queue.append(hi)

    def coincidence(self, a: int, b: int) -> None:
        queue: deque[int] = deque()
        self._merge(a, b, queue)
        tbl, nc = self.tbl, self.nc
        while queue:
            dead = queue.popleft()
            row = dead * nc
            for c in range(nc):
                d = tbl[row + c]
                if d < 0:
                    continue
                # remove the mirror entry pointing back at the dead coset
                tbl[d * nc + (c ^ 1)] = -1
                mu = self.rep(dead)
                nu = self.rep(d)
                e = tbl[mu * nc + c]
                if e >= 0:
                    self._merge(nu, e, queue)
                else:
                    e = tbl[nu * nc + (c ^ 1)]
                    if e >= 0:
                        self._merge(mu, e, queue)
                    else:
                        tbl[mu * nc + c] = nu
                        tbl[nu * nc + (c ^ 1)] = mu

    def define(self, coset: int, col: int) -> int:
        if self.nrows >= self.max:
            raise _Full
        beta = self.nrows
        self.tbl.extend([-1] * self.nc)
        self.p.append(beta)
        self.nrows += 1
        self.alive += 1
        self.tbl[coset * self.nc + col] = beta
        self.tbl[beta * self.nc + (col ^ 1)] = coset
        return beta

    def scan_and_fill(self, alpha: int, cols: tuple[int, ...]) -> None:
        tbl, nc = self.tbl, self.nc
        f = alpha
        i = 0
        b = alpha
        j = len(cols) - 1
        while True:
            while i <= j and tbl[f * nc + cols[i]] >= 0:
                f = tbl[f * nc + cols[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and tbl[b * nc + (cols[j] ^ 1)] >= 0:
                b = tbl[b * nc + (cols[j] ^ 1)]
                j -= 1
            if j < i:
                if f != b:
                    self.coincidence(f, b)
                return
            if j == i:
                tbl[f * nc + cols[i]] = b
                tbl[b * nc + (cols[i] ^ 1)] = f
                return
            self.define(f, cols[i])

    def compact(self, track: int) -> int:
        """Remove dead rows; returns the new index of the tracked live coset."""
        nc = self.nc
        mapping = array("i", [-1] * self.nrows)
        new = 0
        for i in range(self.nrows):
            if self.p[i] == i:
                mapping[i] = new
                new += 1
        fresh = array("i", [-1] * (new * nc))
        for i in range(self.nrows):
            if self.p[i] != i:
                continue
            src = i * nc
            dst = mapping[i] * nc
            for c in range(nc):
                v = self.tbl[src + c]
                if v >= 0:
                    fresh[dst + c] = mapping[self.rep(v)]
        tracked = mapping[self.rep(track)]
        self.tbl = fresh
        self.nrows = new
        self.alive = new
        self.p = array("i", range(new))
        return tracked

    def _room_or_compact(self, alpha: int) -> int:
        if self.alive == self.nrows:
            raise CapacityError(
                f"coset enumeration exceeded {self.max} cosets", count=self.max
            )
        return self.compact(alpha)

    def run(self) -> None:
        alpha = 0
        while alpha < self.nrows:
            if self.p[alpha] != alpha:
                alpha += 1
                continue
            if self.nrows > 4096 and (self.nrows - self.alive) > 0.3 * self.nrows:
                alpha = self.compact(alpha)
            k = 0
            while k < len(self.relators):
                if self.p[alpha] != alpha:
                    break
                try:
                    self.scan_and_fill(alpha, self.relators[k])
                    k += 1
                except _Full:
                    alpha = self._room_or_compact(alpha)
            if self.p[alpha] == alpha:
                row = alpha * self.nc
                for c in range(self.nc):
                    if self.tbl[row + c] < 0:
                        while True:
                            try:
                                self.define(alpha, c)
                                break
                            except _Full:
                                alpha = self._room_or_compact(alpha)
                                row = alpha * self.nc
            alpha += 1

    def finish(self) -> tuple[np.ndarray, tuple]:
        """Compact, then renumber canonically (see bfs_renumber)."""
        self.compact(0)
        flat = np.frombuffer(self.tbl, dtype=np.int32)
        return bfs_renumber(flat.reshape(self.nrows, self.nc))


def bfs_renumber(table: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Renumber a complete (n, ncols) table by BFS from 0 over the columns in order.

    The numbering depends only on the action and its base point 0, not on
    how the table was built. Returns the renumbered (n, ncols) int32 table,
    read-only, as CosetTable holds it, and the BFS tree as
    PermGroup.regular takes it: (column, parent, bounds), the column of
    the edge that first reached each point and that edge's parent, as
    int32 arrays (-1 and 0 at the root), and the level bounds. Points are
    numbered a level at a time, so depth d holds the points bounds[d-1]
    to bounds[d] - 1.

    A whole level is taken at once: its rows, flattened in row-major
    order, list the edges in the order a FIFO queue visits them, so the
    earliest edge to each unvisited point is the one that reaches it.
    """
    n, nc = table.shape
    if table.min() < 0:
        raise IncompleteTableError("enumeration left an undefined entry")
    order = np.full(n, -1, dtype=np.int32)  # old -> new
    order[0] = 0
    first = np.empty(n, dtype=np.int64)  # earliest edge of a level reaching each point
    frontier = np.zeros(1, dtype=np.int32)
    cols, parents, bounds = [np.full(1, -1)], [np.zeros(1, dtype=np.int32)], [1]
    while True:
        reached = table[frontier].ravel()
        fresh = _first_reached(reached, np.flatnonzero(order[reached] < 0), first)
        if not fresh.size:
            break
        cols.append(fresh % nc)
        parents.append(order[frontier[fresh // nc]])
        frontier = reached[fresh]
        order[frontier] = np.arange(bounds[-1], bounds[-1] + frontier.size, dtype=np.int32)
        bounds.append(bounds[-1] + frontier.size)
    if bounds[-1] != n:
        raise IncompleteTableError("coset graph is not connected from coset 0")
    renumbered = np.empty((n, nc), dtype=np.int32)
    renumbered[order] = order[table]
    renumbered.setflags(write=False)
    return renumbered, (np.concatenate(cols).astype(np.int32), np.concatenate(parents), bounds)


def _audit_table(table: CosetTable) -> None:
    # one contiguous array per column: gathers from it run about 3x faster
    # than from a strided column of the row-major table
    cols = table.rows.T.copy()
    idx = np.arange(table.n, dtype=np.int32)
    # inverse-column consistency
    for c in range(table.ncols):
        if not np.array_equal(cols[c ^ 1].take(cols[c]), idx):
            raise ConstructionError("table columns are not mutually inverse")
    for cs in table.presentation.relators:
        v = idx
        for c in cs:
            v = cols[c].take(v)
        if not np.array_equal(v, idx):
            bad = int(np.nonzero(v != idx)[0][0])
            raise ConstructionError(f"relator fails at coset {bad}")


def todd_coxeter(presentation: Presentation, *, max_cosets: int = DEFAULT_MAX_COSETS) -> CosetTable:
    """Enumerate the cosets of the trivial subgroup: the presented group's elements.

    Returns a complete table, renumbered canonically and audited against
    every relator at every coset; raises CapacityError if the enumeration
    needs more than max_cosets simultaneously live-plus-dead cosets even
    after compaction.
    """
    enum = _Enumerator(presentation, max_cosets)
    enum.run()
    rows, tree = enum.finish()
    table = CosetTable(presentation=presentation, n=len(rows), rows=rows, _tree=tree)
    _audit_table(table)
    return table


def regular_representation(rows: np.ndarray, tree: tuple) -> tuple[PermGroup, np.ndarray]:
    """The regular carrier of a complete table, and its columns.

    rows and tree are as bfs_renumber returns them. The caller certifies
    that the table is the regular action of a group on itself, by
    todd_coxeter's relator audit or construct_eta's point chasing; the
    carrier's order is then the number of points. Row 2i of the columns is
    generator i's right-multiplication array on the points and row 2i + 1
    its inverse's; generator i's point is its entry at 0.
    """
    # one contiguous array per column, as _audit_table reads them
    columns = rows.T.copy()
    return PermGroup.regular(columns, tree), columns
