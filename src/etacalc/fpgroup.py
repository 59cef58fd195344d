"""Finitely presented groups: presentations, parsing, coset enumeration.

A Presentation's relators are tuples of coset-table columns: column 2i is
generator i and column 2i + 1 its inverse. The enumerator and the audit
read them as stored, laid out once per presentation (letter_positions).
Code gives them freely reduced, non-empty and distinct, and the parser
makes the words of text so.

The text grammar is `< a, b | a^2, b^3, (a b)^2 >`. Inside relators,
juxtaposition (or `*`) multiplies, `^n` is an integer power, `x^y` with a
non-integer exponent is the conjugate y^-1 x y, `[x, y]` is the commutator
x^-1 y^-1 x y, and `()` is the empty word. `ab` is `a b` and `A` is `a^-1`
unless declared.

Coset enumeration, of the trivial subgroup, is HLT: the relator-scanning
strategy with full row filling (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, ch. 5). On presentations with many relators,
each coset is first prechecked in numpy for the relators whose walk from it
already closes, and only the others are scanned. A closed walk stays closed
as the table grows and cosets merge, so each skipped scan would have been
a no-op: the enumeration is HLT's step for step, with the same definitions,
coincidences, compactions and capacity errors. Every scan keeps the table's
mirror invariant (an entry and its inverse entry are set and cleared
together), which is what makes coincidence processing able to repair every
stale reference by walking dead rows. A table keeps the numbering its
enumeration ends in, compacted: the live cosets in the order they were
defined, the subgroup's coset 0 first. Only its checks walk it from 0: an
undefined entry, or a coset no path from 0 reaches, is IncompleteTableError.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import CapacityError, ConstructionError, IncompleteTableError, ParseError
from .perm import PermGroup, _fifo_tree

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
COMPACT_ROWS = 4096  # an enumeration past this many rows compacts once 30 % are dead


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

    The relators are kept as given; the constructor checks only that there
    is a generator and that every letter is one of their columns.
    """

    generators: tuple[str, ...]
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("a presentation needs at least one generator")
        ncols = 2 * len(self.generators)
        for word in self.relators:
            if word and (min(word) < 0 or max(word) >= ncols):
                raise ValueError(f"bad relator columns {word!r}")

    @cached_property
    def letter_positions(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """The relators laid out by _letter_positions, for the enumerator and the audit."""
        return _letter_positions(self.relators)


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
        # each word is reduced already; the empty ones and repeats go
        return Presentation(tuple(gens), tuple(dict.fromkeys(w for w in relators if w)))

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
    """A complete, audited coset table, numbered as its enumeration left it."""

    presentation: Presentation
    n: int
    rows: np.ndarray  # (n, ncols) int32: one row per coset, one entry per column

    @property
    def ncols(self) -> int:
        return 2 * len(self.presentation.generators)


class _Full(Exception):
    pass


# A letter position is prechecked only while at least this many relators
# reach it, so presentations with fewer relators scan every one. T's
# presentations, timed with and without prechecks, break even between
# about 48 and 80 relators.
_PRECHECK_RELATORS = 64


def _letter_positions(relators: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The relators' letters position by position, longest relators first.

    Returns (order, letters): order lists the relator indices by descending
    length, ties in their own order, and letters[i] holds the i-th columns
    of the relators longer than i, which are the first len(letters[i]) of
    order. Building them reads each letter once.
    """
    order = sorted(range(len(relators)), key=lambda k: -len(relators[k]))
    letters: list[np.ndarray] = []
    reach = len(order)
    for i in range(len(relators[order[0]]) if order else 0):
        while len(relators[order[reach - 1]]) <= i:
            reach -= 1
        letters.append(np.array([relators[k][i] for k in order[:reach]], dtype=np.intp))
    return np.array(order, dtype=np.intp), letters


class _Enumerator:
    """HLT: each live coset in turn scans every relator, then fills its row.

    Before its relators, a coset is prechecked: one gather per letter
    position finds the relators whose walk from it is already closed, and
    only the others are scanned, in order. Skipping them changes nothing.
    Scanning a closed walk is a no-op, and a walk closed at alpha stays
    closed under definitions, deductions, coincidences and compaction, so
    each skipped scan would have been a no-op when its turn came. The
    definitions, coincidences, compactions and CapacityErrors are HLT's at
    every cap.

    The table keeps one blank row past its last coset, so a step from an
    undefined entry (-1) reads that row and stays undefined.
    """

    def __init__(self, presentation: Presentation, max_cosets: int):
        self.nc = 2 * len(presentation.generators)
        self.max = max_cosets
        self.blank = array("i", [-1] * self.nc)
        self.tbl = self.blank * 2
        self.p = array("i", [0])
        self.nrows = 1
        self.alive = 1
        self.relators = presentation.relators
        order, letters = presentation.letter_positions
        # the prechecked positions; relators longer than them are always scanned
        self.letters = [cols for cols in letters if len(cols) >= _PRECHECK_RELATORS]
        deeper = letters[len(self.letters) :]
        self.unchecked = len(deeper[0]) if deeper else 0
        self.rank = np.argsort(order)  # each relator's place in order

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
            # writes go to representatives, so a dead row only loses entries: its
            # columns defined now are all it has, each read again in case it was cleared
            defined = np.frombuffer(tbl, dtype=np.int32, count=nc, offset=4 * row) >= 0
            for c in np.flatnonzero(defined).tolist():
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
        self.tbl.extend(self.blank)
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
            while i <= j:
                e = tbl[f * nc + cols[i]]
                if e < 0:
                    break
                f, i = e, i + 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i:
                e = tbl[b * nc + (cols[j] ^ 1)]
                if e < 0:
                    break
                b, j = e, j - 1
            if j < i:
                if f != b:
                    self.coincidence(f, b)
                return
            if j == i:
                tbl[f * nc + cols[i]] = b
                tbl[b * nc + (cols[i] ^ 1)] = f
                return
            self.define(f, cols[i])

    def open_relators(self, alpha: int) -> list[int]:
        """Indices, in order, of the relators whose walk from alpha is not closed.

        Relators longer than the prechecked positions are always listed.
        The view of the table is released before returning: define cannot
        extend the table while a buffer of it is exported.
        """
        view = np.frombuffer(self.tbl, dtype=np.int32)
        nc = self.nc
        f = view.take(self.letters[0] + alpha * nc)
        for cols in self.letters[1:]:
            k = len(cols)
            f[:k] = view.take(f[:k] * nc + cols)
        del view
        f[: self.unchecked] = -1
        return np.flatnonzero(f[self.rank] != alpha).tolist()

    def compact(self, track: int) -> int:
        """Remove dead rows; returns the new index of the tracked live coset."""
        n, nc = self.nrows, self.nc
        p = np.frombuffer(self.p, dtype=np.int32).copy()
        while True:
            root = p[p]
            if np.array_equal(root, p):
                break
            p = root
        live = p == np.arange(n)
        mapping = np.cumsum(live, dtype=np.int32) - 1  # new index of each live row
        rows = np.frombuffer(self.tbl, dtype=np.int32)[: n * nc].reshape(n, nc)[live]
        fresh = np.where(rows >= 0, mapping[p[rows]], -1).astype(np.int32)
        self.nrows = self.alive = len(fresh)
        self.tbl = array("i", fresh.tobytes()) + self.blank
        self.p = array("i", np.arange(self.nrows, dtype=np.int32).tobytes())
        return int(mapping[p[track]])

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
            if self.nrows > COMPACT_ROWS and (self.nrows - self.alive) > 0.3 * self.nrows:
                alpha = self.compact(alpha)
            todo = self.open_relators(alpha) if self.letters else range(len(self.relators))
            for k in todo:
                if self.p[alpha] != alpha:
                    break
                while True:
                    try:
                        self.scan_and_fill(alpha, self.relators[k])
                        break
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

    def finish(self) -> np.ndarray:
        """Compact, and return the (n, ncols) table read-only, as CosetTable holds it."""
        self.compact(0)
        flat = np.frombuffer(self.tbl, dtype=np.int32)[: self.nrows * self.nc]
        flat.setflags(write=False)
        return flat.reshape(self.nrows, self.nc)


# The audits walk words in blocks of about this many (word, coset) pairs,
# and broadcast over blocks of about this many triples, so their arrays
# stay within tens of MB however large the input is.
_AUDIT_WALKS = 1 << 20


def audit_blocks(count: int, size: int) -> Iterator[slice]:
    """Consecutive slices of range(count), each of about _AUDIT_WALKS // size members.

    Each member stands for size entries of an audit's arrays, so a block
    holds at most _AUDIT_WALKS of them, or one member when size is more.
    """
    step = max(1, _AUDIT_WALKS // max(size, 1))
    return (slice(start, start + step) for start in range(0, count, step))


def _first_failure(
    flat: np.ndarray, n: int, order: np.ndarray, letters: list[np.ndarray]
) -> tuple[int, int] | None:
    """The first word, by index, whose walk from some point does not close, and that point.

    flat is a table of n points read column-contiguous, so flat[c * n + x]
    is point x's entry in column c: gathers from it run about 3x faster
    than from a strided column of the row-major table. order and letters
    lay out the words as _letter_positions does. A block of words is walked
    from every point at once, one take per letter position.
    """
    points = np.arange(n, dtype=np.int32)
    offsets = [(cols * n).astype(np.int32) for cols in letters]  # where each column starts
    failures = []  # (word, first point it fails at), the first of each block
    for words in audit_blocks(len(order), n):
        block = order[words]
        ends = np.tile(points, len(block))  # word block[r] from point x at r * n + x
        for offset in offsets:
            offset = offset[words]
            reach = ends[: len(offset) * n]  # the words longer than this position
            reach.reshape(len(offset), n)[:] += offset[:, None]
            flat.take(reach, out=reach)
        bad = ends.reshape(len(block), n) != points
        failing = np.flatnonzero(bad.any(axis=1))
        if failing.size:
            first = failing[block[failing].argmin()]
            failures.append((int(block[first]), int(bad[first].argmax())))
    return min(failures, default=None)


def _audit_table(table: CosetTable) -> None:
    """Check every inverse column pair and every relator at every coset."""
    flat, columns = table.rows.T.ravel(), np.arange(table.ncols)
    if _first_failure(flat, table.n, columns, [columns, columns ^ 1]):
        raise ConstructionError("table columns are not mutually inverse")
    failure = _first_failure(flat, table.n, *table.presentation.letter_positions)
    if failure:
        raise ConstructionError(f"relator fails at coset {failure[1]}")


def todd_coxeter(presentation: Presentation, *, max_cosets: int = DEFAULT_MAX_COSETS) -> CosetTable:
    """Enumerate the cosets of the trivial subgroup: the presented group's elements.

    Returns a complete table, numbered as the enumeration left it and
    audited against every relator at every coset; raises
    IncompleteTableError if an entry is undefined or a coset is not reached
    from coset 0, and CapacityError if the enumeration needs more than
    max_cosets simultaneously live-plus-dead cosets even after compaction.
    """
    enum = _Enumerator(presentation, max_cosets)
    enum.run()
    rows = enum.finish()
    _fifo_tree(rows.T)  # for its IncompleteTableErrors only
    table = CosetTable(presentation=presentation, n=len(rows), rows=rows)
    _audit_table(table)
    return table


def regular_representation(columns: np.ndarray) -> tuple[PermGroup, np.ndarray]:
    """The regular carrier of a complete table given by its columns, and the columns.

    Row 2i of the columns is generator i's right-multiplication array on
    the points and row 2i + 1 its inverse's; generator i's point is its
    entry at 0. The caller certifies that the table is the regular action
    of a group on itself, by todd_coxeter's relator audit or construct_eta's
    point chasing; the carrier's order is then the number of points.
    """
    # one contiguous array per column, as _audit_carrier reads them
    columns = np.ascontiguousarray(columns)
    return PermGroup.regular(columns), columns
