"""Construction of the eta group of a compatible pair, with certified audits.

Given groups G and H acting compatibly on each other, the eta group is
generated by copies of G and H subject to two families of relations:

    [g, h']^(g1) == [g^(g1), (h^(g1))']      for g, g1 in G and h in H
    [g, h']^(h1') == [g^(h1), (h^(h1))']     for g in G and h, h1 in H

where a primed symbol lies in the copy of H, exponents on group elements
are the mutual actions (conjugation inside a single group), and exponents
on bracketed words are conjugation in the presented group.

It is presented on generating subsets, as in Ellis and Leonard (1995): a
generator per member of each subset, the Cayley graphs of G and H, and
both families for generators g, g1, h, h1 only, never enumerated.

eta is an extension of G (x) H by G x H, and every element is uniquely t x y
with t in T = [G, H'], which is isomorphic to G (x) H. So T alone is
enumerated, and eta acts on the products t x y, as in Rocco's nu(G) =
((G (x) G) x| G) x| G. T is presented by Brown and Loday's relations (1987)
for conjugation-closed generating sets only, which imply the rest, and
generators are eliminated through the relators of length 1 and 2 before
enumerating. Every relator used is a consequence of Brown and Loday's, so
the enumerated group maps onto G (x) H and has at least its order. Every
pair takes this one path; a trivial G or H leaves T no generator, so T is
the one coset 0.

The point of t x y is (t |G| + x) |H| + y: x in G is the point x |H|, y in
H is y, T is the multiples of |G| |H|, and the fibre t = e is the first
|G| |H| points. Right multiplication by any a in G is one formula, a
gather from T's certified table: t x y a = (t sigma)(xa) y, with sigma a
column of T's table chosen by (a, x, y) alone (_cocycle). It gives the
carrier's columns for G's generating subset and their inverses, and
EtaGroup.times_g reads it for every element of G: no element keeps an
array of its own. H acts on the last coordinate alone, t x y b' = t x
(yb): H's columns are times_h's step. T's table is read as enumerated,
with one identity column added: _cocycle names sigma as some t(a, b)^-1
or the identity, and _shrink's column map, with the identity last, gives
the column that acts so, an eliminated generator reading its survivor's.

Every column and row commutes with left multiplication by T, whose orbits
T x y each meet the fibre once, so a fact about them that holds on the
fibre holds everywhere. _audit_carrier chases the fibre's points through
times_g and times_h: G's identity row fixes them, G's columns follow G's
Cayley graph row by row, H's columns are times_h's step, and both families
hold on generators. The columns then satisfy eta's presentation, and the
carrier checks that 0 reaches every point: a transitive action of eta on
|T| |G| |H| >= |eta| points is the regular action, and an element is the
point it sends 0 to. embed_g, embed_h, the tensors and every subgroup
generator are plain ints, a bracket [a, b'] is four steps of times_g and
times_h (times_bracket), and the full families are checked the same way
(_audit_families). A failed audit is a bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .abelian import z_tensor
from .action import ActionPair, require_compatible
from .errors import CapacityError, ConstructionError, IncompleteTableError
from .fpgroup import (
    DEFAULT_MAX_COSETS,
    Presentation,
    audit_blocks,
    regular_representation,
    todd_coxeter,
)
from .groups import TableGroup
from .perm import PermGroup


@dataclass(eq=False)
class TensorSet:
    """The distinct bracket values [g, h'], tagged with witnessing pairs.

    A member is a point of the regular carrier, so it is its own key;
    ``pair_for`` records the first (g, h) producing each.
    """

    members: tuple[int, ...]
    pair_for: dict[int, tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(eq=False)
class EtaGroup:
    """A finished eta construction over a regular carrier; elements are points.

    The carrier is the regular action of eta, certified from the fibre t = e
    (_audit_carrier). times_g reads _cocycle's formula: t_points[t, c] is
    the point of (t c) e e for T's column c, and at the fibre point r of
    x y, sigma[a, r] is the column a takes and ends[a, r] the fibre point
    of (xa) y. times_h reads b' off the point, whose last coordinate y it
    makes yb. tensors[a, b] is the point of [a, b']. embed_g and embed_h
    read the coordinates, and everything else, times_bracket included,
    multiplies through times_g and times_h.
    """

    pair: ActionPair
    carrier: PermGroup
    t_points: np.ndarray
    sigma: np.ndarray
    ends: np.ndarray
    tensors: np.ndarray
    tensor_set: TensorSet
    tensor_subgroup: PermGroup

    @cached_property
    def embed_g(self) -> tuple[int, ...]:
        """The point of each element of G, where it sends 0: x is (0 |G| + x) |H| + 0."""
        return tuple(range(0, self.pair.g.n * self.pair.h.n, self.pair.h.n))

    @cached_property
    def embed_h(self) -> tuple[int, ...]:
        return tuple(range(self.pair.h.n))

    @cached_property
    def _h_steps(self) -> np.ndarray:
        """[y, b] = yb - y, what b' adds to a point whose last coordinate is y."""
        return self.pair.h.table - np.arange(self.pair.h.n, dtype=np.int32)[:, None]

    def order(self) -> int:
        return self.carrier.order()

    def tensor_order(self) -> int:
        return self.tensor_subgroup.order()

    def tensor(self, g: int, h: int) -> int:
        return int(self.tensors[g, h])

    def times_g(self, points, a) -> np.ndarray:
        """points a, for elements a of G, with points and a broadcast: t r a = (t sigma) ends."""
        fibre, width = self.ends.shape[1], self.t_points.shape[1]
        t, r = np.divmod(points, fibre)
        i = a * fibre + r  # [a, r], flat
        return self.t_points.ravel()[t * width + self.sigma.ravel()[i]] + self.ends.ravel()[i]

    def times_h(self, points, b) -> np.ndarray:
        """points b', for elements b of H, with points and b broadcast: y becomes yb."""
        return points + self._h_steps[points % self.pair.h.n, b]

    def times_bracket(self, points, a, b) -> np.ndarray:
        """points [a, b'] = points a^-1 b'^-1 a b', with points, a and b broadcast."""
        g, h = self.pair.g, self.pair.h
        x = self.times_h(self.times_g(points, g.inverse_table[a]), h.inverse_table[b])
        return self.times_h(self.times_g(x, a), b)


def _audit_carrier(eta: EtaGroup) -> None:
    """Chase the fibre's points through eta's columns, times_g and times_h.

    The carrier's column 2i is generator i of G's generating subset and
    2i + 1 its inverse, then those of H's. At every fibre point 0 x y, the
    first |G| |H|: G's identity row fixes it; for each element x and each
    G column, standing for s or s^-1, the column after row x is row xs or
    xs^-1, G's Cayley graph; each H column is times_h's step; and
    c^-1 [a, b'] c == [a^c, (b^c)'] for generators a, b and c of G, then c
    of H. So by induction along Cayley paths each row is its element's
    word in G's columns, and the columns satisfy eta's presentation on the
    fibre, and so everywhere, as all commute with left multiplication by T.
    """
    pair, columns = eta.pair, eta.carrier._columns
    g, h = pair.g, pair.h
    sg, sh = g.generating_subset(), h.generating_subset()
    fibre = np.arange(g.n * h.n, dtype=np.int32)
    rows = eta.times_g(fibre, np.arange(g.n)[:, None])  # [x, p]: where x sends fibre point p
    if not np.array_equal(rows[0], fibre):
        raise ConstructionError("the identity row of G moves the fibre")
    for c, (s, a) in enumerate((s, a) for s in sg for a in (s, g.inverse_table[s])):
        bad = (columns[c][rows] != rows[g.table[:, a]]).any(axis=1)
        if bad.any():
            power = "" if c % 2 == 0 else "^-1"
            raise ConstructionError(
                f"Cayley relator of the g-side fails at x={bad.argmax()}, s={s}{power}"
            )
    for c, b in enumerate((b for s in sh for b in (s, h.inverse_table[s])), start=2 * len(sg)):
        bad = columns[c][fibre] != eta.times_h(fibre, b)
        if bad.any():
            raise ConstructionError(f"column {c} of H is not its step at point {bad.argmax()}")
    g_conj, h_conj = g.conj_table(), h.conj_table()  # [x, c] = x^c
    goh, hog = pair.g_on_h.rows, pair.h_on_g.rows
    a, b = np.array(sg, dtype=int)[:, None, None], np.array(sh, dtype=int)[:, None]
    families = (
        ("first", g, sg, eta.times_g, lambda c: (g_conj[a, c], goh[c, b])),
        ("second", h, sh, eta.times_h, lambda c: (hog[c, a], h_conj[b, c])),
    )
    for name, group, conjugators, times, image in families:
        c = np.array(conjugators, dtype=int)[:, None, None, None]
        lhs = times(eta.times_bracket(times(fibre, group.inverse_table[c]), a, b), c)
        bad = (lhs != eta.times_bracket(fibre, *image(c))).any(axis=-1)
        if bad.any():
            i, j, k = np.argwhere(bad)[0].tolist()
            raise ConstructionError(
                f"{name} relation family fails on generators g={sg[j]}, h={sh[k]},"
                f" conjugator {conjugators[i]}"
            )


def _audit_families(eta: EtaGroup) -> None:
    """Check both full relation families by point chasing on the carrier.

    Conjugating a bracket by c is walking it from the point of c^-1 and
    then applying c; eta.tensors[a, b] is the point of [a, b']. Each family
    is one broadcast over (c, a, b), in blocks of conjugators c, and the
    error names its first failure in that order.
    """
    pair, tensor = eta.pair, eta.tensors
    g, h = pair.g, pair.h
    goh, hog = pair.g_on_h.rows, pair.h_on_g.rows
    g_conj, h_conj = g.conj_table().T, h.conj_table().T  # [c, x] = x^c
    a, b = np.arange(g.n)[None, :, None], np.arange(h.n)[None, None, :]
    families = (
        # [a, b']^c == [a^c, (b^c)'], for c in G and then in H
        ("first relation family fails at g={1}, g1={0}, h={2}", g, eta.times_g,
         lambda c: tensor[g_conj[c][:, :, None], goh[c][:, None, :]]),
        ("second relation family fails at g={1}, h={2}, h1={0}", h, eta.times_h,
         lambda c: tensor[hog[c][:, :, None], h_conj[c][:, None, :]]),
    )
    for message, group, times, image in families:
        for block in audit_blocks(group.n, g.n * h.n):
            c = np.arange(group.n)[block]
            start = times(0, group.inverse_table[c])[:, None, None]
            lhs = times(eta.times_bracket(start, a, b), c[:, None, None])
            bad = lhs != image(c)
            if bad.any():
                first, gg, hh = np.argwhere(bad)[0].tolist()
                raise ConstructionError(message.format(first + block.start, gg, hh))


def _tensor_relators(pair: ActionPair) -> np.ndarray:
    """Relators of G (x) H that imply Brown and Loday's (1987), one per row.

    A generator t(a, b) per pair of non-identity elements, in columns 2 i
    and 2 i + 1 for i = (a - 1) (|H| - 1) + b - 1; t(e, b) and t(a, e) are
    the empty word. In the right-action convention the relators read, for
    all a in G and b in H,

        t(a a1, b) == t(a^a1, b^a1) t(a1, b)      for a1 in C_G and a1 = a^-1
        t(a, b b1) == t(a, b1) t(a^b1, b^b1)      for b1 in C_H and b1 = b^-1

    where C_G and C_H are the generating subsets closed under conjugation.
    Brown and Loday take a1 and b1 over all of G and H. Since y x^y = x y,
    their relators for a1 = x y follow from those for y, for x^y and for
    the pair (x, y), so induction on word length over C_G gives all of the
    first family, and likewise the second. The a1 = a^-1 and b1 = b^-1
    relators, t(a, b^(a^-1)) t(a^-1, b) and its mirror, add nothing to the
    group: they are the members of the full families of length 2, kept for
    _shrink to eliminate generators through.

    Each relation l == f s is the row (l, s^-1, f^-1) of three columns,
    -1 standing for the empty word; rows are not yet reduced, and their
    order does not matter: _shrink merges and returns them in _least_forms order.
    """
    g, h = pair.g, pair.h
    goh, hog = pair.g_on_h.rows, pair.h_on_g.rows
    gt, ginv, ht, hinv = g.table, g.inverse_table, h.table, h.inverse_table
    g_conj, h_conj = g.conj_table(), h.conj_table()
    a, b = np.arange(g.n)[:, None], np.arange(h.n)[None, :]
    # C_G and C_H, each along a new leading axis, of ints even when empty
    a1 = np.array(sorted(set(g_conj[list(g.generating_subset())].flat)), dtype=int)[:, None, None]
    b1 = np.array(sorted(set(h_conj[list(h.generating_subset())].flat)), dtype=int)[:, None, None]
    # col[a, b] is the column of t(a, b) and inv[a, b] its inverse's; -1 for the empty word
    col, inv = np.full((2, g.n, h.n), -1)
    col[1:, 1:] = 2 * np.arange((g.n - 1) * (h.n - 1)).reshape(g.n - 1, h.n - 1)
    inv[1:, 1:] = col[1:, 1:] + 1
    relations = [
        (col[gt[a, a1], b], inv[a1, b], inv[g_conj[a, a1], goh[a1, b]]),
        (col[a, ht[b, b1]], inv[hog[b1, a], h_conj[b, b1]], inv[a, b1]),
        (-1, inv[ginv[a], b], inv[a, goh[ginv[a], b]]),
        (-1, inv[hog[hinv[b], a], b], inv[a, hinv[b]]),
    ]
    rows = [np.broadcast_arrays(*relation) for relation in relations]
    # built as three contiguous columns, which _shrink reads one at a time
    return np.stack([np.concatenate([r[i].ravel() for r in rows]) for i in range(3)]).T


def _reduced(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rows of at most three letters, left-justified and freely and cyclically reduced.

    The three columns hold each row's letters, -1 for no letter; a row that
    vanishes comes back as three -1s.
    """
    gap = y < 0
    y, z = np.where(gap, z, y), np.where(gap, -1, z)
    gap = x < 0
    x, y, z = np.where(gap, y, x), np.where(gap, z, y), np.where(gap, -1, z)
    # in a cyclic word of two or three letters, a cancelling pair of neighbours leaves the rest
    rest = np.where(x == y ^ 1, z, np.where(y == z ^ 1, x, np.where(z == x ^ 1, y, -2)))
    hit = rest > -2
    return np.where(hit, rest, x), np.where(hit, -1, y), np.where(hit, -1, z)


def _least_forms(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The distinct non-trivial relators among _reduced rows, given as int64 columns.

    Each word is replaced by the least of its rotations and those of its
    inverse, which all have the same normal closure. Returns them sorted,
    left-justified and padded with -1.
    """
    # lexicographic order on rows of columns + 1 is numeric order on their
    # base-k digits; a digit is at most (the largest column | 1) + 1
    k = (int(max(c.max(initial=0) for c in (x, y, z))) | 1) + 2

    def least(*word: np.ndarray) -> np.ndarray:
        """The least code among the rotations of the words and of their inverses."""
        best = None
        for letters in (word, tuple(c ^ 1 for c in reversed(word))):
            for i in range(len(word)):
                # the base-k value of the rotation's letters alone orders it among its length
                first, *rest = letters[i:] + letters[:i]
                value = first
                for c in rest:
                    value = value * k + c
                best = value if best is None else np.minimum(best, value)
        # shift the digits up by one and append the -1s of the padding
        return best * k ** (3 - len(word)) + sum(k ** (2 - i) for i in range(len(word)))

    three = z >= 0
    two = (y >= 0) & ~three
    one = (x >= 0) & (y < 0)
    groups = ((x[one],), (x[two], y[two]), (x[three], y[three], z[three]))
    codes = [np.zeros(0, dtype=np.int64)] + [least(*word) for word in groups if word[0].size]
    codes = np.sort(np.concatenate(codes))
    codes = codes[np.diff(codes, prepend=-1) != 0]  # distinct
    return np.stack([codes // (k * k), codes // k % k, codes % k], axis=1) - 1


def _shrink(m: int, words: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Eliminate generators through the relators of length 1 and 2.

    A relator x^+-1 sets generator x to the identity, and x^+-1 y^+-1 with
    x != y sets the later of the two to a power +-1 of the earlier.
    Eliminations are kept in a union-find over the m generators, with each
    one's sign relative to its parent and the identity as an extra root m.
    Each round rewrites every row through a column map of the last round's
    merges, reduces the rows and drops those that vanish, then merges the
    short relators in _least_forms order, until no short relator is left;
    x^2 stays. Returns the surviving generators, ascending; the distinct
    relators, in _least_forms order in the columns of a presentation on the
    survivors; and for each column of all m generators, its column there,
    or -1 for the identity.
    """
    parent, flip = list(range(m + 1)), [0] * (m + 1)

    def find(x: int) -> tuple[int, int]:
        """(root, sign): x is root, or root^-1 when sign is 1."""
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        sign = 0
        for y in reversed(path):
            sign ^= flip[y]
            parent[y], flip[y] = x, sign
        return x, sign

    # Each round rewrites every row through this map, which sends a column
    # to itself and -1 (no letter) to -1, except for the columns of the
    # last round's merges; those of earlier rounds are no longer read. The
    # rows are then reduced and those that vanish dropped, so every row's
    # letters are roots.
    round_map = np.append(np.arange(2 * m), -1)
    x, y, z = np.asarray(words, dtype=np.int64).T
    while True:
        x, y, z = _reduced(round_map[x], round_map[y], round_map[z])
        kept = x >= 0
        x, y, z = x[kept], y[kept], z[kept]
        short = (z < 0) & ((y < 0) | (x >> 1 != y >> 1))
        if not short.any():
            break
        merged = []
        for a, b, _ in _least_forms(x[short], y[short], z[short]).tolist():
            # a b == 1 makes letter a the inverse of letter b, or of the identity
            (ra, fa), (rb, fb) = find(a >> 1), find(b >> 1 if b >= 0 else m)
            if ra != rb:
                keep, child = (m, ra + rb - m) if m in (ra, rb) else (min(ra, rb), max(ra, rb))
                parent[child], flip[child] = keep, fa ^ fb ^ (0 if b < 0 else (a ^ b ^ 1) & 1)
                merged.append(child)
        for child in merged:
            root, sign = find(child)
            columns = (2 * root + sign, 2 * root + (sign ^ 1)) if root < m else -1
            round_map[2 * child : 2 * child + 2] = columns
    # every generator's root and sign at once, by pointer jumping
    root, sign = np.array(parent), np.array(flip)
    while (root[root] != root).any():
        root, sign = root[root], sign ^ sign[root]
    survivors = np.flatnonzero(root[:m] == np.arange(m))
    number = np.full(2 * m + 1, -1)
    number[2 * survivors] = 2 * np.arange(len(survivors))
    number[2 * survivors + 1] = 2 * np.arange(len(survivors)) + 1
    image = np.where(root[:m, None] == m, -1, 2 * root[:m, None] + (sign[:m, None] ^ [0, 1]))
    relators = _least_forms(x, y, z)
    return survivors.tolist(), number[relators], number[image.ravel()]


def _tensor_presentation(pair: ActionPair) -> tuple[Presentation | None, np.ndarray]:
    """A presentation of G (x) H on few generators, and how to read the rest.

    _tensor_relators's presentation on a generator t(a, b) per pair of
    non-identity elements, after _shrink; None when no generator survives.
    The array gives, for each column of every t(a, b), its column in the
    presentation, or -1 when t(a, b) is the identity.
    """
    width = pair.h.n - 1
    survivors, words, columns = _shrink((pair.g.n - 1) * width, _tensor_relators(pair))
    if not survivors:
        return None, columns
    names = tuple(f"t{x // width + 1}_{x % width + 1}" for x in survivors)
    # rows are left-justified: each row's letters, then -1s
    lengths = np.count_nonzero(words >= 0, axis=1).tolist()
    relators = tuple(tuple(w[:n]) for w, n in zip(words.tolist(), lengths))
    return Presentation(names, relators), columns


_TENSOR_ROOM_FLOOR = 4096  # the rows T's enumeration may always use, if the cap allows


def _tensor_table(pair: ActionPair, max_cosets: int) -> tuple[np.ndarray, np.ndarray]:
    """T = G (x) H's coset table as enumerated, one identity column last, and its map.

    The map is _tensor_presentation's with -1 appended, each -1 read as
    the identity column: for each column of every t(a, b), numbered as in
    _tensor_relators, and then the identity, the column that acts so. A
    trivial G or H leaves T no generator, so T is the one coset 0.

    The enumeration has the room the carrier cap leaves T, max_cosets //
    (|G| |H|), but never less than _TENSOR_ROOM_FLOOR (nor more than the
    cap): an input whose enumeration passes that room is refused, even if
    its carrier would fit.
    """
    pres, columns = _tensor_presentation(pair)
    rows = np.zeros((1, 0), dtype=np.int32)
    if pres is not None:
        room = min(max_cosets, max(max_cosets // (pair.g.n * pair.h.n), _TENSOR_ROOM_FLOOR))
        try:
            rows = todd_coxeter(pres, max_cosets=room).rows
        except CapacityError as err:
            raise CapacityError(
                f"enumerating G (x) H passed its room of {room} cosets"
                f" under the carrier cap of {max_cosets}",
                count=err.count,
            ) from err
    steps = np.hstack([rows, np.arange(len(rows), dtype=np.int32)[:, None]])
    return steps, np.append(columns, -1) % steps.shape[1]


def _cocycle(pair: ActionPair) -> np.ndarray:
    """Which step of T right multiplication by a takes at x y, for every (a, x, y).

    t x y a = (t sigma)(xa) y, where sigma is [a, y']^-1 conjugated by y^-1
    and then by (xa)^-1. Each conjugation sends a generator t(u, v) of T to
    another, so sigma is t(u, v)^-1 for u = a^(y^-1) ^ (xa)^-1 and v =
    y^(xa)^-1. It is 2 k + 1 for t(u, v)^-1, numbered k as in
    _tensor_relators, or 2 (|G| - 1) (|H| - 1), one past them, for the
    identity. _tensor_table's column map sends it to the column of T's
    table that acts so.
    """
    g, h = pair.g, pair.h
    xa = g.table.T  # [a, x]
    z = g.inverse_table[xa]
    u = pair.h_on_g.rows[h.inverse_table].T  # a^(y^-1), [a, y]
    a = g.table[g.table[xa[:, :, None], u[:, None, :]], z[:, :, None]]  # u^z, [a, x, y]
    b = pair.g_on_h.rows[z]  # y^z, [a, x, y]
    identity = 2 * (g.n - 1) * (h.n - 1)
    return np.where((a == 0) | (b == 0), identity, 2 * ((a - 1) * (h.n - 1) + b - 1) + 1)


def _require_room(n: int, max_cosets: int) -> None:
    if n > max_cosets:
        raise CapacityError(f"carrier needs {n} cosets, above the limit of {max_cosets}", count=n)


def construct_eta(pair: ActionPair, *, max_cosets: int = DEFAULT_MAX_COSETS) -> EtaGroup:
    """Enumerate T, carry eta on the products t x y, and audit it.

    Every pair takes one path: T = G (x) H is enumerated from its shrunk
    presentation, and eta acts on the elements t x y through T's table, as
    enumerated. A trivial G or H only makes T trivial. Raises ValueError
    when G's or H's identity is not element 0, which T's relators and the
    coordinates assume, IncompatibleActionError when the pair fails the
    compatibility equations, CapacityError when T or the carrier needs
    more cosets than allowed, and ConstructionError if a certification
    audit fails, which is a bug.
    """
    g, h = pair.g, pair.h
    for name, group in (("G", g), ("H", h)):
        if group.identity != 0:
            raise ValueError(f"{name}'s identity is element {group.identity}, not 0")
    require_compatible(pair)
    if pair.g_on_h.is_trivial() and pair.h_on_g.is_trivial():
        # G (x) H is the Z-tensor: refuse an oversized carrier before enumerating it
        _require_room(trivial_action_baseline(g, h).order * g.n * h.n, max_cosets)
    steps, column_map = _tensor_table(pair, max_cosets)
    fibre = g.n * h.n
    _require_room(len(steps) * fibre, max_cosets)
    # right multiplication by a sends t x y to (t sigma)(xa) y: T's step, then the fibre's point
    sigma = column_map[_cocycle(pair)].reshape(g.n, fibre)
    ends = (g.table.T[:, :, None] * h.n + np.arange(h.n, dtype=np.int32)).reshape(g.n, fibre)
    t_points = steps * fibre  # [t, c]: the point of (t c) e e

    eta = EtaGroup(pair, None, t_points, sigma, ends, None, None, None)
    gens = [a for s in g.generating_subset() for a in (s, int(g.inverse_table[s]))]
    h_gens = [b for s in h.generating_subset() for b in (s, int(h.inverse_table[s]))]
    columns = np.empty((len(gens) + len(h_gens), len(steps) * fibre), dtype=np.int32)
    for a, out in zip(gens, columns):  # times_g's formula, one gather of T's table per column
        np.add(np.take(t_points, sigma[a], axis=1), ends[a], out=out.reshape(len(steps), fibre))
    points = np.arange(columns.shape[1], dtype=np.int32)
    for b, out in zip(h_gens, columns[len(gens) :]):
        out[:] = eta.times_h(points, b)
    try:
        eta.carrier = regular_representation(columns)[0]
    except IncompleteTableError as err:
        raise ConstructionError(f"eta's columns: {err}") from err
    # a transitive action of the presented eta on |T| |G| |H| >= |eta| points is regular
    _audit_carrier(eta)
    # the tensors are walked with eta's own element arithmetic, then audited
    eta.tensors = eta.times_bracket(0, np.arange(g.n)[:, None], np.arange(h.n)[None, :])
    _audit_families(eta)
    eta.tensor_set = restricted_tensor_set(eta, range(g.n), range(h.n))
    eta.tensor_subgroup = eta.carrier.subgroup(eta.tensor_set.members)
    return eta


def trivial_action_baseline(g: TableGroup, h: TableGroup):
    """Expected tensor invariants when both actions are trivial."""
    return z_tensor(g.abelian_invariants(), h.abelian_invariants())


def restricted_tensor_set(
    eta: EtaGroup,
    n_elements: Sequence[int],
    k_elements: Sequence[int],
) -> TensorSet:
    """The distinct tensors [a, b'] over a in n_elements and b in k_elements.

    The elements are indices into the pair's groups, read off eta.tensors in
    ascending order so the member tuple is deterministic; pair_for keeps the
    first (a, b) giving each member.
    """
    rows = eta.tensors.tolist()
    ks = sorted(k_elements)
    pair_for: dict[int, tuple[int, int]] = {}
    for a in sorted(n_elements):
        for b in ks:
            pair_for.setdefault(rows[a][b], (a, b))
    return TensorSet(tuple(pair_for), pair_for)


def product_cover(eta: EtaGroup, a: Sequence[int], b: Sequence[int]) -> tuple:
    """The products t x y' for t in T, x in a and y in b, elements of G and of H.

    Returns |T|, the points of a and of b', how many distinct points the
    products reach, and the points T shares with a and T a shares with b',
    each sorted. check_decomposition reads it for G and H, and nu's
    check_derived_decomposition for their derived subgroups.
    """
    a, b = np.asarray(a), np.asarray(b)
    t_keys = np.fromiter(sorted(eta.tensor_subgroup.orbit0()), dtype=np.int64)
    a_points, b_points = eta.times_g(0, a).tolist(), eta.times_h(0, b).tolist()
    after_a = eta.times_g(t_keys, a[:, None])
    covered = np.zeros(eta.carrier.degree, dtype=bool)
    covered[eta.times_h(after_a, b[:, None, None])] = True
    meets = (
        sorted(set(t_keys.tolist()) & set(a_points)),
        sorted(set(after_a.ravel().tolist()) & set(b_points)),
    )
    return len(t_keys), a_points, b_points, np.count_nonzero(covered), meets


def check_decomposition(eta: EtaGroup) -> dict:
    """Audit the product decomposition of the carrier into tensor, G, H.

    Three facts are checked: the order is the product of the three factor
    orders, the three-fold products cover the carrier without repetition,
    and the factors meet pairwise only in the identity along the product
    chain. The fourth field, that the three factors together generate, is
    read off the second: every element is a product of theirs.
    """
    g, h = eta.pair.g, eta.pair.h
    n_eta = eta.carrier.order()
    tensor_order, _, _, covered, meets = product_cover(eta, range(g.n), range(h.n))
    counts_match = n_eta == tensor_order * g.n * h.n
    covers = covered == n_eta
    ok = counts_match and covers and meets == ([0], [0])
    return {
        "ok": bool(ok),
        "order": n_eta,
        "tensor_order": tensor_order,
        "g_order": g.n,
        "h_order": h.n,
        "counts_match": bool(counts_match),
        "covers": bool(covers),
        "generates": bool(covers),
    }
