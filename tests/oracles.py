"""Independent reference computations the tests compare the package against.

Everything here is deliberately naive: brute-force closures, schoolbook
determinants, additive-module enumeration. Slow is fine; these only run on
small inputs and exist so the fast implementations have something honest to
disagree with.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from itertools import product
from math import gcd, lcm, prod

import numpy as np

from etacalc.abelian import smith_normal_form
from etacalc.errors import IncompleteTableError
from etacalc.fpgroup import Presentation
from etacalc.perm import _first_reached
from etacalc.verify import _tensor_frame


def naive_closure(gens: list[tuple[int, ...]], cap: int = 250_000) -> set[tuple[int, ...]]:
    """Closure of image tuples under left-to-right composition."""
    if not gens:
        return {(0,)}
    degree = len(gens[0])
    identity = tuple(range(degree))
    seen = {identity}
    frontier = deque([identity])
    while frontier:
        p = frontier.popleft()
        for g in gens:
            q = tuple(g[p[x]] for x in range(degree))
            if q not in seen:
                if len(seen) >= cap:
                    raise RuntimeError("naive closure exceeded cap")
                seen.add(q)
                frontier.append(q)
    return seen


def compose_columns(columns: list[list[int]], word: list[int]) -> list[int]:
    """Images of the permutation a word over a carrier's raw columns spells.

    Column c is a list of images; the word's letters act left to right, so
    the result sends x to columns[word[-1]][...columns[word[0]][x]].
    """
    images = list(range(len(columns[0])))
    for c in word:
        column = columns[c]
        images = [column[x] for x in images]
    return images


def looped_compact(tbl, p, nrows: int, nc: int, track: int) -> tuple[list[int], int]:
    """A coset table's dead rows removed one entry at a time.

    tbl and p are an enumerator's flat table and coincidence forest.
    Returns the live rows, renumbered in order with each entry read through
    its root, and the new number of track's root.
    """

    def root(k: int) -> int:
        while p[k] != k:
            k = p[k]
        return k

    mapping = {i: new for new, i in enumerate(i for i in range(nrows) if p[i] == i)}
    fresh = [
        -1 if v < 0 else mapping[root(v)]
        for i in mapping
        for v in tbl[i * nc : (i + 1) * nc]
    ]
    return fresh, mapping[root(track)]


def looped_coincidence(enum, a: int, b: int) -> None:
    """_Enumerator.coincidence as a loop over every column of each dead row in turn."""
    queue: deque[int] = deque()
    enum._merge(a, b, queue)
    tbl, nc = enum.tbl, enum.nc
    while queue:
        dead = queue.popleft()
        row = dead * nc
        for c in range(nc):
            d = tbl[row + c]
            if d < 0:
                continue
            # remove the mirror entry pointing back at the dead coset
            tbl[d * nc + (c ^ 1)] = -1
            mu = enum.rep(dead)
            nu = enum.rep(d)
            e = tbl[mu * nc + c]
            if e >= 0:
                enum._merge(nu, e, queue)
            else:
                e = tbl[nu * nc + (c ^ 1)]
                if e >= 0:
                    enum._merge(mu, e, queue)
                else:
                    tbl[mu * nc + c] = nu
                    tbl[nu * nc + (c ^ 1)] = mu


def tree_dict(column: np.ndarray, parent: np.ndarray) -> dict:
    """A spanning tree's edge arrays as {point: (generator index, sign, parent)}.

    Column 2i is generator i (sign 1) and 2i + 1 its inverse (sign -1); the
    root 0 maps to None. This is the form carriers kept their trees in.
    """
    edges = zip((column // 2).tolist(), (1 - 2 * (column % 2)).tolist(), parent.tolist())
    return {0: None, **{p: edge for p, edge in enumerate(edges) if p}}


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
    if table.min(initial=0) < 0:
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


def canonical_carrier(carrier) -> tuple[np.ndarray, tuple]:
    """bfs_renumber of a carrier's table, checked against the carrier's own tree.

    The carrier's tree order is the canonical numbering: its i-th point in
    orbit0 order is canonical point i. Relabelled so, its table, its tree
    edges and its level sizes must be bfs_renumber's. Returns
    bfs_renumber's rows and tree, which two carriers of one action share
    whatever their numberings.
    """
    table = carrier._columns.T
    rows, tree = bfs_renumber(table)
    column, parent, bounds = tree
    order = carrier._orbit()
    new = np.empty(len(order), dtype=np.int64)  # the carrier's point -> canonical
    new[order] = np.arange(len(order))
    assert np.array_equal(rows[new], new[table])
    assert np.array_equal(column[new], carrier._column)
    assert np.array_equal(parent[new], new[carrier._parent])
    sizes = [len(points) for points, _, _ in carrier._levels]
    assert bounds == [1, *(1 + np.cumsum(sizes, dtype=np.int64)).tolist()]
    return rows, tree


def fifo_subgroup_tree(carrier, generators) -> tuple[list[int], dict]:
    """Orbit of 0 and tree of the subgroup grown by adding generators in order.

    The orbit is walked one point and one edge at a time with a FIFO queue:
    a new generator walks the orbit so far, and then every walked generator
    walks each new point. Returns the orbit in tree order and
    {point: (slot, 1, parent)}; a generator already in the orbit is skipped
    but keeps its slot.
    """
    tree: dict = {0: None}
    orbit = [0]
    walks = []

    def reach(pt, slot, array):
        img = int(array[pt])
        if img not in tree:
            tree[img] = (slot, 1, pt)
            orbit.append(img)

    for slot, g in enumerate(generators):
        if g in tree:
            continue
        walks.append((slot, right_multiplication(carrier, g)))
        start = len(orbit)
        for pt in orbit[:start]:
            reach(pt, *walks[-1])
        i = start
        while i < len(orbit):
            pt = orbit[i]
            i += 1
            for walk in walks:
                reach(pt, *walk)
    return orbit, tree


def tree_walk_labels(orbit, tree, target, images, degree) -> list[int]:
    """Target label of each point, one tree edge at a time; -1 off the orbit."""
    table, inverse = target.table.tolist(), target.inverse_table.tolist()
    label = [-1] * degree
    label[0] = target.identity
    for pt in orbit[1:]:
        slot, sign, parent = tree[pt]
        img = images[slot] if sign > 0 else inverse[images[slot]]
        label[pt] = table[label[parent]][img]
    return label


def right_multiplication(carrier, q: int) -> np.ndarray:
    """Right multiplication by q: the array sending each point p to mul(p, q)."""
    c = carrier.carrier
    arr = np.arange(c.degree, dtype=np.int32)
    for col in carrier._path(q):
        arr = c._columns[col][arr]
    return arr


def left_multiplication(carrier, a: int) -> np.ndarray:
    """Left multiplication by a as an array on points, grown down the carrier's tree."""
    out = np.empty(carrier.degree, dtype=np.int32)
    out[0] = a
    for points, _, _ in carrier._levels:
        out[points] = carrier._columns[carrier._column[points], out[carrier._parent[points]]]
    return out


def conjugation_map(group, c: int) -> np.ndarray:
    """Conjugation by c as one array on the carrier's points: x -> c^-1 x c.

    Right multiplication by c after left multiplication by c^-1, each a
    whole carrier-wide array; PermGroup.conjugates must agree at every point.
    """
    carrier = group.carrier
    return right_multiplication(carrier, c)[left_multiplication(carrier, carrier.inv(c))]


def looped_class_sizes(group, members) -> list[int]:
    """Size of each member's conjugacy class: one scalar BFS per member over conjugation_maps."""
    maps = [conjugation_map(group, c) for c in group.generators]
    sizes = []
    for x in members:
        seen = {x}
        queue = [x]
        for y in queue:
            for m in maps:
                z = int(m[y])
                if z not in seen:
                    seen.add(z)
                    queue.append(z)
        sizes.append(len(seen))
    return sizes


def looped_invariance_witness(tset, maps) -> dict | None:
    """verify's invariance witness, conjugator outermost, or None if the set is closed."""
    inside = set(tset.members)
    for i, m in enumerate(maps):
        for t in tset.members:
            if int(m[t]) not in inside:
                return {"member": tset.pair_for[t], "conjugator": i}
    return None


def module_tensor_order(pair) -> int:
    """|IG (x)_ZG A| for G acting on a module A = pair.h that acts trivially on G.

    For such a pair G (x) A is IG (x)_ZG A, IG being G's augmentation
    ideal: the abelian group on x(g, a) = (g - 1) (x) a for g != e, linear
    in a, with (gh - 1) (x) a = (h - 1) (x) a + (g - 1) (x) h.a, where h.a
    is a^(h^-1) in the pair's right action. Its order is the product of the
    Smith form's diagonal, computed without any coset enumeration.
    """
    g, a = pair.g, pair.h
    left = pair.g_on_h.rows[g.inverse_table]  # left[h, y] = h.y
    width = (g.n - 1) * a.n
    rows = []

    def relate(*terms: tuple[int, int, int]) -> None:
        row = [0] * width
        for sign, x, y in terms:
            if x != g.identity:
                row[(x - 1) * a.n + y] += sign
        rows.append(row)

    for x in range(g.n):
        for y in range(a.n):
            for z in range(a.n):
                relate((1, x, int(a.table[y, z])), (-1, x, y), (-1, x, z))
            for h in range(g.n):
                relate((1, int(g.table[x, h]), y), (-1, h, y), (-1, x, int(left[h, y])))
    d, _, _ = smith_normal_form(rows)
    diagonal = [d[i][i] for i in range(width)]
    assert all(diagonal), "IG (x)_ZG A is infinite"
    return prod(diagonal)


def direct_product_tensor_order(a, b, a_square: int, b_square: int) -> int:
    """|(A x B) (x) (A x B)| = |A (x) A| |A^ab (x)_Z B^ab|^2 |B (x) B|.

    a_square and b_square are |A (x) A| and |B (x) B|. The tensor square of
    a direct product is (A (x) A) x (A (x) B) x (B (x) A) x (B (x) B); in
    the mixed factors A and B act on each other trivially, so each is
    A^ab (x)_Z B^ab (Brown, Johnson and Robertson, "Some computations of
    non-abelian tensor products of groups", J. Algebra 111, 1987). That
    Z-tensor's order is the product of gcd(m, n) over the invariant
    factors m of A^ab and n of B^ab.
    """
    factors = b.abelian_invariants().factors
    cross = prod(gcd(m, n) for m in a.abelian_invariants().factors for n in factors)
    return a_square * cross**2 * b_square


def looped_element_orders(group) -> list[int]:
    """Order of each element in tree order, powering it one scalar mul at a time."""
    orders = []
    for p in group.elements():
        k, x = 1, p
        while x != 0:
            x = group.mul(x, p)
            k += 1
        orders.append(k)
    return orders


def det_bareiss(matrix: list[list[int]]) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _prime_list(n: int) -> list[int]:
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def _strip(o: int, p: int) -> int:
    while o % p == 0:
        o //= p
    return o


def order_census_invariants(orders: list[int]) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group from its element orders."""
    n = len(orders)
    if n == 1:
        return ()
    exps: dict[int, list[int]] = {}
    primes = _prime_list(n)
    for p in primes:
        p_total = sum(1 for o in orders if _strip(o, p) == 1)
        counts = [1]
        pj = 1
        while counts[-1] < p_total:
            pj *= p
            counts.append(sum(1 for o in orders if pj % o == 0))
        ranks = []
        for j in range(1, len(counts)):
            assert counts[j] % counts[j - 1] == 0
            ratio = counts[j] // counts[j - 1]
            m = 0
            while ratio > 1:
                assert ratio % p == 0
                ratio //= p
                m += 1
            ranks.append(m)
        this: list[int] = []
        for j, (a, b) in enumerate(zip(ranks, ranks[1:] + [0]), start=1):
            this.extend([p**j] * (a - b))
        exps[p] = sorted(this, reverse=True)
    width = max((len(v) for v in exps.values()), default=0)
    factors = []
    for slot in range(width):
        f = 1
        for p in primes:
            vals = exps[p]
            if slot < len(vals):
                f *= vals[slot]
        factors.append(f)
    factors.reverse()
    result = tuple(f for f in factors if f > 1)
    check = 1
    for f in result:
        check *= f
    assert check == n, (orders, result)
    return result


def brute_delta_of_abelian(invariants: tuple[int, ...]) -> tuple[int, ...]:
    """Diagonal subgroup of the tensor square of an abelian group, by enumeration.

    Works inside the direct sum over ordered pairs (i, j) of cyclic groups of
    order gcd(d_i, d_j); the subgroup is generated by the images of x (x) x
    for every element x, and its invariant factors come from an element-order
    census of the full vector set.
    """
    r = len(invariants)
    pairs = [(i, j) for i in range(r) for j in range(r)]
    mods = [gcd(invariants[i], invariants[j]) for i, j in pairs]
    gens = set()
    for x in product(*(range(d) for d in invariants)):
        vec = tuple((x[i] * x[j]) % m for (i, j), m in zip(pairs, mods))
        gens.add(vec)
    zero = tuple(0 for _ in mods)
    seen = {zero}
    frontier = deque([zero])
    while frontier:
        v = frontier.popleft()
        for g in gens:
            w = tuple((a + b) % m for a, b, m in zip(v, g, mods))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    orders = []
    for v in seen:
        o = 1
        for a, m in zip(v, mods):
            if m and a:
                o = lcm(o, m // gcd(a, m))
        orders.append(o)
    return order_census_invariants(orders)


# The action audits as triple loops: the reference for etacalc.action's
# vectorised validate_action and check_compatibility.


def looped_table_failure(table: list[list[int]]) -> str | None:
    """The first failure TableGroup reports on a square table of element indices, looped.

    Row i is read before column i, both before row i + 1; then the first
    two-sided identity is sought; then associativity is tried at every
    (a, b, c) in the order of a loop over a, then b, then c.
    """
    n, full = len(table), list(range(len(table)))
    for i in range(n):
        if sorted(table[i]) != full:
            return f"row {i} is not a permutation of the elements"
        if sorted(row[i] for row in table) != full:
            return f"column {i} is not a permutation of the elements"
    if not any(table[i] == full and [row[i] for row in table] == full for i in range(n)):
        return "table has no two-sided identity"
    for a, b, c in product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return f"associativity fails at ({a}, {b}, {c})"
    return None


def looped_action_rows_failure(acting_size: int, acted_size: int, rows) -> str | None:
    """The first failure ActionTable reports on rows of the right count, looped.

    Each row's length is read before its entries, and rows in order.
    """
    for a, row in enumerate(rows):
        if len(row) != acted_size:
            return f"row {a} has length {len(row)}, expected {acted_size}"
        for x in row:
            if not 0 <= x < acted_size:
                return f"row {a} contains out-of-range entry {x}"
    return None


def naive_validate_action(action, acted, acting) -> list[dict]:
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
    rows = action.rows.tolist()
    full = list(range(acted.n))
    bad_rows = set()
    for a, row in enumerate(rows):
        if sorted(row) != full:
            bad_rows.add(a)
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
    for a in range(acting.n):
        row = rows[a]
        for x in range(acted.n):
            for y in range(acted.n):
                lhs = row[acted.mul(x, y)]
                rhs = acted.mul(row[x], row[y])
                if lhs != rhs:
                    report.append(
                        {
                            "axiom": "row-homomorphism",
                            "acting": a,
                            "acting_label": acting.labels[a],
                            "left": x,
                            "right": y,
                            "lhs": lhs,
                            "rhs": rhs,
                        }
                    )
    for a in range(acting.n):
        for b in range(acting.n):
            combined = rows[acting.mul(a, b)]
            for x in range(acted.n):
                lhs = combined[x]
                rhs = rows[b][rows[a][x]]
                if lhs != rhs:
                    report.append(
                        {
                            "axiom": "composition",
                            "first": a,
                            "second": b,
                            "acted": x,
                            "lhs": lhs,
                            "rhs": rhs,
                        }
                    )
    return report


def naive_check_compatibility(pair) -> list[dict]:
    """Test both compatibility equations on every triple; report failures.

    Family 1 runs over (g, g1, h) and compares g^(h^(g1)) with
    ((g^(g1^-1))^h)^(g1); family 2 is the mirror over (h, h1, g).  Each
    failing triple is recorded with both side values, so an empty list is
    a proof of compatibility for these tables.
    """
    g, h = pair.g, pair.h
    goh, hog = pair.g_on_h.rows.tolist(), pair.h_on_g.rows.tolist()
    failures: list[dict] = []
    for gg in range(g.n):
        for g1 in range(g.n):
            twisted = g.conj(gg, g.inv(g1))
            for hh in range(h.n):
                lhs = hog[goh[g1][hh]][gg]
                rhs = g.conj(hog[hh][twisted], g1)
                if lhs != rhs:
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
    for hh in range(h.n):
        for h1 in range(h.n):
            twisted = h.conj(hh, h.inv(h1))
            for gg in range(g.n):
                lhs = goh[hog[h1][gg]][hh]
                rhs = h.conj(goh[gg][twisted], h1)
                if lhs != rhs:
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


def _element_rows(eta) -> tuple[np.ndarray, np.ndarray]:
    """Right multiplication by each element of G and of H, one row each.

    Each row is built from the carrier's own tree (right_multiplication) at
    the element's point, never read from eta's arrays.
    """
    g_rows = [right_multiplication(eta.carrier, p) for p in eta.embed_g]
    h_rows = [right_multiplication(eta.carrier, p) for p in eta.embed_h]
    return np.array(g_rows), np.array(h_rows)


def with_fibre_rows(eta, ends: np.ndarray):
    """eta with each a in G sending t r to t ends[a, r], for t in T and fibre points r.

    sigma becomes T's identity column throughout, so G's action keeps t.
    """
    identity = np.full_like(eta.sigma, eta.t_points.shape[1] - 1)
    return dataclasses.replace(eta, sigma=identity, ends=ends)


def _walk_bracket(pair, rows, p, a, b) -> np.ndarray:
    """p [a, b'] = p a^-1 b'^-1 a b' through rows = (G's, H's), with p, a and b broadcast."""
    g_rows, h_rows = rows
    x = g_rows[pair.g.inverse_table[a], p]
    x = h_rows[pair.h.inverse_table[b], x]
    return h_rows[b, g_rows[a, x]]


def looped_audit_families(eta) -> str | None:
    """eta._audit_families as a loop over (c, g, h): the message of its first failure, or None.

    One scalar bracket walk per triple, through _element_rows, conjugator
    outermost, the first family before the second.
    """
    pair, tensor = eta.pair, eta.tensors
    g, h = pair.g, pair.h
    goh, hog = pair.g_on_h.rows.tolist(), pair.h_on_g.rows.tolist()
    g_rows, h_rows = _element_rows(eta)

    def bracket(p: int, a: int, b: int) -> int:
        """p [a, b'] = p a^-1 b^-1 a b."""
        for row in (g_rows[g.inv(a)], h_rows[h.inv(b)], g_rows[a], h_rows[b]):
            p = int(row[p])
        return p

    for g1 in range(g.n):
        start = int(g_rows[g.inv(g1), 0])
        for a in range(g.n):
            for b in range(h.n):
                lhs = int(g_rows[g1, bracket(start, a, b)])
                if lhs != int(tensor[g.conj(a, g1), goh[g1][b]]):
                    return f"first relation family fails at g={a}, g1={g1}, h={b}"
    for h1 in range(h.n):
        start = int(h_rows[h.inv(h1), 0])
        for a in range(g.n):
            for b in range(h.n):
                lhs = int(h_rows[h1, bracket(start, a, b)])
                if lhs != int(tensor[hog[h1][a], h.conj(b, h1)]):
                    return f"second relation family fails at g={a}, h={b}, h1={h1}"
    return None


# T's presentation shrunk the way it was before the rounds rewrote only
# their own merges: every round relabels every word through the whole
# union-find and brings all of them to canonical form again. The shrink
# must agree with it on survivors, relators and column maps.


def naive_canonical(words: np.ndarray) -> np.ndarray:
    """The distinct non-trivial relators among rows of at most three letters.

    A row holds a word's columns, -1 for no letter. Each word is freely and
    cyclically reduced and then replaced by the least of its rotations and
    those of its inverse, which all have the same normal closure. Returns
    them sorted, left-justified and padded with -1.
    """
    justified = np.take_along_axis(words, np.argsort(words < 0, axis=1, kind="stable"), axis=1)
    x, y, z = justified.T.astype(np.int64)
    length = (justified >= 0).sum(axis=1)
    # in a cyclic word of two or three letters, a cancelling pair of neighbours leaves the rest
    length[(length == 2) & (y == x ^ 1)] = 0
    for rest, first, second in ((z, x, y), (x, y, z), (y, z, x)):
        hit = (length == 3) & (first == second ^ 1)
        x[hit], y[hit], z[hit] = rest[hit], -1, -1
        length[hit] = 1
    # lexicographic order on rows of columns + 1 is numeric order on their
    # base-k digits; a digit is at most (the largest column | 1) + 1
    k = (int(words.max()) | 1) + 2

    def code(a, b, c):
        return ((a + 1) * k + b + 1) * k + c + 1

    big_x, big_y, big_z = x ^ 1, y ^ 1, z ^ 1  # inverse letters
    least = [
        np.minimum(code(x, y, z), code(big_x, y, z)),
        np.minimum.reduce([code(x, y, z), code(y, x, z), code(big_y, big_x, z), code(big_x, big_y, z)]),
        np.minimum.reduce([
            code(x, y, z), code(y, z, x), code(z, x, y),
            code(big_z, big_y, big_x), code(big_y, big_x, big_z), code(big_x, big_z, big_y),
        ]),
    ]
    codes = np.sort(np.select([length == 1, length == 2, length == 3], least, 0))
    codes = codes[(codes > 0) & np.append(True, codes[1:] != codes[:-1])]  # distinct
    return np.stack([codes // (k * k), codes // k % k, codes % k], axis=1) - 1


def naive_shrink(m: int, words: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Eliminate generators through the relators of length 1 and 2.

    A relator x^+-1 sets generator x to the identity, and x^+-1 y^+-1 with
    x != y sets the later of the two to a power +-1 of the earlier.
    Eliminations are kept in a union-find over the m generators, with each
    one's sign relative to its parent and the identity as an extra root m.
    Every relator is then rewritten and brought to canonical form, and the
    round repeats until no such relator is left; x^2 stays. Returns the
    surviving generators, ascending; the relators, in the columns of a
    presentation on the survivors; and for each column of all m generators,
    its column there, or -1 for the identity.
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

    while True:
        image = []
        for x in range(m):
            root, sign = find(x)
            image += (-1, -1) if root == m else (2 * root + sign, 2 * root + (sign ^ 1))
        image = np.array(image + [-1], dtype=np.int32)  # image[-1] is -1: no letter stays no letter
        words = naive_canonical(image[words])
        length = (words >= 0).sum(axis=1)
        short = (length == 1) | ((length == 2) & (words[:, 0] >> 1 != words[:, 1] >> 1))
        if not short.any():
            break
        for x, y, _ in words[short].tolist():
            # x y == 1 makes letter x the inverse of letter y, or of the identity
            (rx, fx), (ry, fy) = find(x >> 1), find(y >> 1 if y >= 0 else m)
            if rx != ry:
                keep, child = (m, rx + ry - m) if m in (rx, ry) else (min(rx, ry), max(rx, ry))
                parent[child], flip[child] = keep, fx ^ fy ^ (0 if y < 0 else (x ^ y ^ 1) & 1)
    survivors = [x for x in range(m) if parent[x] == x]
    number = np.full(2 * m + 1, -1)
    for i, x in enumerate(survivors):
        number[2 * x : 2 * x + 2] = 2 * i, 2 * i + 1
    return survivors, number[words], number[image[:-1]]


def looped_derived_indices(group):
    """TableGroup.derived_indices as a loop: one scalar commutator per pair of elements."""
    comms = {group.comm(a, b) for a in range(group.n) for b in range(group.n)}
    return group.subgroup_closure(comms)


def _presentation(generators: tuple[str, ...], words: list[tuple[int, ...]]) -> Presentation:
    """A Presentation of the words freely reduced, the empty ones and repeats dropped.

    The parser normalises its words the same way; Presentation itself keeps
    what it is given.
    """
    relators: dict[tuple[int, ...], None] = {}
    for word in words:
        stack: list[int] = []
        for c in word:
            if stack and stack[-1] == c ^ 1:
                stack.pop()
            else:
                stack.append(c)
        if stack:
            relators[tuple(stack)] = None
    return Presentation(generators, tuple(relators))


def brown_loday_presentation(pair, a1s=None, b1s=None):
    """The defining presentation of G (x) H in full (Brown and Loday, 1987).

    A generator t(a, b) per pair of non-identity elements, numbered as
    etacalc.eta numbers them; t(e, b) and t(a, e) are the empty word. In
    the right-action convention the relators read, for all a, a1 in G and
    b, b1 in H,

        t(a a1, b) == t(a^a1, b^a1) t(a1, b)
        t(a, b b1) == t(a, b1) t(a^b1, b^b1)

    built as column tuples. a1s and b1s restrict a1 and b1, which only
    weakens the presentation.
    """
    g, h = pair.g, pair.h
    gt, ginv = g.table.tolist(), g.inverse_table.tolist()
    ht, hinv = h.table.tolist(), h.inverse_table.tolist()
    goh, hog = pair.g_on_h.rows.tolist(), pair.h_on_g.rows.tolist()
    width = h.n - 1

    def col(a: int, b: int) -> int:
        """Column of t(a, b); -1 for the empty word."""
        return -1 if a == 0 or b == 0 else 2 * ((a - 1) * width + b - 1)

    relators: list[tuple[int, ...]] = []

    def relate(lhs: int, first: int, second: int) -> None:
        """Record lhs == first second as lhs second^-1 first^-1."""
        # the inverse of the empty word -1 is -2, also dropped
        relators.append(tuple(c for c in (lhs, second ^ 1, first ^ 1) if c >= 0))

    for a in range(1, g.n):
        for a1 in range(1, g.n) if a1s is None else a1s:
            conj = gt[gt[ginv[a1]][a]][a1]
            for b in range(1, h.n):
                relate(col(gt[a][a1], b), col(conj, goh[a1][b]), col(a1, b))
    for a in range(1, g.n):
        for b in range(1, h.n):
            for b1 in range(1, h.n) if b1s is None else b1s:
                conj = ht[ht[hinv[b1]][b]][b1]
                relate(col(a, ht[b][b1]), col(a, b1), col(hog[b1][a], conj))
    names = tuple(f"t{a}_{b}" for a in range(1, g.n) for b in range(1, h.n))
    return _presentation(names, relators)


# eta's presentation on generating subsets (Ellis and Leonard, 1995),
# written out as words: the relators construct_eta chases over points.
# Enumerating it is the reference the assembled carrier must equal, row for
# row. A word is a tuple of its columns, as Presentation takes it; a word
# is reduced only when the presentation is built (_presentation).


def _tree_edges(group: TableGroup) -> list[tuple[int, int, int]]:
    """BFS tree of right multiplication, generators ascending: (x, s, x s) per edge."""
    gens = group.generating_subset()
    edges, seen = [], {0}
    queue = [0]
    for x in queue:
        for s in gens:
            y = group.mul(x, s)
            if y not in seen:
                seen.add(y)
                queue.append(y)
                edges.append((x, s, y))
    return edges


def _tree_words(group: TableGroup, first: int) -> tuple[list[tuple], list[tuple]]:
    """BFS-tree word of each element, and its inverse.

    The group's generating subset holds generators first, first + 1, ...
    of the presentation, in order.
    """
    column = {s: 2 * (first + i) for i, s in enumerate(group.generating_subset())}
    words, inverses = {0: ()}, {0: ()}
    for x, s, y in _tree_edges(group):
        words[y] = words[x] + (column[s],)
        inverses[y] = (column[s] ^ 1,) + inverses[x]
    return [words[x] for x in range(group.n)], [inverses[x] for x in range(group.n)]


def generator_points(eta) -> tuple[np.ndarray, np.ndarray]:
    """The point of each element of G and of H, from the carrier's generators alone.

    The carrier's generators are the points of G's generating subset, then
    of H's; an element's point is its BFS-tree word in them, multiplied out
    on the carrier's own tree.
    """
    gens = iter(eta.carrier.generators)
    points = []
    for group in (eta.pair.g, eta.pair.h):
        step = dict(zip(group.generating_subset(), gens))
        point = {0: 0}
        for x, s, y in _tree_edges(group):
            point[y] = eta.carrier.mul(point[x], step[s])
        points.append(np.array([point[x] for x in range(group.n)]))
    return points[0], points[1]


def _cayley_relators(group: TableGroup, first: int, words, inverses) -> list[tuple]:
    """w(x) s w(xs)^-1 for every element x and generator s; tree edges vanish."""
    gens = list(enumerate(group.generating_subset(), start=first))
    return [
        words[x] + (2 * i,) + inverses[group.mul(x, s)] for x in range(group.n) for i, s in gens
    ]


def _family_relators(pair: ActionPair, g_words, g_inverses, h_words, h_inverses) -> list[tuple]:
    g, h = pair.g, pair.h
    goh, hog = pair.g_on_h.rows.tolist(), pair.h_on_g.rows.tolist()
    g_gens, h_gens = g.generating_subset(), h.generating_subset()

    def bracket(a: int, b: int) -> tuple:
        return g_inverses[a] + h_inverses[b] + g_words[a] + h_words[b]

    def bracket_inverse(a: int, b: int) -> tuple:
        return h_inverses[b] + g_inverses[a] + h_words[b] + g_words[a]

    relators = []
    for gg in g_gens:
        for g1 in g_gens:
            for hh in h_gens:
                image = bracket_inverse(g.conj(gg, g1), goh[g1][hh])
                relators.append(g_inverses[g1] + bracket(gg, hh) + g_words[g1] + image)
    for gg in g_gens:
        for hh in h_gens:
            for h1 in h_gens:
                image = bracket_inverse(hog[h1][gg], h.conj(hh, h1))
                relators.append(h_inverses[h1] + bracket(gg, hh) + h_words[h1] + image)
    return relators


def build_eta_presentation(pair: ActionPair) -> Presentation:
    """The defining presentation of eta on generating subsets of G and H."""
    g, h = pair.g, pair.h
    if g.n == 1 and h.n == 1:
        raise ValueError("the pair of trivial groups presents no generators")
    ng = len(g.generating_subset())
    g_words, g_inverses = _tree_words(g, 0)
    h_words, h_inverses = _tree_words(h, ng)
    generators = tuple(f"g{a}" for a in g.generating_subset())
    generators += tuple(f"h{b}" for b in h.generating_subset())
    relators = _cayley_relators(g, 0, g_words, g_inverses)
    relators += _cayley_relators(h, ng, h_words, h_inverses)
    relators += _family_relators(pair, g_words, g_inverses, h_words, h_inverses)
    return _presentation(generators, relators)


# verify's lemma23 and thma checks as they were written before they were
# batched into whole-array walks: one loop step per tuple, scalar products
# on the carrier. The batched checks must agree with them report for report.


def _brackets_after(eta, rows, start):
    """start [a, b'] for all a in G and b in H, as a (|G|, |H|) array, walked through rows."""
    a, b = np.arange(eta.pair.g.n)[:, None], np.arange(eta.pair.h.n)[None, :]
    return _walk_bracket(eta.pair, rows, start, a, b)


def looped_lemma_identities(eta):
    """verify's lemma23 check as a loop over tuples, one bracket walk per step.

    Identity (b) is checked in both printed forms: the conjugation form
    [g^-1 g^h, y^phi] = [g,h^phi]^-1 [g,h^phi]^(y^phi) and the substitution
    form with [g^y,(h^y)^phi] on the right.

    Identity (a) as printed drops a phi on the leftmost bracket.  The
    adopted reading restores it and demands
    [g,h^phi]^[x,y^phi] = [g,h^phi]^(x^-1 x^y) = [g,h^phi]^((y^-x y)^phi);
    the literal reading, which conjugates the plain commutator [g,h] of two
    first-copy elements instead, is only evaluable when both groups
    coincide, and its outcome is recorded in the detail without affecting
    the verdict.
    """
    g, h = eta.pair.g, eta.pair.h
    goh, hog = eta.pair.g_on_h.rows.tolist(), eta.pair.h_on_g.rows.tolist()
    carrier = eta.carrier
    rows = _element_rows(eta)
    g_arr, h_arr = rows
    g_inv, h_inv = g.inverse_table, h.inverse_table
    key = np.array([[eta.tensor(a, b) for b in range(h.n)] for a in range(g.n)])
    ys = np.arange(h.n)
    h_conj = h.conj_table()
    hog_arr = np.asarray(hog)

    checked_b = 0
    fail_b: list[dict] = []
    for gg in range(g.n):
        for hh in range(h.n):
            kk = int(key[gg, hh])
            it0 = carrier.inv(kk)
            lhs = key[g.mul(g.inv(gg), hog[hh][gg])]
            conjugated = _walk_bracket(eta.pair, rows, h_arr[h_inv, it0], gg, hh)
            rhs_forms = (
                ("conjugation", h_arr[ys, conjugated]),
                ("substitution", _brackets_after(eta, rows, it0)[hog_arr[:, gg], h_conj[hh]]),
            )
            checked_b += 2 * h.n
            for y in range(h.n):
                for form, rhs in rhs_forms:
                    if lhs[y] != rhs[y]:
                        fail_b.append(
                            {
                                "identity": "b",
                                "form": form,
                                "g": gg,
                                "h": hh,
                                "y": y,
                                "lhs": int(lhs[y]),
                                "rhs": int(rhs[y]),
                            }
                        )

    same_group = g == h
    checked_a = 0
    fail_a: list[dict] = []
    lit_checked = 0
    lit_fail = 0
    for x in range(g.n):
        for y in range(h.n):
            kc = int(key[x, y])
            s1 = carrier.inv(kc)
            e2 = g.mul(g.inv(x), hog[y][x])
            e3 = h.mul(h.inv(goh[x][y]), y)
            k1 = _walk_bracket(eta.pair, rows, _brackets_after(eta, rows, s1), x, y)
            k2 = g_arr[e2][_brackets_after(eta, rows, eta.embed_g[g_inv[e2]])]
            k3 = h_arr[e3][_brackets_after(eta, rows, eta.embed_h[h_inv[e3]])]
            checked_a += g.n * h.n
            for gg, hh in np.argwhere((k1 != k2) | (k2 != k3)).tolist():
                fail_a.append(
                    {
                        "identity": "a",
                        "g": gg,
                        "h": hh,
                        "x": x,
                        "y": y,
                        "conjugated": int(k1[gg, hh]),
                        "first_copy": int(k2[gg, hh]),
                        "second_copy": int(k3[gg, hh]),
                    }
                )
            if same_group:
                # the literal reading: the plain commutator [g, h] of two first-copy elements
                plain = _brackets_after(eta, (g_arr, g_arr), s1)
                lit_checked += g.n * h.n
                lit_fail += int(np.count_nonzero(_walk_bracket(eta.pair, rows, plain, x, y) != k2))

    if same_group:
        if lit_fail:
            literal = f"literal reading diverges at {lit_fail} of {lit_checked} tuples"
        else:
            literal = f"literal reading agrees at all {lit_checked} tuples"
    else:
        literal = "literal reading not evaluable (distinct groups)"

    failures = fail_a + fail_b
    detail = (
        f"(a) adopted reading: {checked_a} tuples, {len(fail_a)} failures; "
        f"{literal}; (b) {checked_b} checks, {len(fail_b)} failures"
    )
    verdict = "PASS" if not failures else "FAIL"
    witness = failures[0] if failures else None
    return verdict, detail, witness


def looped_theorem_A(eta, n_elements, k_elements):
    """verify's thma check as loops over tuples, with scalar carrier products.

    Steps (1)-(3) are unconditional: the restricted tensor set is a normal
    subset of M = <N, K^phi>, the subgroup it generates is normal in M, and
    the triple brackets [n,k^phi,h^phi] land in T^-1 T and generate
    [N,K^phi,K^phi].  Steps (4) and (5) only apply under their printed
    hypotheses ([N,K^phi] abelian, K^phi centralizing [N,K^phi]); the
    report records whether each hypothesis held. Each triple bracket is
    walked once, in step (3), and step (4) squares those walks.
    """
    g, h = eta.pair.g, eta.pair.h
    goh, hog = eta.pair.g_on_h.rows.tolist(), eta.pair.h_on_g.rows.tolist()
    carrier = eta.carrier
    N = tuple(sorted(set(n_elements)))
    K = tuple(sorted(set(k_elements)))
    nset, kset = set(N), set(K)

    invariant = all(hog[k][n] in nset for k in K for n in N) and all(
        goh[n][k] in kset for n in N for k in K
    )
    if not invariant:
        return (
            "FAIL",
            "precondition fails: N and K are not mutually invariant",
            {"n_elements": list(N), "k_elements": list(K)},
        )

    frame = _tensor_frame(eta, N, K)
    big_m, tset = frame.big_m, frame.tset
    conjugations = [conjugation_map(carrier, c) for c in big_m.generators]
    parts = [f"|N|={len(N)} |K|={len(K)} |T(N,K)|={tset.size} |M|={big_m.order()}"]
    failures: list[dict] = []

    witness = looped_invariance_witness(tset, conjugations)
    if witness is None:
        parts.append("(1) normal subset")
    else:
        failures.append({"step": 1, **witness})
        parts.append("(1) FAILS")

    sub_a = carrier.subgroup(tset.members)
    normal = all(sub_a.contains(int(m[s])) for s in sub_a.generators for m in conjugations)
    if normal:
        parts.append(f"(2) [N,K^phi] of order {sub_a.order()} normal")
    else:
        failures.append({"step": 2, "subgroup_order": sub_a.order()})
        parts.append("(2) FAILS")

    rows = _element_rows(eta)
    h_arr = rows[1]
    k_arr = np.array(K)
    k_inv = h.inverse_table[k_arr]
    tinvt: set[int] = set()
    for u in tset.members:
        tinvt.update(_brackets_after(eta, rows, carrier.inv(u))[np.ix_(N, K)].ravel().tolist())

    # [t1, hh'] = t1^-1 hh'^-1 t1 hh' for t1 = [n, k'], walked from t1^-1, at [n, k, hh]
    triples: dict[tuple[int, int], list[int]] = {}
    for n in N:
        for k in K:
            it1 = carrier.inv(eta.tensor(n, k))
            walked = h_arr[k_arr, _walk_bracket(eta.pair, rows, h_arr[k_inv, it1], n, k)]
            triples[n, k] = walked.tolist()
    x_keys = dict.fromkeys(key for walked in triples.values() for key in walked)

    s_keys = {carrier.comm(a, eta.embed_h[k]): None for a in sub_a.elements() for k in K}
    sub_s = carrier.subgroup(s_keys)
    x_group = carrier.subgroup(x_keys)
    in_tinvt = set(x_keys) <= tinvt
    generates_s = x_group.same_subgroup_as(sub_s)
    if in_tinvt and generates_s:
        parts.append(
            f"(3) {len(x_keys)} triple brackets inside T^-1 T generate "
            f"[N,K^phi,K^phi] of order {sub_s.order()}"
        )
    else:
        if not in_tinvt:
            stray = sorted(set(x_keys) - tinvt)[0]
            failures.append({"step": 3, "bracket_key": stray, "reason": "outside T^-1 T"})
        if not generates_s:
            failures.append(
                {
                    "step": 3,
                    "generated_order": x_group.order(),
                    "expected_order": sub_s.order(),
                }
            )
        parts.append("(3) FAILS")

    hyp4 = sub_a.is_abelian()
    if hyp4:
        count4 = 0
        fail4 = None
        for n in N:
            for hh in K:
                n1 = g.mul(g.inv(n), hog[hh][n])
                # w = [t1, k'] for t1 = [n, hh'], step (3)'s triple bracket, per k in K
                for k, w in zip(K, triples[n, hh]):
                    square = carrier.mul(w, w)
                    expected = eta.tensor(g.mul(n1, n1), k)
                    count4 += 1
                    if square != expected and fail4 is None:
                        fail4 = {
                            "step": 4,
                            "n": n,
                            "h": hh,
                            "k": k,
                            "square": square,
                            "expected": expected,
                        }
        if fail4 is None:
            parts.append(f"(4) abelian hypothesis holds: {count4} squares match")
        else:
            failures.append(fail4)
            parts.append("(4) FAILS")
    else:
        parts.append("(4) hypothesis fails ([N,K^phi] not abelian), step not applicable")

    hyp5 = all(
        carrier.mul(a, eta.embed_h[k]) == carrier.mul(eta.embed_h[k], a)
        for k in K
        for a in sub_a.generators
    )
    if hyp5:
        count5 = 0
        fail5 = None
        for n in N:
            for k in K:
                t = eta.tensor(n, k)
                square = carrier.mul(t, t)
                expected = eta.tensor(n, h.mul(k, k))
                count5 += 1
                if square != expected and fail5 is None:
                    fail5 = {"step": 5, "n": n, "k": k, "square": square, "expected": expected}
        if fail5 is None:
            parts.append(f"(5) centralizing hypothesis holds: {count5} squares match")
        else:
            failures.append(fail5)
            parts.append("(5) FAILS")
    else:
        parts.append(
            "(5) hypothesis fails (K^phi does not centralize [N,K^phi]), "
            "step not applicable"
        )

    verdict = "PASS" if not failures else "FAIL"
    witness = failures[0] if failures else None
    return verdict, "; ".join(parts), witness
