"""Independent reference computations the tests compare the package against.

Everything here is deliberately naive: brute-force closures, schoolbook
determinants, additive-module enumeration. Slow is fine; these only run on
small inputs and exist so the fast implementations have something honest to
disagree with.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from math import gcd, lcm

import numpy as np

from etacalc.errors import InvarianceError
from etacalc.eta import _bracket_walk
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
    rows = action.rows
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
    goh, hog = pair.g_on_h.rows, pair.h_on_g.rows
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


def looped_derived_indices(group):
    """TableGroup.derived_indices as a loop: one scalar commutator per pair of elements."""
    comms = {group.comm(a, b) for a in range(group.n) for b in range(group.n)}
    return group.subgroup_closure(comms)


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
    from etacalc.fpgroup import Presentation

    g, h = pair.g, pair.h
    gt, ginv = g.table.tolist(), g.inverse_table.tolist()
    ht, hinv = h.table.tolist(), h.inverse_table.tolist()
    goh, hog = pair.g_on_h.rows, pair.h_on_g.rows
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
    return Presentation(names, tuple(relators))


# verify's lemma23 and thma checks as they were written before they were
# batched into whole-array walks: one loop step per tuple, scalar products
# on the carrier. The batched checks must agree with them report for report.


def _brackets_after(eta, start, arrays=None):
    """start [a, b'] for all a in G and b in H, as a (|G|, |H|) array.

    arrays replaces eta's (g_arrays, h_arrays) in the walk.
    """
    a, b = np.arange(eta.pair.g.n)[:, None], np.arange(eta.pair.h.n)[None, :]
    return _bracket_walk(eta.pair, *(arrays or (eta.g_arrays, eta.h_arrays)), start, a, b)


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
    goh, hog = eta.pair.g_on_h.rows, eta.pair.h_on_g.rows
    carrier = eta.carrier
    g_arr, h_arr = eta.g_arrays, eta.h_arrays
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
            rhs_forms = (
                ("conjugation", h_arr[ys, eta.times_bracket(h_arr[h_inv, it0], gg, hh)]),
                ("substitution", _brackets_after(eta, it0)[hog_arr[:, gg], h_conj[hh]]),
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
            k1 = eta.times_bracket(_brackets_after(eta, s1), x, y)
            k2 = g_arr[e2][_brackets_after(eta, eta.embed_g[g_inv[e2]])]
            k3 = h_arr[e3][_brackets_after(eta, eta.embed_h[h_inv[e3]])]
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
                plain = _brackets_after(eta, s1, (g_arr, g_arr))
                lit_checked += g.n * h.n
                lit_fail += int(np.count_nonzero(eta.times_bracket(plain, x, y) != k2))

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
    report records whether each hypothesis held.
    """
    g, h = eta.pair.g, eta.pair.h
    goh, hog = eta.pair.g_on_h.rows, eta.pair.h_on_g.rows
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

    big_m, tset = _tensor_frame(eta, N, K)
    conjugations = [carrier.conj_map(c) for c in big_m.generators]
    parts = [f"|N|={len(N)} |K|={len(K)} |T(N,K)|={tset.size} |M|={big_m.order()}"]
    failures: list[dict] = []

    try:
        tset.require_invariant_under(conjugations)
        parts.append("(1) normal subset")
    except InvarianceError as err:
        failures.append({"step": 1, **(err.witness or {})})
        parts.append("(1) FAILS")

    sub_a = carrier.subgroup(tset.members)
    normal = all(sub_a.contains(int(m[s])) for s in sub_a.generators for m in conjugations)
    if normal:
        parts.append(f"(2) [N,K^phi] of order {sub_a.order()} normal")
    else:
        failures.append({"step": 2, "subgroup_order": sub_a.order()})
        parts.append("(2) FAILS")

    h_arr = eta.h_arrays
    k_arr = np.array(K)
    k_inv = h.inverse_table[k_arr]
    hog_k = np.asarray(hog)[k_arr]  # [i, n] = n^(K[i])
    k_conj = h.conj_table()[np.ix_(k_arr, k_arr)]  # [i, j] = K[i]^K[j]
    tinvt: set[int] = set()
    for u in tset.members:
        tinvt.update(_brackets_after(eta, carrier.inv(u))[np.ix_(N, K)].ravel().tolist())

    x_keys: dict[int, None] = {}
    identity_fail = None
    for n in N:
        for i, k in enumerate(K):
            t1 = eta.tensor(n, k)
            it1 = carrier.inv(t1)
            # t1^-1 t2 for t2 = [n^hh, (k^hh)'], and [t1, hh'], for every hh in K
            w_keys = _brackets_after(eta, it1)[hog_k[:, n], k_conj[i]]
            direct = h_arr[k_arr, eta.times_bracket(h_arr[k_inv, it1], n, k)]
            for hh, w_key, bracket in zip(K, w_keys.tolist(), direct.tolist()):
                if bracket != w_key and identity_fail is None:
                    identity_fail = {
                        "step": 3,
                        "n": n,
                        "k": k,
                        "h": hh,
                        "bracket": bracket,
                        "substitution": w_key,
                    }
                x_keys.setdefault(w_key)
    if identity_fail is not None:
        failures.append(identity_fail)

    s_keys = {carrier.comm(a, eta.embed_h[k]): None for a in sub_a.elements() for k in K}
    sub_s = carrier.subgroup(s_keys)
    x_group = carrier.subgroup(x_keys)
    in_tinvt = set(x_keys) <= tinvt
    generates_s = x_group.same_subgroup_as(sub_s)
    if in_tinvt and generates_s and identity_fail is None:
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
            for i, hh in enumerate(K):
                n1 = g.mul(g.inv(n), hog[hh][n])
                # w = t1^-1 t2 for t1 = [n, hh'] and t2 = [n^k, (hh^k)'], per k in K
                after = _brackets_after(eta, carrier.inv(eta.tensor(n, hh)))
                w_keys = after[hog_k[:, n], k_conj[i]].tolist()
                for k, w in zip(K, w_keys):
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
