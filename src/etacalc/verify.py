"""Machine checks for the structural identities of the eta construction.

Every check is a claim with a stable id, pinned to the customary label of
the statement it exercises (Lemma 2.1, Theorem A, and so on).  Running a
claim against one corpus instance produces a ClaimReport: verdict PASS,
FAIL, or SKIPPED, a deterministic detail string, and a concrete witness
whenever something fails.  Capacity overruns are recorded as SKIPPED and
are never counted as passes.

The claims form one table, _CLAIMS: each row is a claim id, its anchor,
the corpus instances it applies to, and a check that returns (verdict,
detail, witness).  run_corpus first builds every instance the selected claims need,
once and in corpus order, and each (N, K) tensor frame that Lemma 2.2 and
Theorem A share, once; then it runs each row over its instances in one
loop.  A report's elapsed time covers its check alone, never construction,
and a frame counts as construction.
Reports are sorted by (instance, claim), so two runs over the same corpus
emit byte-identical JSON lines.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .abelian import delta_of_abelian, pi_set
from .action import (
    ActionPair,
    check_compatibility,
    compatibility_triples,
    conjugation_pair,
    incompatible_example,
    pair_from_json_dict,
    trivial_pair,
)
from .errors import CapacityError, IncompatibleActionError, InvarianceError
from .eta import (
    DEFAULT_MAX_COSETS,
    EtaGroup,
    TensorSet,
    check_decomposition,
    construct_eta,
    restricted_tensor_set,
    trivial_action_baseline,
)
from .groups import TableGroup, builtin
from .nu import NuGroup, check_derived_decomposition, construct_nu
from .perm import PermGroup, abelian_invariants_of, centralizer_index


@dataclass(frozen=True)
class CorpusPair:
    """One action pair in the corpus, under a stable instance label."""

    label: str
    kind: str  # "conjugation" | "trivial" | "incompatible" | "custom"
    pair: ActionPair


@dataclass(frozen=True)
class SubgroupCase:
    """A proper (N, K) choice inside the carrier of a host corpus pair."""

    label: str
    host: str
    n_elements: tuple[int, ...]
    k_elements: tuple[int, ...]


@dataclass(frozen=True)
class Corpus:
    pairs: tuple[CorpusPair, ...]
    incompatible: tuple[CorpusPair, ...]
    subgroup_cases: tuple[SubgroupCase, ...]


@dataclass
class ClaimReport:
    """Outcome of one claim on one instance.

    The elapsed time is kept for interactive display but deliberately left
    out of the JSON form, so that repeated runs stay byte-identical.
    """

    claim: str
    anchor: str
    instance: str
    verdict: str  # "PASS" | "FAIL" | "SKIPPED"
    detail: str = ""
    witness: dict | None = None
    elapsed: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "claim": self.claim,
            "anchor": self.anchor,
            "instance": self.instance,
            "verdict": self.verdict,
            "detail": self.detail,
            "witness": self.witness,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _timed(claim: _Claim, instance: str, check, *args) -> ClaimReport:
    """Report check(*args) under the claim's row; elapsed covers the check alone."""
    t0 = time.perf_counter()
    verdict, detail, witness = check(*args)
    return ClaimReport(
        claim=claim.id,
        anchor=claim.anchor,
        instance=instance,
        verdict=verdict,
        detail=detail,
        witness=witness,
        elapsed=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# corpus


_CONJUGATION = (
    "C2",
    "C3",
    "C4",
    "C5",
    "C6",
    "C7",
    "C8",
    "C9",
    "C10",
    "C11",
    "C12",
    "C2xC2",
    "C2xC4",
    "C2xC6",
    "D6",
    "D8",
    "D10",
    "D12",
    "Q8",
    "S3",
    "A4",
)

_TRIVIAL = (
    ("C2", "C2"),
    ("C2", "C3"),
    ("C2", "C4"),
    ("C2xC2", "C2"),
    ("C2xC2", "C2xC2"),
    ("C2xC4", "C4"),
    ("C2xC6", "C6"),
    ("C3", "C3"),
    ("C3", "C6"),
    ("C4", "C6"),
    ("C6", "C6"),
    ("S3", "C4"),
    ("D8", "C6"),
    ("Q8", "C6"),
    ("A4", "C2"),
)


def default_corpus() -> Corpus:
    """Stock corpus: conjugation pairs, trivial cross pairs, one rejected pair.

    Every group has order at most 12, so no default instance comes near the
    coset cap.  The subgroup cases give Lemma 2.2 and Theorem A proper
    (N, K) choices beyond the full pairs.
    """
    pairs = [
        CorpusPair(f"nu:{name}", "conjugation", conjugation_pair(builtin(name)))
        for name in _CONJUGATION
    ]
    pairs += [
        CorpusPair(f"trivial:{a},{b}", "trivial", trivial_pair(builtin(a), builtin(b)))
        for a, b in _TRIVIAL
    ]
    incompatible = (
        CorpusPair("incompatible:S3,C2", "incompatible", incompatible_example()),
    )
    s3, d8, q8 = builtin("S3"), builtin("D8"), builtin("Q8")
    c4, c6 = builtin("C4"), builtin("C6")
    cases = (
        SubgroupCase("sub:S3:A3,A3", "nu:S3", s3.derived_indices(), s3.derived_indices()),
        SubgroupCase(
            "sub:D8:rotations,center",
            "nu:D8",
            d8.subgroup_closure([1]),
            d8.center_indices(),
        ),
        SubgroupCase(
            "sub:Q8:i,j", "nu:Q8", q8.subgroup_closure([2]), q8.subgroup_closure([4])
        ),
        SubgroupCase(
            "sub:C4,C6:halves,thirds",
            "trivial:C4,C6",
            c4.subgroup_closure([2]),
            c6.subgroup_closure([2]),
        ),
    )
    return Corpus(tuple(pairs), incompatible, cases)


def corpus_from_json_dict(data: dict) -> Corpus:
    """Corpus of user pairs; each entry is an action-pair JSON object."""
    if not isinstance(data, dict) or data.get("schema") != 1:
        raise ValueError("corpus object must carry schema 1")
    entries = data.get("pairs")
    if not isinstance(entries, list) or not entries:
        raise ValueError("corpus object needs a non-empty pairs list")
    pairs = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"pairs[{i}] is not an object")
        pairs.append(CorpusPair(f"pair:{i}", "custom", pair_from_json_dict(entry)))
    return Corpus(tuple(pairs), (), ())


# ---------------------------------------------------------------------------
# subgroup frames


class _Frame(NamedTuple):
    """T(N,K) inside M = <N, K^phi> over one carrier, with its classes in M.

    sizes is centralizer_index over T(N,K)'s members, or the InvarianceError
    it raised, whose witness names the escaping member by its (g, h) pair.
    """

    eta: EtaGroup
    N: tuple[int, ...]
    K: tuple[int, ...]
    big_m: PermGroup
    tset: TensorSet
    sizes: list[int] | InvarianceError


def _tensor_frame(eta: EtaGroup, n_elements, k_elements) -> _Frame:
    """The frame of (N, K); M's generators are the conjugators of its checks.

    For the full pair M is the whole carrier, whose generators are the
    embedded generating subsets of G and H, in order; otherwise M is the
    subgroup generated by the embedded members of N and K.
    """
    N = tuple(sorted(set(n_elements)))
    K = tuple(sorted(set(k_elements)))
    if len(N) == eta.pair.g.n and len(K) == eta.pair.h.n:
        big_m, tset = eta.carrier, eta.tensor_set
    else:
        big_m = eta.carrier.subgroup([eta.embed_g[a] for a in N] + [eta.embed_h[b] for b in K])
        tset = restricted_tensor_set(eta, N, K)
    try:
        sizes = centralizer_index(big_m, tset.members)
    except InvarianceError as err:
        err.witness["member"] = tset.pair_for[tset.members[err.witness["member"]]]
        sizes = err
    return _Frame(eta, N, K, big_m, tset, sizes)


# ---------------------------------------------------------------------------
# claim checks: each returns (verdict, detail, witness)


def _failure_text(f: dict) -> str:
    if f["family"] == 1:
        spot = f"g={f['g_label']}, g1={f['g1_label']}, h={f['h_label']}"
    else:
        spot = f"h={f['h_label']}, h1={f['h1_label']}, g={f['g_label']}"
    return f"family {f['family']} at ({spot})"


def _verdict(checks: dict, detail: str, failure: str, **extras):
    """PASS with detail when every check holds, else FAIL with each check's bool and the extras."""
    if all(checks.values()):
        return "PASS", detail, None
    return "FAIL", failure, {**{k: bool(ok) for k, ok in checks.items()}, **extras}


def _compat(pair: ActionPair, expect_compatible: bool):
    failures = check_compatibility(pair)
    if not failures:
        if expect_compatible:
            return "PASS", f"both families hold over {compatibility_triples(pair)} triples", None
        return "FAIL", "expected rejection, but both families hold", None
    first = _failure_text(failures[0])
    if expect_compatible:
        detail = f"{len(failures)} of {compatibility_triples(pair)} triples fail, first at {first}"
        return "FAIL", detail, failures[0]
    return "PASS", f"rejected: {len(failures)} failing triples, first at {first}", failures[0]


def _decomposition(eta: EtaGroup):
    audit = check_decomposition(eta)
    if not audit["ok"]:
        return "FAIL", "product decomposition audit failed", audit
    detail = (
        f"|eta| = {audit['order']} = {audit['tensor_order']} * "
        f"{audit['g_order']} * {audit['h_order']}; products cover, "
        "intersections trivial, factors generate"
    )
    return "PASS", detail, None


def _ztensor(eta: EtaGroup, pair: ActionPair):
    baseline = trivial_action_baseline(pair.g, pair.h)
    observed = abelian_invariants_of(eta.tensor_subgroup)
    factors = None if observed is None else list(observed.factors)
    checks = {
        "tensor_abelian": observed is not None,
        "invariants_match": observed == baseline,
        "order_match": eta.tensor_order() == baseline.order,
        "carrier_order": eta.order() == baseline.order * pair.g.n * pair.h.n,
    }
    detail = f"tensor invariants {factors} match G^ab tensor_Z H^ab of order {baseline.order}"
    failure = "tensor subgroup disagrees with the abelianized baseline"
    return _verdict(checks, detail, failure, expected=list(baseline.factors), observed=factors)


def _derived_decomposition(nu: NuGroup):
    audit = check_derived_decomposition(nu)
    if audit["ok"]:
        detail = (
            f"|nu(G)'| = {audit['derived_order']} = {audit['tensor_order']} * "
            f"{audit['g_derived_order']}^2; intersections trivial"
        )
        return "PASS", detail, None
    return "FAIL", "derived subgroup decomposition audit failed", dict(audit)


def _centralizer_bound(frame: _Frame):
    """Conjugacy classes of tensors are no larger than the tensor set.

    T(N,K) is a finite normal subset of M = <N, K^phi>, so the index of
    each member's centralizer in M is bounded by |T(N,K)|.
    """
    if isinstance(frame.sizes, InvarianceError):
        detail = "tensor set is not a normal subset, bound does not apply"
        return "FAIL", detail, dict(frame.sizes.witness)
    tset, bound = frame.tset, frame.tset.size
    for t, index in zip(tset.members, frame.sizes):
        if index > bound:
            witness = {"member": list(tset.pair_for[t]), "index": index, "bound": bound}
            return "FAIL", f"class size {index} exceeds |T(N,K)| = {bound}", witness
    detail = (
        f"largest class size {max(frame.sizes, default=0)} <= {bound} over {tset.size} "
        f"members, |M| = {frame.big_m.order()}"
    )
    return "PASS", detail, None


def _first(bad: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True entry in C order, or None."""
    spots = np.argwhere(bad)
    return tuple(spots[0].tolist()) if len(spots) else None


def _identity_b(eta: EtaGroup, key, key_inv, g_shift):
    """(checks, failures, first failure) of identity (b), over (g, h, y, form)."""
    h = eta.pair.h
    hog = eta.pair.h_on_g.rows
    gg = np.arange(eta.pair.g.n)[:, None, None]
    hh, y = np.arange(h.n)[None, :, None], np.arange(h.n)[None, None, :]
    lhs = key[g_shift[:, :, None], y]
    start = key_inv[:, :, None]
    conjugated = eta.times_bracket(eta.times_h(start, h.inverse_table[y]), gg, hh)
    conjugation = eta.times_h(conjugated, y)
    substitution = eta.times_bracket(start, hog[y, gg], h.conj_table()[hh, y])
    forms = (conjugation, substitution)
    bad = np.stack([lhs != rhs for rhs in forms], axis=-1)
    spot = _first(bad)
    if spot is None:
        return bad.size, 0, None
    witness = {
        "identity": "b",
        "form": ("conjugation", "substitution")[spot[3]],
        "g": spot[0],
        "h": spot[1],
        "y": spot[2],
        "lhs": int(lhs[spot[:3]]),
        "rhs": int(forms[spot[3]][spot[:3]]),
    }
    return bad.size, np.count_nonzero(bad), witness


def _classes(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tuples, in C order, in classes on which every key agrees: each one's first and size."""
    rows = np.stack([np.ravel(key) for key in keys])
    order = np.lexsort(rows)  # stable, so each class lists its tuples in C order
    starts = np.flatnonzero(np.diff(rows[:, order], prepend=-1).any(axis=0))  # keys are >= 0
    by_first = order[starts].argsort()  # the classes in order of their first tuples
    return order[starts[by_first]], np.diff(starts, append=len(order))[by_first]


def _identity_a(eta: EtaGroup, key_inv, g_shift, h_shift):
    """(failures, literal-reading divergences, first failure) of identity (a).

    At (x, y, g, h): k = [g, h'] conjugated by w = [x, y'], by e = x^-1 x^y
    and by f = (y^x)^-1 y. In the certified regular carrier a walk from p
    ends at p times the walk's end from 0, so the sides are key_inv[x, y] k
    w, k^e and k^f' (and key_inv[x, y] [g, h] w for the literal reading),
    with k and w walked and [g, h] in G. So they read (x, y) through
    key_inv, w, e and f alone, and (g, h) through k and [g, h]: each pair
    of classes is walked at its first tuples and counted once per tuple it
    stands for. The divergences are None when the groups differ.
    """
    g, h = eta.pair.g, eta.pair.h
    a, b = np.arange(g.n)[:, None], np.arange(h.n)[None, :]
    walked = eta.times_bracket(0, a, b)
    commutator = g.table[g.inverse_table[a], g.conj_table()[a, b]] if g == h else None
    xy, m_xy = _classes(key_inv, walked, g_shift, h_shift)
    gh, m_gh = _classes(walked, *([] if commutator is None else [commutator]))
    weight = m_xy[:, None] * m_gh[None, :]
    x, y = (c[:, None] for c in np.divmod(xy, h.n))
    gg, hh = np.divmod(gh, h.n)
    start, e, f = key_inv.flat[xy][:, None], g_shift.flat[xy][:, None], h_shift.flat[xy][:, None]
    # k walked from key_inv[x, y], from e^-1 and from f'^-1 at once
    starts = [start, eta.times_g(0, g.inverse_table[e]), eta.times_h(0, h.inverse_table[f])]
    walks = eta.times_bracket(np.stack(starts), gg, hh)
    k1 = eta.times_bracket(walks[0], x, y)
    k2, k3 = eta.times_g(walks[1], e), eta.times_h(walks[2], f)
    bad = (k1 != k2) | (k2 != k3)
    witness, diverging = None, None
    if (spot := _first(bad)) is not None:
        i, j = spot
        values = (x[i, 0], y[i, 0], gg[j], hh[j], k1[spot], k2[spot], k3[spot])
        names = ("x", "y", "g", "h", "conjugated", "first_copy", "second_copy")
        witness = {"identity": "a", **dict(zip(names, map(int, values)))}
    if commutator is not None:
        # the literal reading: the plain commutator [g, h] of two first-copy elements
        plain = eta.times_g(start, commutator.flat[gh])
        diverging = int(weight[eta.times_bracket(plain, x, y) != k2].sum())
    return int(weight[bad].sum()), diverging, witness


def _lemma_identities(eta: EtaGroup):
    """Exhaustive check of the two bracket identities over the carrier.

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

    Each side of identity (b) is one broadcast walk over all (g, h, y), and
    each side of identity (a) one walk over its pairs of classes. The
    witness is the first failure in the order (x, y, g, h) of identity (a),
    then (g, h, y, form) of identity (b).
    """
    g, h = eta.pair.g, eta.pair.h
    key = eta.tensors
    key_inv = eta.carrier.inverses(key)
    a, b = np.arange(g.n)[:, None], np.arange(h.n)[None, :]
    g_shift = g.table[g.inverse_table[a], eta.pair.h_on_g.rows.T]  # a^-1 a^b
    h_shift = h.table[h.inverse_table[eta.pair.g_on_h.rows], b]  # (b^a)^-1 b
    checked_b, fail_b, witness_b = _identity_b(eta, key, key_inv, g_shift)
    fail_a, diverging, witness_a = _identity_a(eta, key_inv, g_shift, h_shift)

    checked_a = g.n * h.n * g.n * h.n
    if diverging is None:
        literal = "literal reading not evaluable (distinct groups)"
    elif diverging:
        literal = f"literal reading diverges at {diverging} of {checked_a} tuples"
    else:
        literal = f"literal reading agrees at all {checked_a} tuples"
    detail = (
        f"(a) adopted reading: {checked_a} tuples, {fail_a} failures; "
        f"{literal}; (b) {checked_b} checks, {fail_b} failures"
    )
    witness = witness_a or witness_b
    return ("PASS" if witness is None else "FAIL"), detail, witness


def _mu_quotient(nu: NuGroup):
    derived_order = len(nu.group.derived_indices())
    image_order = len(nu.rho_prime.image_group())
    mu_order = nu.mu.order()
    checks = {
        "image_is_derived": image_order == derived_order,
        "orders_multiply": nu.tensor_order() == mu_order * derived_order,
        "mu_central": nu.mu.is_central_in(nu.carrier),
        "mu_in_tensor": all(nu.tensor_subgroup.contains(m) for m in nu.mu.generators),
    }
    detail = (
        f"|[G,G^phi]| = {nu.tensor_order()} = {mu_order} * {derived_order}; "
        f"mu(G) of order {mu_order} is central"
    )
    orders = {
        "tensor_order": nu.tensor_order(),
        "mu_order": mu_order,
        "derived_order": derived_order,
        "image_order": image_order,
    }
    return _verdict(checks, detail, "quotient of the tensor subgroup by mu is not G'", **orders)


def _mutually_invariant(frame: _Frame) -> bool:
    """Theorem A's precondition: K's action keeps N inside N, and N's keeps K inside K."""
    goh, hog = frame.eta.pair.g_on_h.rows, frame.eta.pair.h_on_g.rows
    n, k = np.array(frame.N), np.array(frame.K)
    in_n, in_k = np.zeros(hog.shape[1], dtype=bool), np.zeros(goh.shape[1], dtype=bool)
    in_n[n] = in_k[k] = True  # membership masks of N in G and of K in H
    return bool(in_n[hog[np.ix_(k, n)]].all() and in_k[goh[np.ix_(n, k)]].all())


def _mismatch(step: int, axes, observed, expected) -> dict | None:
    """The first spot in C order where observed != expected, as a step's witness.

    axes name each array axis and list its elements.
    """
    spot = _first(observed != expected)
    if spot is None:
        return None
    witness = {"step": step, **{name: elements[x] for (name, elements), x in zip(axes, spot)}}
    return {**witness, "square": int(observed[spot]), "expected": int(expected[spot])}


def _normal_subset(frame: _Frame, parts: list[str], failures: list[dict]) -> None:
    """Step (1): T(N,K) is a normal subset of M, as the frame's classes found."""
    if isinstance(frame.sizes, InvarianceError):
        failures.append({"step": 1, **frame.sizes.witness})
        parts.append("(1) FAILS")
    else:
        parts.append("(1) normal subset")


def _normal_subgroup(frame: _Frame, parts: list[str], failures: list[dict]) -> PermGroup:
    """Step (2): [N,K^phi], the subgroup T(N,K) generates, is normal in M; returns it."""
    eta, tset = frame.eta, frame.tset
    sub_a = eta.tensor_subgroup if tset is eta.tensor_set else eta.carrier.subgroup(tset.members)
    gens = np.asarray(sub_a.generators, dtype=np.intp)[:, None]
    conjugates = eta.carrier.conjugates(gens, frame.big_m.generators)
    if all(map(sub_a.contains, conjugates.ravel().tolist())):
        parts.append(f"(2) [N,K^phi] of order {sub_a.order()} normal")
    else:
        failures.append({"step": 2, "subgroup_order": sub_a.order()})
        parts.append("(2) FAILS")
    return sub_a


def _triple_brackets(frame: _Frame, sub_a: PermGroup, parts, failures) -> np.ndarray:
    """Step (3): the triple brackets lie in T^-1 T and generate [N,K^phi,K^phi].

    Returns w[n, i, j] = [t1, K[j]'], t1 = [n, K[i]']: step (3)'s bracket at
    (n, k, hh) = (n, K[i], K[j]), and step (4)'s w at (n, hh, k). It is not
    walked again as t1^-1 [n^hh, (k^hh)']: construct_eta certifies that family.
    """
    eta, N, K = frame.eta, frame.N, frame.K
    carrier, h = eta.carrier, eta.pair.h
    n_arr, k_arr = np.array(N), np.array(K)
    k_inv = h.inverse_table[k_arr]
    key = eta.tensors[np.ix_(n_arr, k_arr)]
    inverses = carrier.inverses(np.concatenate([key.ravel(), frame.tset.members]))
    key_inv, members_inv = inverses[: key.size].reshape(key.shape), inverses[key.size :]
    t_nk = eta.times_bracket(members_inv[:, None, None], n_arr[:, None], k_arr[None, :])
    tinvt = set(t_nk.ravel().tolist())

    # t1^-1 hh'^-1 t1 hh', walked from t1^-1
    n, i, j = n_arr[:, None, None], k_arr[None, :, None], k_arr[None, None, :]
    w = eta.times_h(eta.times_bracket(eta.times_h(key_inv[:, :, None], k_inv), n, i), j)
    # the distinct w, in order of first occurrence
    x_keys = list(dict.fromkeys(w.ravel().tolist()))

    # [a, k'] = a^-1 k'^-1 a k' for every a in [N,K^phi] and k in K
    elements = np.array(sub_a.orbit0())[:, None]
    after = eta.times_h(carrier.inverses(elements), k_inv)
    s_keys = eta.times_h(carrier.products(after, elements), k_arr)
    sub_s = carrier.subgroup(sorted(set(s_keys.ravel().tolist())))
    x_group = carrier.subgroup(x_keys)
    in_tinvt = set(x_keys) <= tinvt
    generates_s = x_group.same_subgroup_as(sub_s)
    if in_tinvt and generates_s:
        parts.append(
            f"(3) {len(x_keys)} triple brackets inside T^-1 T generate "
            f"[N,K^phi,K^phi] of order {sub_s.order()}"
        )
        return w
    if not in_tinvt:
        stray = sorted(set(x_keys) - tinvt)[0]
        failures.append({"step": 3, "bracket_key": stray, "reason": "outside T^-1 T"})
    if not generates_s:
        orders = {"generated_order": x_group.order(), "expected_order": sub_s.order()}
        failures.append({"step": 3, **orders})
    parts.append("(3) FAILS")
    return w


def _squares(step: int, hypothesis: str, unmet: str, squares, parts, failures) -> None:
    """Steps (4) and (5): under the hypothesis, each square against its expected tensor.

    squares is None when the hypothesis fails (unmet says how), and
    otherwise (axes, square, expected) as _mismatch takes them.
    """
    if squares is None:
        parts.append(f"({step}) hypothesis fails ({unmet}), step not applicable")
    elif (witness := _mismatch(step, *squares)) is None:
        parts.append(f"({step}) {hypothesis} hypothesis holds: {squares[1].size} squares match")
    else:
        failures.append(witness)
        parts.append(f"({step}) FAILS")


def _abelian_squares(frame: _Frame, sub_a: PermGroup, w: np.ndarray, parts, failures) -> None:
    """Step (4): if [N,K^phi] is abelian, w^2 = [n1^2, k'] at (n, hh, k), n1 = n^-1 n^hh."""
    squares = None
    if sub_a.is_abelian():
        eta, g, N, K = frame.eta, frame.eta.pair.g, frame.N, frame.K
        n, i, j = np.array(N)[:, None, None], np.array(K)[None, :, None], np.array(K)[None, None, :]
        n1 = g.table[g.inverse_table[n], eta.pair.h_on_g.rows[i, n]]
        axes = (("n", N), ("h", K), ("k", K))
        squares = (axes, eta.carrier.products(w, w), eta.tensors[g.table[n1, n1], j])
    _squares(4, "abelian", "[N,K^phi] not abelian", squares, parts, failures)


def _centralizing_squares(frame: _Frame, sub_a: PermGroup, parts, failures) -> None:
    """Step (5): if K^phi centralizes [N,K^phi], [n, k']^2 = [n, (k^2)'] at (n, k)."""
    eta, h = frame.eta, frame.eta.pair.h
    n_arr, k_arr = np.array(frame.N), np.array(frame.K)
    # a k' == k' a for every generator a of [N,K^phi] and k in K
    gens = np.array(sub_a.generators, dtype=np.int64)[None, :]
    k_points = eta.times_h(0, k_arr)[:, None]
    squares = None
    if np.array_equal(eta.times_h(gens, k_arr[:, None]), eta.carrier.products(k_points, gens)):
        key = eta.tensors[np.ix_(n_arr, k_arr)]
        expected = eta.tensors[n_arr[:, None], h.table[k_arr, k_arr][None, :]]
        squares = ((("n", frame.N), ("k", frame.K)), eta.carrier.products(key, key), expected)
    _squares(5, "centralizing", "K^phi does not centralize [N,K^phi]", squares, parts, failures)


def _theorem_A(frame: _Frame):
    """The five structural steps behind Theorem A, over one frame.

    Steps (1)-(3) are unconditional: the restricted tensor set is a normal
    subset of M = <N, K^phi>, the subgroup it generates is normal in M, and
    the triple brackets [n,k^phi,h^phi] land in T^-1 T and generate
    [N,K^phi,K^phi].  Steps (4) and (5) only apply under their printed
    hypotheses ([N,K^phi] abelian, K^phi centralizing [N,K^phi]); the
    report records whether each hypothesis held.

    Each step checks all of its tuples with a few whole-array passes; step
    (3) names its least stray bracket, and steps (4) and (5) their first
    failure in the order (n, h, k) and (n, k).
    """
    N, K = frame.N, frame.K
    if not _mutually_invariant(frame):
        detail = "precondition fails: N and K are not mutually invariant"
        return "FAIL", detail, {"n_elements": list(N), "k_elements": list(K)}
    parts = [f"|N|={len(N)} |K|={len(K)} |T(N,K)|={frame.tset.size} |M|={frame.big_m.order()}"]
    failures: list[dict] = []
    _normal_subset(frame, parts, failures)
    sub_a = _normal_subgroup(frame, parts, failures)
    w = _triple_brackets(frame, sub_a, parts, failures)
    _abelian_squares(frame, sub_a, w, parts, failures)
    _centralizing_squares(frame, sub_a, parts, failures)
    return ("FAIL" if failures else "PASS"), "; ".join(parts), (failures[0] if failures else None)


def _finiteness(nu: NuGroup):
    """Finitely many tensors force the tensor subgroup and nu(G) finite.

    Checked at finite scale: the tensor set is no larger than the subgroup
    it generates, and |nu(G)| = |[G,G^phi]| * |G|^2. That the set generates
    [G,G^phi] holds by construction: construct_eta defines the tensor
    subgroup as the subgroup the set generates.
    """
    set_size = nu.eta.tensor_set.size
    tensor_order = nu.tensor_order()
    n = nu.group.n
    checks = {
        "set_bounded": set_size <= tensor_order,
        "order_product": nu.order() == tensor_order * n * n,
    }
    detail = (
        f"{set_size} tensors generate [G,G^phi] of order {tensor_order}; "
        f"|nu(G)| = {tensor_order} * {n}^2 = {nu.order()}"
    )
    sizes = {"set_size": set_size, "tensor_order": tensor_order, "order": nu.order()}
    return _verdict(checks, detail, "finiteness chain broken", **sizes)


def _delta_divisibility(nu: NuGroup):
    d_ab = delta_of_abelian(nu.group.abelian_invariants())
    delta_order = nu.delta.order()
    checks = {
        "divides": d_ab.order >= 1 and delta_order % d_ab.order == 0,
        "primes_contained": pi_set(d_ab) <= pi_set(nu.delta.element_orders()),
    }
    detail = (
        f"|Delta(G^ab)| = {d_ab.order} divides |Delta(G)| = {delta_order}; "
        "prime support carries over"
    )
    failure = "diagonal of the abelianization does not embed at finite scale"
    return _verdict(checks, detail, failure, delta_ab_order=d_ab.order, delta_order=delta_order)


def _prime_support(nu: NuGroup):
    group = nu.group
    if group.n == 1:
        return "PASS", "trivial group: vacuous", None
    a_inv = group.abelian_invariants()
    d_ab = delta_of_abelian(a_inv)
    tensor_primes = pi_set(nu.tensor_subgroup.element_orders())
    checks = {
        "abelianization_primes": pi_set(a_inv) == pi_set(d_ab),
        "group_primes_in_tensor": group.pi() <= tensor_primes,
    }
    detail = (
        f"pi(G) = {sorted(group.pi())} inside pi([G,G^phi]) = "
        f"{sorted(tensor_primes)}; pi(G^ab) = pi(Delta(G^ab)) = "
        f"{sorted(pi_set(d_ab))}"
    )
    primes = {
        "group_primes": sorted(group.pi()),
        "tensor_primes": sorted(tensor_primes),
        "abelianization_primes_set": sorted(pi_set(a_inv)),
        "delta_primes": sorted(pi_set(d_ab)),
    }
    return _verdict(checks, detail, "prime support of the tensor subgroup is too small", **primes)


def _refusal(err: CapacityError | IncompatibleActionError):
    """The outcome of every claim on an instance that could not be built."""
    if isinstance(err, CapacityError):
        return "SKIPPED", f"capacity exceeded: {err.count} cosets requested", None
    witness = err.report[0] if err.report else None
    return "FAIL", "incompatible actions: pair rejected before construction", witness


# ---------------------------------------------------------------------------
# the claim table and its one driver


def _conjugation_group(cp: CorpusPair) -> TableGroup | None:
    """G when the pair is (G, G) acting by conjugation, built as nu(G)."""
    if cp.kind == "conjugation" or (cp.kind == "custom" and cp.pair.is_conjugation()):
        return cp.pair.g
    return None


# A scope lists a claim's jobs over a corpus: (instance, host pair, args).
# The args follow the subject into the check, except for a frame's job,
# whose args are the N and K its frame is built from.


def _every_pair(corpus: Corpus):
    return [(cp.label, cp, ()) for cp in corpus.pairs]


def _pairs_and_rejects(corpus: Corpus):
    jobs = [(cp.label, cp, (True,)) for cp in corpus.pairs]
    return jobs + [(cp.label, cp, (False,)) for cp in corpus.incompatible]


def _trivial_pairs(corpus: Corpus):
    pairs = [cp for cp in corpus.pairs if cp.pair.g_on_h.is_trivial()]
    return [(cp.label, cp, (cp.pair,)) for cp in pairs if cp.pair.h_on_g.is_trivial()]


def _conjugation_instances(corpus: Corpus):
    return [(cp.label, cp, ()) for cp in corpus.pairs if _conjugation_group(cp) is not None]


def _pairs_and_cases(corpus: Corpus):
    hosts = {cp.label: cp for cp in (*corpus.pairs, *corpus.incompatible)}
    jobs = [(cp.label, cp, (range(cp.pair.g.n), range(cp.pair.h.n))) for cp in corpus.pairs]
    cases = corpus.subgroup_cases
    return jobs + [(c.label, hosts[c.host], (c.n_elements, c.k_elements)) for c in cases]


class _Claim(NamedTuple):
    """One row of the claim table."""

    id: str
    anchor: str  # the statement the claim exercises, as its reports name it
    scope: Callable[[Corpus], list]
    subject: str  # what the check gets first: "pair", "eta", "nu" or "frame"
    check: Callable[..., tuple]


_CLAIMS = (
    _Claim("compat", "compatible actions, eq. (0)", _pairs_and_rejects, "pair", _compat),
    _Claim("decomposition", "eta(G,H) = ([G,H^phi].G).H^phi", _every_pair, "eta", _decomposition),
    _Claim("ztensor", "G tensor H = G^ab tensor_Z H^ab for trivial actions",
           _trivial_pairs, "eta", _ztensor),
    _Claim("lemma21", "Lemma 2.1", _conjugation_instances, "nu", _derived_decomposition),
    _Claim("lemma22", "Lemma 2.2", _pairs_and_cases, "frame", _centralizer_bound),
    _Claim("lemma23", "Lemma 2.3", _every_pair, "eta", _lemma_identities),
    _Claim("mu-quotient", "[G,G^phi]/mu(G) = G'", _conjugation_instances, "nu", _mu_quotient),
    _Claim("thma", "Theorem A", _pairs_and_cases, "frame", _theorem_A),
    _Claim("cor32", "Corollary 3.2", _conjugation_instances, "nu", _finiteness),
    _Claim("prop31-delta", "Proposition 3.1", _conjugation_instances, "nu", _delta_divisibility),
    _Claim("thmc-pi", "Theorem C", _conjugation_instances, "nu", _prime_support),
)

CLAIM_IDS = tuple(claim.id for claim in _CLAIMS)


def _build(hosts: list[CorpusPair], max_cosets: int) -> dict[str, dict]:
    """Construct each host once, in order: label -> {"eta": ..., "nu": ...}.

    A conjugation instance is built as nu(G), whose eta is nu.eta; any other
    pair by construct_eta.  A capacity overrun or an incompatible pair is
    kept in place of the construction and replayed by every claim that
    needs it.  Both constructors are looked up in this module's namespace
    at call time, so a caller may rebind them (perfbench serves prebuilt
    instances this way).  run_corpus then adds the tensor frames, which
    count as construction too.
    """
    built: dict[str, dict] = {}
    for cp in hosts:
        group = _conjugation_group(cp)
        try:
            if group is not None:
                nu = construct_nu(group, max_cosets=max_cosets)
                built[cp.label] = {"eta": nu.eta, "nu": nu}
            else:
                built[cp.label] = {"eta": construct_eta(cp.pair, max_cosets=max_cosets)}
        except (CapacityError, IncompatibleActionError) as err:
            built[cp.label] = {"eta": err, "nu": err}
    return built


def run_corpus(
    max_cosets: int = DEFAULT_MAX_COSETS,
    claim_filter: str | None = None,
    corpus: Corpus | None = None,
) -> list[ClaimReport]:
    """Evaluate every claim over the corpus and sort by (instance, claim).

    claim_filter keeps only claims whose id contains the given substring.
    The instances the kept claims need are constructed once, before any
    check runs, and so is each (N, K) tensor frame that lemma22 or thma
    reads, stored under its own instance label; a report's elapsed time
    excludes construction.  Instances that exceed max_cosets, and their
    frames, yield SKIPPED reports.
    """
    if corpus is None:
        corpus = default_corpus()
    jobs = [
        (claim, job)
        for claim in _CLAIMS
        if claim_filter is None or claim_filter in claim.id
        for job in claim.scope(corpus)
    ]
    needed = {cp.label for claim, (_, cp, _) in jobs if claim.subject != "pair"}
    hosts = [cp for cp in (*corpus.pairs, *corpus.incompatible) if cp.label in needed]
    built = _build(hosts, max_cosets)
    for claim, (instance, cp, args) in jobs:
        if claim.subject == "frame" and "frame" not in built.setdefault(instance, {}):
            eta = built[cp.label]["eta"]
            frame = eta if isinstance(eta, Exception) else _tensor_frame(eta, *args)
            built[instance]["frame"] = frame
    reports: list[ClaimReport] = []
    for claim, (instance, cp, args) in jobs:
        if claim.subject == "pair":
            subject = cp.pair
        elif claim.subject == "frame":
            subject, args = built[instance]["frame"], ()
        else:
            subject = built[instance][claim.subject]
        if isinstance(subject, Exception):
            reports.append(_timed(claim, instance, _refusal, subject))
        else:
            reports.append(_timed(claim, instance, claim.check, subject, *args))
    reports.sort(key=lambda r: (r.instance, r.claim))
    return reports


def summary(reports: list[ClaimReport]) -> dict:
    """Verdict counts; ok means no FAIL (SKIPPED never counts as a pass)."""
    counts = {"PASS": 0, "FAIL": 0, "SKIPPED": 0}
    for r in reports:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    return {
        "total": len(reports),
        "pass": counts["PASS"],
        "fail": counts["FAIL"],
        "skipped": counts["SKIPPED"],
        "ok": counts["FAIL"] == 0,
    }
