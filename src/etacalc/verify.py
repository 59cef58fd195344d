"""Machine checks for the structural identities of the eta construction.

Every check is a claim with a stable id, pinned to the customary label of
the statement it exercises (Lemma 2.1, Theorem A, and so on).  Running a
claim against one corpus instance produces a ClaimReport: verdict PASS,
FAIL, or SKIPPED, a deterministic detail string, and a concrete witness
whenever something fails.  Capacity overruns are recorded as SKIPPED and
are never counted as passes.

The claims form one table, _CLAIMS: each row is a claim id, the corpus
instances it applies to, and a check that returns (verdict, detail,
witness).  run_corpus first builds every instance the selected claims need,
once and in corpus order, then runs each row over its instances in one
loop.  A report's elapsed time covers its check alone, never construction.
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
    check_decomposition,
    construct_eta,
    restricted_tensor_set,
    trivial_action_baseline,
)
from .groups import TableGroup, builtin
from .nu import NuGroup, check_derived_decomposition, construct_nu
from .perm import abelian_invariants_of, centralizer_index


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


_ANCHORS = {
    "compat": "compatible actions, eq. (0)",
    "decomposition": "eta(G,H) = ([G,H^phi].G).H^phi",
    "ztensor": "G tensor H = G^ab tensor_Z H^ab for trivial actions",
    "lemma21": "Lemma 2.1",
    "lemma22": "Lemma 2.2",
    "lemma23": "Lemma 2.3",
    "mu-quotient": "[G,G^phi]/mu(G) = G'",
    "thma": "Theorem A",
    "cor32": "Corollary 3.2",
    "prop31-delta": "Proposition 3.1",
    "thmc-pi": "Theorem C",
}


def _timed(claim: str, instance: str, check, *args) -> ClaimReport:
    """Report check(*args) under the claim; elapsed covers the check alone."""
    t0 = time.perf_counter()
    verdict, detail, witness = check(*args)
    return ClaimReport(
        claim=claim,
        anchor=_ANCHORS[claim],
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


def _tensor_frame(eta: EtaGroup, N: tuple[int, ...], K: tuple[int, ...]):
    """(M, T(N,K)) for M = <N, K^phi>; M's generators are the conjugators of its checks.

    For the full pair M is the whole carrier, whose generators are the
    embedded generating subsets of G and H, in order; otherwise M is the
    subgroup generated by the embedded members of N and K.
    """
    if len(N) == eta.pair.g.n and len(K) == eta.pair.h.n:
        return eta.carrier, eta.tensor_set
    big_m = eta.carrier.subgroup([eta.embed_g[a] for a in N] + [eta.embed_h[b] for b in K])
    return big_m, restricted_tensor_set(eta, N, K)


def _class_sizes(big_m, tset) -> list[int]:
    """centralizer_index over T(N,K); an InvarianceError's witness names the member's pair."""
    try:
        return centralizer_index(big_m, tset.members)
    except InvarianceError as err:
        err.witness["member"] = tset.pair_for[tset.members[err.witness["member"]]]
        raise


# ---------------------------------------------------------------------------
# claim checks: each returns (verdict, detail, witness)


def _failure_text(f: dict) -> str:
    if f["family"] == 1:
        spot = f"g={f['g_label']}, g1={f['g1_label']}, h={f['h_label']}"
    else:
        spot = f"h={f['h_label']}, h1={f['h1_label']}, g={f['g_label']}"
    return f"family {f['family']} at ({spot})"


def _compat(pair: ActionPair, expect_compatible: bool):
    failures = check_compatibility(pair)
    if expect_compatible and failures:
        return (
            "FAIL",
            f"{len(failures)} of {compatibility_triples(pair)} triples fail, first at "
            + _failure_text(failures[0]),
            failures[0],
        )
    if expect_compatible:
        checked = compatibility_triples(pair)
        return "PASS", f"both families hold over {checked} triples", None
    if failures:
        return (
            "PASS",
            f"rejected: {len(failures)} failing triples, first at "
            + _failure_text(failures[0]),
            failures[0],
        )
    return "FAIL", "expected rejection, but both families hold", None


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
    checks = {
        "tensor_abelian": observed is not None,
        "invariants_match": observed == baseline,
        "order_match": eta.tensor_order() == baseline.order,
        "carrier_order": eta.order() == baseline.order * pair.g.n * pair.h.n,
    }
    if all(checks.values()):
        detail = (
            f"tensor invariants {list(observed.factors)} match "
            f"G^ab tensor_Z H^ab of order {baseline.order}"
        )
        return "PASS", detail, None
    witness = {k: bool(okv) for k, okv in checks.items()}
    witness["expected"] = list(baseline.factors)
    witness["observed"] = None if observed is None else list(observed.factors)
    return "FAIL", "tensor subgroup disagrees with the abelianized baseline", witness


def _derived_decomposition(nu: NuGroup):
    audit = check_derived_decomposition(nu)
    derived = nu.group.derived_indices()
    t_keys = set(nu.eta.tensor_set.members)
    gd_keys = {nu.eta.embed_g[d] for d in derived}
    hd_keys = {nu.eta.embed_h[d] for d in derived}
    members = np.array(nu.eta.tensor_set.members)[:, None]
    tg_keys = set(nu.eta.times_g(members, np.asarray(derived)[None, :]).ravel().tolist())
    meets = {
        "tensor_meets_g_derived": sorted(t_keys & gd_keys),
        "tg_meets_h_derived": sorted(tg_keys & hd_keys),
    }
    trivial_meets = meets["tensor_meets_g_derived"] == [0] and meets[
        "tg_meets_h_derived"
    ] == [0]
    if audit["ok"] and trivial_meets:
        detail = (
            f"|nu(G)'| = {audit['derived_order']} = {audit['tensor_order']} * "
            f"{audit['g_derived_order']}^2; intersections trivial"
        )
        return "PASS", detail, None
    witness = dict(audit)
    witness.update(meets)
    return "FAIL", "derived subgroup decomposition audit failed", witness


def _centralizer_bound(eta: EtaGroup, n_elements, k_elements):
    """Conjugacy classes of tensors are no larger than the tensor set.

    T(N,K) is a finite normal subset of M = <N, K^phi>, so the index of
    each member's centralizer in M is bounded by |T(N,K)|.
    """
    N = tuple(sorted(set(n_elements)))
    K = tuple(sorted(set(k_elements)))
    big_m, tset = _tensor_frame(eta, N, K)
    try:
        sizes = _class_sizes(big_m, tset)
    except InvarianceError as err:
        detail = "tensor set is not a normal subset, bound does not apply"
        return "FAIL", detail, err.witness

    bound = tset.size
    worst = 0
    for t, index in zip(tset.members, sizes):
        worst = max(worst, index)
        if index > bound:
            witness = {"member": list(tset.pair_for[t]), "index": index, "bound": bound}
            return "FAIL", f"class size {index} exceeds |T(N,K)| = {bound}", witness
    detail = (
        f"largest class size {worst} <= {bound} over {tset.size} members, "
        f"|M| = {big_m.order()}"
    )
    return "PASS", detail, None


def _first(bad: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True entry in C order, or None."""
    spots = np.argwhere(bad)
    return tuple(spots[0].tolist()) if len(spots) else None


def _identity_b(eta: EtaGroup, key, key_inv, g_shift):
    """(checks, failures, first failure) of identity (b), over (g, h, y, form)."""
    h = eta.pair.h
    hog = eta.pair.h_on_g.array
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


def _identity_a(eta: EtaGroup, key_inv, g_shift, h_shift):
    """(failures, literal-reading divergences, first failure) of identity (a).

    Over (x, y, g, h), one x at a time: [g, h'] conjugated by [x, y'], by
    x^-1 x^y and by (y^x)^-1 y; the last two are gathered from [g, h']
    conjugated by each element of G and of H. The divergences are None
    when the groups differ.
    """
    g, h = eta.pair.g, eta.pair.h
    a, b = np.arange(g.n)[:, None], np.arange(h.n)[None, :]
    e = np.arange(g.n)[:, None, None]
    by_g = eta.times_g(eta.times_bracket(eta.times_g(0, g.inverse_table[e]), a, b), e)
    e = np.arange(h.n)[:, None, None]
    by_h = eta.times_h(eta.times_bracket(eta.times_h(0, h.inverse_table[e]), a, b), e)
    y = np.arange(h.n)[:, None, None]
    same_group = g == h
    witness, failures, diverging = None, 0, 0
    for x in range(g.n):
        start = key_inv[x][:, None, None]
        k1 = eta.times_bracket(eta.times_bracket(start, a, b), x, y)
        k2, k3 = by_g[g_shift[x]], by_h[h_shift[x]]
        bad = (k1 != k2) | (k2 != k3)
        failures += np.count_nonzero(bad)
        if witness is None and (spot := _first(bad)) is not None:
            witness = {
                "identity": "a",
                "g": spot[1],
                "h": spot[2],
                "x": x,
                "y": spot[0],
                "conjugated": int(k1[spot]),
                "first_copy": int(k2[spot]),
                "second_copy": int(k3[spot]),
            }
        if same_group:
            # the literal reading: the plain commutator [g, h] of two first-copy elements
            plain = eta.times_g(eta.times_g(start, g.inverse_table[a]), g.inverse_table[b])
            plain = eta.times_g(eta.times_g(plain, a), b)
            diverging += np.count_nonzero(eta.times_bracket(plain, x, y) != k2)
    return failures, diverging if same_group else None, witness


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
    each side of identity (a) one walk over all (y, g, h) per x. The
    witness is the first failure in the order (x, y, g, h) of identity (a),
    then (g, h, y, form) of identity (b).
    """
    g, h = eta.pair.g, eta.pair.h
    key = eta.tensors
    key_inv = eta.carrier.inverses(key)
    a, b = np.arange(g.n)[:, None], np.arange(h.n)[None, :]
    g_shift = g.table[g.inverse_table[a], eta.pair.h_on_g.array.T]  # a^-1 a^b
    h_shift = h.table[h.inverse_table[eta.pair.g_on_h.array], b]  # (b^a)^-1 b
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
    if all(checks.values()):
        detail = (
            f"|[G,G^phi]| = {nu.tensor_order()} = {mu_order} * {derived_order}; "
            f"mu(G) of order {mu_order} is central"
        )
        return "PASS", detail, None
    witness = {k: bool(okv) for k, okv in checks.items()}
    witness.update(
        {
            "tensor_order": nu.tensor_order(),
            "mu_order": mu_order,
            "derived_order": derived_order,
            "image_order": image_order,
        }
    )
    return "FAIL", "quotient of the tensor subgroup by mu is not G'", witness


def _theorem_A(eta: EtaGroup, n_elements, k_elements):
    """The five structural steps behind Theorem A, over one carrier.

    Steps (1)-(3) are unconditional: the restricted tensor set is a normal
    subset of M = <N, K^phi>, the subgroup it generates is normal in M, and
    the triple brackets [n,k^phi,h^phi] land in T^-1 T and generate
    [N,K^phi,K^phi].  Steps (4) and (5) only apply under their printed
    hypotheses ([N,K^phi] abelian, K^phi centralizing [N,K^phi]); the
    report records whether each hypothesis held.

    Each step checks all of its tuples with a few whole-array passes; its
    witness is the first failure in the order (n, k, h) for step (3),
    (n, h, k) for step (4) and (n, k) for step (5).
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
    parts = [f"|N|={len(N)} |K|={len(K)} |T(N,K)|={tset.size} |M|={big_m.order()}"]
    failures: list[dict] = []

    try:
        _class_sizes(big_m, tset)
        parts.append("(1) normal subset")
    except InvarianceError as err:
        failures.append({"step": 1, **err.witness})
        parts.append("(1) FAILS")

    sub_a = eta.tensor_subgroup if tset is eta.tensor_set else carrier.subgroup(tset.members)
    gens = np.asarray(sub_a.generators, dtype=np.intp)[:, None]
    normal = all(map(sub_a.contains, carrier.conjugates(gens, big_m.generators).ravel().tolist()))
    if normal:
        parts.append(f"(2) [N,K^phi] of order {sub_a.order()} normal")
    else:
        failures.append({"step": 2, "subgroup_order": sub_a.order()})
        parts.append("(2) FAILS")

    n_arr, k_arr = np.array(N), np.array(K)
    k_inv = h.inverse_table[k_arr]
    key = eta.tensors[np.ix_(n_arr, k_arr)]
    inverses = carrier.inverses(np.concatenate([key.ravel(), tset.members]))
    key_inv, members_inv = inverses[: key.size].reshape(key.shape), inverses[key.size :]
    t_nk = eta.times_bracket(members_inv[:, None, None], n_arr[:, None], k_arr[None, :])
    tinvt = set(t_nk.ravel().tolist())

    # w[n, i, j] = [n, K[i]']^-1 [n^K[j], (K[i]^K[j])']: step (3)'s t1^-1 t2
    # at (n, k, hh) = (n, K[i], K[j]), and step (4)'s w at (n, hh, k)
    n, i, j = n_arr[:, None, None], k_arr[None, :, None], k_arr[None, None, :]
    hog_arr = eta.pair.h_on_g.array
    w = eta.times_bracket(key_inv[:, :, None], hog_arr[j, n], h.conj_table()[i, j])
    # [t1, hh'] = t1^-1 t1^hh, walked directly
    start = eta.times_h(key_inv[:, :, None], k_inv[None, None, :])
    direct = eta.times_h(eta.times_bracket(start, n, i), j)
    spot = _first(direct != w)
    identity_fail = None
    if spot is not None:
        identity_fail = {
            "step": 3,
            "n": N[spot[0]],
            "k": K[spot[1]],
            "h": K[spot[2]],
            "bracket": int(direct[spot]),
            "substitution": int(w[spot]),
        }
        failures.append(identity_fail)
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

    if sub_a.is_abelian():
        # n1 = n^-1 n^hh, and w^2 against [n1^2, k']
        n1 = g.table[g.inverse_table[n], hog_arr[i, n]]
        expected = eta.tensors[g.table[n1, n1], j]
        square = carrier.products(w, w)
        spot = _first(square != expected)
        if spot is None:
            parts.append(f"(4) abelian hypothesis holds: {square.size} squares match")
        else:
            failures.append(
                {
                    "step": 4,
                    "n": N[spot[0]],
                    "h": K[spot[1]],
                    "k": K[spot[2]],
                    "square": int(square[spot]),
                    "expected": int(expected[spot]),
                }
            )
            parts.append("(4) FAILS")
    else:
        parts.append("(4) hypothesis fails ([N,K^phi] not abelian), step not applicable")

    # a k' == k' a for every generator a of [N,K^phi] and k in K
    gens = np.array(sub_a.generators, dtype=np.int64)[None, :]
    k_points = eta.times_h(0, k_arr)[:, None]
    hyp5 = np.array_equal(eta.times_h(gens, k_arr[:, None]), carrier.products(k_points, gens))
    if hyp5:
        square = carrier.products(key, key)
        expected = eta.tensors[n_arr[:, None], h.table[k_arr, k_arr][None, :]]
        spot = _first(square != expected)
        if spot is None:
            parts.append(f"(5) centralizing hypothesis holds: {square.size} squares match")
        else:
            failures.append(
                {
                    "step": 5,
                    "n": N[spot[0]],
                    "k": K[spot[1]],
                    "square": int(square[spot]),
                    "expected": int(expected[spot]),
                }
            )
            parts.append("(5) FAILS")
    else:
        parts.append(
            "(5) hypothesis fails (K^phi does not centralize [N,K^phi]), "
            "step not applicable"
        )

    verdict = "PASS" if not failures else "FAIL"
    witness = failures[0] if failures else None
    return verdict, "; ".join(parts), witness


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
    if all(checks.values()):
        return "PASS", detail, None
    witness = {k: bool(ok) for k, ok in checks.items()}
    witness.update({"set_size": set_size, "tensor_order": tensor_order, "order": nu.order()})
    return "FAIL", "finiteness chain broken", witness


def _delta_divisibility(nu: NuGroup):
    d_ab = delta_of_abelian(nu.group.abelian_invariants())
    delta_order = nu.delta.order()
    divides = d_ab.order >= 1 and delta_order % d_ab.order == 0
    primes_contained = pi_set(d_ab) <= pi_set(nu.delta.element_orders())
    if divides and primes_contained:
        detail = (
            f"|Delta(G^ab)| = {d_ab.order} divides |Delta(G)| = {delta_order}; "
            "prime support carries over"
        )
        return "PASS", detail, None
    witness = {
        "delta_ab_order": d_ab.order,
        "delta_order": delta_order,
        "divides": bool(divides),
        "primes_contained": bool(primes_contained),
    }
    detail = "diagonal of the abelianization does not embed at finite scale"
    return "FAIL", detail, witness


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
    if all(checks.values()):
        detail = (
            f"pi(G) = {sorted(group.pi())} inside pi([G,G^phi]) = "
            f"{sorted(tensor_primes)}; pi(G^ab) = pi(Delta(G^ab)) = "
            f"{sorted(pi_set(d_ab))}"
        )
        return "PASS", detail, None
    witness = {k: bool(okv) for k, okv in checks.items()}
    witness.update(
        {
            "group_primes": sorted(group.pi()),
            "tensor_primes": sorted(tensor_primes),
            "abelianization_primes_set": sorted(pi_set(a_inv)),
            "delta_primes": sorted(pi_set(d_ab)),
        }
    )
    return "FAIL", "prime support of the tensor subgroup is too small", witness


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


# A scope lists a claim's jobs over a corpus: (instance, host pair, extra
# arguments for the check after its subject).


def _every_pair(corpus: Corpus):
    return [(cp.label, cp, ()) for cp in corpus.pairs]


def _pairs_and_rejects(corpus: Corpus):
    jobs = [(cp.label, cp, (True,)) for cp in corpus.pairs]
    return jobs + [(cp.label, cp, (False,)) for cp in corpus.incompatible]


def _trivial_pairs(corpus: Corpus):
    return [
        (cp.label, cp, (cp.pair,))
        for cp in corpus.pairs
        if cp.pair.g_on_h.is_trivial() and cp.pair.h_on_g.is_trivial()
    ]


def _conjugation_instances(corpus: Corpus):
    return [
        (cp.label, cp, ())
        for cp in corpus.pairs
        if _conjugation_group(cp) is not None
    ]


def _pairs_and_cases(corpus: Corpus):
    hosts = {cp.label: cp for cp in (*corpus.pairs, *corpus.incompatible)}
    jobs = [
        (cp.label, cp, (range(cp.pair.g.n), range(cp.pair.h.n))) for cp in corpus.pairs
    ]
    for case in corpus.subgroup_cases:
        jobs.append((case.label, hosts[case.host], (case.n_elements, case.k_elements)))
    return jobs


class _Claim(NamedTuple):
    """One row of the claim table."""

    id: str
    scope: Callable[[Corpus], list]
    subject: str  # what the check gets first: "pair", "eta" or "nu"
    check: Callable[..., tuple]


_CLAIMS = (
    _Claim("compat", _pairs_and_rejects, "pair", _compat),
    _Claim("decomposition", _every_pair, "eta", _decomposition),
    _Claim("ztensor", _trivial_pairs, "eta", _ztensor),
    _Claim("lemma21", _conjugation_instances, "nu", _derived_decomposition),
    _Claim("lemma22", _pairs_and_cases, "eta", _centralizer_bound),
    _Claim("lemma23", _every_pair, "eta", _lemma_identities),
    _Claim("mu-quotient", _conjugation_instances, "nu", _mu_quotient),
    _Claim("thma", _pairs_and_cases, "eta", _theorem_A),
    _Claim("cor32", _conjugation_instances, "nu", _finiteness),
    _Claim("prop31-delta", _conjugation_instances, "nu", _delta_divisibility),
    _Claim("thmc-pi", _conjugation_instances, "nu", _prime_support),
)

CLAIM_IDS = tuple(claim.id for claim in _CLAIMS)


def _build(hosts: list[CorpusPair], max_cosets: int) -> dict[str, dict]:
    """Construct each host once, in order: label -> {"eta": ..., "nu": ...}.

    A conjugation instance is built as nu(G), whose eta is nu.eta; any other
    pair by construct_eta.  A capacity overrun or an incompatible pair is
    kept in place of the construction and replayed by every claim that
    needs it.  Both constructors are looked up in this module's namespace
    at call time, so a caller may rebind them (perfbench serves prebuilt
    instances this way).
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
    check runs, so a report's elapsed time excludes construction;
    instances that exceed max_cosets yield SKIPPED reports.
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
    reports: list[ClaimReport] = []
    for claim, (instance, cp, args) in jobs:
        if claim.subject == "pair":
            subject = cp.pair
        else:
            subject = built[cp.label][claim.subject]
        if isinstance(subject, Exception):
            reports.append(_timed(claim.id, instance, _refusal, subject))
        else:
            reports.append(_timed(claim.id, instance, claim.check, subject, *args))
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
