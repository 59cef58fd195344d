"""Machine checks for the structural identities of the eta construction.

Every check is a claim with a stable id, pinned to the customary label of
the statement it exercises (Lemma 2.1, Theorem A, and so on).  Running a
claim against one corpus instance produces a ClaimReport: verdict PASS,
FAIL, or SKIPPED, a deterministic detail string, and a concrete witness
whenever something fails.  Capacity overruns are recorded as SKIPPED and
are never counted as passes.

run_corpus evaluates every claim over the default corpus (or a caller
supplied one) and returns reports sorted by (instance, claim), so two runs
over the same corpus emit byte-identical JSON lines.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .abelian import delta_of_abelian, pi_set
from .action import (
    ActionPair,
    check_compatibility,
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


def _report(
    claim: str,
    instance: str,
    verdict: str,
    detail: str,
    witness: dict | None,
    t0: float,
) -> ClaimReport:
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
# shared per-run construction cache


class _Context:
    """Builds each carrier once and replays capacity failures consistently."""

    def __init__(self, corpus: Corpus, max_cosets: int):
        self.corpus = corpus
        self.max_cosets = max_cosets
        self._entries = {cp.label: cp for cp in (*corpus.pairs, *corpus.incompatible)}
        self._etas: dict[str, EtaGroup | Exception] = {}
        self._nus: dict[str, NuGroup | Exception] = {}

    def entry(self, label: str) -> CorpusPair:
        return self._entries[label]

    def conjugation_group(self, cp: CorpusPair) -> TableGroup | None:
        if cp.kind == "conjugation":
            return cp.pair.g
        if cp.kind == "custom" and cp.pair.is_conjugation():
            return cp.pair.g
        return None

    def eta(self, label: str) -> EtaGroup:
        cached = self._etas.get(label)
        if isinstance(cached, Exception):
            raise cached
        if cached is not None:
            return cached
        cp = self._entries[label]
        try:
            if self.conjugation_group(cp) is not None:
                value = self.nu(label).eta
            else:
                value = construct_eta(cp.pair, max_cosets=self.max_cosets)
        except (CapacityError, IncompatibleActionError) as err:
            self._etas[label] = err
            raise
        self._etas[label] = value
        return value

    def nu(self, label: str) -> NuGroup:
        cached = self._nus.get(label)
        if isinstance(cached, Exception):
            raise cached
        if cached is not None:
            return cached
        cp = self._entries[label]
        group = self.conjugation_group(cp)
        if group is None:
            raise ValueError(f"{label} is not a conjugation instance")
        try:
            value = construct_nu(group, max_cosets=self.max_cosets)
        except (CapacityError, IncompatibleActionError) as err:
            self._nus[label] = err
            self._etas[label] = err
            raise
        self._nus[label] = value
        return value


def _instance(build, claim: str, cp: CorpusPair, t0: float, label: str | None = None):
    """Return (build(cp.label), None), or (None, the report of why it failed).

    build is ctx.eta or ctx.nu; label names the report's instance when it
    differs from the pair's.
    """
    instance = label or cp.label
    try:
        return build(cp.label), None
    except CapacityError as err:
        detail = f"capacity exceeded: {err.count} cosets requested"
        return None, _report(claim, instance, "SKIPPED", detail, None, t0)
    except IncompatibleActionError as err:
        witness = err.report[0] if err.report else None
        detail = "incompatible actions: pair rejected before construction"
        return None, _report(claim, instance, "FAIL", detail, witness, t0)


# ---------------------------------------------------------------------------
# per-carrier lookup tables


class _EtaView:
    """Point-0 lookup tables for identity chasing over one regular carrier.

    On a regular carrier two elements agree iff they agree at point 0, so
    every identity below is decided by chasing a handful of array lookups
    instead of multiplying out permutations.
    """

    def __init__(self, eta: EtaGroup):
        self.eta = eta
        self.g = eta.pair.g
        self.h = eta.pair.h
        self.goh = eta.pair.g_on_h.rows
        self.hog = eta.pair.h_on_g.rows
        self.key = [
            [int(eta.tensor_map[(a, b)].images[0]) for b in range(self.h.n)]
            for a in range(self.g.n)
        ]
        self.timg = {int(t.images[0]): t.images for t in eta.tensor_set.members}
        self.tinv = {
            int(t.images[0]): t.inverse().images for t in eta.tensor_set.members
        }
        self.g_img = [p.images for p in eta.embed_g]
        self.h_img = [p.images for p in eta.embed_h]
        self.g_inv = [p.inverse().images for p in eta.embed_g]
        self.h_inv = [p.inverse().images for p in eta.embed_h]
        self.g_inv0 = [int(a[0]) for a in self.g_inv]
        self.h_inv0 = [int(a[0]) for a in self.h_inv]


# ---------------------------------------------------------------------------
# claims


def verify_lemma_identities(eta: EtaGroup, instance: str = "") -> ClaimReport:
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
    """
    t0 = time.perf_counter()
    v = _EtaView(eta)
    g, h, goh, hog = v.g, v.h, v.goh, v.hog

    checked_b = 0
    fail_b: list[dict] = []
    for gg in range(g.n):
        for hh in range(h.n):
            kk = v.key[gg][hh]
            timgs = v.timg[kk]
            it0 = int(v.tinv[kk][0])
            n1 = g.mul(g.inv(gg), hog[hh][gg])
            for y in range(h.n):
                lhs = v.key[n1][y]
                a2 = int(v.h_inv[y][it0])
                rhs1 = int(v.h_img[y][timgs[a2]])
                rhs2 = int(v.timg[v.key[hog[y][gg]][h.conj(hh, y)]][it0])
                checked_b += 2
                if lhs != rhs1:
                    fail_b.append(
                        {
                            "identity": "b",
                            "form": "conjugation",
                            "g": gg,
                            "h": hh,
                            "y": y,
                            "lhs": lhs,
                            "rhs": rhs1,
                        }
                    )
                if lhs != rhs2:
                    fail_b.append(
                        {
                            "identity": "b",
                            "form": "substitution",
                            "g": gg,
                            "h": hh,
                            "y": y,
                            "lhs": lhs,
                            "rhs": rhs2,
                        }
                    )

    same_group = g == h
    comm_img = None
    if same_group:
        comm_img = [
            [eta.embed_g[a].commutator(eta.embed_g[b]).images for b in range(g.n)]
            for a in range(g.n)
        ]

    checked_a = 0
    fail_a: list[dict] = []
    lit_checked = 0
    lit_fail = 0
    for x in range(g.n):
        for y in range(h.n):
            kc = v.key[x][y]
            c1 = v.timg[kc]
            s1 = int(v.tinv[kc][0])
            e2 = g.mul(g.inv(x), hog[y][x])
            c2 = v.g_img[e2]
            s2 = v.g_inv0[e2]
            e3 = h.mul(h.inv(goh[x][y]), y)
            c3 = v.h_img[e3]
            s3 = v.h_inv0[e3]
            for gg in range(g.n):
                for hh in range(h.n):
                    tt = v.timg[v.key[gg][hh]]
                    k1 = int(c1[tt[s1]])
                    k2 = int(c2[tt[s2]])
                    k3 = int(c3[tt[s3]])
                    checked_a += 1
                    if not (k1 == k2 == k3):
                        fail_a.append(
                            {
                                "identity": "a",
                                "g": gg,
                                "h": hh,
                                "x": x,
                                "y": y,
                                "conjugated": k1,
                                "first_copy": k2,
                                "second_copy": k3,
                            }
                        )
                    if same_group:
                        lit = int(c1[comm_img[gg][hh][s1]])
                        lit_checked += 1
                        if lit != k2:
                            lit_fail += 1

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
    return _report("lemma23", instance, verdict, detail, witness, t0)


def verify_theorem_A_machinery(
    eta: EtaGroup,
    n_elements,
    k_elements,
    instance: str = "",
) -> ClaimReport:
    """The five structural steps behind Theorem A, over one carrier.

    Steps (1)-(3) are unconditional: the restricted tensor set is a normal
    subset of M = <N, K^phi>, the subgroup it generates is normal in M, and
    the triple brackets [n,k^phi,h^phi] land in T^-1 T and generate
    [N,K^phi,K^phi].  Steps (4) and (5) only apply under their printed
    hypotheses ([N,K^phi] abelian, K^phi centralizing [N,K^phi]); the
    report records whether each hypothesis held.
    """
    t0 = time.perf_counter()
    v = _EtaView(eta)
    g, h, goh, hog = v.g, v.h, v.goh, v.hog
    N = tuple(sorted(set(n_elements)))
    K = tuple(sorted(set(k_elements)))
    nset, kset = set(N), set(K)

    invariant = all(hog[k][n] in nset for k in K for n in N) and all(
        goh[n][k] in kset for n in N for k in K
    )
    if not invariant:
        return _report(
            "thma",
            instance,
            "FAIL",
            "precondition fails: N and K are not mutually invariant",
            {"n_elements": list(N), "k_elements": list(K)},
            t0,
        )

    full = len(N) == g.n and len(K) == h.n
    if full:
        big_m = eta.carrier
        conjugators = [eta.embed_g[a] for a in g.generating_subset()]
        conjugators += [eta.embed_h[b] for b in h.generating_subset()]
        tset = eta.tensor_set
    else:
        members = [eta.embed_g[a] for a in N if a] + [eta.embed_h[b] for b in K if b]
        big_m = eta.carrier.subgroup(members)
        conjugators = list(big_m.generators)
        tset = restricted_tensor_set(eta, N, K)

    parts = [f"|N|={len(N)} |K|={len(K)} |T(N,K)|={tset.size} |M|={big_m.order()}"]
    failures: list[dict] = []

    try:
        tset.require_invariant_under(conjugators)
        parts.append("(1) normal subset")
    except InvarianceError as err:
        failures.append({"step": 1, **(err.witness or {})})
        parts.append("(1) FAILS")

    sub_a = eta.carrier.subgroup(tset.members)
    normal = all(sub_a.contains(s.conj(c)) for s in sub_a.generators for c in conjugators)
    if normal:
        parts.append(f"(2) [N,K^phi] of order {sub_a.order()} normal")
    else:
        failures.append({"step": 2, "subgroup_order": sub_a.order()})
        parts.append("(2) FAILS")

    tinvt: set[int] = set()
    for u in tset.members:
        iu0 = int(u.inverse().images[0])
        for w in tset.members:
            tinvt.add(int(w.images[iu0]))

    x_perms: dict[int, object] = {}
    identity_fail = None
    for n in N:
        for k in K:
            t1 = eta.tensor_map[(n, k)]
            t1img = t1.images
            it1 = t1.inverse().images
            it10 = int(it1[0])
            for hh in K:
                t2 = eta.tensor_map[(hog[hh][n], h.conj(k, hh))]
                w_key = int(t2.images[it10])
                direct = int(v.h_img[hh][t1img[int(v.h_inv[hh][it10])]])
                if direct != w_key and identity_fail is None:
                    identity_fail = {
                        "step": 3,
                        "n": n,
                        "k": k,
                        "h": hh,
                        "bracket": direct,
                        "substitution": w_key,
                    }
                if w_key not in x_perms:
                    x_perms[w_key] = t1.inverse() * t2
    if identity_fail is not None:
        failures.append(identity_fail)

    s_seen: dict[int, object] = {}
    for a_perm in sub_a.elements():
        for k in K:
            comm = a_perm.commutator(eta.embed_h[k])
            s_seen.setdefault(int(comm.images[0]), comm)
    sub_s = eta.carrier.subgroup(s_seen.values())
    x_group = eta.carrier.subgroup(x_perms.values())
    in_tinvt = set(x_perms) <= tinvt
    generates_s = x_group.same_subgroup_as(sub_s)
    if in_tinvt and generates_s and identity_fail is None:
        parts.append(
            f"(3) {len(x_perms)} triple brackets inside T^-1 T generate "
            f"[N,K^phi,K^phi] of order {sub_s.order()}"
        )
    else:
        if not in_tinvt:
            stray = sorted(set(x_perms) - tinvt)[0]
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
                t1 = eta.tensor_map[(n, hh)]
                it1 = t1.inverse().images
                it10 = int(it1[0])
                n1 = g.mul(g.inv(n), hog[hh][n])
                n1sq = g.mul(n1, n1)
                for k in K:
                    t2img = eta.tensor_map[(hog[k][n], h.conj(hh, k))].images
                    w0 = int(t2img[it10])
                    wsq = int(t2img[it1[w0]])
                    rhs = v.key[n1sq][k]
                    count4 += 1
                    if wsq != rhs and fail4 is None:
                        fail4 = {
                            "step": 4,
                            "n": n,
                            "h": hh,
                            "k": k,
                            "square": wsq,
                            "expected": rhs,
                        }
        if fail4 is None:
            parts.append(f"(4) abelian hypothesis holds: {count4} squares match")
        else:
            failures.append(fail4)
            parts.append("(4) FAILS")
    else:
        parts.append("(4) hypothesis fails ([N,K^phi] not abelian), step not applicable")

    hyp5 = all(
        a.conj(eta.embed_h[k]) == a for k in K for a in sub_a.generators
    )
    if hyp5:
        count5 = 0
        fail5 = None
        for n in N:
            for k in K:
                timgs = eta.tensor_map[(n, k)].images
                lhs = int(timgs[timgs[0]])
                rhs = v.key[n][h.mul(k, k)]
                count5 += 1
                if lhs != rhs and fail5 is None:
                    fail5 = {"step": 5, "n": n, "k": k, "square": lhs, "expected": rhs}
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
    return _report("thma", instance, verdict, "; ".join(parts), witness, t0)


def verify_centralizer_bound(
    eta: EtaGroup,
    n_elements,
    k_elements,
    instance: str = "",
) -> ClaimReport:
    """Conjugacy classes of tensors are no larger than the tensor set.

    T(N,K) is a finite normal subset of M = <N, K^phi>, so the index of
    each member's centralizer in M is bounded by |T(N,K)|.
    """
    t0 = time.perf_counter()
    g, h = eta.pair.g, eta.pair.h
    N = tuple(sorted(set(n_elements)))
    K = tuple(sorted(set(k_elements)))
    full = len(N) == g.n and len(K) == h.n
    if full:
        big_m = eta.carrier
        conjugators = [eta.embed_g[a] for a in g.generating_subset()]
        conjugators += [eta.embed_h[b] for b in h.generating_subset()]
        tset = eta.tensor_set
    else:
        members = [eta.embed_g[a] for a in N if a] + [eta.embed_h[b] for b in K if b]
        big_m = eta.carrier.subgroup(members)
        conjugators = list(big_m.generators)
        tset = restricted_tensor_set(eta, N, K)

    try:
        tset.require_invariant_under(conjugators)
    except InvarianceError as err:
        return _report(
            "lemma22",
            instance,
            "FAIL",
            "tensor set is not a normal subset, bound does not apply",
            err.witness,
            t0,
        )

    bound = tset.size
    worst = 0
    for t in tset.members:
        index = centralizer_index(big_m, t, conjugators=conjugators)
        worst = max(worst, index)
        if index > bound:
            witness = {
                "member": list(tset.pair_for[int(t.images[0])]),
                "index": index,
                "bound": bound,
            }
            return _report(
                "lemma22",
                instance,
                "FAIL",
                f"class size {index} exceeds |T(N,K)| = {bound}",
                witness,
                t0,
            )
    detail = (
        f"largest class size {worst} <= {bound} over {tset.size} members, "
        f"|M| = {big_m.order()}"
    )
    return _report("lemma22", instance, "PASS", detail, None, t0)


def verify_corollary_finiteness(nu: NuGroup, instance: str = "") -> ClaimReport:
    """Finitely many tensors force the tensor subgroup and nu(G) finite.

    Checked at finite scale: the tensor set is no larger than the subgroup
    it generates, regenerating from the set recovers [G,G^phi], and
    |nu(G)| = |[G,G^phi]| * |G|^2.
    """
    t0 = time.perf_counter()
    set_size = nu.eta.tensor_set.size
    tensor_order = nu.tensor_order()
    n = nu.group.n
    regen = nu.carrier.subgroup(nu.eta.tensor_set.members)
    checks = {
        "set_bounded": set_size <= tensor_order,
        "set_generates": regen.same_subgroup_as(nu.tensor_subgroup),
        "order_product": nu.order() == tensor_order * n * n,
    }
    detail = (
        f"{set_size} tensors generate [G,G^phi] of order {tensor_order}; "
        f"|nu(G)| = {tensor_order} * {n}^2 = {nu.order()}"
    )
    if all(checks.values()):
        return _report("cor32", instance, "PASS", detail, None, t0)
    witness = {k: bool(ok) for k, ok in checks.items()}
    witness.update({"set_size": set_size, "tensor_order": tensor_order, "order": nu.order()})
    return _report("cor32", instance, "FAIL", "finiteness chain broken", witness, t0)


# ---------------------------------------------------------------------------
# corpus drivers, one per claim


def _failure_text(f: dict) -> str:
    if f["family"] == 1:
        spot = f"g={f['g_label']}, g1={f['g1_label']}, h={f['h_label']}"
    else:
        spot = f"h={f['h_label']}, h1={f['h1_label']}, g={f['g_label']}"
    return f"family {f['family']} at ({spot})"


def _drive_compat(ctx: _Context) -> list[ClaimReport]:
    out = []
    for cp in ctx.corpus.pairs:
        t0 = time.perf_counter()
        failures = check_compatibility(cp.pair)
        checked = (
            cp.pair.g.n * cp.pair.g.n * cp.pair.h.n
            + cp.pair.h.n * cp.pair.h.n * cp.pair.g.n
        )
        if failures:
            out.append(
                _report(
                    "compat",
                    cp.label,
                    "FAIL",
                    f"{len(failures)} of {checked} triples fail, first at "
                    + _failure_text(failures[0]),
                    failures[0],
                    t0,
                )
            )
        else:
            out.append(
                _report(
                    "compat",
                    cp.label,
                    "PASS",
                    f"both families hold over {checked} triples",
                    None,
                    t0,
                )
            )
    for cp in ctx.corpus.incompatible:
        t0 = time.perf_counter()
        failures = check_compatibility(cp.pair)
        if failures:
            out.append(
                _report(
                    "compat",
                    cp.label,
                    "PASS",
                    f"rejected: {len(failures)} failing triples, first at "
                    + _failure_text(failures[0]),
                    failures[0],
                    t0,
                )
            )
        else:
            out.append(
                _report(
                    "compat",
                    cp.label,
                    "FAIL",
                    "expected rejection, but both families hold",
                    None,
                    t0,
                )
            )
    return out


def _drive_decomposition(ctx: _Context) -> list[ClaimReport]:
    out = []
    for cp in ctx.corpus.pairs:
        t0 = time.perf_counter()
        eta, rep = _instance(ctx.eta, "decomposition", cp, t0)
        if rep is not None:
            out.append(rep)
            continue
        audit = check_decomposition(eta)
        if audit["ok"]:
            detail = (
                f"|eta| = {audit['order']} = {audit['tensor_order']} * "
                f"{audit['g_order']} * {audit['h_order']}; products cover, "
                "intersections trivial, factors generate"
            )
            out.append(_report("decomposition", cp.label, "PASS", detail, None, t0))
        else:
            out.append(
                _report(
                    "decomposition",
                    cp.label,
                    "FAIL",
                    "product decomposition audit failed",
                    audit,
                    t0,
                )
            )
    return out


def _drive_ztensor(ctx: _Context) -> list[ClaimReport]:
    out = []
    for cp in ctx.corpus.pairs:
        if not (cp.pair.g_on_h.is_trivial() and cp.pair.h_on_g.is_trivial()):
            continue
        t0 = time.perf_counter()
        eta, rep = _instance(ctx.eta, "ztensor", cp, t0)
        if rep is not None:
            out.append(rep)
            continue
        baseline = trivial_action_baseline(cp.pair.g, cp.pair.h)
        abelian = eta.tensor_subgroup.is_abelian()
        observed = abelian_invariants_of(eta.tensor_subgroup) if abelian else None
        checks = {
            "tensor_abelian": abelian,
            "invariants_match": observed == baseline,
            "order_match": eta.tensor_order() == baseline.order,
            "carrier_order": eta.order()
            == baseline.order * cp.pair.g.n * cp.pair.h.n,
        }
        if all(checks.values()):
            detail = (
                f"tensor invariants {list(observed.factors)} match "
                f"G^ab tensor_Z H^ab of order {baseline.order}"
            )
            out.append(_report("ztensor", cp.label, "PASS", detail, None, t0))
        else:
            witness = {k: bool(okv) for k, okv in checks.items()}
            witness["expected"] = list(baseline.factors)
            witness["observed"] = list(observed.factors) if observed else None
            out.append(
                _report(
                    "ztensor",
                    cp.label,
                    "FAIL",
                    "tensor subgroup disagrees with the abelianized baseline",
                    witness,
                    t0,
                )
            )
    return out


def _drive_lemma21(ctx: _Context) -> list[ClaimReport]:
    out = []
    for cp in ctx.corpus.pairs:
        if ctx.conjugation_group(cp) is None:
            continue
        t0 = time.perf_counter()
        nu, rep = _instance(ctx.nu, "lemma21", cp, t0)
        if rep is not None:
            out.append(rep)
            continue
        audit = check_derived_decomposition(nu)
        derived = nu.group.derived_indices()
        t_keys = {int(p.images[0]) for p in nu.eta.tensor_set.members}
        gd_keys = {int(nu.eta.embed_g[d].images[0]) for d in derived}
        hd_keys = {int(nu.eta.embed_h[d].images[0]) for d in derived}
        tg_keys = {
            int(nu.eta.embed_g[d].images[tk]) for tk in t_keys for d in derived
        }
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
            out.append(_report("lemma21", cp.label, "PASS", detail, None, t0))
        else:
            witness = dict(audit)
            witness.update(meets)
            out.append(
                _report(
                    "lemma21",
                    cp.label,
                    "FAIL",
                    "derived subgroup decomposition audit failed",
                    witness,
                    t0,
                )
            )
    return out


def _drive_lemma22(ctx: _Context) -> list[ClaimReport]:
    out = []
    for cp in ctx.corpus.pairs:
        t0 = time.perf_counter()
        eta, rep = _instance(ctx.eta, "lemma22", cp, t0)
        if rep is not None:
            out.append(rep)
            continue
        out.append(
            verify_centralizer_bound(
                eta, range(cp.pair.g.n), range(cp.pair.h.n), instance=cp.label
            )
        )
    for case in ctx.corpus.subgroup_cases:
        t0 = time.perf_counter()
        host = ctx.entry(case.host)
        eta, rep = _instance(ctx.eta, "lemma22", host, t0, label=case.label)
        if rep is not None:
            out.append(rep)
            continue
        out.append(
            verify_centralizer_bound(
                eta, case.n_elements, case.k_elements, instance=case.label
            )
        )
    return out


def _drive_lemma23(ctx: _Context) -> list[ClaimReport]:
    out = []
    for cp in ctx.corpus.pairs:
        t0 = time.perf_counter()
        eta, rep = _instance(ctx.eta, "lemma23", cp, t0)
        if rep is not None:
            out.append(rep)
            continue
        out.append(verify_lemma_identities(eta, instance=cp.label))
    return out


def _drive_mu_quotient(ctx: _Context) -> list[ClaimReport]:
    out = []
    for cp in ctx.corpus.pairs:
        if ctx.conjugation_group(cp) is None:
            continue
        t0 = time.perf_counter()
        nu, rep = _instance(ctx.nu, "mu-quotient", cp, t0)
        if rep is not None:
            out.append(rep)
            continue
        derived_order = len(nu.group.derived_indices())
        image_order = nu.rho_prime.image_group().order()
        mu_order = nu.mu.order()
        checks = {
            "image_is_derived": image_order == derived_order,
            "orders_multiply": nu.tensor_order() == mu_order * derived_order,
            "mu_central": all(
                m.conj(c) == m
                for m in nu.mu.generators
                for c in nu.carrier.generators
            ),
            "mu_in_tensor": all(
                nu.tensor_subgroup.contains(m) for m in nu.mu.generators
            ),
        }
        if all(checks.values()):
            detail = (
                f"|[G,G^phi]| = {nu.tensor_order()} = {mu_order} * {derived_order}; "
                f"mu(G) of order {mu_order} is central"
            )
            out.append(_report("mu-quotient", cp.label, "PASS", detail, None, t0))
        else:
            witness = {k: bool(okv) for k, okv in checks.items()}
            witness.update(
                {
                    "tensor_order": nu.tensor_order(),
                    "mu_order": mu_order,
                    "derived_order": derived_order,
                    "image_order": image_order,
                }
            )
            out.append(
                _report(
                    "mu-quotient",
                    cp.label,
                    "FAIL",
                    "quotient of the tensor subgroup by mu is not G'",
                    witness,
                    t0,
                )
            )
    return out


def _drive_thma(ctx: _Context) -> list[ClaimReport]:
    out = []
    for cp in ctx.corpus.pairs:
        t0 = time.perf_counter()
        eta, rep = _instance(ctx.eta, "thma", cp, t0)
        if rep is not None:
            out.append(rep)
            continue
        out.append(
            verify_theorem_A_machinery(
                eta, range(cp.pair.g.n), range(cp.pair.h.n), instance=cp.label
            )
        )
    for case in ctx.corpus.subgroup_cases:
        t0 = time.perf_counter()
        host = ctx.entry(case.host)
        eta, rep = _instance(ctx.eta, "thma", host, t0, label=case.label)
        if rep is not None:
            out.append(rep)
            continue
        out.append(
            verify_theorem_A_machinery(
                eta, case.n_elements, case.k_elements, instance=case.label
            )
        )
    return out


def _drive_cor32(ctx: _Context) -> list[ClaimReport]:
    out = []
    for cp in ctx.corpus.pairs:
        if ctx.conjugation_group(cp) is None:
            continue
        t0 = time.perf_counter()
        nu, rep = _instance(ctx.nu, "cor32", cp, t0)
        if rep is not None:
            out.append(rep)
            continue
        out.append(verify_corollary_finiteness(nu, instance=cp.label))
    return out


def _drive_prop31(ctx: _Context) -> list[ClaimReport]:
    out = []
    for cp in ctx.corpus.pairs:
        if ctx.conjugation_group(cp) is None:
            continue
        t0 = time.perf_counter()
        nu, rep = _instance(ctx.nu, "prop31-delta", cp, t0)
        if rep is not None:
            out.append(rep)
            continue
        d_ab = delta_of_abelian(nu.group.abelian_invariants())
        delta_order = nu.delta.order()
        divides = d_ab.order >= 1 and delta_order % d_ab.order == 0
        primes_contained = pi_set(d_ab) <= pi_set(nu.delta.element_orders())
        if divides and primes_contained:
            detail = (
                f"|Delta(G^ab)| = {d_ab.order} divides |Delta(G)| = {delta_order}; "
                "prime support carries over"
            )
            out.append(_report("prop31-delta", cp.label, "PASS", detail, None, t0))
        else:
            witness = {
                "delta_ab_order": d_ab.order,
                "delta_order": delta_order,
                "divides": bool(divides),
                "primes_contained": bool(primes_contained),
            }
            out.append(
                _report(
                    "prop31-delta",
                    cp.label,
                    "FAIL",
                    "diagonal of the abelianization does not embed at finite scale",
                    witness,
                    t0,
                )
            )
    return out


def _drive_thmc(ctx: _Context) -> list[ClaimReport]:
    out = []
    for cp in ctx.corpus.pairs:
        if ctx.conjugation_group(cp) is None:
            continue
        t0 = time.perf_counter()
        nu, rep = _instance(ctx.nu, "thmc-pi", cp, t0)
        if rep is not None:
            out.append(rep)
            continue
        group = nu.group
        if group.n == 1:
            out.append(
                _report("thmc-pi", cp.label, "PASS", "trivial group: vacuous", None, t0)
            )
            continue
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
            out.append(_report("thmc-pi", cp.label, "PASS", detail, None, t0))
        else:
            witness = {k: bool(okv) for k, okv in checks.items()}
            witness.update(
                {
                    "group_primes": sorted(group.pi()),
                    "tensor_primes": sorted(tensor_primes),
                    "abelianization_primes_set": sorted(pi_set(a_inv)),
                    "delta_primes": sorted(pi_set(d_ab)),
                }
            )
            out.append(
                _report(
                    "thmc-pi",
                    cp.label,
                    "FAIL",
                    "prime support of the tensor subgroup is too small",
                    witness,
                    t0,
                )
            )
    return out


_CLAIMS = (
    ("compat", _drive_compat),
    ("decomposition", _drive_decomposition),
    ("ztensor", _drive_ztensor),
    ("lemma21", _drive_lemma21),
    ("lemma22", _drive_lemma22),
    ("lemma23", _drive_lemma23),
    ("mu-quotient", _drive_mu_quotient),
    ("thma", _drive_thma),
    ("cor32", _drive_cor32),
    ("prop31-delta", _drive_prop31),
    ("thmc-pi", _drive_thmc),
)

CLAIM_IDS = tuple(claim for claim, _ in _CLAIMS)


def run_corpus(
    max_cosets: int = DEFAULT_MAX_COSETS,
    claim_filter: str | None = None,
    corpus: Corpus | None = None,
) -> list[ClaimReport]:
    """Evaluate every claim over the corpus and sort by (instance, claim).

    claim_filter keeps only claims whose id contains the given substring.
    Construction happens once per instance and is shared across claims;
    instances that exceed max_cosets yield SKIPPED reports.
    """
    if corpus is None:
        corpus = default_corpus()
    ctx = _Context(corpus, max_cosets)
    reports: list[ClaimReport] = []
    for claim, driver in _CLAIMS:
        if claim_filter is not None and claim_filter not in claim:
            continue
        reports.extend(driver(ctx))
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
