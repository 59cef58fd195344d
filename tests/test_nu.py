"""nu groups: rho maps, the central kernel mu, and the diagonal subgroup."""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from etacalc.abelian import delta_of_abelian
from etacalc.eta import check_decomposition
from etacalc.groups import builtin, cyclic, direct_product, symmetric3
from etacalc.nu import check_derived_decomposition, construct_nu
from etacalc.perm import abelian_invariants_of
from etacalc.verify import _derived_decomposition, default_corpus
from oracles import with_fibre_rows


def test_nu_c2():
    nu = construct_nu(cyclic(2))
    assert nu.order() == 8
    assert nu.tensor_order() == 2
    assert nu.mu.order() == 2
    assert nu.delta.order() == 2
    assert check_decomposition(nu.eta)["ok"]
    report = check_derived_decomposition(nu)
    assert report["ok"]
    assert report["derived_order"] == 2  # abelian G, so just the tensor part


def test_nu_c4():
    nu = construct_nu(cyclic(4))
    assert nu.order() == 64
    assert nu.tensor_order() == 4
    # abelian group: the bracket map kills everything
    assert nu.mu.order() == 4
    assert nu.rho_prime.image_group() == (0,)
    assert nu.delta.order() == delta_of_abelian(cyclic(4).abelian_invariants()).order
    assert tuple(abelian_invariants_of(nu.delta)) == (4,)


def test_nu_c2xc4_delta_matches_formula():
    group = builtin("C2xC4")
    nu = construct_nu(group)
    expected = delta_of_abelian(group.abelian_invariants())
    assert nu.delta.order() == expected.order
    assert tuple(abelian_invariants_of(nu.delta)) == tuple(expected)


def test_nu_s3():
    s3 = symmetric3()
    nu = construct_nu(s3)
    assert nu.order() == nu.tensor_order() * 36
    # the bracket map covers the derived subgroup with central kernel mu
    assert nu.rho_prime.image_group() == s3.derived_indices()
    assert nu.tensor_order() == nu.mu.order() * 3
    assert nu.mu.is_central_in(nu.carrier)
    for m in nu.mu.generators:
        for c in nu.carrier.generators:
            assert nu.carrier.conjugates(m, c) == m
    report = check_derived_decomposition(nu)
    assert report["ok"]
    assert report["derived_order"] == nu.tensor_order() * 9
    abelianized = delta_of_abelian(s3.abelian_invariants()).order
    assert nu.delta.order() % abelianized == 0


def test_rho_restricts_to_both_copies():
    # rho labels each carrier point by an element of G
    for group in (cyclic(4), symmetric3()):
        nu = construct_nu(group)
        for a in range(group.n):
            assert nu.rho.apply(nu.eta.embed_g[a]) == a
            assert nu.rho.apply(nu.eta.embed_h[a]) == a


def test_rho_prime_sends_brackets_to_commutators():
    s3 = symmetric3()
    nu = construct_nu(s3)
    for a in range(6):
        for b in range(6):
            image = nu.rho_prime.apply(nu.eta.tensor(a, b))
            assert image == s3.comm(a, b)


def test_mu_elements_map_to_identity():
    nu = construct_nu(builtin("D8"))
    for m in nu.mu.generators:
        assert nu.rho_prime.apply(m) == 0
    assert nu.tensor_order() == nu.mu.order() * len(builtin("D8").derived_indices())


def test_nu_trivial_group():
    nu = construct_nu(cyclic(1))
    assert nu.order() == 1
    assert nu.mu.order() == 1
    assert nu.delta.order() == 1
    assert check_derived_decomposition(nu)["ok"]


def test_nu_quaternion():
    q8 = builtin("Q8")
    nu = construct_nu(q8)
    assert nu.order() == nu.tensor_order() * 64
    assert len(nu.rho_prime.image_group()) == 2
    assert nu.tensor_order() == nu.mu.order() * 2
    assert check_derived_decomposition(nu)["ok"]


def test_abelian_invariants_of_nu_pieces():
    # An abelian group reads its element orders; a non-abelian one has none.
    s3 = construct_nu(symmetric3())
    assert abelian_invariants_of(s3.carrier) is None
    assert tuple(abelian_invariants_of(s3.tensor_subgroup)) == (6,)
    a4 = construct_nu(builtin("A4"))
    assert abelian_invariants_of(a4.tensor_subgroup) is None


def test_derived_decomposition_fails_when_the_factors_do_not_generate():
    # With G embedded as the identity, the factors generate only T H'; the
    # covering check catches it, and generation is read off it.
    nu = construct_nu(symmetric3())
    identity_rows = np.tile(np.arange(nu.eta.ends.shape[1]), (6, 1))
    broken = dataclasses.replace(nu, eta=with_fibre_rows(nu.eta, identity_rows))
    report = check_derived_decomposition(broken)
    assert report["counts_match"] and report["factors_contained"]
    assert not report["covers"] and not report["generates"]
    assert not report["ok"]


def test_nu_retains_only_the_arrays_it_owns():
    # After construction, nu(C4xC4) on 65,536 points holds the carrier's
    # columns and tree, T's scaled table, sigma, ends and the tensors, each
    # group's mask and levels, and the two hom labellings. The arrays that
    # grow a subgroup are let go: keeping one right-multiplication array
    # (256 KiB here) per subgroup generator would exceed the slack.
    group = direct_product(cyclic(4), cyclic(4))
    construct_nu(cyclic(2))  # first-call caches outside the measured span
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        nu = construct_nu(group)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    carrier = nu.carrier
    arrays = [carrier._columns, carrier._column, carrier._parent]
    arrays += [nu.eta.t_points, nu.eta.sigma, nu.eta.ends, nu.eta.tensors]
    arrays += [nu.rho._labels, nu.rho_prime._labels]
    for g in (carrier, nu.tensor_subgroup, nu.mu, nu.delta):
        arrays.append(g._mask)
        arrays += [a for level in g._levels for a in level if isinstance(a, np.ndarray)]
    bases = {id(a if a.base is None else a.base): a if a.base is None else a.base for a in arrays}
    owned = sum(a.nbytes for a in bases.values())
    assert carrier.degree == 65_536 and owned > 3 * 2**20
    assert owned <= retained <= owned + 128 * 2**10, (retained, owned)


def test_derived_decomposition_checks_both_intersections():
    # etacalc nu's audit meets T with G' and T G' with H', as lemma21 does:
    # on every nu of the default corpus each meeting is the identity alone
    names = [cp.label.split(":")[1] for cp in default_corpus().pairs if cp.kind == "conjugation"]
    assert len(names) == 21
    for name in names:
        report = check_derived_decomposition(construct_nu(builtin(name)))
        assert report["tensor_meets_g_derived"] == report["tg_meets_h_derived"] == [0]
        assert report["ok"]


def test_derived_decomposition_fails_when_the_factors_meet():
    # With G's copy embedded as H's, G' and H' coincide, so T G' meets H' in
    # all of H'; the audit names those points and fails, as lemma21 does
    s3 = symmetric3()
    nu = construct_nu(s3)
    h_rows = nu.eta.times_h(np.arange(nu.eta.ends.shape[1]), np.arange(s3.n)[:, None])
    broken = dataclasses.replace(nu, eta=with_fibre_rows(nu.eta, h_rows))
    report = check_derived_decomposition(broken)
    assert report["tensor_meets_g_derived"] == [0]
    assert report["tg_meets_h_derived"] == sorted(nu.eta.embed_h[d] for d in s3.derived_indices())
    assert not report["ok"]
    status, _, witness = _derived_decomposition(broken)
    assert status == "FAIL" and witness == report
