"""Integer linear algebra: normal forms, tensor and diagonal invariants."""

from __future__ import annotations

from itertools import product as iproduct
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etacalc.abelian import (
    AbelianInvariants,
    canonical_invariants,
    delta_of_abelian,
    invariants_from_element_orders,
    pi_set,
    prime_factors,
    smith_normal_form,
    z_tensor,
)
from etacalc.errors import CapacityError
from oracles import brute_delta_of_abelian, det_bareiss


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def check_snf(m):
    rows, cols = len(m), len(m[0]) if m else 0
    d, u, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert abs(det_bareiss(u)) == 1
    assert abs(det_bareiss(v)) == 1
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0 or b == 0
        else:
            assert b == 0
    return diag


def test_snf_identity():
    assert check_snf([[1, 0], [0, 1]]) == [1, 1]


def test_snf_diag_2_3():
    assert check_snf([[2, 0], [0, 3]]) == [1, 6]


def test_snf_zero():
    assert check_snf([[0]]) == [0]


def test_snf_rectangular():
    assert check_snf([[2, 4, 4]]) == [2]
    assert check_snf([[2], [4], [4]]) == [2]


def test_snf_classic():
    # A standard worked example with a non-trivial chain.
    assert check_snf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_snf_random_3x3(m):
    check_snf(m)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_snf_random_rectangular(rows, cols, data):
    m = [
        [data.draw(st.integers(min_value=-20, max_value=20)) for _ in range(cols)]
        for _ in range(rows)
    ]
    check_snf(m)


def test_invariants_validation():
    with pytest.raises(ValueError):
        AbelianInvariants((1,))
    with pytest.raises(ValueError):
        AbelianInvariants((4, 2))
    inv = AbelianInvariants((2, 4))
    assert inv.order == 8
    assert inv.exponent == 4
    assert str(inv) == "[2, 4]"
    assert AbelianInvariants(()).order == 1
    assert AbelianInvariants(()).exponent == 1


def test_canonical_invariants():
    assert canonical_invariants([]).factors == ()
    assert canonical_invariants([1, 1]).factors == ()
    assert canonical_invariants([2, 3]).factors == (6,)
    assert canonical_invariants([2, 4]).factors == (2, 4)
    assert canonical_invariants([6, 4]).factors == (2, 12)
    assert canonical_invariants([2, 2, 3]).factors == (2, 6)
    with pytest.raises(ValueError):
        canonical_invariants([0])


def test_invariants_from_element_orders():
    assert invariants_from_element_orders([1]).factors == ()
    assert invariants_from_element_orders([1, 2]).factors == (2,)
    assert invariants_from_element_orders([1, 2, 2, 2]).factors == (2, 2)
    assert invariants_from_element_orders([1, 2, 4, 4]).factors == (4,)
    assert invariants_from_element_orders([1, 6, 3, 2, 3, 6]).factors == (6,)
    assert invariants_from_element_orders([1, 2, 2, 2, 4, 4, 4, 4]).factors == (2, 4)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=9), min_size=0, max_size=4))
def test_order_census_round_trip(factors):
    inv = canonical_invariants(factors)
    orders = []
    for tup in iproduct(*(range(d) for d in inv.factors)):
        o = 1
        for a, d in zip(tup, inv.factors):
            if a:
                o = lcm(o, d // gcd(a, d))
        orders.append(o)
    if not orders:
        orders = [1]
    assert invariants_from_element_orders(orders).factors == inv.factors


def test_z_tensor():
    assert z_tensor(canonical_invariants([2]), canonical_invariants([2])).factors == (2,)
    assert z_tensor(canonical_invariants([6]), canonical_invariants([4])).factors == (2,)
    assert z_tensor(canonical_invariants([]), canonical_invariants([12])).factors == ()
    assert z_tensor(
        canonical_invariants([2, 6]), canonical_invariants([4])
    ).factors == (2, 2)
    got = z_tensor(canonical_invariants([2, 6]), canonical_invariants([2, 6]))
    assert got.factors == (2, 2, 2, 6)


def test_delta_of_abelian_frozen():
    assert delta_of_abelian(canonical_invariants([])).factors == ()
    assert delta_of_abelian(canonical_invariants([5])).factors == (5,)
    assert delta_of_abelian(canonical_invariants([2, 4])).factors == (2, 2, 4)
    assert delta_of_abelian(canonical_invariants([2, 2])).factors == (2, 2, 2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=6), min_size=0, max_size=3))
def test_delta_matches_brute_force(factors):
    inv = canonical_invariants(factors)
    if inv.order > 30:
        return
    assert delta_of_abelian(inv).factors == brute_delta_of_abelian(inv.factors)


def test_prime_factors():
    assert prime_factors(1) == ()
    assert prime_factors(12) == (2, 3)
    assert prime_factors(97) == (97,)
    with pytest.raises(ValueError):
        prime_factors(0)


def test_prime_factors_stops_at_its_trial_divisors():
    # smooth inputs and primes up to 10^12 are settled by trial division up to 10^6
    assert prime_factors(2**50) == (2,)
    assert prime_factors(999_999_999_989) == (999_999_999_989,)
    assert prime_factors(2 * 999_999_999_989) == (2, 999_999_999_989)
    # a cofactor above 10^12 with no divisor up to 10^6 is refused, not run on
    for n in (10**18 + 3, 8 * (10**18 + 3)):
        with pytest.raises(CapacityError):
            prime_factors(n)


def test_pi_set():
    assert pi_set(1) == set()
    assert pi_set(12) == {2, 3}
    assert pi_set(AbelianInvariants((6,))) == {2, 3}
    assert pi_set(AbelianInvariants(())) == set()
    assert pi_set([4, 6]) == {2, 3}
    assert pi_set([]) == set()


def test_pi_of_delta_equals_pi_of_group():
    # The diagonal subgroup construction preserves the prime support.
    for factors in [(2,), (3,), (2, 4), (2, 6), (4,), (2, 2, 2), (15,)]:
        inv = canonical_invariants(list(factors))
        assert pi_set(delta_of_abelian(inv)) == pi_set(inv)
