"""Action tables: axiom audits, compatibility, serialization."""

from __future__ import annotations

import json
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etacalc import fpgroup
from etacalc.action import (
    ActionPair,
    ActionTable,
    check_compatibility,
    compatibility_triples,
    conjugation_pair,
    incompatible_example,
    pair_from_json_dict,
    require_compatible,
    trivial_pair,
    validate_action,
)
from etacalc.errors import IncompatibleActionError, InvalidActionError
from etacalc.eta import construct_eta
from etacalc.groups import TableGroup, builtin, builtin_names, cyclic, symmetric3

from oracles import looped_action_rows_failure, naive_check_compatibility, naive_validate_action


def test_action_table_validation():
    with pytest.raises(ValueError):
        ActionTable(2, 3, ((0, 1, 2), (0, 1)))
    with pytest.raises(ValueError):
        ActionTable(1, 2, ((0, 2),))
    with pytest.raises(ValueError):
        ActionTable.from_rows([])
    t = ActionTable.trivial(2, 4)
    assert t.is_trivial()
    assert t.apply(1, 3) == 3
    nontrivial = ActionTable.from_rows([[0, 1], [1, 0]])
    assert not nontrivial.is_trivial()


@pytest.mark.parametrize(
    "sizes, rows, message",
    [
        ((0, 3), (), "action table sizes must be positive"),
        ((2, 3), ((0, 1, 2),), "expected 2 rows, got 1"),
        ((2, 3), ((0, 1, 2), (0, 1)), "row 1 has length 2, expected 3"),
        ((1, 2), ((0, 2),), "row 0 contains out-of-range entry 2"),
        ((2, 3), ((0, 1, 2), (2, -1, 0)), "row 1 contains out-of-range entry -1"),
        ((1, 2), ((0, 2**63),), f"row 0 contains out-of-range entry {2**63}"),
        ((1, 2), ((0, -(2**70)),), f"row 0 contains out-of-range entry {-(2**70)}"),
        # a ragged row after an out-of-range entry: the entry is read first
        ((3, 3), ((0, 1, 2), (0, 5, -1), (0, 1)), "row 1 contains out-of-range entry 5"),
        # an out-of-range entry after a ragged row, or in it: the length is read first
        ((2, 3), ((0, 1), (0, 9, 1)), "row 0 has length 2, expected 3"),
        ((2, 3), ((0, 1, 2), (7, 1)), "row 1 has length 2, expected 3"),
    ],
)
def test_action_table_names_the_first_bad_row(sizes, rows, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ActionTable(*sizes, rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_action_table_names_the_loops_first_failure(data):
    acting, acted = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    in_range = st.lists(st.integers(0, acted - 1), min_size=acted, max_size=acted)
    stray = st.lists(st.integers(-1, acted), min_size=acted, max_size=acted)
    ragged = st.lists(st.integers(-1, acted), max_size=acted + 1)
    rows = data.draw(st.lists(in_range | stray | ragged, min_size=acting, max_size=acting))
    try:
        ActionTable(acting, acted, rows)
        found = None
    except ValueError as err:
        found = str(err)
    assert found == looped_action_rows_failure(acting, acted, rows)


def test_action_table_holds_one_read_only_array():
    t = ActionTable(2, 3, [[0, 2, 1], (0, 1, 2)])
    assert t.rows.tolist() == [[0, 2, 1], [0, 1, 2]]
    assert t.rows.dtype == np.intp and not t.rows.flags.writeable
    assert t == ActionTable.from_rows(np.array([[0, 2, 1], [0, 1, 2]], dtype=np.int32))
    assert hash(t) == hash(ActionTable.from_rows([[0, 2, 1], [0, 1, 2]]))
    assert t != ActionTable.from_rows([[0, 1, 2], [0, 2, 1]])
    assert t != ActionTable.from_rows([[0, 2, 1, 3], [0, 1, 2, 3]])
    assert type(t.apply(0, 1)) is int and t.apply(0, 1) == 2


def test_action_table_json():
    t = ActionTable.from_rows([[0, 2, 1], [0, 1, 2]])
    data = t.to_json_dict()
    assert data["schema"] == 1
    assert ActionTable.from_json_dict(data) == t
    with pytest.raises(ValueError):
        ActionTable.from_json_dict({"rows": [[0]]})
    with pytest.raises(ValueError):
        ActionTable.from_json_dict({"schema": 1, "rows": [[0, 1]], "acted_size": 3})


def test_validate_action_accepts_conjugation():
    s3 = symmetric3()
    pair = conjugation_pair(s3)
    assert validate_action(pair.g_on_h, acted=s3, acting=s3) == []
    assert pair.is_conjugation()
    assert not trivial_pair(s3, s3).is_conjugation()


def test_validate_action_reports_each_axiom():
    c3 = cyclic(3)
    c2 = cyclic(2)
    # identity row replaced by the inversion automorphism
    swapped = ActionTable.from_rows([[0, 2, 1], [0, 2, 1]])
    report = validate_action(swapped, acted=c3, acting=c2)
    axioms = {entry["axiom"] for entry in report}
    assert axioms == {"identity-row", "composition"}
    identity_rows = [e for e in report if e["axiom"] == "identity-row"]
    assert {e["acted"] for e in identity_rows} == {1, 2}
    broken = ActionTable.from_rows([[0, 1, 2], [0, 1, 1]])
    report = validate_action(broken, acted=c3, acting=c2)
    assert any(e["axiom"] == "row-bijection" and e["acting"] == 1 for e in report)
    with pytest.raises(ValueError):
        validate_action(ActionTable.trivial(2, 3), acted=c3, acting=c3)


def test_validate_action_lists_bijection_then_identity_failures_in_order():
    c3 = cyclic(3)
    c2 = TableGroup([[1, 0], [0, 1]])  # its identity is element 1, labelled e
    rows = [[1, 1, 0], [0, 2, 2]]
    report = validate_action(ActionTable.from_rows(rows), acted=c3, acting=c2)
    assert report[:3] == [
        {"axiom": "row-bijection", "acting": 0, "acting_label": "x0", "row": [1, 1, 0]},
        {"axiom": "row-bijection", "acting": 1, "acting_label": "e", "row": [0, 2, 2]},
        {"axiom": "identity-row", "acted": 1, "acted_label": "g1", "image": 2},
    ]
    assert report[3]["axiom"] == "row-homomorphism"
    # json.dumps refuses numpy integers, so every number in the report is a plain int
    assert json.loads(json.dumps(report)) == report


def test_invalid_pair_cites_table_and_axiom():
    s3 = symmetric3()
    good = conjugation_pair(s3)
    rows = [list(row) for row in good.g_on_h.rows]
    a = next(x for x in s3.elements() if s3.element_order(x) == 3)
    rows[a][0], rows[a][1] = rows[a][1], rows[a][0]
    with pytest.raises(InvalidActionError) as exc:
        ActionPair(s3, s3, ActionTable.from_rows(rows), good.h_on_g)
    report = exc.value.report
    assert report
    assert all(entry["table"] == "g_on_h" for entry in report)
    assert any(entry["axiom"] == "row-homomorphism" for entry in report)


def test_conjugation_rows_match_group_conj():
    for name in builtin_names():
        group = builtin(name)
        rows = conjugation_pair(group).g_on_h.rows
        assert rows.tolist() == [
            [group.conj(x, a) for x in group.elements()] for a in group.elements()
        ]


def test_a_groups_own_conjugation_skips_both_audits(monkeypatch):
    # conjugation inside a validated group is an action by automorphisms and
    # meets both compatibility equations, so neither |G|^3 audit runs on it;
    # every other pair, a broken conjugation table included, is audited
    import etacalc.action as action

    calls = {"validate_action": 0, "check_compatibility": 0}

    def counted(name):
        audit = getattr(action, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return audit(*args, **kwargs)

        return counting

    for name in calls:
        monkeypatch.setattr(action, name, counted(name))

    def taken() -> tuple[int, int]:
        counts = tuple(calls.values())
        calls.update(dict.fromkeys(calls, 0))
        return counts

    pair = conjugation_pair(builtin("A4"))
    assert taken() == (0, 0)
    loaded = pair_from_json_dict(json.loads(json.dumps(pair.to_json_dict())))
    assert loaded.is_conjugation() and taken() == (0, 0)
    construct_eta(conjugation_pair(symmetric3()))
    assert taken() == (0, 0)
    trivial = trivial_pair(builtin("C2"), builtin("C3"))
    assert taken() == (2, 0)
    construct_eta(trivial)
    assert taken() == (0, 1)
    # one shared table with two entries swapped: each role is reported as the loops report it
    s3 = symmetric3()
    rows = [list(row) for row in conjugation_pair(s3).g_on_h.rows]
    rows[1][0], rows[1][1] = rows[1][1], rows[1][0]
    bad = ActionTable.from_rows(rows)
    with pytest.raises(InvalidActionError) as exc:
        ActionPair(s3, s3, bad, bad)
    assert taken() == (2, 0)
    found = naive_validate_action(bad, s3, s3)
    assert found
    roles = [{**entry, "table": table} for table in ("g_on_h", "h_on_g") for entry in found]
    assert exc.value.report == roles


def test_conjugation_and_trivial_pairs_are_compatible():
    for name in ["C2", "C6", "S3", "D8", "Q8", "A4"]:
        assert check_compatibility(conjugation_pair(builtin(name))) == []
    assert check_compatibility(trivial_pair(builtin("C2"), builtin("C3"))) == []
    assert check_compatibility(trivial_pair(builtin("D8"), builtin("C6"))) == []
    require_compatible(conjugation_pair(builtin("S3")))


def test_automorphism_action_with_trivial_reverse_is_compatible():
    c4, c3 = cyclic(4), cyclic(3)
    inversion = [0, 2, 1]
    g_on_h = ActionTable.from_rows(
        [list(range(3)), inversion, list(range(3)), inversion]
    )
    pair = ActionPair(c4, c3, g_on_h, ActionTable.trivial(3, 4))
    assert check_compatibility(pair) == []


def test_incompatible_pair_reports_failing_triples():
    pair = incompatible_example()
    failures = check_compatibility(pair)
    assert failures
    assert all(f["family"] == 1 for f in failures)
    s3 = pair.g
    assert any(s3.element_order(f["g1"]) == 3 for f in failures)
    for f in failures:
        assert f["lhs"] != f["rhs"]
        assert f["lhs_label"] == s3.labels[f["lhs"]]
    with pytest.raises(IncompatibleActionError) as exc:
        require_compatible(pair)
    assert exc.value.report == failures
    # |G|^2 |H| triples in family 1 and |H|^2 |G| in family 2
    assert compatibility_triples(pair) == 6 * 6 * 2 + 2 * 2 * 6


def test_swapping_the_pair_mirrors_the_families():
    pair = incompatible_example()
    swapped = ActionPair(pair.h, pair.g, pair.h_on_g, pair.g_on_h)
    forward = check_compatibility(pair)
    mirrored = check_compatibility(swapped)
    assert len(mirrored) == len(forward)
    assert all(f["family"] == 2 for f in mirrored)
    ok = conjugation_pair(builtin("D8"))
    assert check_compatibility(ActionPair(ok.h, ok.g, ok.h_on_g, ok.g_on_h)) == []


def test_pair_json_round_trip():
    pair = conjugation_pair(builtin("D8"))
    data = pair.to_json_dict()
    assert data["schema"] == 1
    loaded = pair_from_json_dict(data)
    assert loaded == pair
    with pytest.raises(ValueError):
        pair_from_json_dict({"schema": 2})
    partial = {k: v for k, v in data.items() if k != "h_on_g"}
    with pytest.raises(ValueError):
        pair_from_json_dict(partial)


def test_pair_json_renumbers_identity_to_zero():
    pair = conjugation_pair(symmetric3())
    data = pair.to_json_dict()
    # relabel the group so its identity lands at index 3
    n = 6
    sigma = [3, 0, 1, 2, 4, 5]
    table = [[0] * n for _ in range(n)]
    labels = [""] * n
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        labels[sigma[a]] = data["g"]["labels"][a]
        for b in range(n):
            table[sigma[a]][sigma[b]] = sigma[data["g"]["table"][a][b]]
            rows[sigma[a]][sigma[b]] = sigma[data["g_on_h"]["rows"][a][b]]
    group_json = {"schema": 1, "table": table, "labels": labels}
    action_json = {"schema": 1, "rows": rows}
    loaded = pair_from_json_dict(
        {
            "schema": 1,
            "g": group_json,
            "h": group_json,
            "g_on_h": action_json,
            "h_on_g": action_json,
        }
    )
    assert loaded.g.identity == 0
    assert loaded.g.labels[0] == "e"
    assert loaded.is_conjugation()
    assert check_compatibility(loaded) == []


_AUDITED = (
    *(conjugation_pair(builtin(g)) for g in ("C3", "C2xC2", "S3", "D8", "Q8", "A4")),
    trivial_pair(builtin("C4"), builtin("C6")),
    trivial_pair(builtin("S3"), builtin("C2")),
    incompatible_example(),
)


def _audits_match_the_triple_loops(data) -> None:
    pair = data.draw(st.sampled_from(_AUDITED))
    rows = {
        "g_on_h": [list(row) for row in pair.g_on_h.rows],
        "h_on_g": [list(row) for row in pair.h_on_g.rows],
    }
    if data.draw(st.booleans()):
        table = rows[data.draw(st.sampled_from(sorted(rows)))]
        a = data.draw(st.integers(0, len(table) - 1))
        x = data.draw(st.integers(0, len(table[0]) - 1))
        table[a][x] = data.draw(st.integers(0, len(table[0]) - 1))
    g_on_h = ActionTable.from_rows(rows["g_on_h"])
    h_on_g = ActionTable.from_rows(rows["h_on_g"])
    # A perturbed table need not be an action, so ActionPair would refuse it;
    # the compatibility audit only reads these four fields.
    loose = SimpleNamespace(g=pair.g, h=pair.h, g_on_h=g_on_h, h_on_g=h_on_g)
    # json.dumps compares key order and refuses numpy integers
    assert json.dumps(check_compatibility(loose)) == json.dumps(
        naive_check_compatibility(loose)
    )
    for table, acted, acting in ((g_on_h, pair.h, pair.g), (h_on_g, pair.g, pair.h)):
        assert json.dumps(validate_action(table, acted, acting)) == json.dumps(
            naive_validate_action(table, acted, acting)
        )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_vectorised_audits_match_the_triple_loops(data):
    _audits_match_the_triple_loops(data)


# one element per block, then blocks of up to ten elements
@pytest.mark.parametrize("walks", [1, 7, 40])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_vectorised_audits_match_the_triple_loops_in_blocks(walks, data):
    # The reports list failures across blocks in the order of the loops.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fpgroup, "_AUDIT_WALKS", walks)
        _audits_match_the_triple_loops(data)


def test_is_conjugation_matches_the_group_conjugates():
    def looped(pair) -> bool:
        if pair.g is not pair.h and pair.g != pair.h:
            return False
        t = pair.g
        return all(
            pair.g_on_h.rows[a][x] == t.conj(x, a) and pair.h_on_g.rows[a][x] == t.conj(x, a)
            for a in range(t.n)
            for x in range(t.n)
        )

    pairs = [trivial_pair(symmetric3(), cyclic(2)), incompatible_example()]
    for name in ("C3", "C2xC2", "S3", "D8", "Q8", "A4"):
        pairs += [conjugation_pair(builtin(name)), trivial_pair(builtin(name), builtin(name))]
    s3 = symmetric3()  # equal to S3 but another object: its conjugation acts on the other copy
    pairs.append(ActionPair(s3, symmetric3(), *[conjugation_pair(s3).g_on_h] * 2))
    pairs.append(ActionPair(s3, s3, conjugation_pair(s3).g_on_h, ActionTable.trivial(6, 6)))
    assert [pair.is_conjugation() for pair in pairs] == [looped(pair) for pair in pairs]
    # seven conjugations, and C3 and C2xC2 acting trivially
    assert sum(looped(pair) for pair in pairs) == 9


def test_conjugates_and_action_arrays_are_built_once_and_read_only():
    group = builtin("S3")
    pair = conjugation_pair(group)
    for get in (group.conj_table, lambda: pair.g_on_h.rows):
        assert get() is get()
        assert not get().flags.writeable
    assert pair.g_on_h.rows.dtype == np.intp and pair.g_on_h.rows.flags.c_contiguous
    assert group.conj_table().tolist() == [[group.conj(a, b) for b in range(6)] for a in range(6)]
