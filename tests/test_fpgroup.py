"""Presentation parsing, relator words, and coset enumeration."""

from __future__ import annotations

import importlib
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etacalc import fpgroup
from etacalc.action import ActionPair, ActionTable, conjugation_pair
from etacalc.errors import CapacityError, ConstructionError, IncompleteTableError, ParseError
from etacalc.eta import _tensor_presentation
from etacalc.fpgroup import (
    DEFAULT_MAX_COSETS,
    MAX_WORD_LETTERS,
    CosetTable,
    Presentation,
    _audit_table,
    _Enumerator,
    parse_presentation,
    regular_representation,
    todd_coxeter,
)
from etacalc.groups import TableGroup, builtin
from etacalc.perm import PermGroup
from oracles import canonical_carrier, looped_coincidence, looped_compact, tree_dict

REPO = Path(__file__).resolve().parent.parent

# Columns of a relator: 2i is generator i and 2i + 1 its inverse.
A, A_, B, B_ = 0, 1, 2, 3


def _render(generators, word) -> str:
    """Text of a column word, as the parser reads it."""
    return " ".join(
        generators[c // 2] if c % 2 == 0 else f"{generators[c // 2]}^-1" for c in word
    ) or "()"


def test_word_reduction():
    # the parser reduces each relator freely, then drops empty and repeated ones
    p = parse_presentation("< a, b | a a^-1 b, (), b a a^-1 b^-1, b, a^3 >")
    assert p.relators == ((B,), (A, A, A))
    assert parse_presentation("< a | a^0, a^2 a^-2 >").relators == ()


def test_word_algebra():
    # the parser's products, powers, inverses, conjugates and commutators
    relators = parse_presentation("< a, b | [a, b], a^b, (a b)^-1, [a, a] b, b^-2 >").relators
    assert relators == ((A_, B_, A, B), (B_, A, B), (B_, A_), (B,), (B_, B_))


def test_parse_basic():
    p = parse_presentation("<a,b|a^2,b^3,(a b)^2>")
    assert p.generators == ("a", "b")
    assert len(p.relators) == 3
    assert p.relators[0] == (A, A)
    assert p.relators[2] == (A, B) * 2


def test_parse_sugar():
    p = parse_presentation("< a, b | [a, b], a^b a >")
    assert p.relators == ((A_, B_, A, B), (B_, A, B, A))


def test_parse_nested():
    p = parse_presentation("<a,b| ((a b)^2)^-1, [a^2, b^-1] >")
    assert p.relators[0] == (B_, A_) * 2
    # () is the empty word, which the presentation drops
    p2 = parse_presentation("<a,b| a^(b a), () >")
    assert p2.relators == ((A_, B_, A, B, A),)


def test_parse_star_multiplication():
    p = parse_presentation("<a,b| a*b*a^-1*b^-1 >")
    assert p.relators[0] == (A, B, A_, B_)


def test_parse_juxtaposed_letters_and_upper_case_inverse():
    # The README's syntax: (ab)^3 multiplies single-letter generators.
    p = parse_presentation("< a, b | a^2, b^2, (ab)^3 >")
    assert p.relators[2] == parse_presentation("< a, b | (a b)^3 >").relators[0]
    assert todd_coxeter(p).n == 6
    # An undeclared upper-case letter is the inverse of its lower case.
    assert parse_presentation("< a | A^2 a^-2 >").relators[0] == (A_,) * 4
    assert parse_presentation("< a, b | aBA >").relators[0] == (A, B_, A_)
    # A declared upper-case generator is itself, not an inverse.
    assert parse_presentation("< a, A | aA >").relators[0] == (0, 2)
    for text, column in (("< a, b | ac >", 10), ("< a | a1 >", 7), ("< ab | a >", 8)):
        with pytest.raises(ParseError) as exc:
            parse_presentation(text)
        assert exc.value.column == column


def test_parse_errors_have_position():
    with pytest.raises(ParseError) as exc:
        parse_presentation("<a| b >")
    assert exc.value.line == 1
    assert exc.value.column == 5
    with pytest.raises(ParseError) as exc:
        parse_presentation("<a|\n a^2,\n c >")
    assert exc.value.line == 3
    assert exc.value.column == 2
    with pytest.raises(ParseError):
        parse_presentation("<a| a^ >")
    with pytest.raises(ParseError):
        parse_presentation("a^2")
    with pytest.raises(ParseError):
        parse_presentation("<a| a^2 > trailing")
    with pytest.raises(ParseError):
        parse_presentation("<a| (a >")


def test_only_decimal_digits_are_numbers():
    # a superscript two is a digit to str.isdigit but not to int(): it is an
    # unexpected character, where an Arabic-Indic three is the number 3
    with pytest.raises(ParseError, match="unexpected character '²'") as exc:
        parse_presentation("< a | a^² >")
    assert (exc.value.line, exc.value.column) == (1, 9)
    assert parse_presentation("< a | a^\u0663 >").relators == ((A,) * 3,)


def test_presentation_validation():
    with pytest.raises(ParseError):
        parse_presentation("< a, a | a >")
    with pytest.raises(ValueError):
        Presentation(("a",), ((B,),))
    with pytest.raises(ValueError):
        Presentation(("a",), ((-1,),))
    with pytest.raises(ValueError):
        Presentation((), ())


def test_render_round_trip():
    # a parsed presentation, written out letter by letter, parses to itself
    for text in [
        "<a|a^3>",
        "<a,b|a^2,b^3,(a b)^2>",
        "<a,b|[a,b]>",
        "<a|>",
        "<x1,x2,x3| x1 x2 x3^-2 >",
    ]:
        p = parse_presentation(text)
        relators = ", ".join(_render(p.generators, r) for r in p.relators)
        assert parse_presentation(f"< {', '.join(p.generators)} | {relators} >") == p


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=0, max_size=12)
)
def test_word_render_round_trip(word):
    # a random word, as text, parses to its free reduction, dropped when empty
    p = parse_presentation(f"< a, b, c | {_render('abc', word)} >")
    reduced = fpgroup._reduce(word)
    assert p == Presentation(("a", "b", "c"), (reduced,) if reduced else ())


def test_parser_refuses_a_word_over_the_letter_limit_before_building_it():
    longest = parse_presentation(f"< a | a^-{MAX_WORD_LETTERS} >")
    assert longest.relators == ((A_,) * MAX_WORD_LETTERS,)
    nested = "a"
    for level in range(40):
        # each conjugation about doubles the word: 2^40 letters unchecked
        nested = f"{'ab'[level % 2]}^({nested})"
    for text, letters in [
        (f"a^{MAX_WORD_LETTERS + 1}", MAX_WORD_LETTERS + 1),
        (f"a^{MAX_WORD_LETTERS} a", MAX_WORD_LETTERS + 1),
        (f"[a^{MAX_WORD_LETTERS // 2}, b]", MAX_WORD_LETTERS + 2),
        (nested, None),
    ]:
        with pytest.raises(CapacityError) as exc:
            parse_presentation(f"< a, b | {text} >")
        assert exc.value.count > MAX_WORD_LETTERS
        assert letters is None or exc.value.count == letters


def test_todd_coxeter_cyclic():
    t = todd_coxeter(parse_presentation("<a|a^3>"))
    assert t.n == 3
    assert t.rows.shape == (3, 2) and t.rows.dtype == np.int32
    # a is a 3-cycle and column 1 its inverse
    assert np.array_equal(t.rows[t.rows[:, 0], 1], np.arange(3))
    assert np.array_equal(t.rows[t.rows[t.rows[:, 0], 0], 0], np.arange(3))


def test_todd_coxeter_s3():
    t = todd_coxeter(parse_presentation("<a,b|a^2,b^3,(a b)^2>"))
    assert t.n == 6


def test_todd_coxeter_quaternion():
    t = todd_coxeter(parse_presentation("<i,j| i^4, j^2 i^-2, j^-1 i j i >"))
    assert t.n == 8
    g, columns = regular_representation(t.rows.T)
    assert g.order() == 8
    assert sorted(g.element_orders()) == [1, 2, 4, 4, 4, 4, 4, 4]
    # generator k of ("i", "j") is column 2 k
    assert columns.shape == (4, 8)
    orders = dict(zip(g.elements(), g.element_orders()))
    assert orders[int(columns[0, 0])] == 4
    assert g.generators == tuple(int(columns[2 * k, 0]) for k in range(2))


def test_todd_coxeter_infinite_capacity():
    with pytest.raises(CapacityError) as exc:
        todd_coxeter(parse_presentation("<a|>"), max_cosets=100)
    assert exc.value.count == 100


def test_todd_coxeter_collapse():
    # Heavy coincidence load: the group is trivial.
    t = todd_coxeter(parse_presentation("<a,b| a b, a^2, a^3 >"))
    assert t.n == 1
    t2 = todd_coxeter(parse_presentation("<a,b| b^-1 a b a^-2, a^-1 b a b^-2 >"))
    assert t2.n == 1


def test_todd_coxeter_deterministic():
    text = "<a,b|a^2,b^3,(a b)^2>"
    t1 = todd_coxeter(parse_presentation(text))
    t2 = todd_coxeter(parse_presentation(text))
    assert t1.n == t2.n == 6
    assert np.array_equal(t1.rows, t2.rows)
    g1, g2 = (regular_representation(t.rows.T)[0] for t in (t1, t2))
    assert tree_dict(g1._column, g1._parent) == tree_dict(g2._column, g2._parent)


def test_empty_relators_are_harmless():
    # the constructor keeps the words as given; the enumerator and its audit walk them
    p = Presentation(("a",), ((), (A, A_), (A, A, A)))
    assert p.relators == ((), (A, A_), (A, A, A))
    assert todd_coxeter(p).n == 3


def test_regular_representation_word_round_trip():
    t = todd_coxeter(parse_presentation("<a,b|a^2,b^3,(a b)^2>"))
    g, columns = regular_representation(t.rows.T)
    assert g.order() == 6
    a, b = (int(columns[2 * k, 0]) for k in range(2))
    orders = dict(zip(g.elements(), g.element_orders()))
    assert orders[g.mul(a, b)] == 2
    assert orders[b] == 3
    # a generator's column is its right-multiplication array, its inverse's the next
    assert all(g.mul(p, b) == columns[2][p] for p in g.elements())
    assert all(g.mul(p, g.inv(b)) == columns[3][p] for p in g.elements())


def test_coset_table_column_consistency():
    t = todd_coxeter(parse_presentation("<a,b|a^2,b^3,(a b)^2>"))
    for i in range(2):
        fwd = t.rows[:, 2 * i]
        inv = t.rows[:, 2 * i + 1]
        for pt in range(t.n):
            assert inv[fwd[pt]] == pt


def _queue_tree(table):
    """Reference: BFS from 0 with a FIFO queue, one edge at a time, on the points as numbered."""
    n, nc = len(table), len(table[0])
    order = [0]
    tree = {0: None}
    for cur in order:
        for c in range(nc):
            v = table[cur][c]
            if v not in tree:
                tree[v] = (c // 2, 1 if c % 2 == 0 else -1, cur)
                order.append(v)
    if len(order) != n:
        raise IncompleteTableError("coset graph is not connected from coset 0")
    return order, tree


@st.composite
def _permutation_tables(draw):
    n = draw(st.integers(1, 40))
    gens = draw(st.integers(1, 3))
    table = np.empty((n, 2 * gens), dtype=np.int32)
    for i in range(gens):
        image = np.array(draw(st.permutations(range(n))), dtype=np.int32)
        table[:, 2 * i] = image
        table[image, 2 * i + 1] = np.arange(n, dtype=np.int32)
    return table


@settings(max_examples=200, deadline=None)
@given(_permutation_tables())
def test_carrier_tree_matches_the_queue(table):
    # the carrier grows its tree on the points as numbered; relabelled by
    # its own tree order, it is bfs_renumber's canonical table and tree
    try:
        expected = _queue_tree(table.tolist())
    except IncompleteTableError:
        with pytest.raises(IncompleteTableError):
            PermGroup.regular(table.T.copy())
        return
    carrier = PermGroup.regular(table.T.copy())
    assert (list(carrier.orbit0()), tree_dict(carrier._column, carrier._parent)) == expected
    canonical_carrier(carrier)


@pytest.mark.parametrize(
    "rows",
    [[[1, -1], [0, 0]], [[0, 0], [1, 1]]],
    ids=["undefined-entry", "unreached-coset"],
)
def test_todd_coxeter_rejects_an_incomplete_table(rows, monkeypatch):
    # the enumeration's table is checked before its audit, as it is returned
    monkeypatch.setattr(_Enumerator, "finish", lambda self: np.array(rows, dtype=np.int32))
    with pytest.raises(IncompleteTableError):
        todd_coxeter(parse_presentation("< a | a^2 >"))


def test_column_presentation_enumerates_like_words():
    # a presentation built from columns is the parsed one, and enumerates alike
    words = parse_presentation("<a,b|a^2,b^3,(a b)^2>")
    columns = Presentation(("a", "b"), ((A, A), (B, B, B), (A, B, A, B)))
    assert columns == words
    assert np.array_equal(todd_coxeter(columns).rows, todd_coxeter(words).rows)
    with pytest.raises(ValueError):
        Presentation(("a",), ((A, B),))


def _a4_on_v4() -> ActionPair:
    """A4 and its normal V4 acting on each other by conjugation in A4."""
    a4 = builtin("A4")
    members = a4.derived_indices()
    pos = {x: i for i, x in enumerate(members)}
    v4 = TableGroup([[pos[a4.mul(a, b)] for b in members] for a in members])
    return ActionPair(
        a4,
        v4,
        ActionTable.from_rows([[pos[a4.conj(x, g)] for x in members] for g in range(a4.n)]),
        ActionTable.from_rows([[a4.conj(x, c) for x in range(a4.n)] for c in members]),
    )


def _step_identity_presentations() -> list[tuple[str, Presentation]]:
    tensors = [(f"nu:{name}", conjugation_pair(builtin(name))) for name in ("D8", "Q8", "D12", "C2xC6")]
    return [
        *((label, _tensor_presentation(pair)[0]) for label, pair in tensors),
        ("A4,V4", _tensor_presentation(_a4_on_v4())[0]),
        ("S4", parse_presentation("< a, b, c | a^2, b^2, c^2, (a b)^3, (b c)^3, (a c)^2 >")),
        ("PSL(2,7)", parse_presentation("< a, b | a^2, b^3, (a b)^7, [a, b]^4 >")),
        # long relators whose first letters close: prechecked only part way
        ("PSL(2,7)'", parse_presentation("< a, b | a^2, b^3, b^3 (a b)^7, a^2 [a, b]^4 >")),
    ]


def _enumerated(enum: _Enumerator) -> tuple:
    """What an enumeration leaves: its outcome, table, forest and counts."""
    try:
        enum.run()
        outcome = None
    except CapacityError as exc:
        outcome = exc.count
    return outcome, enum.tbl.tobytes(), enum.p.tobytes(), enum.nrows, enum.alive


@pytest.mark.parametrize("label, presentation", _step_identity_presentations())
def test_precheck_is_step_identical(label, presentation, monkeypatch):
    # skipping closed relators leaves every definition, coincidence,
    # compaction and overrun where scanning them all puts it
    if label.startswith("nu:"):
        assert _Enumerator(presentation, 10).letters  # prechecked by default
    for max_cosets in (50, 100, 300, DEFAULT_MAX_COSETS):
        default = _Enumerator(presentation, max_cosets)
        disabled = _Enumerator(presentation, max_cosets)
        disabled.letters = []
        expected = _enumerated(disabled)
        assert _enumerated(default) == expected, (label, max_cosets)
        for least in (1, 2, 3):  # 1 prechecks every letter; 2 and 3 stop short of the longest
            monkeypatch.setattr(fpgroup, "_PRECHECK_RELATORS", least)
            assert _enumerated(_Enumerator(presentation, max_cosets)) == expected, (label, least)
        monkeypatch.undo()


def test_compact_matches_the_loop():
    # nu(Q8)'s tensor factor closes at 64 cosets of the 445 it defines
    presentation = dict(_step_identity_presentations())["nu:Q8"]
    enum = _Enumerator(presentation, DEFAULT_MAX_COSETS)
    enum.run()
    nrows, nc = enum.nrows, enum.nc
    assert enum.alive < nrows
    # the same dead rows chained one under the next: roots many steps deep
    dead = [x for x in range(nrows) if enum.p[x] != x]
    chained = enum.p[:]
    for x, y in zip(dead, dead[1:]):
        chained[y] = x
    for forest in (enum.p, chained):
        for track in (0, nrows - 1):
            expected = looped_compact(enum.tbl.tolist(), forest.tolist(), nrows, nc, track)
            copy = _Enumerator(presentation, DEFAULT_MAX_COSETS)
            copy.tbl, copy.p, copy.nrows, copy.alive = enum.tbl[:], forest[:], nrows, enum.alive
            tracked = copy.compact(track)
            assert (copy.tbl.tolist()[: copy.nrows * nc], tracked) == expected
            assert copy.tbl.tolist()[copy.nrows * nc :] == [-1] * nc  # the blank row
            assert copy.nrows == copy.alive == enum.alive


def test_compaction_at_the_cap_keeps_the_uncapped_rows(monkeypatch):
    # the enumerator compacts only when a definition finds its room full, and
    # once at the end; T's tables at caps of 2 and 4 times the index are the
    # uncapped ones wherever the cap fits, compacted on the way or not
    compactions = []
    compact = _Enumerator.compact

    def counted(enum, track):
        compactions.append(track)
        return compact(enum, track)

    monkeypatch.setattr(_Enumerator, "compact", counted)
    refused = []
    for name in ("Q8", "D12", "A4", "C2xC6"):
        presentation = _tensor_presentation(conjugation_pair(builtin(name)))[0]
        uncapped = _Enumerator(presentation, DEFAULT_MAX_COSETS)
        uncapped.run()
        rows = todd_coxeter(presentation).rows
        for times in (2, 4):
            compactions.clear()
            try:
                capped = todd_coxeter(presentation, max_cosets=times * len(rows)).rows
            except CapacityError:
                refused.append((name, times))
                continue
            assert np.array_equal(capped, rows), (name, times)
            # more than finish's one compaction exactly when the run reached its cap
            assert (len(compactions) > 1) == (uncapped.nrows > times * len(rows)), (name, times)
    assert refused == [("C2xC6", 2)]


@pytest.mark.parametrize(
    "workload, seed", [("corpus-default", 0), ("corpus-general", 0), ("corpus-general", 7)]
)
def test_coincidence_matches_the_loop(workload, seed, monkeypatch):
    # every T presentation of the benchmark's corpora enumerates to the same
    # table, forest and row count when each coincidence walks all columns
    # of its dead rows
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    corpus = importlib.import_module("corpora").make_corpus(workload, seed)
    presentations = [_tensor_presentation(cp.pair)[0] for cp in corpus.pairs]
    merged = 0
    for presentation in filter(None, presentations):
        enum, looped = (_Enumerator(presentation, DEFAULT_MAX_COSETS) for _ in range(2))
        looped.coincidence = partial(looped_coincidence, looped)
        enum.run()
        looped.run()
        assert (enum.tbl, enum.p, enum.nrows) == (looped.tbl, looped.p, looped.nrows)
        merged += enum.nrows - enum.alive
    assert merged  # some enumeration met coincidences


# S3 on three points: a = (0 1), b = (0 1 2); columns a, a^-1, b, b^-1
_THREE_POINTS = np.array([[1, 1, 1, 2], [0, 0, 2, 0], [2, 2, 0, 1]], dtype=np.int32)


def _audit(rows: np.ndarray, text: str) -> None:
    _audit_table(CosetTable(parse_presentation(text), len(rows), rows))


def _first_failure(rows: np.ndarray, text: str) -> int | None:
    """The first coset of the first relator, in order, whose walk does not close."""
    for word in parse_presentation(text).relators:
        for x in range(len(rows)):
            y = x
            for c in word:
                y = rows[y, c]
            if y != x:
                return x
    return None


def test_audit_refuses_swapped_entries():
    rows = todd_coxeter(parse_presentation("< a, b | a^2, b^3, (a b)^2 >")).rows.copy()
    _audit(rows, "< a, b | a^2, b^3, (a b)^2 >")
    for c in range(4):
        bad = rows.copy()
        bad[[2, 4], c] = bad[[4, 2], c]
        with pytest.raises(ConstructionError, match="not mutually inverse"):
            _audit(bad, "< a, b | a^2, b^3, (a b)^2 >")


@pytest.mark.parametrize(
    "text",
    [
        "< a, b | a^2, b^3, (a b)^2 >",
        # b^-1 a b is (1 2): it fails at cosets 1 and 2 only
        "< a, b | a^2, b^3, (a b)^2, b^-1 a b >",
        # (a b)^3 fails at 0 and 2, but b^-1 a b comes first
        "< a, b | a^2, b^-1 a b, b^3, (a b)^3 >",
        # a longer relator failing at 0 comes before b^-1 a b
        "< a, b | a^2, b^3, b a b^-1 b^-1 a b, b^-1 a b >",
    ],
)
@pytest.mark.parametrize("walks", [fpgroup._AUDIT_WALKS, 1, 6])  # one block; a relator or two each
def test_audit_names_the_first_failing_coset(text, walks, monkeypatch):
    monkeypatch.setattr(fpgroup, "_AUDIT_WALKS", walks)
    expected = _first_failure(_THREE_POINTS, text)
    if expected is None:
        _audit(_THREE_POINTS, text)
        return
    with pytest.raises(ConstructionError, match=f"relator fails at coset {expected}$"):
        _audit(_THREE_POINTS, text)
