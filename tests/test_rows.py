"""Rows of one width: the scans read tables as bytes rows up to 256
elements and as tuples above, while every public table stays a tuple of
tuples and every verdict and witness stays the same whatever form a table
is given in."""

from functools import reduce
from pathlib import Path

import pytest
from test_rlse import _at_both_widths, _mutants, _swap_cell

from omlkit import corpus, lattice, rlse, structfile
from omlkit.errors import MalformedTable, NotAnRlse, ValidationError
from omlkit.laws import LAWS, Failure
from omlkit.rlse import (
    RlseTables,
    addition_failure,
    check_correspondence,
    check_r4_orthogonal_form,
    check_rlse,
    is_boolean_ring,
    rlse_from_oml,
)
from omlkit.states import boolean_test, events_from_states, find_full_state_set


def _is_table(t):
    return type(t) is tuple and all(type(row) is tuple for row in t) and all(
        type(v) is int for row in t for v in row)


def test_public_tables_stay_tuples_of_tuples():
    path = Path(__file__).resolve().parent.parent / "data" / "paper-example-2set.txt"
    sf = structfile.parse_structure(path.read_text())
    assert _is_table(sf.oplus) and _is_table(sf.times)
    for name in ("boolean_3", "mo2", "mo3"):
        oml = corpus.builtin(name)
        assert _is_table(oml.meet) and _is_table(oml.join)
        meet, join, _ = lattice.lattice_tables(oml.elements, oml.poset.up)
        assert _is_table(meet) and _is_table(join)
        for plus in ("t1", "t2"):
            r = rlse_from_oml(oml, plus)
            assert _is_table(r.oplus) and _is_table(r.times)
            assert type(rlse.derived_lattice(r).comp) is tuple
    oml = corpus.builtin("boolean_3")
    _, plus = boolean_test(events_from_states(oml, find_full_state_set(oml).states))
    assert _is_table(plus)


def _outcome(check, r):
    try:
        return check(r)
    except (MalformedTable, NotAnRlse) as exc:
        return type(exc).__name__, str(exc)


def _verdicts(r):
    """What check_rlse, check_correspondence, is_boolean_ring and the
    check_oml of the derived lattice say of r, with no verdict cached."""
    rlse.check_rlse.cache_clear()
    return [_outcome(check, r) for check in (
        check_rlse, check_correspondence, is_boolean_ring, check_r4_orthogonal_form,
        rlse._derived)]


def _forms(r):
    """r with tuple rows, with list rows, and read back from its file."""
    listed = RlseTables(r.elements, [list(row) for row in r.oplus],
                        [list(row) for row in r.times], r.zero, r.one)
    text = structfile.serialize_structure(structfile.from_rlse(r))
    return RlseTables(*r), listed, structfile.to_rlse(structfile.parse_structure(text))


def test_tuple_list_and_file_rows_give_equal_verdicts():
    seen = set()
    for r in _mutants(400, 3001):
        tupled, listed, read = (_verdicts(form) for form in _forms(r))
        assert tupled == listed == read, r
        seen.add(tupled[0].passed)
    assert seen == {True, False}


def test_a_ring_given_as_lists_is_cached_like_one_given_as_tuples():
    r = _forms(rlse_from_oml(corpus.builtin("mo2"), "t2"))[1]
    rlse.check_rlse.cache_clear()
    assert check_rlse(r) is check_rlse(r)
    assert rlse.check_rlse.cache_info().hits == 1


def test_rings_that_share_labels_and_constants_keep_their_own_verdicts():
    # a ring hashes by its labels and constants alone; the cache tells such
    # rings apart by their tables
    paper = corpus.builtin("paper-example-2set")
    mutant = _swap_cell(paper, "times", 1, 2, 1)  # {1}*{2} = {1}
    t1, t2 = (rlse_from_oml(corpus.builtin("mo2"), plus) for plus in ("t1", "t2"))
    for a, b in ((paper, mutant), (t1, t2)):
        assert hash(a) == hash(b) and a != b
        rlse.check_rlse.cache_clear()
        first, second = check_rlse(a), check_rlse(b)
        assert first is not second
        assert check_rlse(a) is first and check_rlse(b) is second
        assert rlse.check_rlse.cache_info()[:2] == (2, 2)  # hits, misses
    assert check_rlse(paper).passed and not check_rlse(mutant).passed

    short = RlseTables(paper.elements, [list(row) for row in paper.oplus],
                       [list(row) for row in paper.times], paper.zero, paper.one)
    short.times[2].pop()
    assert hash(short) == hash(paper)
    for _ in range(2):  # a failed check caches nothing
        with pytest.raises(MalformedTable, match="^times table row has 3 entries$"):
            check_rlse(short)


class _CountedRow(list):
    """A table row that counts how often it is iterated, in reads."""

    reads = []

    def __iter__(self):
        self.reads.append(1)
        return super().__iter__()


@pytest.mark.parametrize("factors, n", [(["boolean_2"], 4), (["mo3", "boolean_5"], 256)])
def test_a_well_formed_ring_of_up_to_256_elements_is_read_once(factors, n, monkeypatch):
    # the bytes rows and one translate check it, reading each row once; the
    # per-entry loop, which reads each row again, is for tables that do not
    # fit, and for tuple rows (the width limit at 0), which it reads first
    oml = reduce(lattice.direct_product, map(corpus.builtin, factors))
    r = rlse_from_oml(oml, "t1")
    assert r.n == n
    for width, reads in ((256, 2 * n), (0, 4 * n)):
        monkeypatch.setattr(lattice, "_BYTE_WIDTH", width)
        counted = r._replace(oplus=list(map(_CountedRow, r.oplus)),
                             times=list(map(_CountedRow, r.times)))
        _CountedRow.reads.clear()
        assert check_rlse.__wrapped__(counted).passed
        assert len(_CountedRow.reads) == reads


@pytest.mark.parametrize("oplus, message, width", _at_both_widths([
    ("three-rows", lambda rows: rows[:3], "oplus table has 3 rows, wants 4"),
    ("entry-9", lambda rows: [[9, *rows[0][1:]], *rows[1:]], "oplus table entry 9 out of range"),
    ("entry-minus-1", lambda rows: [[-1, *rows[0][1:]], *rows[1:]],
     "oplus table entry -1 out of range"),
]))
def test_addition_failure_rejects_a_malformed_table(oplus, message, width, monkeypatch):
    monkeypatch.setattr(lattice, "_BYTE_WIDTH", width)
    oml = corpus.builtin("boolean_2")
    r = rlse_from_oml(oml, "t1")
    bad = r._replace(oplus=tuple(map(tuple, oplus([list(row) for row in r.oplus]))))
    with pytest.raises(MalformedTable, match=message):
        addition_failure(bad, oml.comp)


@pytest.mark.parametrize("comp, message", [
    ((3, 2), "complement vector has 2 entries, wants 4"),
    ((3, 2, 1, 0, 0), "complement vector has 5 entries, wants 4"),
    ((3, 2, 1, 9), "complement entry 9 is not an element index"),
])
def test_addition_failure_rejects_a_malformed_complement_like_check_oml(comp, message):
    oml = corpus.builtin("boolean_2")
    r = rlse_from_oml(oml, "t1")
    with pytest.raises(ValidationError, match=message):
        addition_failure(r, comp)
    with pytest.raises(ValidationError, match=message):
        lattice.check_oml(oml.poset, comp)
    assert addition_failure(r, (3, 2, 1, 0)) is None


# ---------------------------------------------------------------------------
# The width boundary: 256 elements fill every byte value, 320 take tuples
# ---------------------------------------------------------------------------

WEAK = ("weak-associativity [(x+y) + 1 = x + (y+1)] fails at x=(a,{}), y=(b,{}): "
        "lhs (1,{1,2,3,4,5}), rhs (0,{1,2,3,4,5})")
PLUS = ("plus-associative [(x+y)+z = x+(y+z)] fails at x=(a,{}), y=(a,{}), z=(b,{}): "
        "lhs (b,{}), rhs (a,{})")
R1 = ("R1 [x+y = y+x] fails at x=(0,{1}), y=(0,{2}): "
      "(0,{1})+(0,{2}) = (0,{}), (0,{2})+(0,{1}) = (0,{1,2})")
R4 = ("R4 [x*y + (x + 1) = (x*y + 1)*x + 1] fails at x=(1,{1,3,4,5}), y=(0,{1}): "
      "lhs (0,{}), rhs (0,{1,2})")
R4_ORTHOGONAL = ("R4-orthogonal [x orth y  implies  (x+y) + 1 = (x+1)*(y+1)] fails at "
                 "x=(0,{1}), y=(0,{2}): lhs (1,{1,2,3,4,5}), rhs (1,{3,4,5})")
TIMES = [
    "times-associative [(x*y)*z = x*(y*z)] fails at x=(0,{1}), y=(0,{2}), z=(0,{1,3})",
    "R2 [(x*y + 1)*(x + 1) + 1 = x] fails at x=(0,{2}), y=(0,{1}): "
    "got (0,{1,2}), wants (0,{2})",
    "R3 [((x*y + 1)*x + 1)*x = x*y] fails at x=(0,{2}), y=(0,{1}): got (0,{}), wants (0,{1})",
    "R4 [x*y + (x + 1) = (x*y + 1)*x + 1] fails at x=(0,{2}), y=(0,{1}): "
    "lhs (1,{3,4,5}), rhs (1,{1,3,4,5})",
]


def _cell(r, table, pairs, value):
    rows = [list(row) for row in getattr(r, table)]
    for x, y in pairs:
        rows[x][y] = value
    return r._replace(**{table: tuple(map(tuple, rows))})


@pytest.mark.parametrize("name, n", [("mo3", 256), ("mo4", 320)])
def test_verdicts_and_witnesses_at_the_width_boundary(name, n):
    oml = lattice.direct_product(corpus.builtin(name), corpus.builtin("boolean_5"))
    r = rlse_from_oml(oml, "t1")
    assert r.n == n
    assert check_rlse(r).passed
    assert [v.passed for v in check_correspondence(r)] == [True, True]
    identity_route, ring_route = is_boolean_ring(r)
    assert [str(f) for f in identity_route.failures] == [WEAK]
    assert ring_route.checked[-1] == "plus-associative" and str(ring_route.first) == PLUS

    # (0,{1}) and (0,{2}) are orthogonal; their sum made 0
    bad = _cell(r, "oplus", [(1, 2)], r.zero)
    assert [str(f) for f in check_rlse(bad).failures] == [R1, R4]
    rlse_side, lattice_side = check_correspondence(bad)
    assert not rlse_side.passed
    assert lattice_side.first == Failure("plus-commutative", {"x": "(0,{1})", "y": "(0,{2})"})
    assert [str(v.first) for v in check_r4_orthogonal_form(bad)] == [R4, R4_ORTHOGONAL]

    # their product made (0,{1}) both ways
    bad = _cell(r, "times", [(1, 2), (2, 1)], 1)
    assert [str(f) for f in check_rlse(bad).failures] == TIMES
    assert check_correspondence(bad)[1].first.witness == {
        "reason": "order not transitive through '(0,{1})' <= '(0,{2})'"}


#: Every ring law but plus-at-one, which needs a lattice's complement
RING_LAWS = tuple(law for law, (family, _) in LAWS.items()
                  if family == "ring" and law != "plus-at-one")


def test_the_tuple_rows_give_the_byte_rows_witnesses(monkeypatch):
    # the same mutants scanned with the width limit at 0, so on tuple rows
    mutants = _mutants(400, 3002)
    expected = [(_verdicts(r), rlse._verdict(RlseTables(*r), RING_LAWS)) for r in mutants]
    monkeypatch.setattr(lattice, "_BYTE_WIDTH", 0)
    for r, want in zip(mutants, expected):
        r = RlseTables(*r)
        assert r._rows.H is lattice._Tuples
        assert (_verdicts(r), rlse._verdict(RlseTables(*r), RING_LAWS)) == want, r
