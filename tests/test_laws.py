"""Every law name a check reports is a key of laws.LAWS."""

import random
from fractions import Fraction as F

from omlkit import corpus, rlse, states
from omlkit.lattice import check_oml
from omlkit.laws import LAWS, Failure, scan
from omlkit.rlse import RlseTables, rlse_from_oml


def _cell_mutants(r, count, rng):
    """r with one to three cells of + or * changed, count times."""
    out = []
    for _ in range(count):
        tables = {"oplus": [list(row) for row in r.oplus],
                  "times": [list(row) for row in r.times]}
        for _ in range(rng.randint(1, 3)):
            rows = tables[rng.choice(("oplus", "times"))]
            rows[rng.randrange(r.n)][rng.randrange(r.n)] = rng.randrange(r.n)
        out.append(RlseTables(r.elements, tuple(map(tuple, tables["oplus"])),
                              tuple(map(tuple, tables["times"])), r.zero, r.one))
    return out


def _ring_verdicts(r):
    axioms = rlse.check_rlse(r)
    yield axioms
    yield from rlse.check_r4_orthogonal_form(r)
    yield from rlse.check_correspondence(r)
    if axioms.passed:
        yield rlse.check_derived_identities(r)
        yield rlse.check_r5(r)
        yield from rlse.is_boolean_ring(r)


def _state_verdicts(oml, ring):
    found = states.find_full_state_set(oml).states
    yield states.check_full(oml, found)
    yield states.check_full(oml, found[:1])
    for s in found:
        yield states.check_state(oml, s)
    zero = [F(0)] * oml.n
    yield states.check_state(oml, [F(2)] * oml.n)  # range
    yield states.check_state(oml, zero)            # top-probability-one
    top = list(zero)
    top[oml.poset.top] = F(1)
    yield states.check_state(oml, top)             # orthogonal-additivity
    ev = states.events_from_states(oml, found)
    yield states.check_s_probability_algebra(ev)
    f = {lab: ev.event_of(lab) for lab in oml.elements}
    yield states.check_representation(ring, ev, f)
    f[oml.elements[1]], f[oml.elements[-1]] = f[oml.elements[-1]], f[oml.elements[1]]
    yield states.check_representation(ring, ev, f)
    yield states.check_representation(ring, ev, {"x": (F(0),) * len(found)})
    thin = states.NumericalEventSet(ev.elements[1:], ev.events[1:])
    yield states.check_s_probability_algebra(thin)


def test_every_reported_law_is_in_the_table():
    rng = random.Random(314)
    seen = set()

    def note(verdict):
        seen.update(verdict.checked)
        seen.update(f.law for f in verdict.failures)

    note(check_oml(*corpus.o6_candidate())[0])
    for name in corpus.OML_NAMES:
        oml = corpus.builtin(name)
        note(check_oml(oml.poset, oml.comp)[0])
    rings = [corpus.builtin("paper-example-2set")] + [
        rlse_from_oml(corpus.builtin(name), plus)
        for name in ("boolean_2", "mo2", "boolean_3") for plus in ("t1", "t2")]
    for r in rings:
        swapped = RlseTables(r.elements, r.oplus, r.times, r.one, r.zero)
        for mutant in [r, swapped] + _cell_mutants(r, 200, rng):
            for verdict in _ring_verdicts(mutant):
                note(verdict)
    for name in ("boolean_2", "mo2"):
        oml = corpus.builtin(name)
        for verdict in _state_verdicts(oml, rlse_from_oml(oml, "t1")):
            note(verdict)
    assert seen - LAWS.keys() == set()
    # the sweep reaches the names that were once missing from the table
    assert {"range", "top-probability-one", "orthogonal-additivity", "order-determining",
            "bijection", "order-isomorphism", "algebra-axioms", "times-order", "bounds",
            "meet-is-times", "plus-commutative"} <= seen


def test_scan_reports_the_first_row_mismatch():
    els = ("0", "a", "b", "1")
    # no variables: one row of one value
    assert scan("one-self-inverse", "", els, [[2]], [[0]], "1+1 = {a}") == (
        "one-self-inverse", Failure("one-self-inverse", {}, "1+1 = b"))
    # one variable: x runs along the single row
    assert scan("plus-at-one", "x", els, [[3, 2, 3, 0]], [[3, 2, 1, 0]],
                "{x}+1 = {a}, complement is {b}") == (
        "plus-at-one", Failure("plus-at-one", {"x": "b"}, "b+1 = 1, complement is a"))
    # two variables: one row per x; the first row that differs wins over a
    # later row that differs earlier
    drawn = []

    def rows(table):
        for row in table:
            drawn.append(row)
            yield row

    lhs = [[0, 1, 2, 3], [0, 1, 2, 1], [0, 0, 0, 0], [0, 1, 2, 3]]
    rhs = [[0, 1, 2, 3], [0, 1, 2, 3], [1, 0, 0, 0], [0, 1, 2, 3]]
    assert scan("R1", "xy", els, rows(lhs), rhs, "{x}+{y} = {a}, {y}+{x} = {b}") == (
        "R1", Failure("R1", {"x": "a", "y": "1"}, "a+1 = a, 1+a = 1"))
    assert drawn == lhs[:2]
    # three variables: one row per (x, y) in lexicographic order; no detail
    # template leaves the detail empty
    ab = ("a", "b")
    lhs = [[0, 0], [1, 1], [0, 1], [1, 0]]
    rhs = [[0, 0], [1, 1], [0, 0], [1, 1]]
    assert scan("plus-associative", "xyz", ab, lhs, rhs) == (
        "plus-associative", Failure("plus-associative", {"x": "b", "y": "a", "z": "b"}))
    # rows that agree everywhere pass
    for names, table in (("", [[1]]), ("x", [[0, 1]]), ("xy", lhs[:2]), ("xyz", lhs)):
        assert scan("law", names, ab, table, table, "{a}") == ("law", None)
