"""States, full sets, numerical events and the ring inequality."""

import io
import itertools
import math
import random
from contextlib import redirect_stdout
from fractions import Fraction as F
from operator import gt, le, sub

import pytest

from omlkit import cli, corpus, lattice, simplex, states, structfile
from omlkit.errors import (
    DimensionMismatch,
    InvalidState,
    MalformedTable,
    NotAnEventAlgebra,
    NotFull,
    NotLatticeOrdered,
    OracleMismatch,
    UnknownLabel,
    ValidationError,
)
from omlkit.laws import Failure
from omlkit.states import (
    Infeasible,
    NumericalEventSet,
    boolean_test,
    check_full,
    check_representation,
    check_s_probability_algebra,
    check_state,
    events_from_states,
    find_full_state_set,
    hat_plus,
)
from omlkit.rlse import derived_lattice, rlse_from_oml
from omlkit.terms import T1, term_function


MO2_STATES = (
    (F(0), F(1), F(0), F(0), F(1), F(1)),
    (F(0), F(1), F(0), F(1), F(0), F(1)),
    (F(0), F(0), F(1), F(0), F(1), F(1)),
    (F(0), F(0), F(1), F(1), F(0), F(1)),
)


def test_check_state_accepts_a_vertex_state():
    mo2 = corpus.builtin("mo2")
    assert check_state(mo2, MO2_STATES[0]).passed


def test_check_state_accepts_interior_values():
    mo2 = corpus.builtin("mo2")
    vals = (F(0), F(1, 3), F(2, 3), F(1, 2), F(1, 2), F(1))
    assert check_state(mo2, vals).passed


def test_check_state_dimension():
    with pytest.raises(DimensionMismatch):
        check_state(corpus.builtin("mo2"), (F(0), F(1)))


def test_check_state_range():
    mo2 = corpus.builtin("mo2")
    report = check_state(mo2, (F(0), F(2), F(0), F(0), F(1), F(1)))
    assert report.failures[0].law == "range"
    assert report.failures[0].witness == {"x": "a", "value": "2"}


def test_check_state_top_value():
    mo2 = corpus.builtin("mo2")
    report = check_state(mo2, (F(0), F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1, 2)))
    assert report.failures[0].law == "top-probability-one"


def test_check_state_additivity():
    mo2 = corpus.builtin("mo2")
    report = check_state(mo2, (F(0), F(1, 2), F(1, 4), F(1, 2), F(1, 2), F(1)))
    assert report.failures[0].law == "orthogonal-additivity"
    assert report.failures[0].witness["x"] == "a"
    assert report.failures[0].witness["y"] == "a'"


#: Twelfths and fifths, and two values outside [0,1]: a vector mixing
#: twelfths and fifths has lcm 60.
WIDE_VALUES = tuple(dict.fromkeys(
    [F(k, 12) for k in range(13)] + [F(k, 5) for k in range(6)] + [F(3, 2), F(-1, 2)]))


def _mixture(rng, found):
    """A convex combination of three found states with weights a twelfth,
    a fifth and the rest: a state whose values mix the two denominators."""
    w1, w2 = F(rng.randint(0, 12), 12), F(rng.randint(0, 5), 5)
    w2 = min(w2, 1 - w1)
    parts = [rng.choice(found) for _ in range(3)]
    return tuple(w1 * a + w2 * b + (1 - w1 - w2) * c for a, b, c in zip(*parts))


def test_check_state_witness_matches_a_lexicographic_scan():
    seen = set()
    for values, start in (((F(0), F(1, 2), F(1), F(3, 2)), "found"),
                          (WIDE_VALUES, "mixture")):
        for name in ("mo2", "mo3", "boolean_3"):
            seen |= _check_state_against_a_scan(name, values, start)
    # the wider values reach states over 60ths, passing and failing
    assert {(True, 60), (False, 60)} <= seen


def _check_state_against_a_scan(name, values, start):
    """(passed, lcm of the denominators) of every state tried."""
    oml = corpus.builtin(name)
    leq, comp, join, els = oml.poset.leq, oml.comp, oml.join, oml.elements
    found = find_full_state_set(oml).states
    rng = random.Random(name)
    seen = set()
    for _ in range(200):
        vals = list(rng.choice(found) if start == "found"
                    else _mixture(rng, found))
        for _ in range(rng.randint(0, 2)):
            vals[rng.randrange(oml.n)] = rng.choice(values)
        if any(not 0 <= v <= 1 for v in vals):
            x = next(i for i, v in enumerate(vals) if not 0 <= v <= 1)
            expected = ("range", {"x": els[x], "value": str(vals[x])})
        elif vals[oml.poset.top] != 1:
            expected = ("top-probability-one", {"value": str(vals[oml.poset.top])})
        else:
            expected = next((
                ("orthogonal-additivity", {
                    "x": els[x], "y": els[y], "sum": str(vals[x] + vals[y]),
                    "join-value": str(vals[join[x][y]])})
                for x in range(oml.n) for y in range(x, oml.n)
                if leq[x][comp[y]] and vals[join[x][y]] != vals[x] + vals[y]), None)
        verdict = check_state(oml, vals)
        assert verdict.passed == (expected is None)
        if expected is not None:
            f = verdict.failures[0]
            assert (f.law, f.witness) == expected
        seen.add((verdict.passed, math.lcm(*(v.denominator for v in vals))))
    return seen


def test_separating_state_on_mo2():
    mo2 = corpus.builtin("mo2")
    found = find_full_state_set(mo2).states
    a, b = mo2.index("a"), mo2.index("b")
    s = next(s for s in found if s[a] > s[b])
    assert check_state(mo2, s).passed


def test_separation_can_fail():
    # identical objective coordinates leave nothing to separate
    mo2 = corpus.builtin("mo2")
    space = states._state_space(mo2)
    got = states._separate(mo2, space, 1, 1)
    assert got == Infeasible("a", "a")


def test_full_state_set_on_mo2():
    mo2 = corpus.builtin("mo2")
    result = find_full_state_set(mo2)
    assert result.ok
    assert set(result.states) == set(MO2_STATES)
    assert check_full(mo2, result.states).passed


def test_full_state_set_sizes():
    for name, count in (("boolean_1", 1), ("boolean_2", 2),
                        ("boolean_3", 3), ("mo3", 7)):
        result = find_full_state_set(corpus.builtin(name))
        assert result.ok
        assert len(result.states) == count, name


def test_check_full_detects_a_missing_direction():
    # without the fourth state nothing separates a' from b' (or b from a);
    # the scan hits (a', b') first
    mo2 = corpus.builtin("mo2")
    report = check_full(mo2, MO2_STATES[:3])
    assert not report.passed
    assert report.failures[0].witness == {"x": "a'", "y": "b'"}


def test_check_full_rejects_invalid_states():
    mo2 = corpus.builtin("mo2")
    bad = (F(0), F(1), F(1), F(0), F(1), F(1))
    with pytest.raises(InvalidState) as info:
        check_full(mo2, (MO2_STATES[0], bad))
    assert info.value.position == 1


def test_events_from_states():
    mo2 = corpus.builtin("mo2")
    ev = events_from_states(mo2, MO2_STATES)
    assert {len(v) for v in ev.events} == {4}
    assert ev.event_of("0") == (F(0),) * 4
    assert ev.event_of("1") == (F(1),) * 4
    assert ev.event_of("a") == (F(1), F(1), F(0), F(0))
    assert ev.event_of("b") == (F(0), F(1), F(0), F(1))
    # vectors are pairwise distinct on a full set
    assert len(set(ev.events)) == mo2.n


def test_event_of_an_unknown_label_raises_unknown_label():
    ev = events_from_states(corpus.builtin("mo2"), MO2_STATES)
    with pytest.raises(UnknownLabel) as info:
        ev.event_of("c")
    assert info.value.label == "c"


def test_events_require_fullness():
    mo2 = corpus.builtin("mo2")
    with pytest.raises(NotFull):
        events_from_states(mo2, MO2_STATES[:3])


def test_event_axioms_on_mo2():
    mo2 = corpus.builtin("mo2")
    report = check_s_probability_algebra(events_from_states(mo2, MO2_STATES))
    assert report.passed
    assert report.failures == ()
    # the 2x2 Boolean events, built by hand: the constant vectors have as
    # many coordinates as the vectors
    ev = NumericalEventSet(("z", "p", "q", "u"),
                           ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))))
    report = check_s_probability_algebra(ev)
    assert report.passed, report.failures


def test_event_axioms_missing_bound():
    ev = NumericalEventSet(("p", "q"), ((F(1), F(0)), (F(0), F(1))))
    report = check_s_probability_algebra(ev)
    assert not report.passed
    assert report.failures[0].law == "contains-bounds"


def test_event_axioms_missing_complement():
    ev = NumericalEventSet(
        ("z", "p", "u"),
        ((F(0), F(0)), (F(1), F(0)), (F(1), F(1))),
    )
    report = check_s_probability_algebra(ev)
    assert not report.passed
    assert any(f.law == "complement-closed" for f in report.failures)


def test_event_axioms_missing_orthogonal_sum():
    # p and q are orthogonal but p+q is absent
    ev = NumericalEventSet(
        ("z", "p", "q", "p'", "q'", "u"),
        ((F(0), F(0)), (F(1, 4), F(0)), (F(0), F(1, 4)),
         (F(3, 4), F(1)), (F(1), F(3, 4)), (F(1), F(1))),
    )
    report = check_s_probability_algebra(ev)
    assert not report.passed
    failed = {f.law for f in report.failures}
    assert "orthogonal-pair-sum" in failed or "orthogonal-triple-sum" in failed


def test_hat_plus_pointwise():
    p = (F(1), F(1, 2))
    q = (F(1), F(1, 4))
    meet = (F(1), F(1, 4))
    assert hat_plus(p, q, meet) == (F(0), F(1, 4))


def test_boolean_test_on_boolean_members():
    names = [f"boolean_{k}" for k in range(1, 6)] + ["mo1"]
    shuffled = structfile.parse_structure(_shuffled_product(("boolean_2", "boolean_3"), 5))
    omls = [corpus.builtin(name) for name in names]
    omls.append(lattice.check_oml(*structfile.to_oml_input(shuffled))[1])
    for oml in omls:
        result = find_full_state_set(oml)
        witness, plus = boolean_test(events_from_states(oml, result.states))
        assert witness is None, oml.elements
        # the symmetric difference (x^y')v(x'^y) is the term t1
        assert plus == term_function(T1, oml)
        assert type(plus) is tuple and all(type(row) is tuple for row in plus)


def test_boolean_test_fails_on_mo2_with_value_2():
    mo2 = corpus.builtin("mo2")
    witness, plus = boolean_test(events_from_states(mo2, MO2_STATES))
    assert witness is not None and plus is None
    assert witness["p"] == "a"
    assert witness["q"] == "b"
    assert witness["value"] == "2"
    # the witness state really weighs both atoms with 1
    pos = witness["state"]
    assert MO2_STATES[pos][mo2.index("a")] == 1
    assert MO2_STATES[pos][mo2.index("b")] == 1


def test_boolean_test_reports_a_value_above_1_before_a_t1_mismatch():
    # the chain 0 < 1/3 < 2/3 < 1 times mo2's events, the chain coordinate
    # first and varying fastest: row (c1,0) already disagrees with t1 at
    # (c2,0), where 1/3 + 2/3 - 2/3 = 1/3 is not c1 v c2 = 2/3, yet no value
    # exceeds 1 before row (c0,a)
    mo2 = corpus.builtin("mo2")
    ev = events_from_states(mo2, find_full_state_set(mo2).states)
    chain = [F(k, 3) for k in range(4)]
    labels = tuple(f"(c{k},{e})" for e in ev.elements for k in range(4))
    vectors = tuple((c, *v) for v in ev.events for c in chain)
    witness, plus = boolean_test(NumericalEventSet(labels, vectors))
    assert witness == {"p": "(c0,a)", "q": "(c0,b)", "state": 2, "value": "2"}
    assert plus is None


def test_boolean_test_requires_lattice_order():
    ev = NumericalEventSet(
        ("p", "p'"),
        ((F(1), F(0)), (F(0), F(1))),
    )
    with pytest.raises(NotLatticeOrdered):
        boolean_test(ev)


def test_boolean_test_requires_complements():
    ev = NumericalEventSet(
        ("z", "p", "u"),
        ((F(0), F(0)), (F(1), F(0)), (F(1), F(1))),
    )
    with pytest.raises(ValidationError):
        boolean_test(ev)


def test_boolean_test_requires_distinct_vectors():
    # each of a and b is the other's complement; the two events are one
    ev = NumericalEventSet(
        ("0", "a", "b", "1"),
        ((F(0),), (F(1, 2),), (F(1, 2),), (F(1),)),
    )
    with pytest.raises(ValidationError, match="not distinct"):
        boolean_test(ev)


def test_event_checks_require_vectors_of_one_length():
    # cut to two coordinates, q would be (0, 1) and the set Boolean
    ev = NumericalEventSet(
        ("z", "p", "q", "u"),
        ((F(0), F(0)), (F(1), F(0)), (F(0), F(1), F(5)), (F(1), F(1))),
    )
    for check in (boolean_test, check_s_probability_algebra):
        with pytest.raises(ValidationError, match="event vector 2 has 3 values, not 2"):
            check(ev)


@pytest.mark.parametrize("labels, vectors", [
    (("z", "u"), ((F(0),), (F(1),), (F(1, 2),))),
    (("z", "a", "b", "u"), ((F(0),), (F(1),))),
], ids=["fewer-labels", "more-labels"])
def test_event_checks_require_one_label_per_vector(labels, vectors):
    ev = NumericalEventSet(labels, vectors)
    message = f"event set has {len(labels)} labels for {len(vectors)} vectors"
    for check in (boolean_test, check_s_probability_algebra):
        with pytest.raises(ValidationError) as info:
            check(ev)
        assert str(info.value) == message


def test_representation_of_a_boolean_ring():
    b2 = corpus.builtin("boolean_2")
    ring = rlse_from_oml(b2, "t1")
    ev = events_from_states(b2, find_full_state_set(b2).states)
    f = {lab: ev.event_of(lab) for lab in b2.elements}
    assert check_representation(ring, ev, f).passed


def test_representation_rejects_scrambled_map():
    # swapping the two atoms would be an automorphism, so scramble an
    # atom with the top instead
    b2 = corpus.builtin("boolean_2")
    ring = rlse_from_oml(b2, "t1")
    ev = events_from_states(b2, find_full_state_set(b2).states)
    f = {lab: ev.event_of(lab) for lab in b2.elements}
    f["{1}"], f["{1,2}"] = f["{1,2}"], f["{1}"]
    report = check_representation(ring, ev, f)
    assert not report.passed
    assert report.failures[0].law == "order-isomorphism"


def test_order_isomorphism_witness_matches_a_per_pair_reference():
    # boolean_3's events with the vectors of two labels swapped: a bijection
    # still, whose first order mismatch is the first pair (x, y) where
    # x*y = x and f(x) <= f(y) pointwise disagree
    b3 = corpus.builtin("boolean_3")
    ring = rlse_from_oml(b3, "t1")
    ev = events_from_states(b3, find_full_state_set(b3).states)
    els, rng = ring.elements, range(ring.n)
    failed = 0
    for a, b in itertools.combinations(els, 2):
        f = {lab: ev.event_of(lab) for lab in els}
        f[a], f[b] = f[b], f[a]
        expected = next(({"x": els[x], "y": els[y]} for x in rng for y in rng
                         if (ring.times[x][y] == x)
                         != all(map(le, f[els[x]], f[els[y]]))), None)
        verdict = check_representation(ring, ev, f)
        assert verdict.failure_for("order-isomorphism") == (
            expected and Failure("order-isomorphism", expected)), (a, b)
        failed += expected is not None
    assert failed >= 20, failed


def test_representation_rejects_wrong_domain():
    b2 = corpus.builtin("boolean_2")
    ring = rlse_from_oml(b2, "t1")
    ev = events_from_states(b2, find_full_state_set(b2).states)
    report = check_representation(ring, ev, {"x": (F(0), F(0))})
    assert not report.passed
    assert report.failures[0].law == "bijection"


def test_representation_names_the_first_broken_hypothesis():
    b2 = corpus.builtin("boolean_2")
    ring = rlse_from_oml(b2, "t1")
    ev = events_from_states(b2, find_full_state_set(b2).states)
    f = {lab: ev.event_of(lab) for lab in b2.elements}
    # {1} and {2} at 1/2 each keep the order: with {1,2} at (1,1) their sum
    # is not {1,2}, and with {1,2} at their sum the set has no constant 1
    halves = (F(0), F(0)), (F(1, 2), F(0)), (F(0), F(1, 2))
    unsummed, summed = (NumericalEventSet(b2.elements, (*halves, (v, v)))
                        for v in (F(1), F(1, 2)))
    cases = [
        (ev, {**f, "{2}": f["{1}"]}, "bijection", {"reason": "not injective"}),
        (ev, {**f, "{1}": (F(1, 7), F(1, 7))}, "bijection", {"reason": "image differs"}),
        (unsummed, None, "orthogonal-additivity", {"x": "{1}", "y": "{2}"}),
        (summed, None, "algebra-axioms", {"axiom": "contains-bounds"}),
    ]
    for events, f, law, w in cases:
        f = f or dict(zip(events.elements, events.events))
        verdict = check_representation(ring, events, f)
        assert not verdict.passed
        assert (verdict.first.law, verdict.first.witness) == (law, w)


def test_representation_round_trip_on_every_builtin_ring():
    # ring -> derived lattice -> full state set -> event vectors: the
    # event map must embed the ring
    rings = [corpus.builtin(name) for name in corpus.RLSE_NAMES]
    rings += [rlse_from_oml(corpus.builtin(name), plus)
              for name in corpus.OML_NAMES for plus in ("t1", "t2")]
    for r in rings:
        oml = derived_lattice(r)
        ev = events_from_states(oml, find_full_state_set(oml).states)
        verdict = check_representation(r, ev, {x: ev.event_of(x) for x in r.elements})
        assert verdict.passed, (r.elements, verdict.first)
        assert verdict.checked[-1] == "algebra-axioms"
    assert len(rings) == len(corpus.RLSE_NAMES) + 2 * len(corpus.OML_NAMES)


def test_representation_rejects_a_malformed_ring():
    # each ring is boolean_2's t1 ring with one table broken, checked
    # against that lattice's own full events
    b2 = corpus.builtin("boolean_2")
    ring = rlse_from_oml(b2, "t1")
    ev = events_from_states(b2, find_full_state_set(b2).states)
    f = {lab: ev.event_of(lab) for lab in b2.elements}
    oplus = list(ring.oplus)
    oplus[1] = (1, 7, 3, 2)
    cases = [
        (ring._replace(times=ring.times[:3]), "times table has 3 rows, wants 4"),
        (ring._replace(oplus=tuple(oplus)), "oplus table entry 7 out of range"),
    ]
    for bad, message in cases:
        with pytest.raises(MalformedTable) as info:
            check_representation(bad, ev, f)
        assert str(info.value) == message


def test_product_pipeline_is_exact_and_fast():
    prod = corpus.builtin("product_2p4_mo2")
    result = find_full_state_set(prod)
    assert result.ok
    ev = events_from_states(prod, result.states)
    assert check_s_probability_algebra(ev).passed
    witness, _ = boolean_test(ev)
    assert witness is not None
    assert witness["value"] == "2"


def test_check_full_witness_matches_a_lexicographic_scan():
    for name in ("mo2", "mo3", "product_2p4_mo2"):
        oml = corpus.builtin(name)
        found = find_full_state_set(oml).states
        leq = oml.poset.leq
        rng = random.Random(name)
        for _ in range(40):
            subset = rng.sample(found, rng.randint(0, len(found)))
            expected = next(
                ((oml.elements[x], oml.elements[y])
                 for x in range(oml.n) for y in range(oml.n)
                 if x != y and all(s[x] <= s[y] for s in subset)
                 != leq[x][y]),
                None)
            report = check_full(oml, subset)
            assert report.passed == (expected is None), (name, subset)
            if expected is not None:
                w = report.failures[0].witness
                assert (w["x"], w["y"]) == expected


def _fraction_dominance(n, value_lists):
    """Reference for the dominance masks: sort each state's Fraction
    values and let every value class dominate the classes below it."""
    above = [0] * n
    for values in value_lists:
        lower = group = 0
        prev = None
        for x in sorted(range(n), key=values.__getitem__):
            if values[x] != prev:
                lower |= group
                group = 0
                prev = values[x]
            group |= 1 << x
            above[x] |= lower
    return above


def test_check_full_sorts_scaled_values_like_fractions():
    # mixtures w*s + (1-w)*t of found states are states with unlike
    # denominators; w = 1/2 and equal values in s and t make ties
    for name in ("mo2", "mo3", "product_2p4_mo2"):
        oml = corpus.builtin(name)
        found = find_full_state_set(oml).states
        leq, els = oml.poset.leq, oml.elements
        rng = random.Random(name)
        mixed = []
        for _ in range(12):
            s, t = rng.sample(found, 2)
            w = rng.choice((F(1, 2), F(rng.randint(1, 96), 97), F(rng.randint(1, 6), 7)))
            mixed.append(tuple(w * a + (1 - w) * b for a, b in zip(s, t)))
        assert len({v.denominator for s in mixed for v in s}) > 2, name
        for s in mixed:
            above = [0] * oml.n
            states._add_dominance(above, states._scale(s)[1])
            assert above == _fraction_dominance(oml.n, [s]), (name, s)
        for _ in range(30):
            subset = rng.sample(mixed, rng.randint(0, len(mixed)))
            above = _fraction_dominance(oml.n, subset)
            expected = next(((els[x], els[y]) for x in range(oml.n) for y in range(oml.n)
                             if x != y and (not above[x] >> y & 1) != leq[x][y]), None)
            report = check_full(oml, subset)
            assert report.passed == (expected is None), (name, subset)
            if expected is not None:
                w = report.failures[0].witness
                assert (w["x"], w["y"]) == expected
        # an invalid state at position k raises InvalidState(k, law)
        for k, law in ((0, "range"), (3, "top-probability-one"), (5, "orthogonal-additivity")):
            bad = list(mixed[k])
            if law == "range":
                bad[oml.poset.bottom] = F(-1, 3)
            elif law == "top-probability-one":
                bad = [v / 2 for v in bad]
            else:
                x = next(x for x, ys in enumerate(oml.orthogonal_rows)
                         if x != oml.poset.bottom and any(y != oml.poset.bottom for y in ys))
                bad[x] = bad[x] / 3 if bad[x] else F(1, 89)
            assert check_state(oml, bad).failures[0].law == law, (name, k)
            with pytest.raises(InvalidState) as info:
                check_full(oml, mixed[:k] + [bad] + mixed[k:])
            assert (info.value.position, info.value.failure) == (k, law), name


def _shuffled_product(factors, seed):
    """A product lattice as an oml file listing its elements in a seeded
    random order, labelled e00, e01, ... in that order."""
    oml = corpus.builtin(factors[0])
    for f in factors[1:]:
        oml = lattice.direct_product(oml, corpus.builtin(f))
    n, leq = oml.n, oml.poset.leq
    order = random.Random(seed).sample(range(n), n)
    name = {x: f"e{pos:02d}" for pos, x in enumerate(order)}
    covers = [(x, y) for x in range(n) for y in range(n)
              if x != y and leq[x][y]
              and not any(z not in (x, y) and leq[x][z] and leq[z][y]
                          for z in range(n))]
    lines = ["KIND oml", "ELEMENTS", " ".join(name[x] for x in order), "COVERS"]
    lines += [f"{name[x]} {name[y]}" for x, y in covers]
    lines += ["COMPLEMENT"] + [f"{name[x]} {name[oml.comp[x]]}" for x in order]
    return "\n".join(lines) + "\n"


#: states-find on mo3 x 2^2 in a random element order, which needs many
#: phase-one pivots; every emitted state must stay exactly these.
MO3_B2_SHUFFLED_FOUND = """\
KIND oml
ELEMENTS
e25 e00 e01 e02 e03 e04 e05 e06 e07 e08 e09 e10
e11 e12 e13 e14 e15 e16 e17 e18 e19 e20 e21 e22
e23 e24 e26 e27 e28 e29 e30 e31
COVERS
e25 e01
e25 e09
e25 e12
e25 e13
e25 e16
e25 e24
e25 e26
e25 e31
e00 e03
e00 e06
e00 e10
e00 e14
e00 e17
e00 e22
e01 e00
e01 e04
e01 e11
e01 e19
e01 e21
e01 e23
e01 e29
e02 e28
e03 e28
e04 e02
e04 e14
e05 e22
e05 e27
e06 e28
e07 e06
e07 e27
e08 e03
e08 e27
e09 e08
e09 e18
e09 e23
e10 e28
e11 e02
e11 e22
e12 e04
e12 e18
e12 e30
e13 e00
e13 e05
e13 e07
e13 e08
e13 e15
e13 e20
e13 e30
e14 e28
e15 e17
e15 e27
e16 e15
e16 e18
e16 e21
e17 e28
e18 e02
e18 e27
e19 e02
e19 e06
e20 e10
e20 e27
e21 e02
e21 e17
e22 e28
e23 e02
e23 e03
e24 e05
e24 e11
e24 e18
e26 e07
e26 e18
e26 e19
e27 e28
e29 e02
e29 e10
e30 e14
e30 e27
e31 e18
e31 e20
e31 e29
COMPLEMENT
e25 e28
e00 e18
e01 e27
e02 e13
e03 e24
e04 e07
e05 e23
e06 e12
e07 e04
e08 e11
e09 e22
e10 e16
e11 e08
e12 e06
e13 e02
e14 e26
e15 e29
e16 e10
e17 e31
e18 e00
e19 e30
e20 e21
e21 e20
e22 e09
e23 e05
e24 e03
e26 e14
e27 e01
e28 e25
e29 e15
e30 e19
e31 e17
STATES
0 1 0 0 1 0 1 1 1 1 0 1 0 0 1 1 1 0 1 0 0 1 0 1 0 0 0 1 1 0 1 0
0 1 1 1 1 1 0 1 0 0 0 1 1 0 0 1 0 0 1 0 1 0 1 1 1 0 0 0 1 1 0 0
0 0 0 1 0 0 1 1 1 0 0 0 1 0 0 0 1 1 1 1 1 0 1 1 0 1 1 1 1 0 0 0
0 0 0 1 0 1 1 0 0 0 0 0 1 1 0 1 1 1 1 1 0 0 1 1 0 1 0 1 1 0 1 0
0 0 0 1 1 0 0 1 1 1 1 0 0 0 0 0 1 1 1 1 1 0 1 0 1 0 1 1 1 0 0 0
0 0 0 1 0 0 1 1 1 0 0 1 1 0 0 0 0 0 0 1 1 1 0 1 0 1 1 1 1 1 0 1
0 0 0 1 1 1 0 0 0 1 1 0 0 1 0 1 1 1 1 1 0 0 1 0 1 0 0 1 1 0 1 0
0 0 0 1 1 0 0 1 1 1 1 1 0 0 0 0 0 0 0 1 1 1 0 0 1 0 1 1 1 1 0 1
0 0 0 1 0 1 1 0 0 0 0 1 1 1 0 1 0 0 0 1 0 1 0 1 0 1 0 1 1 1 1 1
"""


def test_states_find_output_on_a_shuffled_product_is_pinned(tmp_path):
    path = tmp_path / "mo3xb2.txt"
    path.write_text(_shuffled_product(("mo3", "boolean_2"), 2))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["states-find", str(path)])
    assert code == 0
    assert out.getvalue() == MO3_B2_SHUFFLED_FOUND


# ---------------------------------------------------------------------------
# The state-space reduction against its earlier form: dict-of-Fraction
# affine forms and a state-space class
# ---------------------------------------------------------------------------


class _RefAff:
    """const + sum(coef * var), as a dict from variable to coefficient."""

    def __init__(self, const=F(0), terms=None):
        self.const = const
        self.terms = terms or {}

    def __add__(self, other):
        terms = dict(self.terms)
        for k, v in other.terms.items():
            nv = terms.get(k, F(0)) + v
            if nv:
                terms[k] = nv
            else:
                terms.pop(k, None)
        return _RefAff(self.const + other.const, terms)

    def __sub__(self, other):
        return self + other.scaled(F(-1))

    def scaled(self, f):
        if not f:
            return _RefAff()
        return _RefAff(self.const * f, {k: v * f for k, v in self.terms.items()})

    def substitute(self, var, repl):
        coef = self.terms.get(var)
        if coef is None:
            return self
        out = _RefAff(self.const, {k: v for k, v in self.terms.items() if k != var})
        return out + repl.scaled(coef)

    def value(self, assignment):
        return self.const + sum((v * assignment[k] for k, v in self.terms.items()), F(0))


class _RefStateSpace:
    """Propagation, elimination, renumbering and box rows, step by step."""

    def __init__(self, oml):
        self.oml = oml
        self.empty = False
        self.dim = 0
        self.exprs = []
        self._build()
        if not self.empty:
            self._build_bounds()

    def _build(self):
        oml = self.oml
        n, join = oml.n, oml.join
        bottom, top = oml.poset.bottom, oml.poset.top
        constraints = [(x, y, join[x][y]) for x, ys in enumerate(oml.orthogonal_rows)
                       if x != bottom for y in ys if y != bottom]
        exprs = [None] * n
        exprs[bottom] = _RefAff()
        residuals = []
        nvars = 0

        def solve(con):
            u, v, w = con
            known = (exprs[u] is not None) + (exprs[v] is not None) + (exprs[w] is not None)
            if known < 2:
                return False
            if known == 3:
                resid = exprs[u] + exprs[v] - exprs[w]
                if resid.terms or resid.const:
                    residuals.append(resid)
                return True
            if exprs[w] is None:
                exprs[w] = exprs[u] + exprs[v]
            elif exprs[u] is None:
                exprs[u] = exprs[w] - exprs[v]
            else:
                exprs[v] = exprs[w] - exprs[u]
            return True

        pending = constraints
        while True:
            progress = True
            while progress and pending:
                progress = False
                still = []
                for con in pending:
                    if solve(con):
                        progress = True
                    else:
                        still.append(con)
                pending = still
            unknown = next((i for i in range(n) if exprs[i] is None), -1)
            if unknown < 0:
                break
            exprs[unknown] = _RefAff(F(0), {nvars: F(1)})
            nvars += 1
        residuals.append(exprs[top] - _RefAff(F(1)))

        solved = {}
        for row in residuals:
            for var, repl in solved.items():
                row = row.substitute(var, repl)
            if not row.terms:
                if row.const:
                    self.empty = True
                    return
                continue
            pivot = min(row.terms)
            coef = row.terms[pivot]
            repl = _RefAff(row.const, dict(row.terms))
            del repl.terms[pivot]
            repl = repl.scaled(F(-1) / coef)
            for var in list(solved):
                solved[var] = solved[var].substitute(pivot, repl)
            solved[pivot] = repl
        for var, repl in solved.items():
            exprs = [e.substitute(var, repl) for e in exprs]

        free = sorted({v for e in exprs for v in e.terms})
        renum = {v: i for i, v in enumerate(free)}
        self.dim = len(free)
        self.exprs = [_RefAff(e.const, {renum[v]: cf for v, cf in e.terms.items()})
                      for e in exprs]

    def _build_bounds(self):
        rows, rhs, seen = [], [], set()

        def push(coefs, bound):
            if (tuple(coefs), bound) not in seen:
                seen.add((tuple(coefs), bound))
                rows.append([F(v) for v in coefs])
                rhs.append(bound)

        for e in self.exprs:
            if not e.terms:
                if not (0 <= e.const <= 1):
                    self.empty = True
                    return
                continue
            coefs = [e.terms.get(j, F(0)) for j in range(self.dim)]
            push(coefs, F(1) - e.const)
            if not (e.const == 0 and len(e.terms) == 1
                    and next(iter(e.terms.values())) == 1):
                push([-v for v in coefs], e.const)
        self.bound_rows, self.bound_rhs = rows, rhs

    def solve_max(self, objective):
        if self.empty:
            return None
        c = [objective.terms.get(j, F(0)) for j in range(self.dim)]
        try:
            value, z = simplex.maximize(c, self.bound_rows, self.bound_rhs)
        except simplex.InfeasibleError:
            return None
        return value + objective.const, tuple(e.value(z) for e in self.exprs)


def _reference_full_state_set(oml):
    """find_full_state_set over the earlier reduction: the state vectors,
    or the first pair no state separates."""
    space = _RefStateSpace(oml)
    leq, found, above = oml.poset.leq, [], [0] * oml.n
    for x in range(oml.n):
        for y in range(oml.n):
            if leq[x][y] or above[x] >> y & 1:
                continue
            out = space.solve_max(space.exprs[x] - space.exprs[y])
            if out is None or out[0] <= 0:
                return oml.elements[x], oml.elements[y]
            found.append(out[1])
            states._add_dominance(above, out[1])
    return found


def _reduction_inputs():
    """The builtin lattices, then products in seeded random element orders."""
    for name in corpus.OML_NAMES:
        yield name, corpus.builtin(name)
    for seed in range(4):
        for factors in (("mo3", "boolean_2"), ("mo2", "mo2", "boolean_1"),
                        ("boolean_3", "boolean_3")):
            sf = structfile.parse_structure(_shuffled_product(factors, 100 + seed))
            yield (factors, seed), lattice.check_oml(*structfile.to_oml_input(sf))[1]


def test_state_space_matches_its_earlier_form():
    count = 0
    for key, oml in _reduction_inputs():
        ref = _RefStateSpace(oml)
        space = states._state_space(oml)
        assert not ref.empty and space is not None, key
        den, forms, rows, rhs = space
        exprs = [[e.const] + [e.terms.get(j, F(0)) for j in range(ref.dim)]
                 for e in ref.exprs]
        # the reference times den, the least common denominator of its forms
        assert den == math.lcm(*(v.denominator for e in exprs for v in e)), key
        assert forms == [[v * den for v in e] for e in exprs], key
        assert rows == [[v * den for v in r] for r in ref.bound_rows], key
        assert rhs == [v * den for v in ref.bound_rhs], key
        assert all(type(v) is int for vs in (*forms, *rows, rhs) for v in vs), key
        result = find_full_state_set(oml)
        assert result.ok, key
        assert list(result.states) == _reference_full_state_set(oml), key
        assert all(type(v) is F for s in result.states for v in s), key
        count += 1
    assert count == len(corpus.OML_NAMES) + 12


# ---------------------------------------------------------------------------
# The event side against its earlier form: pointwise order by pairwise
# comparison, private infimum and supremum searches, two hat_plus passes
# ---------------------------------------------------------------------------


def _oracle_masks(events):
    le = []
    for p in events:
        le.append(sum(1 << j for j, q in enumerate(events)
                      if all(a <= b for a, b in zip(p, q))))
    return le


def _oracle_algebra(ev):
    """(law, witness, detail) per failed probability-algebra axiom."""
    events, labels, m = ev.events, ev.elements, len(ev.events)
    k = len(events[0]) if events else 0
    member = {vec: i for i, vec in enumerate(events)}
    failures = []
    if (F(0),) * k not in member or (F(1),) * k not in member:
        failures.append(("contains-bounds", {}, "missing a constant vector"))
    for i, p in enumerate(events):
        if tuple(1 - v for v in p) not in member:
            failures.append(("complement-closed", {"p": labels[i]}, ""))
            break
    le = _oracle_masks(events)
    orth = [sum(1 << j for j, q in enumerate(events)
                if all(a + b <= 1 for a, b in zip(p, q))) for p in events]
    triples = ((i, j, r) for i in range(m) for j in range(i, m) for r in range(j, m)
               if orth[i] >> j & 1 and orth[i] >> r & 1 and orth[j] >> r & 1)
    for i, j, r in triples:
        if tuple(a + b + c for a, b, c in zip(events[i], events[j], events[r])) \
                not in member:
            failures.append(("orthogonal-triple-sum",
                             {"p": labels[i], "q": labels[j], "r": labels[r]}, ""))
            break
    for i, j in ((i, j) for i in range(m) for j in range(i, m) if orth[i] >> j & 1):
        s = tuple(a + b for a, b in zip(events[i], events[j]))
        if s not in member:
            failures.append(("orthogonal-pair-sum", {"p": labels[i], "q": labels[j]},
                             "sum is not a member"))
            break
        si = member[s]
        if not le[i] >> si & 1 or not le[j] >> si & 1 or (le[i] & le[j] & ~le[si]):
            failures.append(("orthogonal-pair-sum", {"p": labels[i], "q": labels[j]},
                             "sum is not the supremum"))
            break
    return failures


def _oracle_boolean_test(ev):
    events, labels, m = ev.events, ev.elements, len(ev.events)
    member = {vec: i for i, vec in enumerate(events)}
    le = _oracle_masks(events)
    ge = [sum(1 << i for i in range(m) if le[i] >> j & 1) for j in range(m)]

    def inf_of(i, j):
        lowers = ge[i] & ge[j]
        return next((z for z in range(m) if lowers >> z & 1
                     and ge[z] & lowers == lowers), -1)

    def sup_of(i, j):
        uppers = le[i] & le[j]
        return next((z for z in range(m) if uppers >> z & 1
                     and le[z] & uppers == uppers), -1)

    meet = [[0] * m for _ in range(m)]
    join = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            z = inf_of(i, j)
            if z < 0:
                raise NotLatticeOrdered("infimum", (labels[i], labels[j]))
            meet[i][j] = meet[j][i] = z
            z = sup_of(i, j)
            if z < 0:
                raise NotLatticeOrdered("supremum", (labels[i], labels[j]))
            join[i][j] = join[j][i] = z
    compl = {}
    for i, p in enumerate(events):
        q = tuple(1 - v for v in p)
        if q not in member:
            raise ValidationError("event set is not complement-closed")
        compl[i] = member[q]
    for i in range(m):
        for j in range(i, m):
            for pos, v in enumerate(hat_plus(events[i], events[j], events[meet[i][j]])):
                if v > 1:
                    return {"p": labels[i], "q": labels[j], "state": pos, "value": str(v)}, None
    plus = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            hi = member.get(hat_plus(events[i], events[j], events[meet[i][j]]))
            s = join[meet[i][compl[j]]][meet[compl[i]][j]]
            if hi is None or hi != s:
                if _oracle_algebra(ev):
                    raise NotAnEventAlgebra(check_s_probability_algebra(ev))
                raise OracleMismatch("ring addition disagrees with the symmetric "
                                     f"difference at ({labels[i]}, {labels[j]})")
            plus[i][j] = hi
    return None, tuple(map(tuple, plus))


def _random_event_sets(count, seed):
    """Event sets around the found states of small lattices: as found, with
    states dropped, with a vector added, changed or removed, and random
    vectors over a few values with or without their complements."""
    rng = random.Random(seed)
    found = []
    for name in ("boolean_1", "boolean_2", "boolean_3", "mo1", "mo2", "mo3"):
        oml = corpus.builtin(name)
        found.append(events_from_states(oml, find_full_state_set(oml).states).events)
    values = (F(0), F(1, 3), F(1, 2), F(2, 3), F(1))
    out = []
    while len(out) < count:
        how = rng.randrange(6)
        if how < 4:
            vecs = list(rng.choice(found))
            k = len(vecs[0])
            if how == 1:
                keep = sorted(rng.sample(range(k), rng.randint(1, k)))
                vecs = [tuple(v[c] for c in keep) for v in vecs]
                k = len(keep)
            elif how == 2:
                vecs.append(tuple(rng.choice(values) for _ in range(k)))
            elif how == 3:
                pos = rng.randrange(len(vecs))
                if rng.random() < 0.5:
                    del vecs[pos]
                else:
                    v = list(vecs[pos])
                    v[rng.randrange(k)] = rng.choice(values)
                    vecs[pos] = tuple(v)
        else:
            k = rng.randint(1, 3)
            vecs = [(F(0),) * k, (F(1),) * k]
            for _ in range(rng.randint(0, 4)):
                v = tuple(rng.choice(values) for _ in range(k))
                vecs.append(v)
                if how == 5:
                    vecs.append(tuple(1 - a for a in v))
        vecs = list(dict.fromkeys(vecs))
        rng.shuffle(vecs)
        labels = tuple(f"e{i}" for i in range(len(vecs)))
        out.append(NumericalEventSet(labels, tuple(vecs)))
    return out


def _wide_event_sets(count, seed):
    """Event sets whose columns are states mixing twelfths and fifths: the
    events of one to four mixtures of found states of small lattices, as
    they are, with one value replaced by a wide value (3/2 and -1/2 among
    them), with a wide vector and its complement added, or with a vector
    removed."""
    rng = random.Random(seed)
    found = [find_full_state_set(corpus.builtin(name)).states
             for name in ("boolean_2", "boolean_3", "mo1", "mo2", "mo3")]
    out = []
    while len(out) < count:
        cols = [_mixture(rng, fs) for fs in [rng.choice(found)] * rng.randint(1, 4)]
        vecs = list(zip(*cols))
        k, how = len(cols), rng.randrange(4)
        if how == 1:
            pos = rng.randrange(len(vecs))
            v = list(vecs[pos])
            v[rng.randrange(k)] = rng.choice(WIDE_VALUES)
            vecs[pos] = tuple(v)
        elif how == 2:
            v = tuple(rng.choice(WIDE_VALUES) for _ in range(k))
            vecs += [v, tuple(1 - a for a in v)]
        elif how == 3:
            del vecs[rng.randrange(len(vecs))]
        vecs = list(dict.fromkeys(vecs))
        rng.shuffle(vecs)
        labels = tuple(f"e{i}" for i in range(len(vecs)))
        out.append(NumericalEventSet(labels, tuple(vecs)))
    return out


def _outcome(fn, ev):
    """(witness, plus) as fn returns it, or (exception type, message)."""
    try:
        return fn(ev)
    except (NotLatticeOrdered, ValidationError, NotAnEventAlgebra, OracleMismatch) as exc:
        return type(exc), str(exc)


def _kind(got):
    """The exception type of an outcome, or whether the set is Boolean."""
    return got[0] if isinstance(got[0], type) else got[0] is None


def test_boolean_test_matches_its_two_pass_form():
    seen = set()
    for ev in _random_event_sets(2000, 31):
        got = _outcome(boolean_test, ev)
        assert got == _outcome(_oracle_boolean_test, ev), ev
        seen.add(_kind(got))
    assert seen >= {True, False, NotLatticeOrdered, ValidationError, NotAnEventAlgebra}


def test_event_axiom_witnesses_match_their_earlier_form():
    for ev in _random_event_sets(1000, 32):
        verdict = check_s_probability_algebra(ev)
        assert [(f.law, f.witness, f.detail) for f in verdict.failures] \
            == _oracle_algebra(ev), ev


def test_event_checks_match_their_earlier_form_on_wider_denominators():
    seen, fractional, lcm60 = set(), 0, 0
    for ev in _wide_event_sets(1200, 41):
        got = _outcome(boolean_test, ev)
        assert got == _outcome(_oracle_boolean_test, ev), ev
        verdict = check_s_probability_algebra(ev)
        assert [(f.law, f.witness, f.detail) for f in verdict.failures] \
            == _oracle_algebra(ev), ev
        seen.add(_kind(got))
        fractional += isinstance(got[0], dict) and "/" in got[0]["value"]
        lcm60 += any(math.lcm(*(v.denominator for v in col)) == 60 for col in zip(*ev.events))
    assert seen >= {True, False, NotLatticeOrdered, ValidationError, NotAnEventAlgebra}
    assert fractional >= 100 and lcm60 >= 100


def _word_wide_event_sets(count, seed):
    """The events of product_2p4_mo2 (96 members) and mo3 x boolean_3 (64),
    in turn, with one value moved to 0, 1/2 or 1, a vector removed, or a
    member halved added with its complement, shuffled: masks wider than a
    machine word."""
    rng = random.Random(seed)
    bases = [events_from_states(oml, find_full_state_set(oml).states).events
             for oml in (corpus.builtin("product_2p4_mo2"),
                         lattice.direct_product(corpus.builtin("mo3"), corpus.builtin("boolean_3")))]
    out = []
    for n in range(count):
        vecs, how = list(bases[n % 2]), n // 2 % 3
        if how == 0:
            pos = rng.randrange(len(vecs))
            v = list(vecs[pos])
            v[rng.randrange(len(v))] = rng.choice((F(0), F(1, 2), F(1)))
            vecs[pos] = tuple(v)
        elif how == 1:
            del vecs[rng.randrange(len(vecs))]
        else:
            v = tuple(a / 2 for a in rng.choice(vecs))
            vecs += [v, tuple(1 - a for a in v)]
        vecs = list(dict.fromkeys(vecs))
        rng.shuffle(vecs)
        labels = tuple(f"e{i}" for i in range(len(vecs)))
        out.append(NumericalEventSet(labels, tuple(vecs)))
    return out


def test_event_checks_match_their_earlier_form_on_masks_wider_than_a_word():
    seen, far = set(), 0
    for ev in _word_wide_event_sets(6, 6):
        got = _outcome(boolean_test, ev)
        assert got == _outcome(_oracle_boolean_test, ev), ev
        failures = [(f.law, f.witness, f.detail) for f in check_s_probability_algebra(ev).failures]
        assert failures == _oracle_algebra(ev), ev
        seen |= {(law, detail) for law, _, detail in failures}
        seen.add(isinstance(got[0], dict))
        far += any(int(lab[1:]) >= 64 for _, w, _ in failures for lab in w.values())
    assert seen >= {("orthogonal-triple-sum", ""), ("orthogonal-pair-sum", "sum is not a member"),
                    ("orthogonal-pair-sum", "sum is not the supremum"), True}
    assert far


def test_the_event_walks_visit_each_orthogonal_pair_and_triple_once(monkeypatch):
    # orthogonality is symmetric, so a walk that starts below p (or r below
    # q) finds the same first witness as this one, but walks more
    oml = lattice.direct_product(corpus.builtin("mo2"), corpus.builtin("boolean_3"))
    ev = events_from_states(oml, find_full_state_set(oml).states)
    walked = []

    def bits(mask):
        for b in lattice._bits(mask):
            walked.append(b)
            yield b

    monkeypatch.setattr(states, "_bits", bits)
    assert check_s_probability_algebra(ev).passed
    m = len(ev.events)
    orth = [[all(a + b <= 1 for a, b in zip(p, q)) for q in ev.events] for p in ev.events]
    pairs = [(i, j) for i in range(m) for j in range(i, m) if orth[i][j]]
    want = [x for i, j in pairs
            for x in [j, *(r for r in range(j, m) if orth[i][r] and orth[j][r])]]
    assert walked == want + [j for _, j in pairs]


def _fine_event_sets(count, seed):
    """Event sets whose columns mix found states with weights of
    denominators up to 10^6: a full state set with one to three such
    mixtures added (Boolean exactly on the Boolean lattices), then kept,
    one value moved by 1/10^6, or a vector and its complement added with
    values in [-1, 2]."""
    rng = random.Random(seed)
    found = [find_full_state_set(corpus.builtin(name)).states
             for name in ("boolean_2", "boolean_3", "mo1", "mo2", "mo3")]
    out = []
    while len(out) < count:
        fs = rng.choice(found)
        cols = list(fs)
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(2, 10 ** 6)
            w = F(rng.randint(1, d - 1), d)
            a, b = rng.choice(fs), rng.choice(fs)
            cols.append(tuple(w * x + (1 - w) * y for x, y in zip(a, b)))
        vecs, k, how = list(zip(*cols)), len(cols), rng.randrange(3)
        if how == 1:
            pos = rng.randrange(len(vecs))
            v = list(vecs[pos])
            v[rng.randrange(k)] += rng.choice((1, -1)) * F(1, 10 ** 6)
            vecs[pos] = tuple(v)
        elif how == 2:
            v = tuple(F(rng.randint(-10 ** 6, 2 * 10 ** 6), 10 ** 6) for _ in range(k))
            vecs += [v, tuple(1 - a for a in v)]
        vecs = list(dict.fromkeys(vecs))
        rng.shuffle(vecs)
        labels = tuple(f"e{i}" for i in range(len(vecs)))
        out.append(NumericalEventSet(labels, tuple(vecs)))
    return out


def test_packed_scan_matches_the_two_pass_form_on_fine_denominators():
    seen, wide = set(), 0
    for ev in _fine_event_sets(400, 51):
        got = _outcome(boolean_test, ev)
        assert got == _outcome(_oracle_boolean_test, ev), ev
        seen.add(_kind(got))
        wide += max(states._scaled(ev.elements, ev.events)[0]) > 10 ** 5
    assert seen >= {True, False, NotLatticeOrdered, ValidationError}
    assert wide >= 300


def test_packed_fields_flag_exactly_the_values_above_one():
    # values of p+q-2(p^q), from 0 up to twice a column's spread, and den
    # and den+1, on columns of scaled values with their complements, some
    # outside [0, den]
    rng = random.Random(52)
    for _ in range(300):
        k = rng.randint(1, 4)
        den = [rng.choice((1, 2, 12, rng.randint(1, 10 ** 6))) for _ in range(k)]
        lo = [rng.choice((0, -rng.randint(0, 2 * d))) for d in den]
        vecs = [tuple(rng.randint(a, d - a) for a, d in zip(lo, den)) for _ in range(4)]
        events = list(dict.fromkeys(vecs + [tuple(map(sub, den, v)) for v in vecs]))
        packed, over, top = states._packing(den, events)
        index = {v: i for i, v in enumerate(packed)}
        spread = [max(c) - min(c) for c in zip(*events)]
        for _ in range(20):
            h = tuple(rng.choice((0, d, d + 1, 2 * s, rng.randint(0, 2 * s)))
                      for d, s in zip(den, spread))
            ph = sum(v << sum(max(d, s).bit_length() + 2 for d, s in zip(den[:i], spread))
                     for i, v in enumerate(h))
            assert bool(ph + over & top) == any(map(gt, h, den)), (den, events, h)
            if not ph + over & top:
                assert index.get(ph) == next(
                    (i for i, e in enumerate(events) if e == h), None), (den, events, h)
