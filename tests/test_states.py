"""States, full sets, numerical events and the ring inequality."""

import io
import random
from contextlib import redirect_stdout
from fractions import Fraction as F

import pytest

from omlkit import cli, corpus, lattice, states
from omlkit.errors import (
    DimensionMismatch,
    InvalidState,
    NotFull,
    NotLatticeOrdered,
    NotUncomparable,
    ValidationError,
)
from omlkit.states import (
    Infeasible,
    NumericalEventSet,
    State,
    boolean_test,
    check_full,
    check_representation,
    check_s_probability_algebra,
    check_state,
    events_from_states,
    find_full_state_set,
    find_separating_state,
    hat_plus,
)
from omlkit.rlse import rlse_from_oml


MO2_STATES = (
    State((F(0), F(1), F(0), F(0), F(1), F(1))),
    State((F(0), F(1), F(0), F(1), F(0), F(1))),
    State((F(0), F(0), F(1), F(0), F(1), F(1))),
    State((F(0), F(0), F(1), F(1), F(0), F(1))),
)


def test_check_state_accepts_a_vertex_state():
    mo2 = corpus.builtin("mo2")
    assert check_state(mo2, MO2_STATES[0].values).passed


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
    assert report.failed_check == "range"
    assert report.witness == {"x": "a", "value": "2"}


def test_check_state_top_value():
    mo2 = corpus.builtin("mo2")
    report = check_state(mo2, (F(0), F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1, 2)))
    assert report.failed_check == "top-probability-one"


def test_check_state_additivity():
    mo2 = corpus.builtin("mo2")
    report = check_state(mo2, (F(0), F(1, 2), F(1, 4), F(1, 2), F(1, 2), F(1)))
    assert report.failed_check == "orthogonal-additivity"
    assert report.witness["x"] == "a"
    assert report.witness["y"] == "a'"


def test_separating_state_on_mo2():
    mo2 = corpus.builtin("mo2")
    s = find_separating_state(mo2, "a", "b")
    assert s.value_of(mo2, "a") > s.value_of(mo2, "b")
    assert check_state(mo2, s.values).passed


def test_separating_state_rejects_comparable_pair():
    mo2 = corpus.builtin("mo2")
    with pytest.raises(NotUncomparable):
        find_separating_state(mo2, "0", "a")
    with pytest.raises(NotUncomparable):
        find_separating_state(mo2, "a", "a")


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
    assert report.witness == {"x": "a'", "y": "b'"}


def test_check_full_rejects_invalid_states():
    mo2 = corpus.builtin("mo2")
    bad = State((F(0), F(1), F(1), F(0), F(1), F(1)))
    with pytest.raises(InvalidState) as info:
        check_full(mo2, (MO2_STATES[0], bad))
    assert info.value.position == 1


def test_events_from_states():
    mo2 = corpus.builtin("mo2")
    ev = events_from_states(mo2, MO2_STATES)
    assert ev.width == 4
    assert ev.event_of("0") == (F(0),) * 4
    assert ev.event_of("1") == (F(1),) * 4
    assert ev.event_of("a") == (F(1), F(1), F(0), F(0))
    assert ev.event_of("b") == (F(0), F(1), F(0), F(1))
    # vectors are pairwise distinct on a full set
    assert len(set(ev.events)) == mo2.n


def test_events_require_fullness():
    mo2 = corpus.builtin("mo2")
    with pytest.raises(NotFull):
        events_from_states(mo2, MO2_STATES[:3])


def test_event_axioms_on_mo2():
    mo2 = corpus.builtin("mo2")
    report = check_s_probability_algebra(events_from_states(mo2, MO2_STATES))
    assert report.passed
    assert report.failures == ()


def test_event_axioms_missing_bound():
    ev = NumericalEventSet(("p", "q"), (), ((F(1), F(0)), (F(0), F(1))))
    report = check_s_probability_algebra(ev)
    assert not report.passed
    assert report.failures[0][0] == "contains-bounds"


def test_event_axioms_missing_complement():
    ev = NumericalEventSet(
        ("z", "p", "u"),
        (),
        ((F(0), F(0)), (F(1), F(0)), (F(1), F(1))),
    )
    report = check_s_probability_algebra(ev)
    assert not report.passed
    assert any(name == "complement-closed" for name, _, _ in report.failures)


def test_event_axioms_missing_orthogonal_sum():
    # p and q are orthogonal but p+q is absent
    ev = NumericalEventSet(
        ("z", "p", "q", "p'", "q'", "u"),
        (),
        ((F(0), F(0)), (F(1, 4), F(0)), (F(0), F(1, 4)),
         (F(3, 4), F(1)), (F(1), F(3, 4)), (F(1), F(1))),
    )
    report = check_s_probability_algebra(ev)
    assert not report.passed
    failed = {name for name, _, _ in report.failures}
    assert "orthogonal-pair-sum" in failed or "orthogonal-triple-sum" in failed


def test_hat_plus_pointwise():
    p = (F(1), F(1, 2))
    q = (F(1), F(1, 4))
    meet = (F(1), F(1, 4))
    assert hat_plus(p, q, meet) == (F(0), F(1, 4))


def test_boolean_test_on_boolean_members():
    for name in ("boolean_2", "boolean_3", "mo1"):
        oml = corpus.builtin(name)
        result = find_full_state_set(oml)
        report = boolean_test(events_from_states(oml, result.states))
        assert report.is_boolean, name
        assert report.plus_table == report.sym_diff_table


def test_boolean_test_fails_on_mo2_with_value_2():
    mo2 = corpus.builtin("mo2")
    report = boolean_test(events_from_states(mo2, MO2_STATES))
    assert not report.is_boolean
    assert report.witness["p"] == "a"
    assert report.witness["q"] == "b"
    assert report.witness["value"] == "2"
    # the witness state really weighs both atoms with 1
    pos = report.witness["state"]
    assert MO2_STATES[pos].value_of(mo2, "a") == 1
    assert MO2_STATES[pos].value_of(mo2, "b") == 1


def test_boolean_test_requires_lattice_order():
    ev = NumericalEventSet(
        ("p", "p'"),
        (),
        ((F(1), F(0)), (F(0), F(1))),
    )
    with pytest.raises(NotLatticeOrdered):
        boolean_test(ev)


def test_boolean_test_requires_complements():
    ev = NumericalEventSet(
        ("z", "p", "u"),
        (),
        ((F(0), F(0)), (F(1), F(0)), (F(1), F(1))),
    )
    with pytest.raises(ValidationError):
        boolean_test(ev)


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
    assert report.failed_hypothesis == "order-isomorphism"


def test_representation_rejects_wrong_domain():
    b2 = corpus.builtin("boolean_2")
    ring = rlse_from_oml(b2, "t1")
    ev = events_from_states(b2, find_full_state_set(b2).states)
    report = check_representation(ring, ev, {"x": (F(0), F(0))})
    assert not report.passed
    assert report.failed_hypothesis == "bijection"


def test_product_pipeline_is_exact_and_fast():
    prod = corpus.builtin("product_2p4_mo2")
    result = find_full_state_set(prod)
    assert result.ok
    ev = events_from_states(prod, result.states)
    assert check_s_probability_algebra(ev).passed
    report = boolean_test(ev)
    assert not report.is_boolean
    assert report.witness["value"] == "2"


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
                 if x != y and all(s.values[x] <= s.values[y] for s in subset)
                 != leq[x][y]),
                None)
            report = check_full(oml, subset)
            assert report.passed == (expected is None), (name, subset)
            if expected is not None:
                assert (report.witness["x"], report.witness["y"]) == expected


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
