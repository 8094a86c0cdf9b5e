"""Event-ring axioms, constructions, derived laws and the equivalence."""

import itertools
import random

import pytest

from omlkit import corpus, lattice, rlse
from omlkit.errors import (
    CustomPlusInvalid,
    MalformedTable,
    NotAnRlse,
    OracleMismatch,
    UnknownLabel,
)
from omlkit.lattice import is_distributive
from omlkit.rlse import (
    RlseTables,
    check_correspondence,
    check_derived_identities,
    check_r4_orthogonal_form,
    check_r5,
    check_rlse,
    derived_lattice,
    is_boolean_ring,
    rlse_from_oml,
)


def _paper():
    return corpus.builtin("paper-example-2set")


def _swap_cell(r, table, i, j, value):
    rows = [list(row) for row in getattr(r, table)]
    rows[i][j] = value
    frozen = tuple(tuple(row) for row in rows)
    if table == "oplus":
        return RlseTables(r.elements, frozen, r.times, r.zero, r.one)
    return RlseTables(r.elements, r.oplus, frozen, r.zero, r.one)


def test_checks_reject_a_hand_built_ring_with_a_repeated_label():
    # mo2's t1 ring is valid on its index tables; with a' relabelled a its
    # derived poset has two elements named a
    r = rlse_from_oml(corpus.builtin("mo2"), "t1")
    r = r._replace(elements=("0", "a", "a", "b", "b'", "1"))
    for check in (check_rlse, check_correspondence, derived_lattice):
        with pytest.raises(MalformedTable, match="duplicate element labels"):
            check(r)


@pytest.mark.parametrize("ring, message", [
    (_swap_cell(_paper(), "times", 1, 2, 4), "times table entry 4 out of range"),
    (_swap_cell(_paper(), "oplus", 0, 3, -1), "oplus table entry -1 out of range"),
    (_paper()._replace(zero=4), "zero/one out of range"),
    (_paper()._replace(one=-1), "zero/one out of range"),
], ids=["times-entry", "oplus-entry", "zero", "one"])
def test_check_rlse_rejects_an_index_out_of_range(ring, message):
    with pytest.raises(MalformedTable) as info:
        check_rlse(ring)
    assert str(info.value) == message


def test_index_of_an_unknown_label_raises():
    with pytest.raises(UnknownLabel) as info:
        _paper().index("q")
    assert str(info.value) == "unknown element label: 'q'"


def test_paper_example_is_valid():
    report = check_rlse(_paper())
    assert report.passed
    assert not report.failures


@pytest.mark.parametrize("name", corpus.OML_NAMES)
@pytest.mark.parametrize("plus", ["t1", "t2"])
def test_constructed_rings_validate_and_round_trip(name, plus):
    oml = corpus.builtin(name)
    r = rlse_from_oml(oml, plus)
    assert check_rlse(r).passed
    assert derived_lattice(r) == oml


def test_derived_lattice_of_paper_example_is_boolean_2():
    assert derived_lattice(_paper()) == corpus.builtin("boolean_2")


def test_derive_rejects_invalid_ring():
    bad = _swap_cell(_paper(), "times", 1, 2, 3)  # {1}*{2} := {1,2}
    with pytest.raises(NotAnRlse):
        derived_lattice(bad)


def test_broken_commutativity_is_caught():
    bad = _swap_cell(_paper(), "oplus", 0, 1, 0)  # {} + {1} := {}
    report = check_rlse(bad)
    assert not report.passed
    axioms = [f.law for f in report.failures]
    assert "R1" in axioms


def test_broken_idempotence_is_caught():
    bad = _swap_cell(_paper(), "times", 1, 1, 0)  # {1}*{1} := {}
    report = check_rlse(bad)
    assert not report.passed
    assert report.failure_for("times-idempotent") is not None
    w = report.failure_for("times-idempotent").witness
    assert w == {"x": "{1}"}


def test_failure_string_names_the_offender():
    bad = _swap_cell(_paper(), "oplus", 0, 0, 1)  # {} + {} := {1}
    report = check_rlse(bad)
    text = " ".join(str(f) for f in report.failures)
    assert "{}" in text


def test_orthogonal_pair_mutation_breaks_both_r4_forms():
    # {1} and {2} are orthogonal; redirecting their sum must show up in
    # the plain identity and in its orthogonal restriction alike.
    r = rlse_from_oml(corpus.builtin("boolean_2"), "t1")
    i, j = r.index("{1}"), r.index("{2}")
    rows = [list(row) for row in r.oplus]
    rows[i][j] = rows[j][i] = i
    bad = RlseTables(r.elements, tuple(tuple(row) for row in rows),
                     r.times, r.zero, r.one)
    r4, orthogonal = check_r4_orthogonal_form(bad)
    assert not r4.passed
    assert not orthogonal.passed
    assert r4.passed == orthogonal.passed
    a, b = (v.passed for v in check_correspondence(bad))
    assert (a, b) == (False, False)


def _xor():
    """boolean_2's symmetric difference as an index table: element i is the
    subset of {1, 2} whose members are the bits of i."""
    return [[x ^ y for y in range(4)] for x in range(4)]


def _replayed(oml, plus, failure):
    """Both sides of the custom pre-check law that failure names, recomputed
    at its witness from the index table plus and the lattice's meet and
    complement: R1 x+y and y+x, plus-at-one x+1 and x', R4 x*y + (x+1) and
    (x*y+1)*x + 1."""
    w = {v: oml.index(lab) for v, lab in failure.witness.items()}
    meet, one, x = oml.meet, oml.poset.top, w["x"]
    if failure.law == "R1":
        return plus[x][w["y"]], plus[w["y"]][x]
    if failure.law == "plus-at-one":
        return plus[x][one], oml.comp[x]
    assert failure.law == "R4"
    xy = meet[x][w["y"]]
    return plus[xy][plus[x][one]], plus[meet[plus[xy][one]][x]][one]


def _assert_custom_plus_fails(plus, law):
    oml = corpus.builtin("boolean_2")
    with pytest.raises(CustomPlusInvalid) as info:
        rlse_from_oml(oml, plus)
    failure = info.value.failure
    assert failure.law == law
    lhs, rhs = _replayed(oml, plus, failure)
    assert lhs != rhs, failure


def test_custom_plus_accepts_the_example_table():
    oml, r = corpus.builtin("boolean_2"), _paper()
    assert oml.elements == r.elements
    assert rlse_from_oml(oml, r.oplus) == r
    assert rlse_from_oml(oml, [list(row) for row in r.oplus]) == r


def test_custom_plus_rejects_noncommutative():
    plus = _xor()
    plus[0][1] = 2
    _assert_custom_plus_fails(plus, "R1")


def test_custom_plus_rejects_wrong_complement_column():
    plus = _xor()
    plus[1][3] = plus[3][1] = 1   # {1}+1 must be {2}
    _assert_custom_plus_fails(plus, "plus-at-one")


def test_custom_plus_rejects_broken_orthogonal_sum():
    plus = _xor()
    plus[1][2] = plus[2][1] = 1   # {1}+{2} redirected
    _assert_custom_plus_fails(plus, "R4")


def test_custom_plus_rejects_a_label_table():
    oml = corpus.builtin("boolean_2")
    labels = tuple(tuple(oml.elements[v] for v in row) for row in _paper().oplus)
    for table in (labels, (("x",) * 4,) * 4):
        with pytest.raises(MalformedTable) as info:
            rlse_from_oml(oml, table)
        assert str(info.value) == f"oplus table entry {table[0][0]!r} out of range"


def test_custom_plus_names_the_first_entry_or_row_that_does_not_fit():
    oml = corpus.builtin("boolean_2")
    good = (0, 1, 2, 3)
    cases = [
        ((good, good, (1, "x", "y", 0), good), "oplus table entry 'x' out of range"),
        ((good, good, (1, "{}", 4, 0), good), "oplus table entry '{}' out of range"),
        ((good, (0, 1, 4, -1), good, good), "oplus table entry 4 out of range"),
        ((good,) * 3, "oplus table has 3 rows, wants 4"),
        ((good,) * 5, "oplus table has 5 rows, wants 4"),
        ((good, good[:3], good, good), "oplus table row has 3 entries"),
        ("t3", "unknown addition term 't3'; the terms are 't1' and 't2'"),
    ]
    for rows, message in cases:
        with pytest.raises(MalformedTable) as info:
            rlse_from_oml(oml, rows)
        assert str(info.value) == message


@pytest.mark.parametrize("name", corpus.OML_NAMES)
def test_derived_identities_hold(name):
    for plus in ("t1", "t2"):
        report = check_derived_identities(rlse_from_oml(corpus.builtin(name), plus))
        assert report.passed, report.failures


def test_derived_identities_hold_on_paper_example():
    assert check_derived_identities(_paper()).passed


def test_derived_identities_require_valid_ring():
    bad = _swap_cell(_paper(), "oplus", 0, 1, 0)
    with pytest.raises(NotAnRlse):
        check_derived_identities(bad)


def test_r4_forms_agree_on_corpus():
    rings = [_paper()]
    for name in corpus.OML_NAMES:
        for plus in ("t1", "t2"):
            rings.append(rlse_from_oml(corpus.builtin(name), plus))
    for r in rings:
        r4, orthogonal = check_r4_orthogonal_form(r)
        assert r4.passed and orthogonal.passed


def test_weak_assoc_and_t_fail_exactly_on_the_modified_diagonal():
    route, _ = is_boolean_ring(_paper())
    assert not route.passed
    assert route.failure_for("weak-associativity").witness == {"x": "{1}", "y": "{1}"}
    assert route.failure_for("T") is not None


def test_weak_assoc_and_t_hold_on_boolean_construction():
    route, _ = is_boolean_ring(rlse_from_oml(corpus.builtin("boolean_3"), "t1"))
    assert route.passed
    assert route.checked == ("weak-associativity", "T")


def test_r5_pins_down_the_addition():
    assert check_r5(rlse_from_oml(corpus.builtin("mo2"), "t1")).passed
    report = check_r5(rlse_from_oml(corpus.builtin("mo2"), "t2"))
    assert not report.passed
    f = report.failures[0]
    assert f.witness == {"x": "a", "y": "b"}
    assert f.detail == "lhs 1, rhs 0"


def test_boolean_ring_verdicts():
    assert not is_boolean_ring(_paper())[1].passed
    for name in corpus.OML_NAMES:
        r = rlse_from_oml(corpus.builtin(name), "t1")
        expected = is_distributive(corpus.builtin(name))[0]
        assert is_boolean_ring(r)[1].passed is expected, name


def test_ring_route_stops_at_its_first_failure():
    # the t1 ring of mo3 x 2^2 breaks plus-associative and distributive;
    # the ring route reports the first and scans no law after it
    _, route = is_boolean_ring(rlse_from_oml(_product("mo3", "boolean_2"), "t1"))
    assert route.checked == ("plus-self-inverse", "zero-neutral", "plus-associative")
    assert len(route.failures) == 1
    assert route.first.witness == {"x": "(a,{})", "y": "(a,{})", "z": "(b,{})"}


def test_boolean_ring_witness_is_the_modified_diagonal():
    w = is_boolean_ring(_paper())[1].first
    assert w.law == "plus-self-inverse"
    assert w.witness == {"x": "{1}"}
    assert "{1}+{1} = {1,2}" in str(w)


def test_correspondence_verdicts_on_valid_rings():
    for name in ("boolean_2", "mo2"):
        r = rlse_from_oml(corpus.builtin(name), "t1")
        assert [v.passed for v in check_correspondence(r)] == [True, True]


def test_correspondence_verdicts_agree_on_seeded_mutations():
    # check_correspondence raises OracleMismatch if its two independent
    # verdicts ever split, so surviving the loop is the assertion.
    rng = random.Random(99)
    bases = [_paper(), rlse_from_oml(corpus.builtin("mo2"), "t1")]
    rejected = 0
    for _ in range(20):
        base = rng.choice(bases)
        table = "oplus" if rng.random() < 0.5 else "times"
        i, j = rng.randrange(base.n), rng.randrange(base.n)
        old = getattr(base, table)[i][j]
        new = rng.choice([v for v in range(base.n) if v != old])
        mutant = _swap_cell(base, table, i, j, new)
        rejected += not check_correspondence(mutant)[0].passed
    # a lone cell change may land on another valid ring (the addition is
    # free at non-orthogonal pairs), but most mutants must be rejected
    assert rejected >= 15


def test_lattice_side_reports_where_a_mutant_fails():
    bad = _swap_cell(_paper(), "times", 0, 1, 1)  # {}*{1} := {1}
    as_rlse, as_lattice = check_correspondence(bad)
    assert (as_rlse.passed, as_lattice.passed) == (False, False)
    assert as_lattice.failures[0].law is not None


def test_axiom_report_failure_lookup():
    bad = _swap_cell(_paper(), "oplus", 1, 2, 0)   # breaks commutativity
    report = check_rlse(bad)
    assert not report.passed
    assert report.failure_for("R1") is not None
    assert report.failure_for("times-commutative") is None


def _brute_force_laws(r):
    """law -> (variable count, sides, detail) written per assignment, for a
    plain lexicographic scan; sides returns None where a law does not apply."""
    els, P, T, z, u = r.elements, r.oplus, r.times, r.zero, r.one

    def N(x):
        return P[x][u]

    def values(a, b):
        return f"lhs {els[a]}, rhs {els[b]}"

    return {
        "times-commutative": (2, lambda x, y: (T[x][y], T[y][x]), lambda x, y, a, b:
                              f"{els[x]}*{els[y]} = {els[a]}, {els[y]}*{els[x]} = {els[b]}"),
        "times-idempotent": (1, lambda x: (T[x][x], x),
                             lambda x, a, b: f"{els[x]}*{els[x]} = {els[a]}"),
        "times-associative": (3, lambda x, y, w: (T[T[x][y]][w], T[x][T[y][w]]),
                              lambda *_: ""),
        "times-unit": (1, lambda x: (T[x][u], x), lambda x, a, b: f"{els[x]}*1 = {els[a]}"),
        "times-zero": (1, lambda x: (T[x][z], z), lambda x, a, b: f"{els[x]}*0 = {els[a]}"),
        "R1": (2, lambda x, y: (P[x][y], P[y][x]), lambda x, y, a, b:
               f"{els[x]}+{els[y]} = {els[a]}, {els[y]}+{els[x]} = {els[b]}"),
        "R2": (2, lambda x, y: (N(T[N(T[x][y])][N(x)]), x),
               lambda x, y, a, b: f"got {els[a]}, wants {els[x]}"),
        "R3": (2, lambda x, y: (T[N(T[N(T[x][y])][x])][x], T[x][y]),
               lambda x, y, a, b: f"got {els[a]}, wants {els[T[x][y]]}"),
        "R4": (2, lambda x, y: (P[T[x][y]][N(x)], N(T[N(T[x][y])][x])),
               lambda x, y, a, b: values(a, b)),
        "R4-orthogonal": (2, lambda x, y: (N(P[x][y]), T[N(x)][N(y)])
                          if T[x][N(y)] == x else None, lambda x, y, a, b: values(a, b)),
        "double-negation": (1, lambda x: (N(N(x)), x), lambda x, a, b: f"got {els[a]}"),
        "negation-disjoint": (1, lambda x: (T[x][N(x)], z), lambda x, a, b: f"got {els[a]}"),
        "one-self-inverse": (0, lambda: (P[u][u], z), lambda a, b: f"1+1 = {els[a]}"),
        "zero-neutral": (1, lambda x: (P[x][z], x), lambda x, a, b: f"got {els[a]}"),
        "negation-covers": (1, lambda x: (P[x][N(x)], u), lambda x, a, b: f"got {els[a]}"),
        "negation-antitone": (2, lambda x, y: (T[x][y] == x, T[N(y)][N(x)] == N(y)),
                              lambda *_: ""),
        "weak-associativity": (2, lambda x, y: (N(P[x][y]), P[x][N(y)]),
                               lambda x, y, a, b: values(a, b)),
        "T": (2, lambda x, y: (N(T[N(T[x][N(y)])][N(T[N(x)][y])]), P[x][y]),
              lambda x, y, a, b: values(a, b)),
        "R5": (2, lambda x, y: (P[x][y], P[T[x][N(y)]][T[N(x)][y]]),
               lambda x, y, a, b: values(a, b)),
        "plus-self-inverse": (1, lambda x: (P[x][x], z), lambda x, a, b:
                              f"{els[x]}+{els[x]} = {els[a]}, expected {els[z]}"),
        "plus-associative": (3, lambda x, y, w: (P[P[x][y]][w], P[x][P[y][w]]),
                             lambda x, y, w, a, b: values(a, b)),
        "distributive": (3, lambda x, y, w: (T[x][P[y][w]], P[T[x][y]][T[x][w]]),
                         lambda x, y, w, a, b: values(a, b)),
        "orthogonal-join": (2, lambda x, y: (P[x][y], N(T[N(x)][N(y)]))
                            if T[x][N(y)] == x else None, lambda *_: ""),
    }


def _first_counterexample(r, count, sides, detail):
    for asg in itertools.product(range(r.n), repeat=count):
        got = sides(*asg)
        if got is not None and got[0] != got[1]:
            return dict(zip("xyz", (r.elements[i] for i in asg))), detail(*asg, *got)
    return None


def _bases():
    return [_paper()] + [rlse_from_oml(corpus.builtin(name), plus)
                         for name in ("boolean_2", "mo2", "boolean_3")
                         for plus in ("t1", "t2")]


def _mutants(count, seed):
    """Event-ring tables with one to three cells of + or * changed."""
    rng = random.Random(seed)
    bases = _bases()
    out = []
    for _ in range(count):
        r = rng.choice(bases)
        for _ in range(rng.randint(1, 3)):
            table = rng.choice(("oplus", "times"))
            i, j = rng.randrange(r.n), rng.randrange(r.n)
            r = _swap_cell(r, table, i, j, rng.randrange(r.n))
        out.append(r)
    return out


def test_law_witnesses_match_a_brute_force_scan():
    # every law of check_rlse, the derived identities, both Boolean-ring
    # routes, R5, T, weak associativity and the orthogonal join, on tables
    # that need not be rings
    failed = dict.fromkeys(_brute_force_laws(_paper()), 0)
    for r in _mutants(2000, 4242):
        for law, (count, sides, detail) in _brute_force_laws(r).items():
            expected = _first_counterexample(r, count, sides, detail)
            verdict = rlse._verdict(r, (law,))
            assert verdict.passed == (expected is None), (law, r)
            if expected is not None:
                f = verdict.failures[0]
                assert (f.witness, f.detail) == expected, (law, r)
                failed[law] += 1
    assert min(failed.values()) >= 20, failed


def _assert_associativity_matches_brute_force(r):
    expected = _first_counterexample(r, *_brute_force_laws(r)["times-associative"])
    verdict = rlse._verdict(r, ("times-associative",))
    assert verdict.passed == (expected is None), r.times
    if expected is not None:
        f = verdict.failures[0]
        assert (f.witness, f.detail) == expected, r.times
    return expected is None


def _commutative_idempotent_tables(n):
    """Every commutative idempotent table on n elements."""
    pairs = list(itertools.combinations(range(n), 2))
    for values in itertools.product(range(n), repeat=len(pairs)):
        rows = [[x if x == y else None for y in range(n)] for x in range(n)]
        for (x, y), v in zip(pairs, values):
            rows[x][y] = rows[y][x] = v
        yield tuple(map(tuple, rows))


def test_associativity_decider_matches_a_triple_scan_on_every_small_table():
    # the semilattice test decides, the scan names the witness; both must
    # agree with a plain scan of all triples
    associative = 0
    for n in range(1, 5):
        elements = tuple(map(str, range(n)))
        for times in _commutative_idempotent_tables(n):
            r = RlseTables(elements, times, times, 0, n - 1)
            associative += _assert_associativity_matches_brute_force(r)
    # the meet-semilattices on 1..4 labelled elements; on 4 they are the
    # chain (24 labellings), the Y (12), the claw (4), the chain with a
    # second atom (24) and the diamond (12)
    assert associative == 1 + 2 + 9 + 76


def test_associativity_decider_matches_a_triple_scan_on_every_table_of_three():
    # without its commutativity or idempotence guard the semilattice test
    # would pass a few non-associative tables here, such as the idempotent
    # rows 0 1 1 / 0 1 0 / 0 1 2
    for n in range(1, 4):
        elements = tuple(map(str, range(n)))
        for cells in itertools.product(range(n), repeat=n * n):
            times = tuple(cells[i:i + n] for i in range(0, n * n, n))
            _assert_associativity_matches_brute_force(
                RlseTables(elements, times, times, 0, n - 1))


def test_associativity_decider_on_symmetric_two_cell_mutants():
    # a one-cell change of * breaks commutativity or idempotence, so it
    # rarely reaches the semilattice test's verdict; a symmetric pair does
    rng = random.Random(4343)
    bases = _bases()
    reached = 0
    for _ in range(1500):
        r = rng.choice(bases)
        x, y = rng.sample(range(r.n), 2)
        v = rng.randrange(r.n)
        r = _swap_cell(_swap_cell(r, "times", x, y, v), "times", y, x, v)
        assert rlse._verdict(r, ("times-commutative", "times-idempotent")).passed
        reached += not _assert_associativity_matches_brute_force(r)
    assert reached >= 100, reached


# ---------------------------------------------------------------------------
# The center test against the cubic scans
# ---------------------------------------------------------------------------

#: What is_boolean_ring decides on a valid event ring: (R, +, *) is a
#: Boolean ring
BOOLEAN_RING_LAWS = ("times-associative", "plus-self-inverse", "zero-neutral",
                     "plus-associative", "distributive")


def _assert_boolean_ring_matches_the_scans(r):
    """is_boolean_ring's verdict on r, a valid event ring, checked against
    the Boolean-ring law scans."""
    boolean = is_boolean_ring(r)[1].passed
    assert boolean == rlse._verdict(r, BOOLEAN_RING_LAWS).passed, r
    return boolean


def _first_triple(oml):
    """The labels of the lexicographically first (x, y, z) with
    x^(y v z) != (x^y) v (x^z), or None: a plain cubic scan."""
    meet, join = oml.meet, oml.join
    for x, y, z in itertools.product(range(oml.n), repeat=3):
        if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]:
            return tuple(oml.elements[i] for i in (x, y, z))
    return None


def _shuffled(oml, seed):
    """oml with its elements listed in a seeded random order."""
    els = list(oml.elements)
    random.Random(seed).shuffle(els)
    pairs = [(a, b) for a, ua in zip(oml.elements, oml.poset.up)
             for y, b in enumerate(oml.elements) if ua >> y & 1]
    poset = lattice.build_poset(els, pairs)
    pos = {lab: i for i, lab in enumerate(poset.elements)}
    comp = [pos[oml.elements[oml.comp[oml.index(lab)]]] for lab in poset.elements]
    return lattice.check_oml(poset, comp)[1]


def _product(*names):
    oml = corpus.builtin(names[0])
    for name in names[1:]:
        oml = lattice.direct_product(oml, corpus.builtin(name))
    return oml


def _lattices():
    """The builtins, and products of 32 and 64 elements, Boolean or not,
    each also in a shuffled order; mo3 x 2^2 and mo1 x mo3 have a power of
    two elements without being Boolean."""
    lattices = [corpus.builtin(name) for name in corpus.OML_NAMES]
    for seed, names in enumerate((("boolean_2", "boolean_3"), ("boolean_3", "boolean_3"),
                                  ("mo3", "boolean_2"), ("mo1", "mo3"), ("mo2", "boolean_2"))):
        lattices += [_product(*names), _shuffled(_product(*names), seed)]
    return lattices


def test_center_route_matches_the_scans_on_builtins_and_shuffled_products():
    seen = set()
    for oml in _lattices():
        boolean = _first_triple(oml) is None
        assert lattice.is_distributive(oml)[0] is boolean
        assert (lattice._central(oml.meet, oml.comp) is None) is boolean
        for plus in ("t1", "t2"):
            ring = _assert_boolean_ring_matches_the_scans(rlse_from_oml(oml, plus))
            assert ring is boolean or plus == "t2" and not boolean
        seen.add((oml.n & oml.n - 1 == 0, boolean))
    assert not _assert_boolean_ring_matches_the_scans(_paper())
    assert seen == {(True, True), (True, False), (False, False)}


def test_distributivity_witness_matches_a_first_triple_scan():
    lattices = _lattices()
    # 192 elements: the 32 of the form (0, S) come first and distribute
    # over every pair, so the first witness lies past them
    lattices.append(_product("mo2", "boolean_5"))
    distributive = 0
    for oml in lattices:
        expected = _first_triple(oml)
        assert is_distributive(oml) == (expected is None, expected), oml.elements
        distributive += expected is None
    assert (distributive, len(lattices) - distributive) == (10, 11)


#: The ring route of is_boolean_ring, in its order
RING_ROUTE_LAWS = ("plus-self-inverse", "zero-neutral", "plus-associative", "distributive")


def test_boolean_ring_routes_match_the_law_scans_on_valid_plus_mutants():
    # R4 fixes + only on orthogonal pairs, so a symmetric change of + at
    # other pairs can leave a valid event ring; each changed cell takes a
    # random element or the symmetric difference of the ring's lattice
    rng = random.Random(4747)
    bases = [_paper()] + [rlse_from_oml(corpus.builtin(name), plus)
                          for name in ("boolean_2", "mo1", "boolean_3", "boolean_4", "mo2", "mo3")
                          for plus in ("t1", "t2")]
    sym = {r: rlse_from_oml(derived_lattice(r), "t1").oplus for r in bases}
    outcomes = {True: 0, False: 0}
    for _ in range(1500):
        r = base = rng.choice(bases)
        for _ in range(rng.randint(1, 2)):
            x, y = rng.randrange(r.n), rng.randrange(r.n)
            v = sym[base][x][y] if rng.random() < 0.5 else rng.randrange(r.n)
            r = _swap_cell(_swap_cell(r, "oplus", x, y, v), "oplus", y, x, v)
        if not check_rlse(r).passed:
            continue
        identity_route, ring_route = is_boolean_ring(r)
        boolean = rlse._verdict(r, BOOLEAN_RING_LAWS).passed
        assert identity_route.passed is ring_route.passed is boolean, r
        assert ring_route.first == rlse._verdict(r, RING_ROUTE_LAWS).first, r
        outcomes[boolean] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_center_route_matches_the_scans_on_symmetric_mutants_of_boolean_rings():
    rng = random.Random(4545)
    bases = [rlse_from_oml(corpus.builtin(name), "t1")
             for name in ("boolean_2", "mo1", "boolean_3", "boolean_4")]
    outcomes = dict.fromkeys(itertools.product(("oplus", "times"), (True, False)), 0)
    for _ in range(1200):
        r, table = rng.choice(bases), rng.choice(("oplus", "times"))
        x, y = rng.sample(range(r.n), 2)
        v = rng.randrange(r.n)
        r = _swap_cell(_swap_cell(r, table, x, y, v), table, y, x, v)
        if check_rlse(r).passed:
            outcomes[table, _assert_boolean_ring_matches_the_scans(r)] += 1
    # a mutant stays Boolean only where it rewrote a cell with its own
    # value, and each changed * that kept a valid event ring here did so
    assert outcomes.pop(("times", False)) == 0
    assert min(outcomes.values()) >= 50, outcomes


def test_center_route_matches_the_scans_on_every_small_commutative_idempotent_table():
    # each table as *, with + the same table and, where the indices are
    # closed under ^, their bitwise xor; one element is no event ring, since
    # its zero is its one
    valid = boolean = 0
    for n in range(2, 5):
        elements = tuple(map(str, range(n)))
        xor = tuple(tuple(x ^ y for y in range(n)) for x in range(n))
        for times in _commutative_idempotent_tables(n):
            for oplus in dict.fromkeys((times, xor) if n in (2, 4) else (times,)):
                r = RlseTables(elements, oplus, times, 0, n - 1)
                if check_rlse(r).passed:
                    valid += 1
                    boolean += _assert_boolean_ring_matches_the_scans(r)
    # the event rings on 2 and 4 labelled elements with bottom 0 and top
    # n-1 are the Boolean rings with + the xor of indices
    assert (valid, boolean) == (2, 2)


def test_is_boolean_ring_refuses_a_non_associative_addition():
    # a and b lie below each other, c and d below nothing else, and + is
    # not associative: (a+a)+d = c, a+(a+d) = d.  * is not commutative, so
    # no Boolean test sees the table
    a, b, c, d = range(4)
    times = ((a, b, d, c), (a, b, d, c), (c, c, c, c), (d, d, d, d))
    oplus = ((c, d, a, b), (d, c, b, a), (a, b, c, c), (b, a, c, c))
    r = RlseTables(tuple("abcd"), oplus, times, c, a)
    with pytest.raises(NotAnRlse):
        is_boolean_ring(r)
    assert rlse._verdict(r, ("plus-associative",)).first.witness == {"x": "a", "y": "a", "z": "d"}


def _counting_rows(monkeypatch, module):
    """The rows the scans of module draw, recorded in a list."""
    drawn = []
    real = module.first_mismatch

    def counting(prefixes, lhs, rhs):
        def rows():
            for row in lhs:
                drawn.append(row)
                yield row
        return real(prefixes, rows(), rhs)

    monkeypatch.setattr(module, "first_mismatch", counting)
    return drawn


def test_a_boolean_ring_draws_no_triple_rows(monkeypatch):
    drawn = _counting_rows(monkeypatch, rlse)
    r = rlse_from_oml(corpus.builtin("boolean_5"), "t1")
    check_rlse(r)
    drawn.clear()
    assert is_boolean_ring(r)[1].passed
    # n rows each for weak-associativity and T, one each for
    # plus-self-inverse and zero-neutral; a triple scan draws n^2
    assert len(drawn) == 2 * r.n + 2, len(drawn)
    not_boolean = rlse_from_oml(_product("mo3", "boolean_2"), "t1")
    check_rlse(not_boolean)
    drawn.clear()
    assert not is_boolean_ring(not_boolean)[1].passed
    assert len(drawn) > 2 * r.n + 2


def test_a_boolean_lattice_draws_no_distributivity_rows(monkeypatch):
    drawn = _counting_rows(monkeypatch, lattice)
    assert lattice.is_distributive(corpus.builtin("boolean_5"))[0]
    assert drawn == []
    assert not lattice.is_distributive(corpus.builtin("mo3"))[0]
    assert drawn


def test_a_center_disagreeing_with_the_scans_raises(monkeypatch):
    boolean = rlse_from_oml(corpus.builtin("boolean_3"), "t1")
    mo3 = rlse_from_oml(corpus.builtin("mo3"), "t1")
    # said not central, the bottom sends the ring route to its scans and
    # is_distributive to the row of 0, which distributes
    monkeypatch.setattr(lattice, "_central", lambda meet, comp: 0)
    with pytest.raises(OracleMismatch, match="center"):
        is_boolean_ring(boolean)
    with pytest.raises(OracleMismatch, match="not central"):
        lattice.is_distributive(corpus.builtin("boolean_3"))
    # said central, the t1 ring of mo3 skips the triples and passes the
    # ring route, which the identity route then contradicts
    monkeypatch.setattr(lattice, "_central", lambda meet, comp: None)
    with pytest.raises(OracleMismatch, match="routes disagree"):
        is_boolean_ring(mo3)


def test_r4_form_reads_r4_off_the_axiom_verdict():
    for r in _mutants(400, 4646):
        expected = rlse._verdict(r, ("R4",)), rlse._verdict(r, ("R4-orthogonal",))
        assert check_r4_orthogonal_form(r) == expected, r
