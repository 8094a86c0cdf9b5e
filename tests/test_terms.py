"""Binary terms: syntax, evaluation, the census and the filter."""

import random

import pytest

from omlkit import corpus, lattice, terms
from omlkit.errors import EmptyCorpus
from omlkit.lattice import is_distributive
from omlkit.terms import (
    T1,
    T2,
    THAT,
    basis_terms,
    canonical_index_sets,
    chain_check,
    enumerate_canonical_terms,
    eval_term,
    filter_symmetric_difference_terms,
    format_term,
    term_function,
)


def test_formatting_of_the_three_named_terms():
    assert format_term(T1) == "(x ^ y') v (x' ^ y)"
    assert format_term(T2) == "(x v y) ^ (x' v y')"
    assert format_term(THAT) == "(x ^ (x' v y')) v (y ^ (x' v y'))"


def test_eval_corner_values_on_mo2():
    mo2 = corpus.builtin("mo2")
    assert eval_term(T1, mo2, "a", "b") == "0"
    assert eval_term(T2, mo2, "a", "b") == "1"
    assert eval_term(THAT, mo2, "a", "b") == "1"
    assert eval_term(T1, mo2, "a", "a'") == "1"
    assert eval_term(T1, mo2, "a", "a") == "0"


def test_t1_is_set_symmetric_difference_on_boolean_3():
    b3 = corpus.builtin("boolean_3")

    def as_set(label):
        return frozenset() if label == "{}" else frozenset(
            int(v) for v in label.strip("{}").split(","))

    def as_label(s):
        return "{" + ",".join(str(v) for v in sorted(s)) + "}"

    for x in b3.elements:
        for y in b3.elements:
            want = as_label(as_set(x) ^ as_set(y))
            assert eval_term(T1, b3, x, y) == want


def test_term_function_table_is_symmetric_for_t1():
    mo2 = corpus.builtin("mo2")
    table = term_function(T1, mo2)
    for i in range(mo2.n):
        for j in range(mo2.n):
            assert table[i][j] == table[j][i]


def test_basis_has_eight_distinct_meets():
    basis = basis_terms()
    assert len(basis) == 8
    assert len({format_term(t) for t in basis}) == 8
    prod = corpus.builtin("product_2p4_mo2")
    x, y = corpus.product_generating_pair()
    values = {eval_term(t, prod, x, y) for t in basis}
    assert len(values) == 8


def test_canonical_index_sets():
    sets = canonical_index_sets()
    assert len(sets) == 96
    assert len(set(sets)) == 96
    assert frozenset() in sets
    assert frozenset(range(1, 9)) in sets
    for s in sets:
        high = s & {5, 6, 7, 8}
        assert len(high) in (0, 1, 4)


def test_empty_join_is_the_zero_term():
    ts = enumerate_canonical_terms()
    sets = canonical_index_sets()
    zero = ts[sets.index(frozenset())]
    assert zero == terms.Const(0)
    mo2 = corpus.builtin("mo2")
    assert all(eval_term(zero, mo2, x, y) == "0"
               for x in mo2.elements for y in mo2.elements)


def test_filter_on_one_boolean_member():
    # a Boolean algebra alone cannot tell the survivors apart
    result = filter_symmetric_difference_terms((corpus.builtin("boolean_2"),))
    assert len(result.survivors) == 1
    assert len(result.survivors[0].term_indices) == 6


def test_filter_on_boolean_2_and_mo2():
    result = filter_symmetric_difference_terms(
        (corpus.builtin("boolean_2"), corpus.builtin("mo2")))
    assert len(result.survivors) == 2
    first, second = result.survivors
    assert frozenset({2, 3}) in first.index_sets
    assert frozenset({2, 3, 5, 6, 7, 8}) in second.index_sets
    # the four near-misses die on symmetry over mo2
    reasons = {tuple(sorted(e.index_set)): e for e in result.eliminated}
    for extra in (5, 6, 7, 8):
        e = reasons[(2, 3, extra)]
        assert e.condition == "symmetry"
        assert e.corpus_position == 1
        assert e.witness == {"x": "a", "y": "b"}


def test_filter_survivor_tables_match_the_named_terms():
    omls = (corpus.builtin("boolean_2"), corpus.builtin("mo2"))
    result = filter_symmetric_difference_terms(omls)
    for cls, ref in zip(result.survivors, (T1, T2)):
        for pos, oml in enumerate(omls):
            assert cls.tables[pos] == term_function(ref, oml)


def _reference_condition(table, oml):
    """The filter's three conditions as plain loops, in the filter's order:
    symmetry in x, y; value x' at y = 1; the join on orthogonal pairs."""
    n, els, comp, leq = oml.n, oml.elements, oml.comp, oml.poset.leq
    for x in range(n):
        for y in range(x + 1, n):
            if table[x][y] != table[y][x]:
                return "symmetry", {"x": els[x], "y": els[y]}
    for x in range(n):
        if table[x][oml.poset.top] != comp[x]:
            return "complement-at-one", {"x": els[x]}
    for x in range(n):
        for y in range(n):
            if leq[x][comp[y]] and table[x][y] != oml.join[x][y]:
                return "orthogonal-join", {"x": els[x], "y": els[y]}
    return None


def test_filter_conditions_match_the_reference_on_every_term():
    for name in corpus.OML_NAMES:
        oml = corpus.builtin(name)
        for t in enumerate_canonical_terms():
            table = term_function(t, oml)
            assert terms._table_condition(table, oml) == _reference_condition(table, oml), (
                name, format_term(t))


def test_filter_conditions_match_the_reference_on_mutants():
    # t1 and t2 tables with one to three cells changed, each change mirrored
    # half of the time so that symmetric tables fail the later conditions
    rng = random.Random(2718)
    omls = [corpus.builtin(name) for name in ("boolean_2", "mo2", "boolean_3", "mo3")]
    failed = dict.fromkeys(("symmetry", "complement-at-one", "orthogonal-join"), 0)
    for _ in range(1500):
        oml = rng.choice(omls)
        rows = [list(row) for row in term_function(rng.choice((T1, T2)), oml)]
        for _ in range(rng.randint(1, 3)):
            x, y, v = rng.randrange(oml.n), rng.randrange(oml.n), rng.randrange(oml.n)
            rows[x][y] = v
            if rng.random() < 0.5:
                rows[y][x] = v
        table = tuple(map(tuple, rows))
        expected = _reference_condition(table, oml)
        assert terms._table_condition(table, oml) == expected, (oml.elements, table)
        if expected is not None:
            failed[expected[0]] += 1
    assert min(failed.values()) >= 20, failed


def _reference_filter(omls):
    """The filter written out: judge every term on every member in order,
    then group the survivors by their tables, classes in the order of
    their first members."""
    ts, sets = enumerate_canonical_terms(), canonical_index_sets()
    eliminated, survivors = [], []
    for ti, t in enumerate(ts):
        tables = [term_function(t, oml) for oml in omls]
        for ci, (table, oml) in enumerate(zip(tables, omls)):
            failure = _reference_condition(table, oml)
            if failure is not None:
                eliminated.append(terms.Elimination(ti, sets[ti], failure[0], ci, failure[1]))
                break
        else:
            survivors.append((ti, tuple(tables)))
    groups = {}
    for ti, tables in survivors:
        groups.setdefault(tables, []).append(ti)
    classes = [terms.SurvivorClass(tuple(members), tuple(sets[ti] for ti in members),
                                   tuple(ts[ti] for ti in members), tables)
               for tables, members in sorted(groups.items(), key=lambda kv: kv[1][0])]
    return terms.FilterResult(tuple(classes), tuple(eliminated))


def test_filter_result_matches_a_per_term_reference():
    for names in (corpus.FILTER_CORPUS, corpus.FILTER_CORPUS[::-1],
                  ("mo3",), ("mo2", "boolean_2")):
        omls = tuple(corpus.builtin(name) for name in names)
        assert filter_symmetric_difference_terms(omls) == _reference_filter(omls), names
    basis, joins = basis_terms(), []
    for idx_set in canonical_index_sets():
        t = terms.Const(0)
        for k, i in enumerate(sorted(idx_set)):
            t = basis[i - 1] if k == 0 else terms.Join(t, basis[i - 1])
        joins.append(t)
    assert enumerate_canonical_terms() == tuple(joins)


def test_filter_rejects_empty_corpus():
    with pytest.raises(EmptyCorpus):
        filter_symmetric_difference_terms(())


def test_chain_on_mo2():
    mo2 = corpus.builtin("mo2")
    chain, hat_equals_t2, witness = chain_check(mo2)
    assert chain
    assert hat_equals_t2
    assert witness is not None  # t1 != t2
    assert not is_distributive(mo2)[0]
    assert witness == {"x": "a", "y": "b", "t1": "0", "t2": "1"}


def test_chain_on_boolean_3():
    b3 = corpus.builtin("boolean_3")
    chain, hat_equals_t2, witness = chain_check(b3)
    assert chain
    assert hat_equals_t2
    assert witness is None  # t1 = t2
    assert is_distributive(b3)[0]


def _reference_value(t, oml, x, y):
    """A term's value at one index pair, by plain recursion on the node."""
    if isinstance(t, terms.Var):
        return x if t.name == "x" else y
    if isinstance(t, terms.Const):
        return oml.poset.top if t.value else oml.poset.bottom
    if isinstance(t, terms.Comp):
        return oml.comp[_reference_value(t.arg, oml, x, y)]
    table = oml.meet if isinstance(t, terms.Meet) else oml.join
    return table[_reference_value(t.left, oml, x, y)][_reference_value(t.right, oml, x, y)]


def _shuffled_product(seed):
    """mo2 x boolean_2 with its elements listed in a seeded random order."""
    oml = lattice.direct_product(corpus.builtin("mo2"), corpus.builtin("boolean_2"))
    els = list(oml.elements)
    random.Random(seed).shuffle(els)
    pairs = [(a, b) for a, ua in zip(oml.elements, oml.poset.up)
             for y, b in enumerate(oml.elements) if ua >> y & 1]
    poset = lattice.build_poset(els, pairs)
    pos = {lab: i for i, lab in enumerate(poset.elements)}
    comp = [pos[oml.elements[oml.comp[oml.index(lab)]]] for lab in poset.elements]
    return lattice.check_oml(poset, comp)[1]


def test_term_tables_match_a_per_pair_reference():
    omls = (corpus.builtin("mo2"), corpus.builtin("boolean_3"), _shuffled_product(31))
    for oml in omls:
        els = oml.elements
        for t in enumerate_canonical_terms() + (T1, THAT, T2):
            table = term_function(t, oml)
            assert table == tuple(
                tuple(_reference_value(t, oml, x, y) for y in range(oml.n))
                for x in range(oml.n)), (els, format_term(t))
            for x in range(oml.n):
                for y in range(oml.n):
                    assert eval_term(t, oml, els[x], els[y]) == els[table[x][y]]
