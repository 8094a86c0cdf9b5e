"""Posets, lattice tables and the orthomodular checks."""

from dataclasses import fields
from fractions import Fraction
from itertools import product

import pytest

from omlkit import corpus
from omlkit.errors import CycleError, NoBoundsError, UnknownLabel, ValidationError
from omlkit.lattice import (
    build_poset,
    check_oml,
    direct_product,
    is_distributive,
    lattice_tables,
)

DIAMOND = (["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])


def test_build_poset_closure():
    poset = build_poset(["0", "x", "y", "1"], [("0", "x"), ("x", "y"), ("y", "1")])
    i = {lab: k for k, lab in enumerate(poset.elements)}
    assert poset.leq[i["0"]][i["1"]]
    assert poset.leq[i["x"]][i["1"]]
    assert not poset.leq[i["1"]][i["x"]]
    assert poset.elements[poset.bottom] == "0"
    assert poset.elements[poset.top] == "1"


def test_build_poset_bottom_is_first():
    # the bottom moves to index 0, the others keep their order and relations
    for labels in (DIAMOND[0], ["a", "0", "b", "1"], ["1", "a", "b", "0"],
                   ["a", "1", "0", "b"]):
        poset = build_poset(labels, DIAMOND[1])
        assert poset.bottom == 0
        assert poset.elements == ("0", *(lab for lab in labels if lab != "0"))
        assert poset.elements[poset.top] == "1"
        pos = {lab: i for i, lab in enumerate(poset.elements)}
        below = {*DIAMOND[1], ("0", "1"), *((lab, lab) for lab in labels)}
        assert poset.up == tuple(sum(1 << pos[b] for a, b in below if a == lab)
                                 for lab in poset.elements)


def test_cycle_rejected():
    with pytest.raises(CycleError):
        build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


def test_two_maximal_elements_rejected():
    with pytest.raises(NoBoundsError):
        build_poset(["0", "a", "b"], [("0", "a"), ("0", "b")])


def test_singleton_poset_rejected():
    # bottom and top must differ
    with pytest.raises(NoBoundsError):
        build_poset(["x"], [])


def test_lattice_tables_diamond():
    poset = build_poset(*DIAMOND)
    meet, join, bad = lattice_tables(poset.elements, poset.up)
    assert bad is None
    i = {lab: k for k, lab in enumerate(poset.elements)}
    assert meet[i["a"]][i["b"]] == i["0"]
    assert join[i["a"]][i["b"]] == i["1"]


def test_lattice_tables_failure_witness():
    # two atoms under two coatoms: a v b has no least upper bound
    poset = build_poset(
        ["0", "a", "b", "c", "d", "1"],
        [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"),
         ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")],
    )
    meet, join, bad = lattice_tables(poset.elements, poset.up)
    assert meet is None and join is None
    assert bad == ("join", ("a", "b"))


@pytest.mark.parametrize("name", corpus.OML_NAMES)
def test_corpus_members_pass_all_laws(name):
    oml = corpus.builtin(name)
    comp = {lab: oml.elements[oml.comp[i]] for i, lab in enumerate(oml.elements)}
    verdict, got = check_oml(oml.poset, comp)
    assert verdict.passed
    assert got == oml
    assert list(verdict.checked) == [
        "meet-exists", "join-exists", "involution", "antitone",
        "complement-law", "orthomodular-law",
    ]


def test_hexagon_fails_orthomodular_law():
    poset, comp = corpus.o6_candidate()
    verdict, oml = check_oml(poset, comp)
    assert not verdict.passed and oml is None
    assert verdict.failures[0].law == "orthomodular-law"
    assert verdict.failures[0].witness == {"x": "b", "y": "a"}


def test_identity_complement_rejected():
    poset = build_poset(*DIAMOND)
    verdict, _ = check_oml(poset, {lab: lab for lab in poset.elements})
    assert not verdict.passed
    assert verdict.failures[0].law in ("antitone", "complement-law")


def test_complement_map_must_cover_all_labels():
    poset = build_poset(*DIAMOND)
    with pytest.raises(UnknownLabel):
        check_oml(poset, {"0": "1", "1": "0"})
    with pytest.raises(UnknownLabel):
        check_oml(poset, {"0": "1", "1": "0", "a": "b", "b": "a", "q": "q"})


def test_label_helpers_mo2():
    mo2 = corpus.builtin("mo2")
    els, i = mo2.elements, mo2.index
    assert els[mo2.meet[i("a")][i("b")]] == "0"
    assert els[mo2.join[i("a")][i("b")]] == "1"
    assert els[mo2.meet[i("a")][i("1")]] == "a"
    assert els[mo2.comp[i("a")]] == "a'"
    assert els[mo2.comp[i("0")]] == "1"


def test_orthogonality():
    mo2 = corpus.builtin("mo2")
    a, a_, b = mo2.index("a"), mo2.index("a'"), mo2.index("b")
    # orthogonal_rows[x] lists the y >= x (in index order) below x'
    assert max(a, a_) in mo2.orthogonal_rows[min(a, a_)]
    assert max(a, b) not in mo2.orthogonal_rows[min(a, b)]


def test_direct_product_shape():
    b2 = corpus.builtin("boolean_2")
    mo2 = corpus.builtin("mo2")
    prod = direct_product(b2, mo2)
    assert prod.n == b2.n * mo2.n
    assert prod.elements[prod.poset.bottom] == "({},0)"
    assert prod.elements[prod.poset.top] == "({1,2},1)"
    # componentwise complement
    i = prod.index("({1},a)")
    assert prod.elements[prod.comp[i]] == "({2},a')"


@pytest.mark.parametrize("names", [("mo2", "boolean_2"), ("boolean_2", "mo1", "mo2"),
                                   ("boolean_3", "mo3")])
def test_direct_product_order_is_componentwise(names):
    factors = [corpus.builtin(name) for name in names]
    prod = factors[0]
    for f in factors[1:]:
        prod = direct_product(prod, f)
    # element k of the product is the k-th tuple of factor indices
    tuples = list(product(*(range(f.n) for f in factors)))
    assert prod.poset.up == tuple(
        sum(1 << k for k, ys in enumerate(tuples)
            if all(f.poset.leq[x][y] for f, x, y in zip(factors, xs, ys)))
        for xs in tuples)


@pytest.mark.parametrize("name", corpus.OML_NAMES)
def test_leq_is_a_view_of_the_up_masks(name):
    poset = corpus.builtin(name).poset
    assert [f.name for f in fields(poset)] == ["elements", "up", "bottom", "top"]
    assert all(poset.leq[i][j] == bool(poset.up[i] >> j & 1)
               for i in range(poset.n) for j in range(poset.n))


def test_product_distributivity_mixes():
    b2 = corpus.builtin("boolean_2")
    mo2 = corpus.builtin("mo2")
    assert is_distributive(direct_product(b2, b2))[0]
    assert not is_distributive(direct_product(b2, mo2))[0]


def test_is_distributive_witness():
    mo2 = corpus.builtin("mo2")
    flag, witness = is_distributive(mo2)
    assert not flag
    x, y, z = map(mo2.index, witness)
    meet, join = mo2.meet, mo2.join
    # the witness triple really violates the distributive law
    assert meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]


def test_boolean_members_are_distributive():
    for name in corpus.OML_NAMES:
        oml = corpus.builtin(name)
        expected = name.startswith("boolean") or name == "mo1"
        assert is_distributive(oml)[0] is expected, name
