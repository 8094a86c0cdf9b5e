"""The builtin structures: sizes, labels and the 2-set example tables."""

import pytest

from omlkit import corpus
from omlkit.errors import UnknownName
from omlkit.lattice import FiniteOml, check_oml
from omlkit.rlse import RlseTables, check_rlse

EXPECTED_SIZES = {
    "boolean_1": 2, "boolean_2": 4, "boolean_3": 8, "boolean_4": 16,
    "boolean_5": 32,
    "mo1": 4, "mo2": 6, "mo3": 8, "mo4": 10,
    "product_2p4_mo2": 96,
}


def test_name_lists():
    assert set(corpus.OML_NAMES) == set(EXPECTED_SIZES)
    assert corpus.RLSE_NAMES == ("paper-example-2set",)
    assert set(corpus.all_names()) == set(EXPECTED_SIZES) | {"paper-example-2set"}


@pytest.mark.parametrize("name,size", sorted(EXPECTED_SIZES.items()))
def test_sizes(name, size):
    assert corpus.builtin(name).n == size


def test_unknown_name():
    # the last four are names an int() parse would read as boolean_3 and mo2
    for name in ("boolean_0", "boolean_x", "mox", "mo5", "boolean_6", "mo0",
                 "boolean_03", "boolean_ 3", "mo+2", "mo\u0662"):
        with pytest.raises(UnknownName) as info:
            corpus.builtin(name)
        assert str(info.value) == f"unknown builtin structure: {name!r}"


def test_builtin_is_cached():
    assert corpus.builtin("mo2") is corpus.builtin("mo2")


def test_every_name_builds_in_order_once():
    names = corpus.all_names()
    assert names == (*corpus.OML_NAMES, *corpus.RLSE_NAMES) == (
        "boolean_1", "boolean_2", "boolean_3", "boolean_4", "boolean_5",
        "mo1", "mo2", "mo3", "mo4", "product_2p4_mo2", "paper-example-2set")
    for name in names:
        assert corpus.builtin(name) is corpus.builtin(name)
    assert all(isinstance(corpus.builtin(n), FiniteOml) for n in corpus.OML_NAMES)
    assert all(isinstance(corpus.builtin(n), RlseTables) for n in corpus.RLSE_NAMES)


def test_boolean_labels_are_subsets():
    b3 = corpus.builtin("boolean_3")
    assert b3.elements[0] == "{}"
    assert "{1,3}" in b3.elements
    assert b3.elements[-1] == "{1,2,3}"
    # complement really is set complement
    i = b3.index("{1,3}")
    assert b3.elements[b3.comp[i]] == "{2}"


def test_mo_labels():
    assert corpus.builtin("mo2").elements == ("0", "a", "a'", "b", "b'", "1")
    mo4 = corpus.builtin("mo4")
    assert mo4.elements == ("0", "a", "a'", "b", "b'", "c", "c'", "d", "d'", "1")
    # atoms are pairwise incomparable
    a, b = mo4.index("a"), mo4.index("b")
    leq = mo4.poset.leq
    assert not leq[a][b] and not leq[b][a]


def test_mo1_is_the_four_element_boolean_algebra():
    mo1 = corpus.builtin("mo1")
    b2 = corpus.builtin("boolean_2")
    # same shape up to labels: one atom pair
    assert mo1.n == b2.n == 4


def test_product_member():
    prod = corpus.builtin("product_2p4_mo2")
    assert prod.n == 96
    assert prod.elements[prod.poset.bottom] == "({},0)"
    assert prod.elements[prod.poset.top] == "({1,2,3,4},1)"


def test_product_generating_pair_exists():
    prod = corpus.builtin("product_2p4_mo2")
    x, y = corpus.product_generating_pair()
    xi, yi = prod.index(x), prod.index(y)
    leq = prod.poset.leq
    assert not leq[xi][yi] and not leq[yi][xi]


def test_paper_example_tables():
    r = corpus.builtin("paper-example-2set")
    assert r.elements == ("{}", "{1}", "{2}", "{1,2}")
    add = lambda a, b: r.elements[r.oplus[r.index(a)][r.index(b)]]
    mul = lambda a, b: r.elements[r.times[r.index(a)][r.index(b)]]
    # the modified diagonal: a singleton plus itself gives the whole set
    assert add("{1}", "{1}") == "{1,2}"
    assert add("{2}", "{2}") == "{1,2}"
    # everywhere else plain symmetric difference
    assert add("{}", "{}") == "{}"
    assert add("{1,2}", "{1,2}") == "{}"
    assert add("{1}", "{2}") == "{1,2}"
    assert add("{1}", "{1,2}") == "{2}"
    # multiplication is intersection
    assert mul("{1}", "{1,2}") == "{1}"
    assert mul("{1}", "{2}") == "{}"
    assert check_rlse(r).passed


def test_o6_candidate_is_not_orthomodular():
    poset, comp = corpus.o6_candidate()
    assert len(poset.elements) == 6
    verdict, oml = check_oml(poset, comp)
    assert not verdict.passed and oml is None
    assert verdict.failures[0].law == "orthomodular-law"
