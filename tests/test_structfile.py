"""Structure file parsing, serialization and the shipped fixtures."""

from pathlib import Path

import pytest

from omlkit import corpus, states, structfile
from omlkit.errors import ParseError, UnknownLabel, ValidationError
from omlkit.lattice import check_oml
from omlkit.rlse import check_rlse
from omlkit.structfile import (
    from_events,
    from_oml,
    from_rlse,
    parse_structure,
    serialize_structure,
    to_events,
    to_oml_input,
    to_rlse,
)

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.mark.parametrize("name", corpus.OML_NAMES)
def test_oml_round_trip(name):
    oml = corpus.builtin(name)
    sf = parse_structure(serialize_structure(from_oml(oml)))
    poset, comp = to_oml_input(sf)
    verdict, got = check_oml(poset, comp)
    assert verdict.passed
    assert got == oml


def test_rlse_round_trip():
    r = corpus.builtin("paper-example-2set")
    sf = parse_structure(serialize_structure(from_rlse(r)))
    assert to_rlse(sf) == r


def test_events_round_trip():
    mo2 = corpus.builtin("mo2")
    ev = states.events_from_states(mo2, states.find_full_state_set(mo2).states)
    again = to_events(parse_structure(serialize_structure(from_events(ev))))
    assert again == ev


def test_states_round_trip():
    mo2 = corpus.builtin("mo2")
    found = states.find_full_state_set(mo2).states
    sf = parse_structure(serialize_structure(from_oml(mo2, found)))
    assert sf.states == tuple(s.values for s in found)


def test_shipped_paper_example_matches_builtin():
    text = (DATA / "paper-example-2set.txt").read_text()
    r = to_rlse(parse_structure(text))
    assert r == corpus.builtin("paper-example-2set")
    assert check_rlse(r).passed


def test_shipped_hexagon_fails_the_lattice_check():
    text = (DATA / "o6.txt").read_text()
    poset, comp = to_oml_input(parse_structure(text))
    verdict, oml = check_oml(poset, comp)
    assert not verdict.passed and oml is None
    assert verdict.failures[0].law == "orthomodular-law"


def test_kind_line_required():
    with pytest.raises(ParseError) as info:
        parse_structure("ELEMENTS\na b\n")
    assert info.value.line == 1


def test_unknown_kind():
    with pytest.raises(ParseError):
        parse_structure("KIND magma\n")


def test_empty_file():
    with pytest.raises(ParseError):
        parse_structure("")
    with pytest.raises(ParseError):
        parse_structure("# only a comment\n")


def test_section_restrictions():
    with pytest.raises(ParseError):
        parse_structure("KIND oml\nELEMENTS\n0 1\nOPLUS\n0 1\n1 0\n")


def test_duplicate_section():
    with pytest.raises(ParseError):
        parse_structure("KIND oml\nELEMENTS\n0 1\nELEMENTS\n0 1\n")


def test_content_before_section():
    with pytest.raises(ParseError) as info:
        parse_structure("KIND oml\n0 1\n")
    assert info.value.line == 2


def test_duplicate_labels():
    with pytest.raises(ParseError):
        parse_structure("KIND oml\nELEMENTS\n0 0 1\nCOVERS\n0 1\nCOMPLEMENT\n0 1\n")


def test_missing_sections():
    with pytest.raises(ParseError):
        parse_structure("KIND oml\nELEMENTS\n0 1\nCOMPLEMENT\n0 1\n1 0\n")
    with pytest.raises(ParseError):
        parse_structure("KIND oml\nELEMENTS\n0 1\nCOVERS\n0 1\n")


def test_cover_pairs_need_two_labels():
    with pytest.raises(ParseError):
        parse_structure("KIND oml\nELEMENTS\n0 1\nCOVERS\n0 1 1\n"
                        "COMPLEMENT\n0 1\n1 0\n")


def test_state_rows_need_full_width():
    text = ("KIND oml\nELEMENTS\n0 1\nCOVERS\n0 1\nCOMPLEMENT\n0 1\n1 0\n"
            "STATES\n0 1 1\n")
    with pytest.raises(ParseError) as info:
        parse_structure(text)
    assert info.value.line == 10


def test_bad_rational():
    text = ("KIND oml\nELEMENTS\n0 1\nCOVERS\n0 1\nCOMPLEMENT\n0 1\n1 0\n"
            "STATES\n0 x\n")
    with pytest.raises(ParseError):
        parse_structure(text)


def test_rational_forms_accepted():
    text = ("KIND oml\nELEMENTS\n0 1\nCOVERS\n0 1\nCOMPLEMENT\n0 1\n1 0\n"
            "STATES\n0 2/2\n")
    sf = parse_structure(text)
    assert sf.states[0][1] == 1


def test_comments_and_blank_lines_ignored():
    text = ("# header\nKIND oml\n\nELEMENTS\n0 1  # trailing\nCOVERS\n0 1\n"
            "COMPLEMENT\n0 1\n1 0\n")
    sf = parse_structure(text)
    assert sf.elements == ("0", "1")


def test_unknown_complement_label():
    text = "KIND oml\nELEMENTS\n0 1\nCOVERS\n0 1\nCOMPLEMENT\n0 q\n1 0\n"
    with pytest.raises(ValidationError):
        to_oml_input(parse_structure(text))


def test_conflicting_complement_pairs():
    text = ("KIND oml\nELEMENTS\n0 a 1\nCOVERS\n0 a\na 1\n"
            "COMPLEMENT\n0 1\n0 a\na a\n1 0\n")
    with pytest.raises(ValidationError):
        to_oml_input(parse_structure(text))


def test_rlse_zero_one_default_to_first_and_last():
    r = corpus.builtin("paper-example-2set")
    text = serialize_structure(from_rlse(r))
    stripped = "\n".join(line for line in text.splitlines()
                         if not line.startswith(("ZERO", "ONE")))
    assert to_rlse(parse_structure(stripped)) == r


def test_rlse_table_must_be_square():
    text = "KIND rlse\nELEMENTS\n0 1\nOPLUS\n0 1\nTIMES\n0 0\n0 1\n"
    with pytest.raises(ParseError):
        parse_structure(text)


def test_events_rows_must_cover_elements():
    text = "KIND events\nELEMENTS\np q\nEVENTS\np 0 0\n"
    with pytest.raises(ParseError):
        parse_structure(text)


def test_events_row_width_consistent():
    text = "KIND events\nELEMENTS\np q\nEVENTS\np 0 0\nq 1\n"
    with pytest.raises(ParseError):
        parse_structure(text)


def test_kind_mismatch_at_build_time():
    sf = parse_structure("KIND rlse\nELEMENTS\n0 1\nOPLUS\n0 1\n1 0\n"
                         "TIMES\n0 0\n0 1\n")
    with pytest.raises(ValidationError):
        to_oml_input(sf)
    with pytest.raises(ValidationError):
        to_events(sf)


def test_serializer_wraps_long_element_lines():
    prod = corpus.builtin("product_2p4_mo2")
    text = serialize_structure(from_oml(prod))
    sf = parse_structure(text)
    assert len(sf.elements) == 96
    assert max(len(line) for line in text.splitlines()) < 200
