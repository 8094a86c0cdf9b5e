"""Structure file parsing, serialization and the shipped fixtures."""

from pathlib import Path

import pytest

from omlkit import corpus, states, structfile
from omlkit.errors import MalformedTable, ParseError, UnknownLabel, ValidationError
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
    assert sf.states == found


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


@pytest.mark.parametrize("elements, comp", [("0 a b 1", (3, 2, 1, 0)),
                                            ("1 a b 0", (1, 0, 3, 2))])
def test_an_element_without_a_complement_pair_is_named(elements, comp):
    # comp follows the poset's order, which lists the bottom first; so
    # does the search for the first element without a pair
    text = (f"KIND oml\nELEMENTS\n{elements}\nCOVERS\n0 a\n0 b\na 1\nb 1\n"
            "COMPLEMENT\nb a\n0 1\n")
    assert to_oml_input(parse_structure(text))[1] == comp
    with pytest.raises(ValidationError) as info:
        to_oml_input(parse_structure(text.replace("0 1\n", "")))
    assert str(info.value) == "element '0' has no complement pair"


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


def _ring_text(oplus="a b\nb a", times="a a\na b", zero="a", one="b", elements="a b"):
    return (f"KIND rlse\nELEMENTS\n{elements}\nZERO {zero}\nONE {one}\n"
            f"OPLUS\n{oplus}\nTIMES\n{times}\n")


@pytest.mark.parametrize("text, error, message", [
    # parse errors come first, then ZERO, ONE, the first bad OPLUS entry
    # and the first bad TIMES entry
    (_ring_text(oplus="a q\nb a", times="a a\na"), ParseError,
     "a TIMES row needs 2 labels, got 1 at line 11, column 1"),
    (_ring_text(oplus="a q\nb a", zero="z"), UnknownLabel, "unknown element label: 'z'"),
    (_ring_text(one="u"), UnknownLabel, "unknown element label: 'u'"),
    (_ring_text(oplus="a q\nb a", times="a a\nz b"), MalformedTable,
     "oplus table entry 'q' is not an element"),
    (_ring_text(times="a a\na z"), MalformedTable, "times table entry 'z' is not an element"),
    (_ring_text(elements="a a"), ParseError, "duplicate element label at line 3, column 3"),
    (_ring_text(zero="a b"), ParseError, "ZERO takes exactly one label at line 4, column 1"),
], ids=["short-row", "unknown-zero", "unknown-one", "unknown-oplus", "unknown-times",
        "duplicate-label", "two-zeros"])
def test_malformed_ring_files_raise_in_order(text, error, message):
    with pytest.raises(error) as info:
        to_rlse(parse_structure(text))
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("text, message, line, column", [
    ("KIND IN\n", "unknown kind 'IN'", 1, 6),
    ("KIND rlse\nELEMENTS\na b\nOPLUS O\n", "section header takes no arguments", 4, 7),
    ("KIND oml\nELEMENTS S\n", "section header takes no arguments", 2, 10),
    ("KIND oml\nELEMENTS\n0 1\nCOVERS\n0 1\nCOMPLEMENT\n0 1\nSTATES\n11/2 1/\n",
     "not a rational number: '1/'", 9, 6),
    ("KIND events\nELEMENTS\np q\nEVENTS\np 11/3 1/\nq 1 1\n",
     "not a rational number: '1/'", 5, 8),
    # a label repeated on a later line, and a short section the file does not end with
    ("KIND oml\nELEMENTS\n0 a\na 1\nCOVERS\n0 a\na 1\nCOMPLEMENT\n0 1\n",
     "duplicate element label", 4, 1),
    ("KIND rlse\nELEMENTS\n0 1\nOPLUS\n0 1\nTIMES\n0 0\n0 1\n",
     "OPLUS needs 2 rows, got 1", 4, 1),
], ids=["kind", "oplus-header", "elements-header", "states-row", "events-row",
        "duplicate-label", "short-section"])
def test_parse_errors_point_at_their_own_token(text, message, line, column):
    # each token's text also occurs earlier in its line
    with pytest.raises(ParseError) as info:
        parse_structure(text)
    assert (str(info.value), info.value.line, info.value.column) == (
        f"{message} at line {line}, column {column}", line, column)


def test_leq_pairs_are_written_back():
    text = ("KIND oml\nELEMENTS\n0 a b 1\nCOVERS\n0 a\n0 b\nLEQ\na 1\nb 1\n"
            "COMPLEMENT\n0 1\na b\n")
    sf = parse_structure(text)
    assert "\nLEQ\na 1\nb 1\n" in serialize_structure(sf)
    assert parse_structure(serialize_structure(sf)) == sf


def test_events_rows_must_name_the_elements():
    text = "KIND events\nELEMENTS\np q\nEVENTS\np 0 0\nz 1 1\n"
    with pytest.raises(ValidationError) as info:
        to_events(parse_structure(text))
    assert type(info.value) is ValidationError
    assert str(info.value) == "no EVENTS row for element 'q'"


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
    oml = parse_structure((DATA / "o6.txt").read_text())
    with pytest.raises(ValidationError, match="^expected an rlse file, got oml$"):
        to_rlse(oml)


def test_serializer_wraps_long_element_lines():
    prod = corpus.builtin("product_2p4_mo2")
    text = serialize_structure(from_oml(prod))
    sf = parse_structure(text)
    assert len(sf.elements) == 96
    assert max(len(line) for line in text.splitlines()) < 200
