"""Compiled-in example structures used by tests and the command line.

Available through builtin():

  boolean_1 .. boolean_5   powerset algebras of {1..n}
  mo1 .. mo4               height-two lattices with n incomparable atom pairs
  product_2p4_mo2          boolean_4 x mo2, 96 elements
  paper-example-2set       an event ring on the powerset of {1,2} whose
                           addition is not a Boolean ring addition

The hexagon ortholattice (a known non-orthomodular example) is exposed
separately via o6_candidate, since it cannot be a validated lattice.
"""

from __future__ import annotations

from functools import lru_cache

from . import lattice as _lat
from .errors import UnknownName
from .lattice import FiniteOml, FinitePoset, check_oml, direct_product

__all__ = [
    "builtin",
    "all_names",
    "o6_candidate",
    "product_generating_pair",
]

#: Names of the validated lattice entries, small to large.
OML_NAMES = (
    "boolean_1", "boolean_2", "boolean_3", "boolean_4", "boolean_5",
    "mo1", "mo2", "mo3", "mo4",
    "product_2p4_mo2",
)

RLSE_NAMES = ("paper-example-2set",)

#: Corpus for the term filter; small members come first so cheap
#: eliminations happen before the big product is consulted.
FILTER_CORPUS = ("boolean_2", "mo2", "boolean_3", "product_2p4_mo2")


def all_names() -> tuple[str, ...]:
    return OML_NAMES + RLSE_NAMES


def _set_label(mask: int) -> str:
    return "{" + ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


def _boolean(n: int) -> FiniteOml:
    size = 1 << n
    labels = [_set_label(m) for m in range(size)]
    rows = [_lat._mask(i | j == j for j in range(size)) for i in range(size)]
    poset = _lat._poset_from_masks(labels, rows)
    _, oml = check_oml(poset, [(size - 1) ^ i for i in range(size)])
    assert oml is not None
    return oml


def _mo(n: int) -> FiniteOml:
    atoms = []
    for letter in "abcd"[:n]:
        atoms += [letter, letter + "'"]
    labels = ["0"] + atoms + ["1"]
    size = len(labels)
    # i <= j when i is j, i the bottom or j the top
    rows = [_lat._mask(i in (0, j) or j == size - 1 for j in range(size)) for i in range(size)]
    poset = _lat._poset_from_masks(labels, rows)
    # 0 and 1 swap, and so does each atom x (odd index) with x' after it
    comp = [size - 1, *(i + 1 if i % 2 else i - 1 for i in range(1, size - 1)), 0]
    _, oml = check_oml(poset, comp)
    assert oml is not None
    return oml


def _paper_example() -> RlseTables:
    from .rlse import RlseTables

    # Powerset of {1,2}; A+B is the whole set when A = B is a singleton,
    # otherwise the symmetric difference.  Multiplication is intersection.
    labels = [_set_label(m) for m in range(4)]
    oplus = []
    for a in range(4):
        row = []
        for b in range(4):
            if a == b and a in (1, 2):
                row.append(3)
            else:
                row.append(a ^ b)
        oplus.append(tuple(row))
    times = tuple(tuple(a & b for b in range(4)) for a in range(4))
    return RlseTables(tuple(labels), tuple(oplus), times, 0, 3)


@lru_cache(maxsize=None)
def builtin(name: str):
    """Return a compiled-in structure by name.

    Lattice names give a FiniteOml, event-ring names an RlseTables.
    Results are cached, so repeated lookups share one validated object.
    """
    if name.startswith("boolean_"):
        try:
            n = int(name[len("boolean_"):])
        except ValueError:
            raise UnknownName(name) from None
        if 1 <= n <= 5:
            return _boolean(n)
    if name.startswith("mo"):
        try:
            n = int(name[2:])
        except ValueError:
            raise UnknownName(name) from None
        if 1 <= n <= 4:
            return _mo(n)
    if name == "product_2p4_mo2":
        return direct_product(_boolean(4), _mo(2))
    if name == "paper-example-2set":
        return _paper_example()
    raise UnknownName(name)


def product_generating_pair() -> tuple[str, str]:
    """The designated pair in product_2p4_mo2 on which the 96 canonical
    terms take pairwise distinct values.

    The four atoms of the Boolean factor realize the four meet patterns
    x^y, x^y', x'^y, x'^y' of the pair, and the mo2 coordinates are the
    two incomparable atoms a and b.
    """
    return "({3,4},a)", "({2,4},b)"


def o6_candidate() -> tuple[FinitePoset, tuple[int, ...]]:
    """The hexagon: two three-element chains glued at shared bounds.

    An ortholattice that fails the orthomodular law, as the arguments of
    check_oml; shipped purely as a negative control for it.
    """
    poset = _lat.build_poset(
        ["0", "a", "b", "b'", "a'", "1"],
        [("0", "a"), ("a", "b"), ("b", "1"),
         ("0", "b'"), ("b'", "a'"), ("a'", "1")],
    )
    return poset, (5, 4, 3, 2, 1, 0)  # 0, a and b swap with 1, a' and b'
