"""Finite bounded posets and orthomodular lattices, table-based.

Elements are kept as dense indices 0..n-1 with a label per index; the bottom
element sits at index 0 after loading.  The order is held as bitmasks, one
per element, and meet and join as index tables computed from them, one
lookup of the intersection of two masks per bound (lattice_tables, which
also serves the pointwise order of event vectors).  build_poset closes
the given pairs with Warshall's algorithm, one pass over the elements,
and the validation reads antisymmetry and the top from one transpose of
the masks.
check_oml takes the complement as an index vector, like every table here,
and returns a Verdict over the lattice laws of laws.LAWS; each law is
scanned row by row with laws.scan, so a failure carries the
lexicographically first witness; is_distributive scans only the row of
the first element that is not central (_central, three row compositions
per element).

Public tables are tuples of tuples.  The scans read a private copy of
their rows in the row type of the table's width (_width): bytes up to
256 elements, where composing two rows, [t[v] for v in a], is one
a.translate(t) in C, and tuples above that, composed by itemgetter.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import compress, count, repeat
from operator import eq, itemgetter

from .errors import (
    CycleError,
    NoBoundsError,
    OracleMismatch,
    UnknownLabel,
    ValidationError,
)
from .laws import Failure, collect, first_mismatch, scan

__all__ = [
    "FinitePoset",
    "FiniteOml",
    "build_poset",
    "check_oml",
    "direct_product",
    "lattice_tables",
    "is_distributive",
]


def _index(labels, label) -> int:
    """The position of label in the sequence labels, else UnknownLabel:
    the one lookup of an element label (index, event_of, a ring file's
    ZERO and ONE)."""
    try:
        return labels.index(label)
    except ValueError:
        raise UnknownLabel(label) from None


# FinitePoset and FiniteOml subclass a namedtuple rather than typing.NamedTuple
# so that their instances get a __dict__ for the cached views (leq,
# orthogonal_rows); equality and hashing stay those of the tuple.
class FinitePoset(namedtuple("FinitePoset", "elements up bottom top")):
    """A validated finite bounded poset.

    elements are the labels, up[i] is the bitmask of everything at or
    above element i (the only stored form of the order), bottom and top
    are indices.
    """

    @property
    def n(self) -> int:
        return len(self.elements)

    def index(self, label: str) -> int:
        return _index(self.elements, label)

    @cached_property
    def leq(self) -> tuple[tuple[bool, ...], ...]:
        """The order as a read-only boolean matrix derived from up:
        leq[i][j] is True iff element i is below element j."""
        return tuple(tuple(bool(m >> j & 1) for j in range(self.n)) for m in self.up)


def _bits(m: int):
    """The positions of the set bits of m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _transpose(rows: list[int]) -> list[int]:
    """Column masks of the square bit matrix with the given row masks."""
    cols = [0] * len(rows)
    for i, m in enumerate(rows):
        bit = 1 << i
        for j in _bits(m):
            cols[j] |= bit
    return cols


def _mask(flags) -> int:
    """The bitmask with bit i set where flags[i] is true; the one mask
    builder, for the builtin lattices (corpus) and the masks of tables
    wider than 256 elements (_Tuples)."""
    return sum(map((1).__lshift__, compress(count(), flags)))


# ---------------------------------------------------------------------------
# Rows of one width: every row scan is written once, against these helpers
# ---------------------------------------------------------------------------

#: Tables of at most this many elements are scanned as bytes rows.
_BYTE_WIDTH = 256


class _Bytes:
    """Rows as bytes, for at most 256 elements.  A row serves as the
    table of a composition once padded to 256 bytes (table), and
    compose(a, t) is [t[v] for v in a], one bytes.translate."""

    row = bytes
    compose = bytes.translate

    @staticmethod
    def table(row) -> bytes:
        return bytes(row).ljust(256, b"\0")

    @staticmethod
    def flags(row, i) -> bytes:
        """Where row reads i, as the digits 0 and 1."""
        return row.translate(b"0" * i + b"1" + b"0" * (255 - i))

    @staticmethod
    def mask(row, i) -> int:
        """The bitmask of the positions where row reads i."""
        return int(_Bytes.flags(row, i)[::-1], 2)

    @staticmethod
    def only(row, cond, i) -> bytes:
        """row where cond reads i, and 0 elsewhere."""
        keep = int.from_bytes(cond.translate(bytes(i) + b"\xff" + bytes(255 - i)), "big")
        return (int.from_bytes(row, "big") & keep).to_bytes(len(row), "big")


class _Tuples:
    """Rows as tuples, above 256 elements; a composition is one itemgetter."""

    row = table = tuple

    @staticmethod
    def compose(a, t) -> tuple:
        return itemgetter(*a)(t)  # a tuple, since a row here has more than one entry

    @staticmethod
    def flags(row, i) -> tuple:
        return tuple([v == i for v in row])

    @staticmethod
    def mask(row, i) -> int:
        return _mask(map(eq, row, repeat(i)))

    @staticmethod
    def only(row, cond, i) -> tuple:
        return tuple([v if c == i else 0 for v, c in zip(row, cond)])


def _width(n):
    """The row helper for tables of n elements: _Bytes or _Tuples."""
    return _Bytes if n <= _BYTE_WIDTH else _Tuples


def _pairs(rows, a, b) -> list:
    """[rows[u][v] for u, v in zip(a, b)]: a lookup by two rows at once,
    which no composition does."""
    return [rows[u][v] for u, v in zip(a, b)]


def _validate_poset(elements, rows) -> tuple[int, int]:
    """Check reflexivity, antisymmetry, transitivity, unique bounds.

    rows is a list of int bitmasks (row i = everything above i).
    Returns (bottom, top) indices.
    """
    n = len(elements)
    full = (1 << n) - 1
    for i in range(n):
        if not rows[i] & (1 << i):
            raise ValidationError(f"order not reflexive at {elements[i]!r}")
    cols = _transpose(rows)
    for i in range(n):
        # the j both above and below i; the lowest above i names the cycle
        both = (rows[i] & cols[i]) >> i + 1
        if both:
            raise CycleError((elements[i], elements[i + (both & -both).bit_length()]))
    for i in range(n):
        for j in _bits(rows[i]):
            if rows[j] & ~rows[i]:
                raise ValidationError(
                    f"order not transitive through {elements[i]!r} <= {elements[j]!r}"
                )
    bottoms = [i for i in range(n) if rows[i] == full]
    tops = [j for j, col in enumerate(cols) if col == full]
    if len(bottoms) != 1:
        raise NoBoundsError(f"poset has {len(bottoms)} minimum elements, wants 1")
    if len(tops) != 1:
        raise NoBoundsError(f"poset has {len(tops)} maximum elements, wants 1")
    if bottoms[0] == tops[0]:
        raise NoBoundsError("bottom equals top; the two-element chain is the smallest structure")
    return bottoms[0], tops[0]


def _poset_from_masks(elements, rows) -> FinitePoset:
    if len(set(elements)) != len(elements):
        raise ValidationError("duplicate element labels")
    bottom, top = _validate_poset(elements, rows)
    return FinitePoset(tuple(elements), tuple(rows), bottom, top)


def build_poset(labels, pairs) -> FinitePoset:
    """Build a poset from labels and order pairs (covers or any leq pairs).

    The reflexive-transitive closure is taken, then antisymmetry and the
    existence of unique bounds are verified.  The element order is kept
    except that the bottom element is moved to index 0.
    """
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate element labels")
    pos = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    rows = [1 << i for i in range(n)]
    for a, b in pairs:
        if a not in pos:
            raise UnknownLabel(a)
        if b not in pos:
            raise UnknownLabel(b)
        rows[pos[a]] |= 1 << pos[b]
    # Warshall's transitive closure: once the rows holding bit k have
    # taken in row k, every path through 0..k is closed.
    for k in range(n):
        bit, rk = 1 << k, rows[k]
        rows = [m | rk if m & bit else m for m in rows]
    bottom, top = _validate_poset(labels, rows)

    def moved(m):
        # bit bottom goes to 0 and the bits below it up by one
        low = m & (1 << bottom) - 1
        return m >> bottom + 1 << bottom + 1 | low << 1 | m >> bottom & 1

    order = [bottom, *range(bottom), *range(bottom + 1, n)]
    return FinitePoset(tuple(labels[i] for i in order),
                       tuple(moved(rows[i]) for i in order), 0, top + (top < bottom))


# ---------------------------------------------------------------------------
# Lattice tables and the orthomodular checks
# ---------------------------------------------------------------------------


# one entry: a ring's down-sets, bounded by rlse._semilattice, are those of
# the lattice it derives, whose lattice_tables comes next
@lru_cache(maxsize=1)
def _bounds(masks: tuple) -> list[list[int | None]]:
    """Per x, for each y >= x, the index of the mask masks[x] & masks[y], or None."""
    at = {m: i for i, m in enumerate(masks)}
    return [list(map(at.get, map(m.__and__, masks[x:]))) for x, m in enumerate(masks)]


def _mirrored(rows) -> tuple[tuple[int, ...], ...]:
    """The symmetric table whose row x holds rows[x] from column x on."""
    cols = list(zip(*([None] * x + row for x, row in enumerate(rows))))
    return tuple(col[:x] + tuple(row) for x, (col, row) in enumerate(zip(cols, rows)))


def lattice_tables(labels, up):
    """Compute meet and join tables from the order, or report a failure.

    up[i] is the bitmask of everything at or above element i, and labels
    names the elements.  Returns (meet, join, None) on success, where the
    tables are index-valued and row-major, or (None, None, (kind,
    (x_label, y_label))) naming the first pair without an infimum
    ("meet") or supremum ("join").

    The meet of x and y is the element whose down-set is down(x) &
    down(y), and the join the one whose up-set is up(x) & up(y)
    (Birkhoff, Lattice Theory, ch. I), so each bound is one lookup of a
    mask (_bounds).  up must be a partial order, so no two elements have
    the same mask.
    """
    meet, join = _bounds(tuple(_transpose(up))), _bounds(tuple(up))
    for x, (mx, jx) in enumerate(zip(meet, join)):
        if None in mx or None in jx:
            k = min(row.index(None) for row in (mx, jx) if None in row)
            return None, None, ("meet" if mx[k] is None else "join", (labels[x], labels[x + k]))
    return _mirrored(meet), _mirrored(join), None


class FiniteOml(namedtuple("FiniteOml", "poset meet join comp")):
    """A validated finite orthomodular lattice with precomputed tables.

    meet/join are n x n index tables, comp is an index vector.  Instances
    are produced by check_oml and compare equal iff all tables agree.
    """

    @property
    def elements(self) -> tuple[str, ...]:
        return self.poset.elements

    @property
    def n(self) -> int:
        return self.poset.n

    def index(self, label: str) -> int:
        return self.poset.index(label)

    @cached_property
    def orthogonal_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per x, the y >= x orthogonal to x, in index order; built once."""
        up, comp, n = self.poset.up, self.comp, self.n
        return tuple(tuple(y for y in range(x, n) if up[x] >> comp[y] & 1) for x in range(n))


def _complement_vector(comp, n) -> tuple:
    """comp as a tuple of n element indices, else ValidationError naming
    its length or its first entry that is not one."""
    comp = tuple(comp)
    if len(comp) != n:
        raise ValidationError(f"complement vector has {len(comp)} entries, wants {n}")
    for c in comp:
        if not (isinstance(c, int) and 0 <= c < n):
            raise ValidationError(f"complement entry {c!r} is not an element index")
    return comp


def check_oml(poset: FinitePoset, comp):
    """Verify that (poset, comp) is an orthomodular lattice.

    comp[i] is the index of element i's complement in the poset's order,
    else ValidationError.  The lattice laws of LAWS are checked in order
    up to the first failure, which carries its witness pair.
    Returns (verdict, oml), where oml is the fully tabulated lattice, or
    None when a law fails.
    """
    comp = _complement_vector(comp, poset.n)
    meet, join, bad = lattice_tables(poset.elements, poset.up)
    verdict = collect(_oml_laws(poset, comp, meet, join, bad), first_only=True)
    if not verdict.passed:
        return verdict, None
    return verdict, FiniteOml(poset, meet, join, comp)


def _oml_laws(poset, c, meet, join, bad):
    """(law, first failure or None) for each lattice law, lazily, in order.

    Past the two existence laws the tables, which lattice_tables makes
    symmetric, are read as rows of their width (_width); x <= y is
    meet[x][y] = x there.
    """
    els, n = poset.elements, poset.n
    rng = range(n)
    for kind in ("meet", "join"):
        law = kind + "-exists"
        failed = bad is not None and bad[0] == kind
        yield law, Failure(law, dict(zip("xy", bad[1]))) if failed else None
    yield scan("involution", "x", els, [[c[c[x]] for x in rng]], [list(rng)])
    H = _width(n)
    M, J, cr = list(map(H.row, meet)), list(map(H.row, join)), H.row(c)
    MT, JT = list(map(H.table, M)), list(map(H.table, J))
    # only the y >= x count; there y' <= x', that is meet[x'][y'] = y'
    yield scan("antitone", "xy", els,
               (H.only(H.compose(cr, MT[c[x]]), mx, x) for x, mx in enumerate(M)),
               (H.only(cr, mx, x) for x, mx in enumerate(M)))
    yield scan("complement-law", "x", els, [[(meet[x][c[x]], join[x][c[x]]) for x in rng]],
               [[(poset.bottom, poset.top)] * n])
    # ((x^y) v x') ^ x = x^y, with y running along the row of x^y
    yield scan("orthomodular-law", "xy", els,
               (H.compose(mx, H.compose(JT[c[x]], MT[x])) for x, mx in enumerate(M)), M)


def direct_product(a: FiniteOml, b: FiniteOml) -> FiniteOml:
    """Componentwise product of two lattices, revalidated from scratch."""
    na, nb = a.n, b.n
    labels = [
        f"({la},{lb})" for la in a.elements for lb in b.elements
    ]
    # (ya, yb) is above (xa, xb) when ya is above xa and yb above xb: the
    # up-mask of xb copied into block ya, nb bits wide, for each ya above
    # xa.  The blocks do not overlap, so the copies are one product.
    blocks = [sum(1 << ya * nb for ya in range(na) if ua >> ya & 1) for ua in a.poset.up]
    rows = [block * ub for block in blocks for ub in b.poset.up]
    poset = _poset_from_masks(labels, rows)
    verdict, oml = check_oml(poset, [ca * nb + cb for ca in a.comp for cb in b.comp])
    if oml is None:
        f = verdict.failures[0]
        raise OracleMismatch(f"product of valid lattices failed {f.law} at {f.witness}")
    return oml


def _t1_rows(meet, comp) -> list:
    """The rows, of their width (_width), of the symmetric difference
    (x^y') v (x'^y), through De Morgan as ((x^y')' ^ (x'^y)')', from the
    meet table and complement."""
    H = _width(len(comp))
    M, c = list(map(H.row, meet)), H.row(comp)
    cT = H.table(c)
    a = [H.compose(H.compose(c, H.table(mx)), cT) for mx in M]  # (x^y')'; (x'^y)' is a[y][x]
    return [H.compose(H.row(_pairs(M, ax, col)), cT) for ax, col in zip(a, zip(*a))]


def _t1(meet, comp) -> tuple[tuple[int, ...], ...]:
    """_t1_rows as a table of tuples."""
    return tuple(map(tuple, _t1_rows(meet, comp)))


def _central(meet, comp) -> int | None:
    """The first x with x ^ (x^y')' != x^y for some y, or None.

    By De Morgan that is x ^ (x' v y) != x^y, which in an orthomodular
    lattice says that x does not commute with y.  An orthomodular lattice
    is Boolean exactly when every element commutes with every other, that
    is, is central (Kalmbach, Orthomodular Lattices, 1983).  Three
    compositions of a row per x.
    """
    H = _width(len(comp))
    M, c = list(map(H.row, meet)), H.row(comp)
    cT = H.table(c)
    for x, mx in enumerate(M):
        mxT = H.table(mx)
        if H.compose(H.compose(H.compose(c, mxT), cT), mxT) != mx:
            return x
    return None


def is_distributive(oml: FiniteOml):
    """Distributivity test; returns (verdict, witness_labels).

    An orthomodular lattice is distributive exactly when it is Boolean,
    which _central decides.  By Foulis-Holland a central x distributes
    over every y and z, and a non-central x fails at some (x, y, y'), so
    the lexicographically first witness lies in the row of the first
    non-central x, and only its n^2 pairs (y, z) are scanned.
    """
    x = _central(oml.meet, oml.comp)
    if x is None:
        return True, None
    # x^(y v z) against (x^y) v (x^z), one row over z per y
    H = _width(oml.n)
    J, mx = list(map(H.row, oml.join)), H.row(oml.meet[x])
    JT, mxT = list(map(H.table, J)), H.table(mx)
    hit = first_mismatch(((x, y) for y in range(oml.n)),
                         (H.compose(jy, mxT) for jy in J), (H.compose(mx, JT[v]) for v in mx))
    if hit is None:
        raise OracleMismatch(f"{oml.elements[x]} is not central, yet distributes")
    return False, tuple(oml.elements[i] for i in hit[:3])
