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
scanned row by row with laws.first_mismatch, so a failure carries the
lexicographically first witness; is_distributive scans only the row of
the first element that is not central (_central, n^2 lookups).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import repeat

from .errors import (
    CycleError,
    NoBoundsError,
    OracleMismatch,
    UnknownLabel,
    ValidationError,
)
from .laws import Failure, collect, first_mismatch, witness

__all__ = [
    "FinitePoset",
    "FiniteOml",
    "build_poset",
    "check_oml",
    "direct_product",
    "lattice_tables",
    "is_distributive",
]


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
        try:
            return self.elements.index(label)
        except ValueError:
            raise UnknownLabel(label) from None

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
    builder, for the builtin lattices (corpus), the ring order
    (rlse._order_poset) and the down-sets of rlse._semilattice."""
    return sum(1 << i for i, f in enumerate(flags) if f)


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


def _bounds(masks) -> list[list[int | None]]:
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
    meet, join = _bounds(_transpose(up)), _bounds(up)
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


def check_oml(poset: FinitePoset, comp):
    """Verify that (poset, comp) is an orthomodular lattice.

    comp[i] is the index of element i's complement in the poset's order,
    else ValidationError.  The lattice laws of LAWS are checked in order
    up to the first failure, which carries its witness pair.
    Returns (verdict, oml), where oml is the fully tabulated lattice, or
    None when a law fails.
    """
    comp, n = tuple(comp), poset.n
    if len(comp) != n:
        raise ValidationError(f"complement vector has {len(comp)} entries, wants {n}")
    for c in comp:
        if not (isinstance(c, int) and 0 <= c < n):
            raise ValidationError(f"complement entry {c!r} is not an element index")

    meet, join, bad = lattice_tables(poset.elements, poset.up)
    verdict = collect(_oml_laws(poset, comp, meet, join, bad), first_only=True)
    if not verdict.passed:
        return verdict, None
    return verdict, FiniteOml(poset, meet, join, comp)


def _oml_laws(poset, c, meet, join, bad):
    """(law, first failure or None) for each lattice law, lazily, in order."""
    els, up, n = poset.elements, poset.up, poset.n
    rng, xs = range(n), [(x,) for x in range(n)]

    def failure(law, names, hit):
        return law, None if hit is None else Failure(law, witness(names, els, hit))

    for kind in ("meet", "join"):
        law = kind + "-exists"
        failed = bad is not None and bad[0] == kind
        yield law, Failure(law, dict(zip("xy", bad[1]))) if failed else None
    yield failure("involution", "x",
                  first_mismatch([()], [[c[c[x]] for x in rng]], [list(rng)]))
    yield failure("antitone", "xy", first_mismatch(
        xs, ([not ux >> y & 1 or up[c[y]] >> c[x] & 1 for y in rng]
             for x, ux in enumerate(up)),
        repeat([True] * n)))
    yield failure("complement-law", "x", first_mismatch(
        [()], [[(meet[x][c[x]], join[x][c[x]]) for x in rng]],
        [[(poset.bottom, poset.top)] * n]))
    # ((x^y) v x') ^ x = x^y, with y running along the row of x^y
    yield failure("orthomodular-law", "xy", first_mismatch(
        xs, ([meet[join[v][c[x]]][x] for v in mx] for x, mx in enumerate(meet)),
        map(list, meet)))


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


def _t1(meet, comp) -> tuple[tuple[int, ...], ...]:
    """The table of the symmetric difference (x^y') v (x'^y), through De
    Morgan as ((x^y')' ^ (x'^y)')', from the meet table and complement."""
    a = [[comp[mx[cy]] for cy in comp] for mx in meet]  # (x^y')'; (x'^y)' is a[y][x]
    return tuple(tuple([comp[meet[u][v]] for u, v in zip(ax, col)])
                 for ax, col in zip(a, zip(*a)))


def _central(meet, comp) -> int | None:
    """The first x with x' != (x^y)' ^ (x^y')' for some y, or None.

    By De Morgan that is x != (x^y) v (x^y'): x does not commute with y.
    An orthomodular lattice is Boolean exactly when every element commutes
    with every other, that is, is central (Kalmbach, Orthomodular Lattices,
    1983).  n^2 table lookups.
    """
    for x, mx in enumerate(meet):
        nx = [comp[v] for v in mx]  # (x^y)' for each y
        if [meet[a][nx[cy]] for a, cy in zip(nx, comp)] != [comp[x]] * len(nx):
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
    meet, join = oml.meet, oml.join
    x = _central(meet, oml.comp)
    if x is None:
        return True, None
    # x^(y v z) against (x^y) v (x^z), one row over z per y
    mx = meet[x]
    hit = first_mismatch(
        ((x, y) for y in range(oml.n)),
        ([mx[v] for v in jy] for jy in join),
        ([ja[v] for v in mx] for ja in map(join.__getitem__, mx)))
    if hit is None:
        raise OracleMismatch(f"{oml.elements[x]} is not central, yet distributes")
    return False, tuple(oml.elements[i] for i in hit[:3])
