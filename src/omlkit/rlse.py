"""Ring-like event structures: tables, axioms and the lattice correspondence.

An event ring here is an algebra (R, +, *, 0, 1) where (R, *, 1) is an
idempotent commutative monoid with absorbing zero and the four identities
R1..R4 below hold.  Writing x' for x+1, the derived operations x^y := x*y
and x v y := (x'*y')' then always produce an orthomodular lattice, and the
toolkit checks both directions of that correspondence against each other.

Every ring law is written once, in _ring_laws, as its variables, the
detail line of a failure and the rows of both sides: the last variable
runs along a row, one row per assignment of the others.
laws.scan compares the rows whole, so each check reports the
lexicographically first counterexample.  Every check returns a
laws.Verdict, or a pair of them where it decides one property two ways
and the caller compares the two.  Associativity of * and Boolean-ness
are decided in quadratic time, as the meet of its own order and by the
center of its lattice, before any of their n^3 triples is scanned.

RlseTables holds its tables as the caller gave them, tuples of tuples
when omlkit builds them, and hashes by its labels and constants.  The
first check reads the tables once, into rows of their width (_Rows,
lattice._width): bytes up to 256 elements, where a row composition is one
bytes.translate, and tuples above that.  That read is the one gate into
the tables: it validates them as it reads them, and no other code reads
the raw tables.  Rows that several checks read are built once per ring
and kept.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from operator import getitem

from . import lattice as _lat
from .errors import (
    CustomPlusInvalid,
    CycleError,
    MalformedTable,
    NoBoundsError,
    NotAnRlse,
    OracleMismatch,
    ValidationError,
)
from .laws import Failure, Verdict, collect, scan

__all__ = [
    "RlseTables",
    "ADDITION_LAWS",
    "addition_failure",
    "check_rlse",
    "require_rlse",
    "derived_lattice",
    "rlse_from_oml",
    "check_derived_identities",
    "check_r4_orthogonal_form",
    "is_boolean_ring",
    "check_r5",
    "check_correspondence",
]


# a namedtuple subclass, like lattice.FiniteOml, so that instances get a
# __dict__ for the cached rows; equality is that of the tuple
class RlseTables(namedtuple("RlseTables", "elements oplus times zero one")):
    """Raw event-ring data: labels, two index tables and the two constants.

    elements is a tuple of labels, oplus and times are row-major n x n
    index tables (tuples of tuples) and zero and one are indices; nothing
    is validated at construction time.  Run check_rlse to find out whether
    the axioms actually hold.  The first check reads and validates the
    tables once, into rows of their width (_Rows), so tables given as lists
    must not change after it.  A ring hashes by its labels and constants
    alone: check_rlse's cache tells rings that share them apart by their
    tables, and a ring given as lists hashes too.
    """

    @property
    def n(self) -> int:
        return len(self.elements)

    def index(self, label: str) -> int:
        return _lat._index(self.elements, label)

    def __hash__(self) -> int:
        return hash((tuple(self.elements), self.zero, self.one))

    @cached_property
    def _rows(self) -> _Rows:
        return _Rows(self)


class _Rows:
    """A ring's tables, read once as rows of their width (lattice._width)
    and validated as they are read, so every _Rows holds n rows of n
    indices per table.  Up to 256 elements one translate of the bytes rows
    checks every entry; above that, or when a table does not fit, a loop
    raises MalformedTable naming the first offender, oplus before times.

    P and T are the rows of + and *, PT and TT the same rows as tables of
    a composition, Tc the columns of *, PcT and TcT the columns of both as
    tables, N the row of x+1, TN the rows of x*(y+1) (x orth y iff
    TN[x][y] = x), E the order flags, E[x][y] set where x*y = x, with EcT
    their columns as tables, and up their bitmasks, the up-sets of the
    order.  All but P and T are built on first use.
    """

    def __init__(self, r: RlseTables):
        n, tables = r.n, (r.oplus, r.times)
        self.H = H = _lat._width(n)
        self.n, self.zero, self.one = n, r.zero, r.one
        try:  # bytes() takes only ints in range(256); the translate keeps those >= n
            if H is _lat._Bytes and all(len(t) == n and all(len(row) == n for row in t)
                                        for t in tables):
                self.P, self.T = (list(map(H.row, t)) for t in tables)
                if not b"".join(self.P + self.T).translate(None, bytes(range(n))):
                    return
        except (TypeError, ValueError):
            pass
        # the loop names the first offender of a table that does not fit
        for name, table in zip(("oplus", "times"), tables):
            if len(table) != n:
                raise MalformedTable(f"{name} table has {len(table)} rows, wants {n}")
            for row in table:
                if len(row) != n:
                    raise MalformedTable(f"{name} table row has {len(row)} entries")
                for v in row:
                    if not (isinstance(v, int) and 0 <= v < n):
                        raise MalformedTable(f"{name} table entry {v!r} out of range")
        self.P, self.T = (list(map(H.row, t)) for t in tables)

    def _tables(self, rows) -> list:
        return list(map(self.H.table, rows))

    ids = cached_property(lambda V: V.H.row(range(V.n)))
    N = cached_property(lambda V: V.H.row([px[V.one] for px in V.P]))
    NT = cached_property(lambda V: V.H.table(V.N))
    PT = cached_property(lambda V: V._tables(V.P))
    TT = cached_property(lambda V: V._tables(V.T))
    Tc = cached_property(lambda V: list(map(V.H.row, zip(*V.T))))
    PcT = cached_property(lambda V: V._tables(zip(*V.P)))
    TcT = cached_property(lambda V: V._tables(V.Tc))
    TN = cached_property(lambda V: [V.H.compose(V.N, ttx) for ttx in V.TT])
    E = cached_property(lambda V: list(map(V.H.flags, V.T, range(V.n))))
    EcT = cached_property(lambda V: V._tables(zip(*V.E)))
    up = cached_property(lambda V: list(map(V.H.mask, V.T, range(V.n))))


def _check_shape(r: RlseTables) -> None:
    """MalformedTable naming r's first fault: its labels, then its tables
    (read into r._rows, which checks them), then its constants."""
    if len(set(r.elements)) != r.n:
        raise MalformedTable("duplicate element labels")
    V = r._rows
    if not all(isinstance(c, int) and 0 <= c < V.n for c in (V.zero, V.one)):
        raise MalformedTable("zero/one out of range")
    if V.zero == V.one:
        raise MalformedTable("zero equals one; the two-element ring is the smallest structure")


# ---------------------------------------------------------------------------
# The ring laws, one row scan each
# ---------------------------------------------------------------------------


def _ring_laws(V: _Rows, comp=()) -> dict:
    """Every ring law: law -> a function giving (variables, detail
    template, lhs rows, rhs rows).

    The last variable runs along a row, one row per assignment of the
    others in lexicographic order; a one-variable law has a single row.
    Rows are built only when a law is scanned, and rows of two- and
    three-variable laws only as far as the scan draws them, once.  Every
    row is of V's width: [t[v] for v in a] is compose(a, t), with t one of
    the tables of V.  The template is laws.scan's detail; comp, the
    lattice's complement vector, serves plus-at-one.
    """
    H, P, T, n, z, u = V.H, V.P, V.T, V.n, V.zero, V.one
    compose, row, only, pairs = H.compose, H.row, H.only, _lat._pairs

    def of_n(r):  # x -> N[r[N[x]]], for a table r
        return compose(compose(V.NT, r), V.NT)

    return {
        "times-commutative": lambda: ("xy", "{x}*{y} = {a}, {y}*{x} = {b}", T, V.Tc),
        "times-idempotent": lambda: ("x", "{x}*{x} = {a}", [row(map(getitem, T, V.ids))],
                                     [V.ids]),
        "times-associative": lambda: ("xyz", "", (T[v] for tx in T for v in tx),
                                      (compose(ty, ttx) for ttx in V.TT for ty in T)),
        "times-unit": lambda: ("x", "{x}*1 = {a}", [row([tx[u] for tx in T])], [V.ids]),
        "times-zero": lambda: ("x", "{x}*0 = {a}", [row([tx[z] for tx in T])], [row([z] * n)]),
        "R1": lambda: ("xy", "{x}+{y} = {a}, {y}+{x} = {b}", P, map(row, zip(*P))),
        "R2": lambda: ("xy", "got {a}, wants {b}",
                       (compose(tx, of_n(V.TcT[nx])) for tx, nx in zip(T, V.N)),
                       (row([x] * n) for x in range(n))),
        "R3": lambda: ("xy", "got {a}, wants {b}",
                       (compose(tx, compose(of_n(tcx), tcx)) for tx, tcx in zip(T, V.TcT)), T),
        "R4": lambda: ("xy", "lhs {a}, rhs {b}",
                       (compose(tx, V.PcT[nx]) for tx, nx in zip(T, V.N)),
                       (compose(tx, of_n(tcx)) for tx, tcx in zip(T, V.TcT))),
        # only pairs with x <= y+1 count; the others read 0 on both sides
        "R4-orthogonal": lambda: ("xy", "lhs {a}, rhs {b}",
                                  (only(compose(px, V.NT), V.TN[x], x)
                                   for x, px in enumerate(P)),
                                  (only(V.TN[nx], V.TN[x], x)
                                   for x, nx in enumerate(V.N))),
        "double-negation": lambda: ("x", "got {a}", [compose(V.N, V.NT)], [V.ids]),
        "negation-disjoint": lambda: ("x", "got {a}", [row(map(getitem, T, V.N))],
                                      [row([z] * n)]),
        "one-self-inverse": lambda: ("", "1+1 = {a}", [[P[u][u]]], [[z]]),
        "zero-neutral": lambda: ("x", "got {a}", [row([px[z] for px in P])], [V.ids]),
        "negation-covers": lambda: ("x", "got {a}", [row(map(getitem, P, V.N))],
                                    [row([u] * n)]),
        # the order: x <= y iff x*y = x
        "negation-antitone": lambda: ("xy", "", V.E, (compose(V.N, V.EcT[nx]) for nx in V.N)),
        "weak-associativity": lambda: ("xy", "lhs {a}, rhs {b}",
                                       (compose(px, V.NT) for px in P),
                                       (compose(V.N, ptx) for ptx in V.PT)),
        "T": lambda: ("xy", "lhs {a}, rhs {b}",
                      (compose(row(pairs(T, compose(V.TN[x], V.NT),
                                         compose(T[nx], V.NT))), V.NT)
                       for x, nx in enumerate(V.N)), P),
        "R5": lambda: ("xy", "lhs {a}, rhs {b}", P,
                       (row(pairs(P, V.TN[x], T[nx])) for x, nx in enumerate(V.N))),
        "plus-self-inverse": lambda: ("x", "{x}+{x} = {a}, expected {b}",
                                      [row(map(getitem, P, V.ids))], [row([z] * n)]),
        "plus-associative": lambda: ("xyz", "lhs {a}, rhs {b}", (P[v] for px in P for v in px),
                                     (compose(py, ptx) for ptx in V.PT for py in P)),
        "distributive": lambda: ("xyz", "lhs {a}, rhs {b}",
                                 (compose(py, ttx) for ttx in V.TT for py in P),
                                 (compose(tx, V.PT[v]) for tx in T for v in tx)),
        "plus-at-one": lambda: ("x", "{x}+1 = {a}, complement is {b}", [V.N], [row(comp)]),
        # x+y against the De Morgan join (x'*y')'; only pairs with x <= y+1
        # count, the others read 0 on both sides
        "orthogonal-join": lambda: ("xy", "",
                                    (only(px, V.TN[x], x) for x, px in enumerate(P)),
                                    (only(compose(V.TN[nx], V.NT), V.TN[x], x)
                                     for x, nx in enumerate(V.N))),
    }


def _semilattice(V: _Rows) -> bool:
    """Whether the table V.T is commutative, idempotent and associative.

    Such a table is the meet of its own order x <= y iff x*y = x (Birkhoff,
    Lattice Theory, ch. II).  With down[y] the mask of the x below y, a
    commutative idempotent table, whose down-sets are distinct, is
    associative exactly when down[x] & down[y] is down[x*y] for every pair
    (lattice._bounds reads the pairs with y at or after x): that makes the
    order transitive and x*y the greatest lower bound of x and y.  That is
    n^2 mask operations in place of n^3 products.
    """
    T = V.T
    if V.Tc != T or V.H.row(map(getitem, T, V.ids)) != V.ids:
        return False
    down = tuple(_lat._transpose(V.up))  # down[y]: the x with x*y = x
    return _lat._bounds(down) == [list(tx[x:]) for x, tx in enumerate(T)]


def _failures(r: RlseTables, laws, comp=(), boolean=False):
    """(law, first counterexample or None) for the named ring laws, lazily.

    times-associative passes without a scan when _semilattice decides it;
    its rows are scanned only to find the witness of a failure.  boolean
    says that r is a Boolean ring (is_boolean_ring), where
    plus-associative and distributive pass without a scan.
    """
    V = r._rows
    rows = _ring_laws(V, comp)
    for law in laws:
        if (law == "times-associative" and _semilattice(V)
                or boolean and law in ("plus-associative", "distributive")):
            yield law, None
        else:
            names, detail, lhs, rhs = rows[law]()
            yield scan(law, names, r.elements, lhs, rhs, detail)


def _verdict(r: RlseTables, laws) -> Verdict:
    return collect(_failures(r, laws))


#: What makes + an admissible addition on a lattice whose meet is *: it is
#: commutative, x+1 = x', and x+y = x v y on orthogonal pairs.
ADDITION_LAWS = ("R1", "plus-at-one", "orthogonal-join")


def addition_failure(r: RlseTables, comp) -> Failure | None:
    """The first admissible-addition law that r breaks, or None; comp is
    the complement vector of the lattice whose meet table is r.times.  A
    malformed r raises MalformedTable, then a malformed comp ValidationError."""
    _check_shape(r)
    comp = _lat._complement_vector(comp, r.n)
    return collect(_failures(r, ADDITION_LAWS, comp), first_only=True).first


_AXIOMS = ("times-commutative", "times-idempotent", "times-associative",
           "times-unit", "times-zero", "R1", "R2", "R3", "R4")


# bounded for long-lived callers; verify-all checks 27 distinct rings
@lru_cache(maxsize=64)
def check_rlse(r: RlseTables) -> Verdict:
    """Decide the monoid laws and R1..R4.

    Every axiom holds over all assignments or has its lexicographically
    first counterexample recorded.  Associativity is decided by the
    semilattice test of _semilattice; its triples are scanned only to
    find the first witness of a failure.
    """
    _check_shape(r)
    return _verdict(r, _AXIOMS)


def require_rlse(r: RlseTables) -> None:
    verdict = check_rlse(r)
    if not verdict.passed:
        raise NotAnRlse(verdict)


# ---------------------------------------------------------------------------
# The lattice correspondence
# ---------------------------------------------------------------------------


def _order_poset(r: RlseTables) -> _lat.FinitePoset:
    """Poset of the multiplicative order x <= y iff x*y = x."""
    return _lat._poset_from_masks(list(r.elements), r._rows.up)


def _derived(r: RlseTables) -> tuple[Verdict, _lat.FiniteOml | None]:
    """(verdict, lattice) of the order * defines, with complement x+1.

    Times-order, then bounds, then check_oml: the lattice is None when
    one fails, and the verdict names it.
    """
    els = r.elements
    try:
        poset = _order_poset(r)
    except (ValidationError, CycleError, NoBoundsError) as exc:  # not even a bounded poset
        return Verdict.of(Failure("times-order", {"reason": str(exc)})), None
    if poset.bottom != r.zero or poset.top != r.one:
        return Verdict.of(Failure("bounds", {
            "bottom": els[poset.bottom], "top": els[poset.top]})), None
    return _lat.check_oml(poset, r._rows.N)


def derived_lattice(r: RlseTables) -> _lat.FiniteOml:
    """The orthomodular lattice of a valid event ring.

    Order and meet come from *, negation is x+1, join is the De Morgan
    dual.  The result is revalidated through check_oml; a failure there
    would mean the correspondence itself is broken.
    """
    require_rlse(r)
    verdict, oml = _derived(r)
    if oml is None:
        raise OracleMismatch(f"derived lattice of a valid event ring failed {verdict.first.law}")
    return oml


def rlse_from_oml(oml: _lat.FiniteOml, plus) -> RlseTables:
    """Equip a lattice with an addition, giving a validated event ring.

    plus is "t1" for the symmetric difference (x^y') v (x'^y), "t2" for
    the upper bound choice (x v y)^(x' v y'), or an n x n index table
    whose row and column i belong to the lattice's element i.  Any other
    string, or a table that is not n x n indices, raises MalformedTable;
    a table that is not commutative, does not send x,1 to the complement
    of x or breaks R4 raises CustomPlusInvalid.
    """
    n = oml.n
    meet, join, comp = oml.meet, oml.join, oml.comp
    r = RlseTables(oml.elements, (), meet, oml.poset.bottom, oml.poset.top)
    if plus == "t1":
        r = r._replace(oplus=_lat._t1(meet, comp))
    elif plus == "t2":
        r = r._replace(oplus=tuple(
            tuple(meet[join[x][y]][join[comp[x]][comp[y]]] for y in range(n))
            for x in range(n)
        ))
    elif isinstance(plus, str):
        raise MalformedTable(f"unknown addition term {plus!r}; the terms are 't1' and 't2'")
    else:
        r = r._replace(oplus=tuple(map(tuple, plus)))
        _check_shape(r)
        for law, failure in _failures(r, ("R1", "plus-at-one", "R4"), comp):
            if failure is not None:
                if law == "R1":  # reported without the two sums
                    failure = Failure(law, failure.witness)
                raise CustomPlusInvalid(failure)

    verdict = check_rlse(r)
    if not verdict.passed:
        raise OracleMismatch(
            "lattice-derived addition failed the ring axioms: "
            + "; ".join(str(f) for f in verdict.failures)
        )
    return r


# ---------------------------------------------------------------------------
# Derived identities and special forms
# ---------------------------------------------------------------------------


def check_derived_identities(r: RlseTables) -> Verdict:
    """The five consequences of the axioms: double negation, x*(x+1)=0 and
    1+1=0, neutrality of zero, x+(x+1)=1, and antitonicity of x+1."""
    require_rlse(r)
    return _verdict(r, ("double-negation", "negation-disjoint", "one-self-inverse",
                        "zero-neutral", "negation-covers", "negation-antitone"))


def check_r4_orthogonal_form(r: RlseTables) -> tuple[Verdict, Verdict]:
    """Decide R4 and its restriction to orthogonal pairs, side by side.

    Returns (r4, orthogonal).  On a valid event ring the two verdicts
    provably coincide; on corrupted tables they show whether they still
    do.  Orthogonality is taken from the multiplicative order: x orth y
    iff x <= y+1.  R4 is read off check_rlse(r), which records it
    whichever axioms fail and caches its verdict.
    """
    f = check_rlse(r).failure_for("R4")
    r4 = Verdict(True, ("R4",)) if f is None else Verdict.of(f)
    return r4, _verdict(r, ("R4-orthogonal",))


def check_r5(r: RlseTables) -> Verdict:
    """x+y = x*(y+1) + (x+1)*y over all pairs."""
    require_rlse(r)
    return _verdict(r, ("R5",))


def is_boolean_ring(r: RlseTables) -> tuple[Verdict, Verdict]:
    """Decide Boolean-ring-ness twice and cross-check.

    Returns (identity_route, ring_route); the ring is Boolean iff
    ring_route passed.  Route one tests weak associativity and identity T;
    route two tests the ring axioms (x+x=0, x+0=x, associativity of +, and
    distributivity) up to the first that fails.  A valid event ring is
    Boolean exactly when every element is central (lattice._central) and
    + is the symmetric difference (lattice._t1); that decides the last
    two, which are scanned only in a ring that is not, for their first
    witness.  A scan that then finds none raises OracleMismatch, and so
    does a disagreement of the two routes, provably equivalent on valid
    rings.
    """
    require_rlse(r)
    identity_route = _verdict(r, ("weak-associativity", "T"))
    V = r._rows  # V.N, x+1, is the complement
    boolean = _lat._central(V.T, V.N) is None and V.P == _lat._t1_rows(V.T, V.N)
    ring_route = collect(_failures(r, ("plus-self-inverse", "zero-neutral", "plus-associative",
                                       "distributive"), boolean=boolean), first_only=True)
    if ring_route.passed != boolean:
        raise OracleMismatch(
            f"Boolean-ring test disagrees with the center: ring axioms say "
            f"{ring_route.passed}, center and symmetric difference say {boolean}"
        )
    if identity_route.passed != ring_route.passed:
        raise OracleMismatch(
            "Boolean-ring routes disagree: identities say "
            f"{identity_route.passed}, ring axioms say {ring_route.passed}"
        )
    return identity_route, ring_route


# ---------------------------------------------------------------------------
# Both sides of the equivalence, cross-checked
# ---------------------------------------------------------------------------


def _lattice_side_laws(r, oml):
    """(law, Failure or None) for the lattice-side laws on oml, lazily.

    x+1 = x' holds by construction (_derived), and once meet-is-times holds
    the ortholattice check_oml accepted has the De Morgan join (x'*y')', so
    R1 and orthogonal-join are the lattice's laws, scanned by witness only.
    """
    V = r._rows
    yield "meet-is-times", None if list(map(V.H.row, oml.meet)) == V.T else Failure(
        "meet-is-times", {})
    for law, found in _failures(r, ("R1", "orthogonal-join")):
        law = "plus-commutative" if law == "R1" else law
        yield law, found and Failure(law, found.witness)


def check_correspondence(r: RlseTables) -> tuple[Verdict, Verdict]:
    """Check the ring axioms and the lattice-side conditions independently.

    Returns (as_rlse, as_lattice).  The two verdicts are provably
    equivalent for every finite table, so a mismatch raises OracleMismatch
    instead of returning.
    """
    left = check_rlse(r)
    right, oml = _derived(r)
    if oml is not None:
        right = collect(_lattice_side_laws(r, oml), first_only=True)
    if left.passed != right.passed:
        raise OracleMismatch(
            f"correspondence verdicts disagree: axioms {left.passed}, "
            f"lattice side {right.passed}"
        )
    return left, right
