"""Ring-like event structures: tables, axioms and the lattice correspondence.

An event ring here is an algebra (R, +, *, 0, 1) where (R, *, 1) is an
idempotent commutative monoid with absorbing zero and the four identities
R1..R4 below hold.  Writing x' for x+1, the derived operations x^y := x*y
and x v y := (x'*y')' then always produce an orthomodular lattice, and the
toolkit checks both directions of that correspondence against each other.

Every ring law is written once, in _ring_laws, as its variables, the
detail line of a failure and the rows of both sides: the last variable
runs along a row, one row per assignment of the others.
laws.first_mismatch compares the rows whole, so each check reports the
lexicographically first counterexample.  Every check returns a
laws.Verdict, or a pair of them where it decides one property two ways
and the caller compares the two.  Associativity of * and Boolean-ness
are decided in quadratic time, as the meet of its own order and by the
center of its lattice, before any of their n^3 triples is scanned.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count, product
from operator import eq
from typing import NamedTuple

from . import lattice as _lat
from .errors import (
    CustomPlusInvalid,
    CycleError,
    MalformedTable,
    NoBoundsError,
    NotAnRlse,
    OracleMismatch,
    UnknownLabel,
    ValidationError,
)
from .laws import Failure, Verdict, collect, first_mismatch, witness

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


class RlseTables(NamedTuple):
    """Raw event-ring data: labels, two index tables and the two constants.

    Tables are row-major and index-valued; nothing is validated at
    construction time.  Run check_rlse to find out whether the axioms
    actually hold.
    """

    elements: tuple[str, ...]
    oplus: tuple[tuple[int, ...], ...]
    times: tuple[tuple[int, ...], ...]
    zero: int
    one: int

    @property
    def n(self) -> int:
        return len(self.elements)

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise UnknownLabel(label) from None


def _check_shape(r: RlseTables) -> None:
    n = r.n
    if len(set(r.elements)) != n:
        raise MalformedTable("duplicate element labels")
    for name, table in (("oplus", r.oplus), ("times", r.times)):
        if len(table) != n:
            raise MalformedTable(f"{name} table has {len(table)} rows, wants {n}")
        for row in table:
            if len(row) != n:
                raise MalformedTable(f"{name} table row has {len(row)} entries")
            for v in row:
                if not (isinstance(v, int) and 0 <= v < n):
                    raise MalformedTable(f"{name} table entry {v!r} out of range")
    if not (0 <= r.zero < n and 0 <= r.one < n):
        raise MalformedTable("zero/one out of range")
    if r.zero == r.one:
        raise MalformedTable("zero equals one; the two-element ring is the smallest structure")


# ---------------------------------------------------------------------------
# The ring laws, one row scan each
# ---------------------------------------------------------------------------


def _ring_laws(r: RlseTables, comp=()) -> dict:
    """Every ring law: law -> (variables, detail template, lhs rows, rhs rows).

    The last variable runs along a row, one row per assignment of the
    others in lexicographic order; a one-variable law has a single row.
    Rows of two- and three-variable laws are generated only as far as a
    scan draws them, once.  The template is filled with the labels of the
    witness and of the two sides' values, a and b, at the first mismatch.
    comp, the lattice's complement vector, serves plus-at-one.
    """
    P = [list(row) for row in r.oplus]
    T = [list(row) for row in r.times]
    N = [row[r.one] for row in r.oplus]  # x+1
    z, u, n = r.zero, r.one, r.n
    ids = list(range(n))
    TN = [T[v] for v in N]  # the row of x+1 in T
    return {
        "times-commutative": ("xy", "{x}*{y} = {a}, {y}*{x} = {b}", T, map(list, zip(*T))),
        "times-idempotent": ("x", "{x}*{x} = {a}", [[tx[x] for x, tx in enumerate(T)]], [ids]),
        "times-associative": ("xyz", "", (T[v] for tx in T for v in tx),
                              ([tx[v] for v in ty] for tx in T for ty in T)),
        "times-unit": ("x", "{x}*1 = {a}", [[tx[u] for tx in T]], [ids]),
        "times-zero": ("x", "{x}*0 = {a}", [[tx[z] for tx in T]], [[z] * n]),
        "R1": ("xy", "{x}+{y} = {a}, {y}+{x} = {b}", P, map(list, zip(*P))),
        "R2": ("xy", "got {a}, wants {b}",
               ([N[T[N[v]][nx]] for v in tx] for tx, nx in zip(T, N)), ([x] * n for x in ids)),
        "R3": ("xy", "got {a}, wants {b}",
               ([T[N[T[N[v]][x]]][x] for v in tx] for x, tx in enumerate(T)), T),
        "R4": ("xy", "lhs {a}, rhs {b}", ([P[v][nx] for v in tx] for tx, nx in zip(T, N)),
               ([N[T[N[v]][x]] for v in tx] for x, tx in enumerate(T))),
        # only pairs with x <= y+1 count; the others read -1 on both sides
        "R4-orthogonal": ("xy", "lhs {a}, rhs {b}",
                          ([N[v] if tx[ny] == x else -1 for v, ny in zip(px, N)]
                           for x, (px, tx) in enumerate(zip(P, T))),
                          ([tnx[ny] if tx[ny] == x else -1 for ny in N]
                           for x, (tx, tnx) in enumerate(zip(T, TN)))),
        "double-negation": ("x", "got {a}", [[N[v] for v in N]], [ids]),
        "negation-disjoint": ("x", "got {a}", [[tx[v] for tx, v in zip(T, N)]], [[z] * n]),
        "one-self-inverse": ("", "1+1 = {a}", [[P[u][u]]], [[z]]),
        "zero-neutral": ("x", "got {a}", [[px[z] for px in P]], [ids]),
        "negation-covers": ("x", "got {a}", [[px[v] for px, v in zip(P, N)]], [[u] * n]),
        # the order: x <= y iff x*y = x
        "negation-antitone": ("xy", "", ([v == x for v in tx] for x, tx in enumerate(T)),
                              ([T[ny][nx] == ny for ny in N] for nx in N)),
        "weak-associativity": ("xy", "lhs {a}, rhs {b}", ([N[v] for v in px] for px in P),
                               ([px[v] for v in N] for px in P)),
        "T": ("xy", "lhs {a}, rhs {b}",
              ([N[T[N[tx[ny]]][N[tnx[y]]]] for y, ny in enumerate(N)]
               for tx, tnx in zip(T, TN)), P),
        "R5": ("xy", "lhs {a}, rhs {b}", P,
               ([P[tx[ny]][tnx[y]] for y, ny in enumerate(N)] for tx, tnx in zip(T, TN))),
        "plus-self-inverse": ("x", "{x}+{x} = {a}, expected {b}",
                              [[px[x] for x, px in enumerate(P)]], [[z] * n]),
        "plus-associative": ("xyz", "lhs {a}, rhs {b}", (P[v] for px in P for v in px),
                             ([px[v] for v in py] for px in P for py in P)),
        "distributive": ("xyz", "lhs {a}, rhs {b}",
                         ([tx[v] for v in py] for tx in T for py in P),
                         ([row[v] for v in tx] for tx in T for row in map(P.__getitem__, tx))),
        "plus-at-one": ("x", "{x}+1 = {a}, complement is {b}", [N], [list(comp)]),
        # x+y against the De Morgan join (x'*y')'; only pairs with x <= y+1
        # count, the others read -1 on both sides
        "orthogonal-join": ("xy", "",
                            ([v if tx[ny] == x else -1 for v, ny in zip(px, N)]
                             for x, (px, tx) in enumerate(zip(P, T))),
                            ([N[tnx[ny]] if tx[ny] == x else -1 for ny in N]
                             for x, (tx, tnx) in enumerate(zip(T, TN)))),
    }


def _semilattice(T) -> bool:
    """Whether the table T is commutative, idempotent and associative.

    Such a table is the meet of its own order x <= y iff x*y = x (Birkhoff,
    Lattice Theory, ch. II).  With down[y] the mask of the x below y, a
    commutative idempotent table, whose down-sets are distinct, is
    associative exactly when down[x] & down[y] is down[x*y] for every pair
    (lattice._bounds reads the pairs with y at or after x): that makes the
    order transitive and x*y the greatest lower bound of x and y.  That is
    n^2 mask operations in place of n^3 products.
    """
    if list(zip(*T)) != list(map(tuple, T)) or any(tx[x] != x for x, tx in enumerate(T)):
        return False
    down = [_lat._mask(map(eq, ty, count())) for ty in T]  # down[y]: the x with y*x = x
    return _lat._bounds(down) == [list(tx[x:]) for x, tx in enumerate(T)]


def _failures(r: RlseTables, laws, comp=(), boolean=False):
    """(law, first counterexample or None) for the named ring laws, lazily.

    times-associative passes without a scan when _semilattice decides it;
    its rows are scanned only to find the witness of a failure.  boolean
    says that r is a Boolean ring (is_boolean_ring), where
    plus-associative and distributive pass without a scan.
    """
    rows, els = _ring_laws(r, comp), r.elements
    for law in laws:
        if (law == "times-associative" and _semilattice(r.times)
                or boolean and law in ("plus-associative", "distributive")):
            yield law, None
            continue
        names, detail, lhs, rhs = rows[law]
        prefixes = product(range(r.n), repeat=max(len(names) - 1, 0))
        hit = first_mismatch(prefixes, lhs, rhs)
        if hit is None:
            yield law, None
            continue
        w = witness(names, els, hit)
        if detail:
            detail = detail.format(a=els[hit[-2]], b=els[hit[-1]], **w)
        yield law, Failure(law, w, detail)


def _verdict(r: RlseTables, laws) -> Verdict:
    return collect(_failures(r, laws))


#: What makes + an admissible addition on a lattice whose meet is *: it is
#: commutative, x+1 = x', and x+y = x v y on orthogonal pairs.
ADDITION_LAWS = ("R1", "plus-at-one", "orthogonal-join")


def addition_failure(r: RlseTables, comp) -> Failure | None:
    """The first admissible-addition law that r breaks, or None; comp is
    the complement vector of the lattice whose meet table is r.times."""
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
    rows = [_lat._mask(v == i for v in ti) for i, ti in enumerate(r.times)]
    return _lat._poset_from_masks(list(r.elements), rows)


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
    return _lat.check_oml(poset, [row[r.one] for row in r.oplus])


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
    whose row and column i belong to the lattice's element i.  A custom
    table that is not n x n indices raises MalformedTable; one that is
    not commutative, does not send x,1 to the complement of x or breaks
    R4 raises CustomPlusInvalid.
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
    """Brute-force R4 and its restriction to orthogonal pairs independently.

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
    N = [row[r.one] for row in r.oplus]  # x+1, the complement
    boolean = _lat._central(r.times, N) is None and r.oplus == _lat._t1(r.times, N)
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


def _lattice_side(r: RlseTables) -> Verdict:
    """'The derived structure is an OML whose meet is *, whose join is the
    De Morgan dual of *, with + commutative, x+1 = x' and x+y = x v y on
    orthogonal pairs', checked up to the first failure."""
    verdict, oml = _derived(r)
    if oml is None:
        return verdict
    return collect(_lattice_side_laws(r, oml), first_only=True)


def _lattice_side_laws(r, oml):
    c = oml.comp  # x+1, as _derived passes it
    yield "meet-is-times", None if oml.meet == r.times else Failure("meet-is-times", {})
    hit = first_mismatch(((x,) for x in range(r.n)), map(list, oml.join),
                         ([c[dm[cy]] for cy in c] for dm in map(r.times.__getitem__, c)))
    yield "join-is-demorgan", hit and Failure("join-is-demorgan", witness("xy", r.elements, hit))
    # the admissible-addition laws, by witness only: once x+1 = x' holds
    # and the join is the De Morgan one, their ring forms are the lattice's
    for law, found in _failures(r, ADDITION_LAWS, c):
        law = "plus-commutative" if law == "R1" else law
        yield law, found and Failure(law, found.witness)


def check_correspondence(r: RlseTables) -> tuple[Verdict, Verdict]:
    """Check the ring axioms and the lattice-side conditions independently.

    Returns (as_rlse, as_lattice).  The two verdicts are provably
    equivalent for every finite table, so a mismatch raises OracleMismatch
    instead of returning.
    """
    left = check_rlse(r)
    right = _lattice_side(r)
    if left.passed != right.passed:
        raise OracleMismatch(
            f"correspondence verdicts disagree: axioms {left.passed}, "
            f"lattice side {right.passed}"
        )
    return left, right
