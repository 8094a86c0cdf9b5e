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
lexicographically first counterexample, and every check returns a
laws.Verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

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
    "R4FormsReport",
    "BooleanRingReport",
    "CorrespondenceReport",
]


@dataclass(frozen=True)
class RlseTables:
    """Raw event-ring data: labels, two index tables and the two constants.

    Tables are row-major and index-valued; nothing is validated at
    construction time beyond what from_labels does.  Run check_rlse to
    find out whether the axioms actually hold.
    """

    elements: tuple[str, ...]
    oplus: tuple[tuple[int, ...], ...]
    times: tuple[tuple[int, ...], ...]
    zero: int
    one: int

    @classmethod
    def from_labels(cls, elements, oplus_rows, times_rows, zero, one) -> "RlseTables":
        """Build from label-valued tables, rejecting unknown entries."""
        elements = tuple(elements)
        pos = {lab: i for i, lab in enumerate(elements)}
        if len(pos) != len(elements):
            raise MalformedTable("duplicate element labels")

        def convert(rows, name):
            rows = [list(r) for r in rows]
            if len(rows) != len(elements):
                raise MalformedTable(f"{name} table has {len(rows)} rows, wants {len(elements)}")
            out = []
            for r in rows:
                if len(r) != len(elements):
                    raise MalformedTable(f"{name} table row has {len(r)} entries")
                for v in r:
                    if v not in pos:
                        raise MalformedTable(f"{name} table entry {v!r} is not an element")
                out.append(tuple(pos[v] for v in r))
            return tuple(out)

        if zero not in pos:
            raise UnknownLabel(zero)
        if one not in pos:
            raise UnknownLabel(one)
        return cls(elements, convert(oplus_rows, "oplus"), convert(times_rows, "times"),
                   pos[zero], pos[one])

    @property
    def n(self) -> int:
        return len(self.elements)

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise UnknownLabel(label) from None

    def add(self, x: str, y: str) -> str:
        return self.elements[self.oplus[self.index(x)][self.index(y)]]

    def neg(self, i: int) -> int:
        """Index-level x+1."""
        return self.oplus[i][self.one]


def _check_shape(r: RlseTables) -> None:
    n = r.n
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


def _failures(r: RlseTables, laws, comp=()):
    """(law, first counterexample or None) for the named ring laws, lazily."""
    rows, els = _ring_laws(r, comp), r.elements
    for law in laws:
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
    """Exhaustively verify the monoid laws and R1..R4.

    Every axiom is checked over all assignments; the lexicographically
    first counterexample per failed axiom is recorded.
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
    n = r.n
    rows = []
    for i in range(n):
        ti = r.times[i]
        m = 0
        for j in range(n):
            if ti[j] == i:
                m |= 1 << j
        rows.append(m)
    return _lat._poset_from_masks(list(r.elements), rows)


def derived_lattice(r: RlseTables) -> _lat.FiniteOml:
    """The orthomodular lattice of a valid event ring.

    Order and meet come from *, negation is x+1, join is the De Morgan
    dual.  The result is revalidated through check_oml; a failure there
    would mean the correspondence itself is broken.
    """
    require_rlse(r)
    poset = _order_poset(r)
    comp = {r.elements[i]: r.elements[r.neg(i)] for i in range(r.n)}
    verdict, oml = _lat.check_oml(poset, comp)
    if oml is None:
        raise OracleMismatch(
            f"derived lattice of a valid event ring failed {verdict.failures[0].law}"
        )
    if poset.bottom != r.zero or poset.top != r.one:
        raise OracleMismatch("derived lattice bounds disagree with ring constants")
    return oml


def rlse_from_oml(oml: _lat.FiniteOml, plus) -> RlseTables:
    """Equip a lattice with an addition, giving a validated event ring.

    plus is "t1" for the symmetric difference (x^y') v (x'^y), "t2" for
    the upper bound choice (x v y)^(x' v y'), or an n x n label table
    whose row and column i belong to the lattice's element i.  A custom
    table must be commutative, must send x,1 to the complement of x and
    must satisfy R4; anything else raises CustomPlusInvalid.
    """
    n = oml.n
    meet, join, comp = oml.meet, oml.join, oml.comp
    if plus == "t1":
        oplus = tuple(
            tuple(join[meet[x][comp[y]]][meet[comp[x]][y]] for y in range(n))
            for x in range(n)
        )
    elif plus == "t2":
        oplus = tuple(
            tuple(meet[join[x][y]][join[comp[x]][comp[y]]] for y in range(n))
            for x in range(n)
        )
    else:
        pos = {lab: i for i, lab in enumerate(oml.elements)}
        rows = [list(row) for row in plus]
        if len(rows) != n or any(len(row) != n for row in rows):
            raise MalformedTable("custom addition table is not n x n")
        for row in rows:
            for v in row:
                if v not in pos:
                    raise MalformedTable(f"custom table entry {v!r} is not an element")
        oplus = tuple(tuple(pos[v] for v in row) for row in rows)

    r = RlseTables(oml.elements, oplus, oml.meet, oml.poset.bottom, oml.poset.top)

    if not isinstance(plus, str):
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


@dataclass(frozen=True)
class R4FormsReport:
    """Both readings of R4: the identity and its orthogonal-pair form."""

    r4: Verdict
    orthogonal: Verdict

    @property
    def agree(self) -> bool:
        return self.r4.passed == self.orthogonal.passed


def check_r4_orthogonal_form(r: RlseTables) -> R4FormsReport:
    """Brute-force R4 and its restriction to orthogonal pairs independently.

    On a valid event ring the two verdicts provably coincide; on corrupted
    tables the report shows whether they still do.  Orthogonality is taken
    from the multiplicative order: x orth y iff x <= y+1.
    """
    _check_shape(r)
    return R4FormsReport(_verdict(r, ("R4",)), _verdict(r, ("R4-orthogonal",)))


def check_r5(r: RlseTables) -> Verdict:
    """x+y = x*(y+1) + (x+1)*y over all pairs."""
    require_rlse(r)
    return _verdict(r, ("R5",))


@dataclass(frozen=True)
class BooleanRingReport:
    """Two independent Boolean-ring verdicts that are required to agree."""

    is_boolean_ring: bool
    identity_route: Verdict   # weak associativity plus identity T
    ring_route: Verdict       # direct ring axioms

    @property
    def witness(self) -> Failure | None:
        return self.ring_route.first or self.identity_route.first


def is_boolean_ring(r: RlseTables) -> BooleanRingReport:
    """Decide Boolean-ring-ness twice and cross-check.

    Route one tests weak associativity together with identity T; route two
    tests the ring axioms directly (x+x=0, x+0=x, associativity of +, and
    distributivity).  Disagreement raises OracleMismatch since the routes
    are provably equivalent for valid event rings.
    """
    require_rlse(r)
    identity_route = _verdict(r, ("weak-associativity", "T"))
    ring_route = _verdict(r, ("plus-self-inverse", "zero-neutral",
                              "plus-associative", "distributive"))
    if identity_route.passed != ring_route.passed:
        raise OracleMismatch(
            "Boolean-ring routes disagree: identities say "
            f"{identity_route.passed}, ring axioms say {ring_route.passed}"
        )
    return BooleanRingReport(ring_route.passed, identity_route, ring_route)


# ---------------------------------------------------------------------------
# Both sides of the equivalence, cross-checked
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrespondenceReport:
    as_rlse: Verdict
    as_lattice: Verdict

    @property
    def verdicts(self) -> tuple[bool, bool]:
        return self.as_rlse.passed, self.as_lattice.passed


def _lattice_side(r: RlseTables) -> Verdict:
    """'The derived structure is an OML whose meet is *, whose join is the
    De Morgan dual of *, with + commutative, x+1 = x' and x+y = x v y on
    orthogonal pairs', checked up to the first failure."""
    els = r.elements
    try:
        poset = _order_poset(r)
    except (ValidationError, CycleError, NoBoundsError) as exc:  # not even a bounded poset
        return Verdict.of(Failure("times-order", {"reason": str(exc)}))
    if poset.bottom != r.zero or poset.top != r.one:
        return Verdict.of(Failure("bounds", {
            "bottom": els[poset.bottom], "top": els[poset.top]}))
    comp = {els[i]: els[r.neg(i)] for i in range(r.n)}
    verdict, oml = _lat.check_oml(poset, comp)
    if oml is None:
        return verdict
    return collect(_lattice_side_laws(r, oml), first_only=True)


def _lattice_side_laws(r, oml):
    N = [row[r.one] for row in r.oplus]
    c = oml.comp
    yield "meet-is-times", None if oml.meet == r.times else Failure("meet-is-times", {})
    hit = first_mismatch(((x,) for x in range(r.n)), map(list, oml.join),
                         ([N[dm[cy]] for cy in c] for dm in map(r.times.__getitem__, c)))
    yield "join-is-demorgan", hit and Failure("join-is-demorgan", witness("xy", r.elements, hit))
    # the admissible-addition laws, by witness only: once x+1 = x' holds
    # and the join is the De Morgan one, their ring forms are the lattice's
    for law, found in _failures(r, ADDITION_LAWS, c):
        law = "plus-commutative" if law == "R1" else law
        yield law, found and Failure(law, found.witness)


def check_correspondence(r: RlseTables) -> CorrespondenceReport:
    """Check the ring axioms and the lattice-side conditions independently.

    The two verdicts are provably equivalent for every finite table, so a
    mismatch raises OracleMismatch instead of returning.
    """
    left = check_rlse(r)
    right = _lattice_side(r)
    if left.passed != right.passed:
        raise OracleMismatch(
            f"correspondence verdicts disagree: axioms {left.passed}, "
            f"lattice side {right.passed}"
        )
    return CorrespondenceReport(left, right)
