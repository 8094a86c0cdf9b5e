"""States on orthomodular lattices and numerical event algebras.

A state assigns a rational in [0,1] to every element, gives 1 to the top,
and is additive on orthogonal pairs.  The searches below first solve the
additivity equations symbolically, which shrinks each lattice to a handful
of free coordinates, then run an exact simplex over those coordinates.
Everything is Fraction arithmetic end to end.

Which pairs a state set separates is kept as dominance masks: above[x]
is the bitmask of the y with m(x) > m(y) in some state, built by sorting
each state's values once.  The full-set search consults it to skip pairs
already separated, and check_full reads its verdict and first witness
pair off it, one mask operation per element.  The same masks give the
pointwise order of numerical events, which the event side builds once
and hands to lattice.lattice_tables for infima and suprema.

Checks return a laws.Verdict; their counterexample scans compare whole
rows with laws.first_mismatch, so each failure carries the
lexicographically first witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add

from . import simplex
from .errors import (
    DimensionMismatch,
    InvalidState,
    NotAnEventAlgebra,
    NotFull,
    NotLatticeOrdered,
    NotUncomparable,
    OracleMismatch,
    ValidationError,
)
from .laws import Failure, Verdict, collect, first_mismatch, witness
from .lattice import FiniteOml, _transpose, lattice_tables
from .rlse import RlseTables

__all__ = [
    "State",
    "Infeasible",
    "StateSearchResult",
    "NumericalEventSet",
    "BooleanEventReport",
    "check_state",
    "find_separating_state",
    "find_full_state_set",
    "check_full",
    "events_from_states",
    "check_s_probability_algebra",
    "hat_plus",
    "boolean_test",
    "check_representation",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class State:
    """One probability assignment, index-aligned with the lattice elements."""

    values: tuple[Fraction, ...]

    def value_of(self, oml: FiniteOml, label: str) -> Fraction:
        return self.values[oml.index(label)]


def check_state(oml: FiniteOml, values) -> Verdict:
    """Verify range, top value and orthogonal additivity, exhaustively,
    up to the first failure."""
    vals = tuple(Fraction(v) for v in values)
    if len(vals) != oml.n:
        raise DimensionMismatch(oml.n, len(vals))
    return collect(_state_laws(oml, vals), first_only=True)


def _state_laws(oml, vals):
    els, n = oml.elements, oml.n
    hit = first_mismatch([()], [[0 <= v <= 1 for v in vals]], [[True] * n])
    yield "range", hit and Failure("range", {"x": els[hit[0]], "value": str(vals[hit[0]])})
    top = vals[oml.poset.top]
    yield "top-probability-one", (
        None if top == 1 else Failure("top-probability-one", {"value": str(top)}))
    # m(x v y) against m(x) + m(y), along the orthogonal y >= x
    orth = oml.orthogonal_rows
    hit = first_mismatch(
        [(x,) for x in range(n)],
        ([vals[jx[y]] for y in ys] for jx, ys in zip(oml.join, orth)),
        ([vx + vals[y] for y in ys] for vx, ys in zip(vals, orth)))
    if hit is None:
        yield "orthogonal-additivity", None
    else:
        x, i, got, want = hit
        yield "orthogonal-additivity", Failure("orthogonal-additivity", {
            "x": els[x], "y": els[orth[x][i]], "sum": str(want), "join-value": str(got)})


# ---------------------------------------------------------------------------
# Symbolic reduction of the additivity equations
# ---------------------------------------------------------------------------


class _Aff:
    """A tiny affine form: const + sum(coef * var)."""

    __slots__ = ("const", "terms")

    def __init__(self, const=_ZERO, terms=None):
        self.const = const
        self.terms = terms or {}

    def __add__(self, other):
        terms = dict(self.terms)
        for k, v in other.terms.items():
            nv = terms.get(k, _ZERO) + v
            if nv:
                terms[k] = nv
            else:
                terms.pop(k, None)
        return _Aff(self.const + other.const, terms)

    def __sub__(self, other):
        return self + other.scaled(Fraction(-1))

    def scaled(self, f):
        if not f:
            return _Aff()
        return _Aff(self.const * f, {k: v * f for k, v in self.terms.items()})

    def substitute(self, var, repl: "_Aff") -> "_Aff":
        coef = self.terms.get(var)
        if coef is None:
            return self
        out = _Aff(self.const, {k: v for k, v in self.terms.items() if k != var})
        return out + repl.scaled(coef)

    def value(self, assignment) -> Fraction:
        return self.const + sum((v * assignment[k] for k, v in self.terms.items()),
                                _ZERO)

    def key(self):
        return (self.const, tuple(sorted(self.terms.items())))


class _StateSpace:
    """The solution set of the additivity system, in few free variables.

    exprs[e] gives m(e) as an affine form over the free coordinates; empty
    is True when the equations are inconsistent (no states at all).
    bound_rows/bound_rhs hold the deduplicated box inequalities over the
    free coordinates, ready for the simplex.
    """

    def __init__(self, oml: FiniteOml):
        self.oml = oml
        self.empty = False
        self.dim = 0
        self.exprs: list[_Aff] = []
        self._build()
        if not self.empty:
            self._build_bounds()

    def _build(self):
        oml = self.oml
        n = oml.n
        join = oml.join
        bottom, top = oml.poset.bottom, oml.poset.top
        constraints = [(x, y, join[x][y]) for x, ys in enumerate(oml.orthogonal_rows)
                       if x != bottom for y in ys if y != bottom]

        exprs: list[_Aff | None] = [None] * n
        exprs[bottom] = _Aff()
        residuals: list[_Aff] = []
        nvars = 0

        def solve(con):
            """Use a constraint with >= 2 known sides; return True on progress."""
            u, v, w = con
            known = (exprs[u] is not None) + (exprs[v] is not None) + (exprs[w] is not None)
            if known < 2:
                return False
            if known == 3:
                resid = exprs[u] + exprs[v] - exprs[w]
                if resid.terms or resid.const:
                    residuals.append(resid)
                return True
            if exprs[w] is None:
                exprs[w] = exprs[u] + exprs[v]
            elif exprs[u] is None:
                exprs[u] = exprs[w] - exprs[v]
            else:
                exprs[v] = exprs[w] - exprs[u]
            return True

        pending = constraints
        while True:
            progress = True
            while progress and pending:
                progress = False
                still = []
                for con in pending:
                    if solve(con):
                        progress = True
                    else:
                        still.append(con)
                pending = still
            unknown = next((i for i in range(n) if exprs[i] is None), -1)
            if unknown < 0:
                break
            exprs[unknown] = _Aff(_ZERO, {nvars: _ONE})
            nvars += 1

        residuals.append(exprs[top] - _Aff(_ONE))

        # Gaussian elimination on the residual equations.
        solved: dict[int, _Aff] = {}
        for row in residuals:
            for var, repl in solved.items():
                row = row.substitute(var, repl)
            if not row.terms:
                if row.const:
                    self.empty = True
                    return
                continue
            pivot = min(row.terms)
            coef = row.terms[pivot]
            repl = _Aff(row.const, dict(row.terms))
            del repl.terms[pivot]
            repl = repl.scaled(Fraction(-1) / coef)
            for var in list(solved):
                solved[var] = solved[var].substitute(pivot, repl)
            solved[pivot] = repl

        for var, repl in solved.items():
            exprs = [e.substitute(var, repl) for e in exprs]

        free = sorted({v for e in exprs for v in e.terms})
        renum = {v: i for i, v in enumerate(free)}
        self.dim = len(free)
        self.exprs = [
            _Aff(e.const, {renum[v]: cf for v, cf in e.terms.items()}) for e in exprs
        ]

        for x, y, w in constraints:
            resid = self.exprs[x] + self.exprs[y] - self.exprs[w]
            if resid.terms or resid.const:
                raise OracleMismatch("additivity reduction lost a constraint")

    def _build_bounds(self):
        rows, rhs = [], []
        seen = set()

        def push(coefs, bound):
            key = (tuple(coefs), bound)
            if key in seen:
                return
            seen.add(key)
            rows.append([Fraction(v) for v in coefs])
            rhs.append(bound)

        d = self.dim
        for e in self.exprs:
            if not e.terms:
                if not (0 <= e.const <= 1):
                    self.empty = True
                    return
                continue
            coefs = [e.terms.get(j, _ZERO) for j in range(d)]
            # expr <= 1
            push(coefs, _ONE - e.const)
            # 0 <= expr, except when it is a bare coordinate (implicit there)
            if not (e.const == 0 and len(e.terms) == 1
                    and next(iter(e.terms.values())) == 1):
                push([-v for v in coefs], e.const)
        self.bound_rows = rows
        self.bound_rhs = rhs

    def solve_max(self, objective: _Aff):
        """Maximize an affine objective over the state polytope.

        Returns (value, state values tuple) or None when there are no
        states at all.
        """
        if self.empty:
            return None
        d = self.dim
        c = [objective.terms.get(j, _ZERO) for j in range(d)]
        try:
            value, z = simplex.maximize(c, self.bound_rows, self.bound_rhs)
        except simplex.InfeasibleError:
            return None
        values = tuple(e.value(z) for e in self.exprs)
        return value + objective.const, values


@lru_cache(maxsize=None)
def _state_space(oml: FiniteOml) -> _StateSpace:
    return _StateSpace(oml)


# ---------------------------------------------------------------------------
# Separating states and full sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Infeasible:
    """No state puts x above y; carries the pair that cannot be separated."""

    x: str
    y: str


@dataclass(frozen=True)
class StateSearchResult:
    states: tuple[State, ...] | None
    failure: Infeasible | None

    @property
    def ok(self) -> bool:
        return self.failure is None


def find_separating_state(oml: FiniteOml, x: str, y: str):
    """A vertex state maximizing m(x) - m(y), if the maximum is positive.

    Returns a State, or Infeasible(x, y) when every state weighs x at most
    as much as y.  Raises NotUncomparable when x <= y in the lattice.
    """
    xi, yi = oml.index(x), oml.index(y)
    if oml.poset.leq[xi][yi]:
        raise NotUncomparable(x, y)
    return _separate(oml, _state_space(oml), xi, yi)


def _separate(oml, space, xi, yi):
    out = space.solve_max(space.exprs[xi] - space.exprs[yi])
    if out is None:
        return Infeasible(oml.elements[xi], oml.elements[yi])
    value, values = out
    if value <= 0:
        return Infeasible(oml.elements[xi], oml.elements[yi])
    state = State(values)
    verdict = check_state(oml, values)
    if not verdict.passed:
        raise OracleMismatch(f"solver produced a non-state: {verdict.failures[0].law}")
    return state


def _add_dominance(above, values):
    """Fold one state into the dominance masks: above[x] gains every y
    with values[x] > values[y]."""
    lower = group = 0
    prev = None
    for x in sorted(range(len(values)), key=values.__getitem__):
        if values[x] != prev:
            lower |= group
            group = 0
            prev = values[x]
        group |= 1 << x
        above[x] |= lower


def find_full_state_set(oml: FiniteOml) -> StateSearchResult:
    """Collect vertex states until every non-relation x !<= y is witnessed.

    Pairs already separated by a collected state are skipped, so the
    number of simplex runs stays close to the number of distinct states;
    the outcome is the same as solving for every pair.  A new state
    separates a pair no earlier one does, so the states come out
    distinct.  Returns them, or the first pair no state can separate.
    """
    space = _state_space(oml)
    n = oml.n
    leq = oml.poset.leq
    states: list[State] = []
    above = [0] * n
    for x in range(n):
        for y in range(n):
            if leq[x][y] or above[x] >> y & 1:
                continue
            got = _separate(oml, space, x, y)
            if isinstance(got, Infeasible):
                return StateSearchResult(None, got)
            states.append(got)
            _add_dominance(above, got.values)
    return StateSearchResult(tuple(states), None)


def check_full(oml: FiniteOml, states) -> Verdict:
    """Does x <= y hold exactly when every state weighs x at most y?

    Checks the biconditional on all ordered pairs and reports the first
    failing pair in lexicographic order.  Each state is first validated;
    an invalid one raises InvalidState.
    """
    above = [0] * oml.n
    for pos, s in enumerate(states):
        vals = s.values if isinstance(s, State) else tuple(Fraction(v) for v in s)
        verdict = check_state(oml, vals)
        if not verdict.passed:
            raise InvalidState(pos, verdict.failures[0].law)
        _add_dominance(above, vals)
    full = (1 << oml.n) - 1
    # per x, the y where "no state puts x above y" disagrees with x <= y
    wrong = [(~a ^ up) & full & ~(1 << x)
             for x, (a, up) in enumerate(zip(above, oml.poset.up_masks()))]
    hit = first_mismatch([()], [wrong], [[0] * oml.n])
    if hit is None:
        return Verdict(True, ("order-determining",))
    x, ys = hit[:2]
    y = (ys & -ys).bit_length() - 1
    return Verdict.of(Failure("order-determining", {
        "x": oml.elements[x], "y": oml.elements[y]}, "order not recovered"))


# ---------------------------------------------------------------------------
# Numerical event algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NumericalEventSet:
    """Each lattice element as the vector of its values across the states."""

    elements: tuple[str, ...]
    states: tuple[State, ...]
    events: tuple[tuple[Fraction, ...], ...]

    def event_of(self, label: str) -> tuple[Fraction, ...]:
        return self.events[self.elements.index(label)]

    @property
    def width(self) -> int:
        return len(self.states)


def events_from_states(oml: FiniteOml, states) -> NumericalEventSet:
    """Tabulate x -> (m1(x), m2(x), ...); requires an order-determining
    state set, otherwise the map would not be injective."""
    verdict = check_full(oml, states)
    if not verdict.passed:
        w = verdict.failures[0].witness
        raise NotFull((w["x"], w["y"]))
    states = tuple(s if isinstance(s, State) else State(tuple(Fraction(v) for v in s))
                   for s in states)
    events = tuple(
        tuple(s.values[x] for s in states) for x in range(oml.n)
    )
    if len(set(events)) != len(events):
        raise OracleMismatch("full state set produced duplicate event vectors")
    return NumericalEventSet(oml.elements, states, events)


def _pointwise_up(events) -> list[int]:
    """up[i]: the bitmask of the j with events[i] <= events[j] in every
    coordinate, folded in one coordinate at a time."""
    above = [0] * len(events)
    for column in zip(*events):
        _add_dominance(above, column)
    full = (1 << len(events)) - 1
    return [full & ~a for a in above]


def check_s_probability_algebra(ev: NumericalEventSet) -> Verdict:
    """Exhaustive check of the probability-algebra axioms on the vectors.

    Orthogonality is numerical: p is orthogonal to q when p <= 1-q holds
    pointwise.  For every orthogonal pair the sum must be a member and the
    least upper bound of the pair within the set.
    """
    return collect(_algebra_laws(ev, _pointwise_up(ev.events)))


def _algebra_laws(ev, le):
    events, labels, m = ev.events, ev.elements, len(ev.events)
    member = {vec: i for i, vec in enumerate(events)}

    bounds = (_ZERO,) * ev.width, (_ONE,) * ev.width
    yield "contains-bounds", None if all(b in member for b in bounds) else Failure(
        "contains-bounds", {}, "missing a constant vector")

    hit = first_mismatch([()], [[tuple(_ONE - v for v in p) in member for p in events]],
                         [[True] * m])
    yield "complement-closed", hit and Failure("complement-closed", {"p": labels[hit[0]]})

    # q is orthogonal to p when q <= 1-p: column m+i of the up-masks of the
    # events followed by their complements, cut down to the members
    up = _transpose(_pointwise_up([*events, *(tuple(_ONE - v for v in p) for p in events)]))
    orth = [col & (1 << m) - 1 for col in up[m:]]
    pairs = [(i, j) for i in range(m) for j in range(i, m) if orth[i] >> j & 1]

    def triple_rows():
        # r runs from j on, over members orthogonal to both p and q
        for i, j in pairs:
            pq = tuple(map(add, events[i], events[j]))
            rs = (orth[i] & orth[j]) >> j << j
            yield [rs >> r & 1 == 0 or tuple(map(add, pq, er)) in member
                   for r, er in enumerate(events)]

    hit = first_mismatch(pairs, triple_rows(), repeat([True] * m))
    yield "orthogonal-triple-sum", hit and Failure(
        "orthogonal-triple-sum", witness("pqr", labels, hit))

    def pair_rows():
        # what is wrong with p+q, for the orthogonal q from p on; "" if nothing.
        # The sum s is the supremum when p, q <= s and s <= every common upper
        # bound of p and q.
        for i, p in enumerate(events):
            qs = orth[i] >> i << i
            sums = [member.get(tuple(map(add, p, q)), -1) if qs >> j & 1 else None
                    for j, q in enumerate(events)]
            yield ["" if s is None
                   else "sum is not a member" if s < 0
                   else "" if le[i] >> s & 1 and le[j] >> s & 1 and not le[i] & le[j] & ~le[s]
                   else "sum is not the supremum"
                   for j, s in enumerate(sums)]

    hit = first_mismatch([(i,) for i in range(m)], pair_rows(), repeat([""] * m))
    yield "orthogonal-pair-sum", hit and Failure(
        "orthogonal-pair-sum", witness("pq", labels, hit), hit[2])


def hat_plus(p, q, meet):
    """The candidate ring addition p + q - 2(p^q), pointwise."""
    return tuple(a + b - 2 * c for a, b, c in zip(p, q, meet))


@dataclass(frozen=True)
class BooleanEventReport:
    """Outcome of the ring test on a numerical event algebra."""

    is_boolean: bool
    witness: dict | None = None
    plus_table: tuple[tuple[int, ...], ...] | None = None
    sym_diff_table: tuple[tuple[int, ...], ...] | None = None


def boolean_test(ev: NumericalEventSet) -> BooleanEventReport:
    """Boolean exactly when p + q - 2(p^q) stays pointwise at most 1.

    The set must be lattice-ordered (every pair has an infimum and a
    supremum within the set, under the pointwise order); otherwise
    NotLatticeOrdered is raised.  On success the induced addition table is
    returned and cross-checked against (p^q')v(p'^q) computed with the
    set's own lattice operations.  A mismatch raises NotAnEventAlgebra
    when the vectors fail a probability-algebra axiom, and OracleMismatch
    only when they satisfy them all.
    """
    events = ev.events
    labels = ev.elements
    m = len(events)
    member = {vec: i for i, vec in enumerate(events)}

    up = _pointwise_up(events)
    meet, join, bad = lattice_tables(ev, up)
    if bad is not None:
        kind, pair = bad
        raise NotLatticeOrdered("infimum" if kind == "meet" else "supremum", pair)

    compl = [member.get(tuple(_ONE - v for v in p)) for p in events]
    if None in compl:
        raise ValidationError("event set is not complement-closed")

    # p+q-2(p^q) is symmetric in p and q: one pass over the pairs p <= q
    # both looks for a value above 1 and fills the addition table
    plus = [[0] * m for _ in range(m)]
    for i, (p, mi) in enumerate(zip(events, meet)):
        hats = [hat_plus(p, events[j], events[mi[j]]) for j in range(i, m)]
        hit = first_mismatch([(j,) for j in range(i, m)],
                             ([v > 1 for v in h] for h in hats), repeat([False] * len(p)))
        if hit is not None:
            j, pos = hit[:2]
            return BooleanEventReport(False, {
                "p": labels[i], "q": labels[j],
                "state": pos, "value": str(hats[j - i][pos]),
            })
        for j, h in enumerate(hats, start=i):
            plus[i][j] = plus[j][i] = member.get(h)

    sym = [[join[mi[cj]][meet[ci][j]] for j, cj in enumerate(compl)]
           for mi, ci in zip(meet, compl)]
    hit = first_mismatch([(i,) for i in range(m)], plus, sym)
    if hit is not None:
        # the axiom check is exhaustive and slow: only a failed
        # cross-check pays for it
        algebra = collect(_algebra_laws(ev, up))
        if not algebra.passed:
            raise NotAnEventAlgebra(algebra)
        raise OracleMismatch(
            "ring addition disagrees with the symmetric difference "
            f"at ({labels[hit[0]]}, {labels[hit[1]]})"
        )
    return BooleanEventReport(True, None,
                              tuple(tuple(r) for r in plus),
                              tuple(tuple(r) for r in sym))


def check_representation(r: RlseTables, ev: NumericalEventSet, f) -> Verdict:
    """Verify that f embeds the event ring into the numerical algebra.

    f maps element labels to event vectors.  Checked hypotheses, in order,
    up to the first failure: f is a bijection onto the event set; f is an
    order isomorphism for the multiplicative order versus the pointwise
    order; f turns orthogonal sums into vector sums; the vectors satisfy
    the probability-algebra axioms.
    """
    return collect(_representation_laws(r, ev, f), first_only=True)


def _representation_laws(r, ev, f):
    els = r.elements
    reason = None
    if sorted(f) != sorted(els):
        reason = "domain mismatch"
    else:
        vecs = [tuple(Fraction(v) for v in f[lab]) for lab in els]
        if len(set(vecs)) != len(vecs):
            reason = "not injective"
        elif set(vecs) != set(ev.events):
            reason = "image differs"
    yield "bijection", reason and Failure("bijection", {"reason": reason})

    rng, xs = range(r.n), [(x,) for x in range(r.n)]
    N = [row[r.one] for row in r.oplus]
    up = _pointwise_up(vecs)
    # the ring's order: x <= y iff x*y = x
    hit = first_mismatch(xs, ([v == x for v in tx] for x, tx in enumerate(r.times)),
                         ([ux >> y & 1 == 1 for y in rng] for ux in up))
    yield "order-isomorphism", hit and Failure("order-isomorphism", witness("xy", els, hit))

    # only orthogonal pairs, x <= y+1, count; the others read None on both sides
    hit = first_mismatch(
        xs,
        ([vecs[v] if tx[ny] == x else None for v, ny in zip(px, N)]
         for x, (px, tx) in enumerate(zip(r.oplus, r.times))),
        ([tuple(map(add, vx, vy)) if tx[ny] == x else None for vy, ny in zip(vecs, N)]
         for x, (vx, tx) in enumerate(zip(vecs, r.times))))
    yield "orthogonal-additivity", hit and Failure(
        "orthogonal-additivity", witness("xy", els, hit))

    algebra = check_s_probability_algebra(ev)
    yield "algebra-axioms", None if algebra.passed else Failure(
        "algebra-axioms", {"axiom": algebra.failures[0].law})
