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
pair off it, one mask operation per element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
from .lattice import FiniteOml, is_distributive
from .rlse import RlseTables

__all__ = [
    "State",
    "StateReport",
    "Infeasible",
    "StateSearchResult",
    "FullnessReport",
    "NumericalEventSet",
    "EventAxiomReport",
    "BooleanEventReport",
    "RepresentationReport",
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


@dataclass(frozen=True)
class StateReport:
    passed: bool
    failed_check: str | None = None
    witness: dict | None = None


def check_state(oml: FiniteOml, values) -> StateReport:
    """Verify range, top value and orthogonal additivity, exhaustively."""
    vals = tuple(Fraction(v) for v in values)
    if len(vals) != oml.n:
        raise DimensionMismatch(oml.n, len(vals))
    els = oml.elements
    for i, v in enumerate(vals):
        if not (0 <= v <= 1):
            return StateReport(False, "range", {"x": els[i], "value": str(v)})
    if vals[oml.poset.top] != 1:
        return StateReport(False, "top-probability-one",
                           {"value": str(vals[oml.poset.top])})
    leq, comp, join = oml.poset.leq, oml.comp, oml.join
    for x in range(oml.n):
        vx = vals[x]
        for y in range(x, oml.n):
            if leq[x][comp[y]] and vals[join[x][y]] != vx + vals[y]:
                return StateReport(False, "orthogonal-additivity", {
                    "x": els[x], "y": els[y],
                    "sum": str(vx + vals[y]),
                    "join-value": str(vals[join[x][y]]),
                })
    return StateReport(True)


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
        leq, comp, join = oml.poset.leq, oml.comp, oml.join
        bottom, top = oml.poset.bottom, oml.poset.top
        constraints = []
        for x in range(n):
            if x == bottom:
                continue
            for y in range(x, n):
                if y == bottom:
                    continue
                if leq[x][comp[y]]:
                    constraints.append((x, y, join[x][y]))

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
    report = check_state(oml, values)
    if not report.passed:
        raise OracleMismatch(f"solver produced a non-state: {report.failed_check}")
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


@dataclass(frozen=True)
class FullnessReport:
    passed: bool
    witness: dict | None = None


def check_full(oml: FiniteOml, states) -> FullnessReport:
    """Does x <= y hold exactly when every state weighs x at most y?

    Checks the biconditional on all ordered pairs and reports the first
    failing pair in lexicographic order.  Each state is first validated;
    an invalid one raises InvalidState.
    """
    above = [0] * oml.n
    for pos, s in enumerate(states):
        vals = s.values if isinstance(s, State) else tuple(Fraction(v) for v in s)
        report = check_state(oml, vals)
        if not report.passed:
            raise InvalidState(pos, report.failed_check)
        _add_dominance(above, vals)
    full = (1 << oml.n) - 1
    for x, up in enumerate(oml.poset.up_masks()):
        # y where "no state puts x above y" disagrees with x <= y
        wrong = (~above[x] ^ up) & full & ~(1 << x)
        if wrong:
            y = (wrong & -wrong).bit_length() - 1
            return FullnessReport(False, {"x": oml.elements[x], "y": oml.elements[y]})
    return FullnessReport(True)


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
    report = check_full(oml, states)
    if not report.passed:
        raise NotFull((report.witness["x"], report.witness["y"]))
    states = tuple(s if isinstance(s, State) else State(tuple(Fraction(v) for v in s))
                   for s in states)
    events = tuple(
        tuple(s.values[x] for s in states) for x in range(oml.n)
    )
    if len(set(events)) != len(events):
        raise OracleMismatch("full state set produced duplicate event vectors")
    return NumericalEventSet(oml.elements, states, events)


#: Statements of the event-algebra axioms checked below.
EVENT_AXIOMS = {
    "contains-bounds": "the constant vectors 0 and 1 belong to the set",
    "complement-closed": "1-p belongs to the set for every member p",
    "orthogonal-triple-sum": "p+q+r belongs to the set for pairwise orthogonal members",
    "orthogonal-pair-sum": "p+q belongs to the set and is the supremum, for orthogonal p, q",
}


@dataclass(frozen=True)
class EventAxiomReport:
    passed: bool
    failures: tuple = ()
    checked: tuple = tuple(EVENT_AXIOMS)


def _vec_le(p, q) -> bool:
    return all(a <= b for a, b in zip(p, q))


def check_s_probability_algebra(ev: NumericalEventSet) -> EventAxiomReport:
    """Exhaustive check of the probability-algebra axioms on the vectors.

    Orthogonality is numerical: p is orthogonal to q when p <= 1-q holds
    pointwise.  For every orthogonal pair the sum must be a member and the
    least upper bound of the pair within the set.
    """
    events = ev.events
    labels = ev.elements
    k = ev.width
    member = {vec: i for i, vec in enumerate(events)}
    m = len(events)
    failures = []

    zero = tuple([_ZERO] * k)
    one = tuple([_ONE] * k)
    if zero not in member or one not in member:
        failures.append(("contains-bounds", {}, "missing a constant vector"))

    for i, p in enumerate(events):
        q = tuple(_ONE - v for v in p)
        if q not in member:
            failures.append(("complement-closed", {"p": labels[i]}, ""))
            break

    # pointwise order and orthogonality, as index masks
    le = []
    for p in events:
        mask = 0
        for j, q in enumerate(events):
            if _vec_le(p, q):
                mask |= 1 << j
        le.append(mask)
    orth = []
    for i, p in enumerate(events):
        mask = 0
        for j, q in enumerate(events):
            if all(a + b <= 1 for a, b in zip(p, q)):
                mask |= 1 << j
        orth.append(mask)

    done = False
    for i in range(m):
        if done:
            break
        for j in range(i, m):
            if done or not orth[i] >> j & 1:
                continue
            rest = (orth[i] & orth[j]) >> j
            rj = j
            while rest:
                if rest & 1:
                    s = tuple(a + b + c for a, b, c in
                              zip(events[i], events[j], events[rj]))
                    if s not in member:
                        failures.append((
                            "orthogonal-triple-sum",
                            {"p": labels[i], "q": labels[j], "r": labels[rj]},
                            "",
                        ))
                        done = True
                        break
                rest >>= 1
                rj += 1

    done = False
    for i in range(m):
        if done:
            break
        for j in range(i, m):
            if not orth[i] >> j & 1:
                continue
            s = tuple(a + b for a, b in zip(events[i], events[j]))
            if s not in member:
                failures.append(("orthogonal-pair-sum",
                                 {"p": labels[i], "q": labels[j]},
                                 "sum is not a member"))
                done = True
                break
            si = member[s]
            uppers = le[i] & le[j]
            if not le[i] >> si & 1 or not le[j] >> si & 1 or (uppers & ~le[si]):
                failures.append(("orthogonal-pair-sum",
                                 {"p": labels[i], "q": labels[j]},
                                 "sum is not the supremum"))
                done = True
                break

    return EventAxiomReport(not failures, tuple(failures))


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

    le = []
    for p in events:
        mask = 0
        for j, q in enumerate(events):
            if _vec_le(p, q):
                mask |= 1 << j
        le.append(mask)
    ge = [0] * m
    for i in range(m):
        mask = le[i]
        while mask:
            low = mask & -mask
            ge[low.bit_length() - 1] |= 1 << i
            mask ^= low

    def inf_of(i, j):
        lowers = ge[i] & ge[j]
        mask = lowers
        while mask:
            low = mask & -mask
            z = low.bit_length() - 1
            mask ^= low
            if ge[z] & lowers == lowers:
                return z
        return -1

    def sup_of(i, j):
        uppers = le[i] & le[j]
        mask = uppers
        while mask:
            low = mask & -mask
            z = low.bit_length() - 1
            mask ^= low
            if le[z] & uppers == uppers:
                return z
        return -1

    meet = [[0] * m for _ in range(m)]
    join = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            z = inf_of(i, j)
            if z < 0:
                raise NotLatticeOrdered("infimum", (labels[i], labels[j]))
            meet[i][j] = meet[j][i] = z
            z = sup_of(i, j)
            if z < 0:
                raise NotLatticeOrdered("supremum", (labels[i], labels[j]))
            join[i][j] = join[j][i] = z

    compl = {}
    for i, p in enumerate(events):
        q = tuple(_ONE - v for v in p)
        if q not in member:
            raise ValidationError("event set is not complement-closed")
        compl[i] = member[q]

    for i in range(m):
        for j in range(i, m):
            h = hat_plus(events[i], events[j], events[meet[i][j]])
            for pos, v in enumerate(h):
                if v > 1:
                    return BooleanEventReport(False, {
                        "p": labels[i], "q": labels[j],
                        "state": pos, "value": str(v),
                    })

    plus = [[0] * m for _ in range(m)]
    sym = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            h = hat_plus(events[i], events[j], events[meet[i][j]])
            hi = member.get(h)
            s = join[meet[i][compl[j]]][meet[compl[i]][j]]
            if hi is None or hi != s:
                # the axiom check is exhaustive and slow: only a failed
                # cross-check pays for it
                algebra = check_s_probability_algebra(ev)
                if not algebra.passed:
                    raise NotAnEventAlgebra(algebra)
                raise OracleMismatch(
                    "ring addition disagrees with the symmetric difference "
                    f"at ({labels[i]}, {labels[j]})"
                )
            plus[i][j] = hi
            sym[i][j] = s
    return BooleanEventReport(True, None,
                              tuple(tuple(r) for r in plus),
                              tuple(tuple(r) for r in sym))


@dataclass(frozen=True)
class RepresentationReport:
    passed: bool
    failed_hypothesis: str | None = None
    witness: dict | None = None


def check_representation(r: RlseTables, ev: NumericalEventSet, f) -> RepresentationReport:
    """Verify that f embeds the event ring into the numerical algebra.

    f maps element labels to event vectors.  Checked hypotheses, in order:
    f is a bijection onto the event set; f is an order isomorphism for the
    multiplicative order versus the pointwise order; f turns orthogonal
    sums into vector sums; the vectors satisfy the probability-algebra
    axioms.
    """
    els = r.elements
    if sorted(f) != sorted(els):
        return RepresentationReport(False, "bijection", {"reason": "domain mismatch"})
    vecs = [tuple(Fraction(v) for v in f[lab]) for lab in els]
    if len(set(vecs)) != len(vecs):
        return RepresentationReport(False, "bijection", {"reason": "not injective"})
    if set(vecs) != set(ev.events):
        return RepresentationReport(False, "bijection", {"reason": "image differs"})

    n = r.n
    for x in range(n):
        for y in range(n):
            if r.below(x, y) != _vec_le(vecs[x], vecs[y]):
                return RepresentationReport(False, "order-isomorphism",
                                            {"x": els[x], "y": els[y]})
    for x in range(n):
        for y in range(n):
            if r.below(x, r.neg(y)):
                s = tuple(a + b for a, b in zip(vecs[x], vecs[y]))
                if vecs[r.oplus[x][y]] != s:
                    return RepresentationReport(False, "orthogonal-additivity",
                                                {"x": els[x], "y": els[y]})
    algebra = check_s_probability_algebra(ev)
    if not algebra.passed:
        return RepresentationReport(False, "algebra-axioms",
                                    {"axiom": algebra.failures[0][0]})
    return RepresentationReport(True)
