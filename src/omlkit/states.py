"""States on orthomodular lattices and numerical event algebras.

A state assigns a rational in [0,1] to every element, gives 1 to the top,
and is additive on orthogonal pairs: a tuple of Fractions, one per
element.  The searches below first solve the additivity equations
symbolically, which shrinks each lattice to a handful of free
coordinates, then run an exact simplex over those coordinates.
An affine form is a plain list [const, c0, c1, ...]; the propagation adds
integers, and Fractions enter with the elimination, so every result is
exact.

Which pairs a state set separates is kept as dominance masks: above[x]
is the bitmask of the y with m(x) > m(y) in some state, built by sorting
each state's scaled values once.  The full-set search consults it to skip
pairs already separated, and check_full reads its verdict and first
witness pair off it, one mask operation per element.  The same masks give
the pointwise order of numerical events, which the event side builds once
and hands to lattice.lattice_tables for infima and suprema.

The state search and the scans run on ints (_scale): rationals times the
lcm of their denominators.  The reduction's forms and box share one
denominator and the simplex runs on them, each vertex state is evaluated
on the forms and on its scaled vertex, the state checks and the
dominance masks scale each state, and the event checks each coordinate
(_scaled), with the scaled 1 in place of 1; the Boolean test packs each
scaled event vector into one int (_packing).
State values, event vectors and witness values stay Fraction.

Checks return a laws.Verdict, and each failure carries the
lexicographically first witness.  The state side compares whole rows
with laws.first_mismatch.  The event side reads orthogonality, q <= 1-p,
from the down-masks of the complements, and walks the set bits of those
masks (lattice._bits) up to the first member that fails.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import lcm
from operator import add, mul, sub
from typing import TYPE_CHECKING, NamedTuple

from . import simplex
from .errors import (
    DimensionMismatch,
    InvalidState,
    NotAnEventAlgebra,
    NotFull,
    NotLatticeOrdered,
    OracleMismatch,
    ValidationError,
)
from .laws import Failure, Verdict, collect, first_mismatch, scan, witness
from .lattice import FiniteOml, _bits, _index, _t1, lattice_tables

if TYPE_CHECKING:
    from .rlse import RlseTables

__all__ = [
    "Infeasible",
    "StateSearchResult",
    "NumericalEventSet",
    "check_state",
    "find_full_state_set",
    "check_full",
    "events_from_states",
    "check_s_probability_algebra",
    "hat_plus",
    "boolean_test",
    "check_representation",
]

def _fractions(values) -> tuple[Fraction, ...]:
    """The values as Fractions; those that already are stay as they are."""
    return tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values)


def check_state(oml: FiniteOml, values) -> Verdict:
    """Verify range, top value and orthogonal additivity, exhaustively,
    up to the first failure."""
    vals = _fractions(values)
    if len(vals) != oml.n:
        raise DimensionMismatch(oml.n, len(vals))
    return collect(_state_laws(oml, vals), first_only=True)


def _scale(values):
    """(den, ints): ints[i] = values[i] * den, den the lcm of their
    denominators, which keeps the order, ties, sums and differences."""
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def _state_laws(oml, vals):
    # the scans run on the values scaled to ints
    els, n = oml.elements, oml.n
    den, ints = _scale(vals)
    hit = first_mismatch([()], [[0 <= v <= den for v in ints]], [[True] * n])
    yield "range", hit and Failure("range", {"x": els[hit[0]], "value": str(vals[hit[0]])})
    top = oml.poset.top
    yield "top-probability-one", (
        None if ints[top] == den else Failure("top-probability-one", {"value": str(vals[top])}))
    # m(x v y) against m(x) + m(y), along the orthogonal y >= x
    orth = oml.orthogonal_rows
    hit = first_mismatch(
        [(x,) for x in range(n)],
        ([ints[jx[y]] for y in ys] for jx, ys in zip(oml.join, orth)),
        ([vx + ints[y] for y in ys] for vx, ys in zip(ints, orth)))
    if hit is None:
        yield "orthogonal-additivity", None
    else:
        x, i, got, want = hit
        yield "orthogonal-additivity", Failure("orthogonal-additivity", {
            "x": els[x], "y": els[orth[x][i]], "sum": str(Fraction(want, den)),
            "join-value": str(Fraction(got, den))})


# ---------------------------------------------------------------------------
# Symbolic reduction of the additivity equations
# ---------------------------------------------------------------------------


def _comb(a, b, f=1):
    """The affine form a + f*b.  A form is a list [const, c0, c1, ...]
    over the coordinates, its missing trailing entries read as zero."""
    return [x + f * y for x, y in zip_longest(a, b, fillvalue=0)]


def _state_space(oml: FiniteOml):
    """The solution set of the additivity system, in few free coordinates.

    Returns None when there are no states at all, otherwise (den, forms,
    rows, rhs), all ints: forms[e] / den gives m(e) as a form [const, c0,
    ..., c(d-1)] over the d free coordinates, and rows.x <= rhs are the
    deduplicated box inequalities 0 <= m(e) <= 1 over them times den,
    ready for the simplex.

    Known values spread along m(x) + m(y) = m(x v y) for orthogonal x, y;
    when they stall, the smallest unknown element becomes the next
    coordinate.  The equations left over are solved by Gaussian
    elimination, each pivoting on its first coordinate, which leaves the
    unique reduced row-echelon parametrization.  The spreading only adds
    integer forms; Fractions enter with the elimination.
    """
    n, join = oml.n, oml.join
    bottom, top = oml.poset.bottom, oml.poset.top
    constraints = [(x, y, join[x][y]) for x, ys in enumerate(oml.orthogonal_rows)
                   if x != bottom for y in ys if y != bottom]

    exprs = [None] * n
    exprs[bottom] = [0]
    residuals = []
    nvars = 0
    pending = constraints
    while True:
        progress = True
        while progress and pending:
            progress = False
            still = []
            for u, v, w in pending:
                eu, ev, ew = exprs[u], exprs[v], exprs[w]
                if (eu is None) + (ev is None) + (ew is None) > 1:
                    still.append((u, v, w))
                    continue
                progress = True
                if ew is None:
                    exprs[w] = _comb(eu, ev)
                elif eu is None:
                    exprs[u] = _comb(ew, ev, -1)
                elif ev is None:
                    exprs[v] = _comb(ew, eu, -1)
                else:
                    resid = _comb(_comb(eu, ev), ew, -1)
                    if any(resid):
                        residuals.append(resid)
            pending = still
        unknown = next((i for i in range(n) if exprs[i] is None), -1)
        if unknown < 0:
            break
        nvars += 1
        exprs[unknown] = [0] * nvars + [1]
    residuals.append(_comb(exprs[top], [1], -1))
    width = nvars + 1
    exprs = [e + [0] * (width - len(e)) for e in exprs]

    # Gaussian elimination: pivots[k] is an equation with coefficient 1
    # on coordinate k and 0 on every other pivot coordinate
    pivots = {}
    for row in residuals:
        row = row + [0] * (width - len(row))
        for k, p in pivots.items():
            if row[k]:
                row = _comb(row, p, -row[k])
        k = next((k for k in range(1, width) if row[k]), 0)
        if not k:
            if row[0]:
                return None
            continue
        inv = Fraction(1, row[k])
        p = [v * inv for v in row]
        for j, q in pivots.items():
            if q[k]:
                pivots[j] = _comb(q, p, -q[k])
        pivots[k] = p
    for k, p in pivots.items():
        exprs = [_comb(e, p, -e[k]) if e[k] else e for e in exprs]

    cols = [0] + [k for k in range(1, width) if any(e[k] for e in exprs)]
    den, ints = _scale([e[k] for e in exprs for k in cols])
    forms = [ints[i:i + len(cols)] for i in range(0, len(ints), len(cols))]
    for x, y, w in constraints:
        if any(map(sub, map(add, forms[x], forms[y]), forms[w])):
            raise OracleMismatch("additivity reduction lost a constraint")

    box = []
    for f in forms:
        const, coefs = f[0], tuple(f[1:])
        if not any(coefs):
            if not 0 <= const <= den:
                return None
            continue
        box.append((coefs, den - const))
        # 0 <= m(e), except for a bare coordinate (implicit there)
        if const or [v for v in coefs if v] != [den]:
            box.append((tuple(-v for v in coefs), const))
    box = dict.fromkeys(box)
    return den, forms, [list(r) for r, _ in box], [b for _, b in box]


# ---------------------------------------------------------------------------
# Separating states and full sets
# ---------------------------------------------------------------------------


class Infeasible(NamedTuple):
    """No state puts x above y; carries the pair that cannot be separated."""

    x: str
    y: str


class StateSearchResult(NamedTuple):
    states: tuple[tuple[Fraction, ...], ...] | None
    failure: Infeasible | None

    @property
    def ok(self) -> bool:
        return self.failure is None


def _separate(oml, space, xi, yi):
    """A vertex z of the state space with m(x) > m(y), or Infeasible.  The
    LP is scaled by den, which scales its value and keeps its vertex."""
    if space is not None:
        _, forms, rows, rhs = space
        fx, fy = forms[xi], forms[yi]
        try:
            value, z = simplex.maximize(list(map(sub, fx[1:], fy[1:])), rows, rhs)
        except simplex.InfeasibleError:
            value = None
        if value is not None and value + fx[0] - fy[0] > 0:
            return z
    return Infeasible(oml.elements[xi], oml.elements[yi])


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
    den, forms = space[:2] if space else (1, [])
    n, up = oml.n, oml.poset.up
    states = []
    above = [0] * n
    for x in range(n):
        # the y not below x and not yet separated from it, ascending
        todo = ~(up[x] | above[x]) & (1 << n) - 1
        while todo:
            low = todo & -todo
            z = _separate(oml, space, x, low.bit_length() - 1)
            if isinstance(z, Infeasible):
                return StateSearchResult(None, z)
            # m(e) = forms[e].(1, z) / den, evaluated on z scaled to ints
            dz, zs = _scale([1, *z])
            nums = [sum(map(mul, f, zs)) for f in forms]
            values = tuple(Fraction(v, den * dz) for v in nums)
            verdict = check_state(oml, values)
            if not verdict.passed:
                raise OracleMismatch(f"solver produced a non-state: {verdict.failures[0].law}")
            states.append(values)
            _add_dominance(above, nums)
            todo &= ~(above[x] | low)
    return StateSearchResult(tuple(states), None)


def check_full(oml: FiniteOml, states) -> Verdict:
    """Does x <= y hold exactly when every state weighs x at most y?

    Checks the biconditional on all ordered pairs and reports the first
    failing pair in lexicographic order.  Each state is first validated;
    an invalid one raises InvalidState.
    """
    columns = []
    for pos, s in enumerate(states):
        vals = _fractions(s)
        verdict = check_state(oml, vals)
        if not verdict.passed:
            raise InvalidState(pos, verdict.failures[0].law)
        columns.append(_scale(vals)[1])
    # per x, the y where "no state puts x above y" disagrees with x <= y
    wrong = [a ^ b for a, b in zip(_pointwise_up(columns, oml.n), oml.poset.up)]
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


class NumericalEventSet(NamedTuple):
    """Each lattice element as the vector of its values across the states."""

    elements: tuple[str, ...]
    events: tuple[tuple[Fraction, ...], ...]

    def event_of(self, label: str) -> tuple[Fraction, ...]:
        return self.events[_index(self.elements, label)]


def events_from_states(oml: FiniteOml, states) -> NumericalEventSet:
    """Tabulate x -> (m1(x), m2(x), ...); requires an order-determining
    state set, otherwise the map would not be injective."""
    states = tuple(map(_fractions, states))
    verdict = check_full(oml, states)
    if not verdict.passed:
        w = verdict.failures[0].witness
        raise NotFull((w["x"], w["y"]))
    events = tuple(tuple(s[x] for s in states) for x in range(oml.n))
    if len(set(events)) != len(events):
        raise OracleMismatch("full state set produced duplicate event vectors")
    return NumericalEventSet(oml.elements, events)


def _scaled(labels, events):
    """(den, ints, member, up): coordinate k of the vectors scaled by
    _scale, by den[k]; the scans below run on the ints with den[k] in place
    of 1.  member maps each scaled vector to its position and up holds
    their pointwise up-masks (_pointwise_up).  There must be one label per
    vector and the vectors must be of one length, else ValidationError
    names the counts or the first vector that is not."""
    if len(labels) != len(events):
        raise ValidationError(f"event set has {len(labels)} labels for {len(events)} vectors")
    for i, vec in enumerate(events):
        if len(vec) != len(events[0]):
            raise ValidationError(f"event vector {i} has {len(vec)} values, not {len(events[0])}")
    cols = [_scale(col) for col in zip(*events)]
    ints = list(zip(*(c for _, c in cols))) or [()] * len(events)
    return ([d for d, _ in cols], ints, {vec: i for i, vec in enumerate(ints)},
            _pointwise_up((c for _, c in cols), len(events)))


def _pointwise_up(columns, m) -> list[int]:
    """up[i]: the bitmask of the j < m whose value is at least i's in every
    column (one value per element), folded in one column at a time."""
    above = [0] * m
    for column in columns:
        _add_dominance(above, column)
    full = (1 << m) - 1
    return [full & ~a for a in above]


def check_s_probability_algebra(ev: NumericalEventSet) -> Verdict:
    """Exhaustive check of the probability-algebra axioms on the vectors.

    Orthogonality is numerical: p is orthogonal to q when p <= 1-q holds
    pointwise.  For every orthogonal pair the sum must be a member and the
    least upper bound of the pair within the set.
    """
    return collect(_algebra_laws(ev.elements, *_scaled(ev.elements, ev.events)))


def _algebra_laws(labels, den, events, member, le):
    # events are the vectors scaled by den, member and le as in _scaled
    m = len(events)

    # den is the constant 1 scaled, one coordinate per coordinate of the vectors
    yield "contains-bounds", (
        None if (0,) * len(den) in member and tuple(den) in member
        else Failure("contains-bounds", {}, "missing a constant vector"))

    compl = [tuple(map(sub, den, p)) for p in events]
    yield scan("complement-closed", "p", labels, [[c in member for c in compl]], [[True] * m])

    # q is orthogonal to p when q <= 1-p: the down-mask of 1-p among the
    # events and their complements, read as the up-mask of the negated
    # values, cut down to the members
    down = _pointwise_up([[-v for v in col] for col in zip(*events, *compl)], 2 * m)
    orth = [d & (1 << m) - 1 for d in down[m:]]

    def bad_triples():
        # q from p on and r from q on, over the members orthogonal to both
        for i, p in enumerate(events):
            for j in _bits(orth[i] >> i << i):
                pq = tuple(map(add, p, events[j]))
                for r in _bits((orth[i] & orth[j]) >> j << j):
                    if tuple(map(add, pq, events[r])) not in member:
                        yield i, j, r

    hit = next(bad_triples(), None)
    yield "orthogonal-triple-sum", hit and Failure(
        "orthogonal-triple-sum", witness("pqr", labels, hit))

    # p+q for the orthogonal q from p on: a member, and the supremum when
    # its up-set is theirs in common (lattice._bounds)
    sums = ((i, j, member.get(tuple(map(add, p, events[j])), -1))
            for i, p in enumerate(events) for j in _bits(orth[i] >> i << i))
    hit = next(((i, j, "sum is not a member" if s < 0 else "sum is not the supremum")
                for i, j, s in sums if s < 0 or le[s] != le[i] & le[j]), None)
    yield "orthogonal-pair-sum", hit and Failure(
        "orthogonal-pair-sum", witness("pq", labels, hit), hit[2])


def _packing(den, events):
    """(packed, over, top): the scaled vectors as one int each, coordinate
    k in a field of w bits, w = max(den[k], spread).bit_length() + 2 with
    spread the largest minus the smallest value of the coordinate.

    Packing is linear, so p+q-2(p^q) packs to the same three int
    operations on the packed vectors.  Its value is at least 0 and at most
    twice the spread in each coordinate, so no field borrows from or
    carries into its neighbour, and after adding over a field has its top
    bit (in top) set exactly when its value exceeds den[k].  Two packed
    vectors are equal only when the vectors are, for those sums and for a
    complement-closed set's members.
    """
    shifts, over, top, offset = [], 0, 0, 0
    for d, col in zip(den, zip(*events)):
        w = max(d, max(col) - min(col)).bit_length() + 2
        shifts.append(offset)
        over += (1 << w - 1) - 1 - d << offset
        top |= 1 << offset + w - 1
        offset += w
    return [sum(map(int.__lshift__, vec, shifts)) for vec in events], over, top


def hat_plus(p, q, meet):
    """The candidate ring addition p + q - 2(p^q), pointwise."""
    return tuple(a + b - 2 * c for a, b, c in zip(p, q, meet))


def boolean_test(ev: NumericalEventSet):
    """Boolean exactly when p + q - 2(p^q) stays pointwise at most 1.

    Returns (witness, plus): witness is None when the set is Boolean and
    otherwise names the first p, q and the state where the value exceeds
    1; plus is None then.  When the set is Boolean, plus is its addition
    table, which is the symmetric difference (p^q')v(p'^q) of the set's
    own lattice, lattice._t1 (p -> 1-p reverses the order and is an
    involution).  The vectors must be distinct (else ValidationError) and
    lattice-ordered: every pair has an infimum and a supremum in the set
    under the pointwise order (else NotLatticeOrdered).  Where no value
    exceeds 1 but p + q - 2(p^q) is not the vector of that table's entry,
    NotAnEventAlgebra is raised when the vectors fail a
    probability-algebra axiom, and OracleMismatch only when they satisfy
    them all.
    """
    labels = ev.elements
    den, events, member, up = _scaled(labels, ev.events)
    m = len(events)
    if len(member) != m:
        raise ValidationError("event vectors are not distinct")

    meet, _, bad = lattice_tables(labels, up)
    if bad is not None:
        kind, pair = bad
        raise NotLatticeOrdered("infimum" if kind == "meet" else "supremum", pair)

    compl = [member.get(tuple(map(sub, den, p))) for p in events]
    if None in compl:
        raise ValidationError("event set is not complement-closed")

    # p+q-2(p^q) is symmetric in p and q: one pass over the pairs p <= q
    # looks for a value above 1 (den, scaled) on the packed vectors
    # (_packing) and keeps each row; in a row with a value above 1 the
    # vectors are walked from q = p on, up to the first such value: the witness
    packed, over, top = _packing(den, events)
    rows = []
    for i, (p, mi) in enumerate(zip(packed, meet)):
        hats = [p + q - 2 * packed[v] for q, v in zip(packed[i:], mi[i:])]
        if any(map(top.__and__, map(over.__add__, hats))):
            hit = next(((j, k, v) for j in range(i, m) for k, (v, d) in enumerate(
                zip(hat_plus(events[i], events[j], events[mi[j]]), den)) if v > d), None)
            if hit is None:
                raise OracleMismatch("packed event vectors exceed 1 where the vectors do not")
            j, pos, v = hit
            return {"p": labels[i], "q": labels[j], "state": pos,
                    "value": str(Fraction(v, den[pos]))}, None
        rows.append(hats)

    # no value exceeds 1: the kept rows must be the set's own symmetric
    # difference, packed; both tables are symmetric, so the first mismatch
    # from p <= q on is the first of the whole table
    plus = _t1(meet, compl)
    hit = first_mismatch([(i,) for i in range(m)], rows,
                         ([packed[v] for v in row[i:]] for i, row in enumerate(plus)))
    if hit is not None:
        # the axiom check is exhaustive and slow: only a failed
        # cross-check pays for it
        algebra = collect(_algebra_laws(labels, den, events, member, up))
        if not algebra.passed:
            raise NotAnEventAlgebra(algebra)
        raise OracleMismatch(
            "ring addition disagrees with the symmetric difference "
            f"at ({labels[hit[0]]}, {labels[hit[0] + hit[1]]})"
        )
    return None, plus


def check_representation(r: RlseTables, ev: NumericalEventSet, f) -> Verdict:
    """Verify that f embeds the event ring into the numerical algebra.

    f maps element labels to event vectors.  Checked hypotheses, in order,
    up to the first failure: f is a bijection onto the event set; f is an
    order isomorphism for the multiplicative order versus the pointwise
    order; f turns orthogonal sums into vector sums; the vectors satisfy
    the probability-algebra axioms.  A malformed r raises MalformedTable.
    """
    from .rlse import _check_shape  # not at the top: state commands skip rlse
    _check_shape(r)
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

    V = r._rows  # the ring's order (up), rows (P) and orthogonality (TN)
    # order and sums compare alike on the vectors scaled to ints
    _, vecs, _, up = _scaled(els, vecs)
    yield scan("order-isomorphism", "xy", els,
               ([ux >> y & 1 for y in range(r.n)] for ux in V.up),
               ([ux >> y & 1 for y in range(r.n)] for ux in up))

    # only orthogonal pairs, TN[x][y] = x, count; the others read None on both sides
    yield scan("orthogonal-additivity", "xy", els,
               ([vecs[v] if t == x else None for v, t in zip(px, tnx)]
                for x, (px, tnx) in enumerate(zip(V.P, V.TN))),
               ([tuple(map(add, vx, vy)) if t == x else None for vy, t in zip(vecs, tnx)]
                for x, (vx, tnx) in enumerate(zip(vecs, V.TN))))

    algebra = check_s_probability_algebra(ev)
    yield "algebra-axioms", None if algebra.passed else Failure(
        "algebra-axioms", {"axiom": algebra.failures[0].law})
