"""Exact simplex: hand cases, a classic cycling instance, and a
brute-force vertex oracle on small random programs."""

import math
import random
from fractions import Fraction as F
from itertools import chain, combinations

import pytest

from omlkit.simplex import InfeasibleError, UnboundedError, maximize


def test_unit_box():
    value, x = maximize([F(1), F(1)], [[F(1), F(0)], [F(0), F(1)]], [F(1), F(1)])
    assert value == 2
    assert x == [F(1), F(1)]


def test_negative_rhs_needs_phase_one():
    # 1 <= x <= 2
    value, x = maximize([F(1)], [[F(1)], [F(-1)]], [F(2), F(-1)])
    assert (value, x) == (2, [F(2)])
    value, x = maximize([F(-1)], [[F(1)], [F(-1)]], [F(2), F(-1)])
    assert (value, x) == (-1, [F(1)])


def test_infeasible():
    with pytest.raises(InfeasibleError):
        maximize([F(1)], [[F(1)], [F(-1)]], [F(1), F(-2)])


def test_unbounded():
    with pytest.raises(UnboundedError):
        maximize([F(1)], [[F(-1)]], [F(0)])


def test_exact_fractions():
    value, x = maximize([F(1)], [[F(3)]], [F(1)])
    assert value == F(1, 3)
    assert x == [F(1, 3)]
    value, _ = maximize([F(2, 7)], [[F(5, 3)]], [F(11, 13)])
    assert value == F(2, 7) * F(11, 13) / F(5, 3)


def test_redundant_rows():
    value, x = maximize([F(1)], [[F(1)], [F(1)], [F(2)]], [F(1), F(1), F(2)])
    assert (value, x) == (1, [F(1)])


def test_zero_dimensional_program():
    value, x = maximize([], [], [])
    assert (value, x) == (0, [])


def test_beale_cycling_instance():
    # degenerate pivots cycle under naive rules; the smallest-index rule
    # must terminate at 1/20
    c = [F(3, 4), F(-150), F(1, 50), F(-6)]
    rows = [
        [F(1, 4), F(-60), F(-1, 25), F(9)],
        [F(1, 2), F(-90), F(-1, 50), F(3)],
        [F(0), F(0), F(1), F(0)],
    ]
    rhs = [F(0), F(0), F(1)]
    value, x = maximize(c, rows, rhs)
    assert value == F(1, 20)
    assert x == [F(1, 25), F(0), F(1), F(0)]


def _brute_force_max(c, rows, rhs, box):
    """Enumerate candidate vertices of {Ax <= b, 0 <= x <= box} in 2d."""
    lines = [(row[0], row[1], b) for row, b in zip(rows, rhs)]
    lines += [(F(1), F(0), box), (F(0), F(1), box),
              (F(-1), F(0), F(0)), (F(0), F(-1), F(0))]
    points = []
    for (a1, b1, c1), (a2, b2, c2) in combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        x = (c1 * b2 - c2 * b1) / det
        y = (a1 * c2 - a2 * c1) / det
        if x < 0 or y < 0 or x > box or y > box:
            continue
        if all(a * x + b * y <= cc for a, b, cc in lines):
            points.append((x, y))
    if not points:
        return None
    return max(c[0] * x + c[1] * y for x, y in points)


def test_against_vertex_enumeration():
    rng = random.Random(4242)
    box = F(3)
    for trial in range(40):
        c = [F(rng.randint(-4, 4)), F(rng.randint(-4, 4))]
        rows = [[F(rng.randint(-3, 3)), F(rng.randint(-3, 3))] for _ in range(3)]
        rhs = [F(rng.randint(-1, 4)) for _ in range(3)]
        rows += [[F(1), F(0)], [F(0), F(1)]]
        rhs += [box, box]
        expected = _brute_force_max(c, rows, rhs, box)
        if expected is None:
            with pytest.raises(InfeasibleError):
                maximize(c, rows, rhs)
            continue
        value, x = maximize(c, rows, rhs)
        assert value == expected, (trial, c, rows, rhs)
        # the reported point is feasible and achieves the optimum
        assert all(sum(a * v for a, v in zip(row, x)) <= b
                   for row, b in zip(rows, rhs))
        assert sum(a * v for a, v in zip(c, x)) == value


# ---------------------------------------------------------------------------
# Equivalence with the dense tableau
# ---------------------------------------------------------------------------


def _dense_maximize(c, rows, rhs):
    """Reference: the full m x (n + m + artificials + 1) tableau under
    Bland's rule.  The compact routine must take the same pivots."""
    m, n = len(rows), len(c)
    art_of = {}
    n_art = 0
    for i in range(m):
        if rhs[i] < 0:
            art_of[i] = n_art
            n_art += 1
    width = n + m + n_art + 1

    tableau = []
    basis = []
    for i in range(m):
        row = [F(0)] * width
        sign = -1 if i in art_of else 1
        for j in range(n):
            if rows[i][j]:
                row[j] = sign * rows[i][j]
        row[n + i] = F(sign)
        row[-1] = sign * rhs[i]
        if i in art_of:
            row[n + m + art_of[i]] = F(1)
            basis.append(n + m + art_of[i])
        else:
            basis.append(n + i)
        tableau.append(row)

    def pivot(obj, r, col):
        prow = tableau[r]
        piv = prow[col]
        if piv != 1:
            tableau[r] = prow = [v / piv for v in prow]
        for i, row in enumerate(tableau):
            if i != r and row[col]:
                coef = row[col]
                tableau[i] = [a - coef * b for a, b in zip(row, prow)]
        if obj[col]:
            coef = obj[col]
            obj[:] = [a - coef * b for a, b in zip(obj, prow)]
        basis[r] = col

    def until_optimal(obj):
        while True:
            col = next((j for j in range(n + m) if obj[j] > 0), -1)
            if col < 0:
                return
            best, leave = None, -1
            for i in range(len(tableau)):
                a = tableau[i][col]
                if a > 0:
                    ratio = tableau[i][-1] / a
                    if (best is None or ratio < best
                            or (ratio == best and basis[i] < basis[leave])):
                        best, leave = ratio, i
            if leave < 0:
                raise UnboundedError("improving column has no blocking row")
            pivot(obj, leave, col)

    if n_art:
        obj = [F(0)] * width
        for i in art_of:
            for j in range(n + m):
                obj[j] += tableau[i][j]
            obj[-1] += tableau[i][-1]
        until_optimal(obj)
        if obj[-1] != 0:
            raise InfeasibleError("artificial variables cannot be eliminated")
        dead = []
        for i in range(len(tableau)):
            if basis[i] >= n + m:
                col = next((j for j in range(n + m) if tableau[i][j]), -1)
                if col < 0:
                    dead.append(i)
                else:
                    pivot([F(0)] * width, i, col)
        for i in reversed(dead):
            del tableau[i]
            del basis[i]

    obj = [F(0)] * width
    obj[:n] = c
    for i, bv in enumerate(basis):
        if bv < n and obj[bv]:
            coef = obj[bv]
            obj[:] = [a - coef * b for a, b in zip(obj, tableau[i])]
    until_optimal(obj)
    x = [F(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tableau[i][-1]
    return -obj[-1], x


def _outcome(solve, c, rows, rhs):
    try:
        return solve(c, rows, rhs)
    except (InfeasibleError, UnboundedError) as exc:
        return type(exc)


def _general_program(rng):
    """A small LP mixing every path: phase one, degenerate and redundant
    rows, and infeasible or unbounded programs."""
    n = rng.randint(1, 5)
    m = rng.randint(1, 7)

    def coef():
        return F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))

    c = [coef() for _ in range(n)]
    rows = [[coef() for _ in range(n)] for _ in range(m)]
    rhs = [F(rng.randint(-3, 5), rng.choice((1, 2))) for _ in range(m)]
    if rng.random() < 0.5:
        # a box keeps most programs bounded
        for j in range(n):
            rows.append([F(int(j == k)) for k in range(n)])
            rhs.append(F(rng.randint(0, 3)))
    for _ in range(rng.randint(0, 3)):
        # redundant copies, scaled or summed, often with negative sides
        i = rng.randrange(len(rows))
        f = F(rng.choice((1, 2, -1, 3)), rng.choice((1, 2)))
        if f > 0:
            rows.append([f * v for v in rows[i]])
            rhs.append(f * rhs[i])
        else:
            k = rng.randrange(len(rows))
            rows.append([a + b for a, b in zip(rows[i], rows[k])])
            rhs.append(rhs[i] + rhs[k])
    if rng.random() < 0.3:
        # an equality written as two inequalities: redundant artificials
        i = rng.randrange(len(rows))
        rows.append([-v for v in rows[i]])
        rhs.append(-rhs[i])
    if rng.random() < 0.3:
        for i in rng.sample(range(len(rows)), min(2, len(rows))):
            rhs[i] = F(0)
    return c, rows, rhs


def _order_program(rng):
    """A 0/1 polytope cut by x_i <= x_j, x_i + x_j <= 1, x_i + x_j >= 1 and
    x_i <= 1, like the state polytopes: degenerate vertices and many
    optimal ones, where a different pivot rule ends elsewhere."""
    n = rng.randint(2, 6)
    c = [F(rng.choice((-1, 0, 0, 1))) for _ in range(n)]
    rows, rhs = [], []
    for _ in range(rng.randint(2, 10)):
        i, j = rng.sample(range(n), 2)
        row = [F(0)] * n
        kind = rng.randrange(4)
        if kind == 0:
            row[i], row[j], b = F(1), F(-1), F(0)
        elif kind == 1:
            row[i], row[j], b = F(1), F(1), F(1)
        elif kind == 2:
            row[i], row[j], b = F(-1), F(-1), F(-1)
        else:
            row[i], b = F(1), F(1)
        rows.append(row)
        rhs.append(b)
    return c, rows, rhs


def test_compact_tableau_matches_the_dense_tableau():
    rng = random.Random(20240611)
    seen = {"optimal": 0, InfeasibleError: 0, UnboundedError: 0,
            "phase one": 0}
    for trial in range(3000):
        make = _general_program if trial % 2 else _order_program
        c, rows, rhs = make(rng)
        expected = _outcome(_dense_maximize, c, rows, rhs)
        got = _outcome(maximize, c, rows, rhs)
        assert got == expected, (trial, c, rows, rhs)
        seen["optimal" if isinstance(expected, tuple) else expected] += 1
        seen["phase one"] += any(b < 0 for b in rhs)
    assert min(seen.values()) >= 100, seen


def _mixed_program(rng):
    """Coefficients with denominators from 1 to 97 and numerators up to
    60 in size, right-hand sides of either sign, and often a box of
    scaled unit rows, so that the rows reach the simplex with unlike
    denominators."""
    n = rng.randint(1, 4)
    m = rng.randint(1, 6)

    def coef(lo=-60, hi=60):
        return F(rng.randint(lo, hi), rng.randint(1, 97))

    c = [coef() for _ in range(n)]
    rows = [[coef() for _ in range(n)] for _ in range(m)]
    rhs = [coef(-40, 60) for _ in range(m)]
    if rng.random() < 0.6:
        for j in range(n):
            rows.append([coef(1, 60) if j == k else F(0) for k in range(n)])
            rhs.append(coef(1, 60))
    return c, rows, rhs


def test_compact_tableau_matches_the_dense_tableau_on_mixed_denominators():
    rng = random.Random(97)
    seen = {"optimal": 0, InfeasibleError: 0, "phase one": 0}
    for trial in range(1500):
        c, rows, rhs = _mixed_program(rng)
        expected = _outcome(_dense_maximize, c, rows, rhs)
        got = _outcome(maximize, c, rows, rhs)
        assert got == expected, (trial, c, rows, rhs)
        if isinstance(got, tuple):
            value, x = got
            assert type(value) is F and all(type(v) is F for v in x), (trial, got)
            seen["optimal"] += 1
        elif got is InfeasibleError:
            seen[got] += 1
        seen["phase one"] += any(b < 0 for b in rhs)
    assert min(seen.values()) >= 150, seen


def _times(k, program, kind=int):
    """The program with c, every row and the right-hand side times k."""
    c, rows, rhs = program
    return ([kind(k * v) for v in c], [[kind(k * v) for v in r] for r in rows],
            [kind(k * v) for v in rhs])


def test_int_and_scaled_programs_reach_the_same_vertex():
    # the state search hands the simplex its rows, bounds and objective as
    # ints, all times one common denominator: that changes neither the
    # vertex nor the pivots that lead to it, and scales the value
    rng = random.Random(1616)
    seen = {"optimal": 0, InfeasibleError: 0, UnboundedError: 0, "phase one": 0}
    for trial in range(1500):
        program = (_general_program, _order_program, _mixed_program)[trial % 3](rng)
        c, rows, rhs = program
        den = math.lcm(*(v.denominator for v in chain(c, rhs, *rows)))
        got = _outcome(maximize, *_times(den, program))
        assert _outcome(maximize, *_times(den, program, F)) == got, (trial, program)
        original = _outcome(maximize, *program)
        k = rng.choice((2, 3, 7, 60, 997))
        scaled = _outcome(maximize, *_times(k * den, program))
        if isinstance(got, tuple):
            value, x = got
            assert type(value) is F and all(type(v) is F for v in x), (trial, got)
            assert original == (value / den, x), (trial, program)
            assert scaled == (k * value, x), (trial, k, program)
            seen["optimal"] += 1
        else:
            assert original == scaled == got, (trial, program)
            seen[got] += 1
        seen["phase one"] += any(b < 0 for b in rhs)
    assert min(seen.values()) >= 150, seen
