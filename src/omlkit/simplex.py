"""Compact-tableau two-phase simplex over exact rationals.

Solves  max c.x  subject to  A x <= b, x >= 0  exactly, for int or
Fraction coefficients; the optimum and the vertex come back as Fractions.

Variables are numbered: the n structural ones first, then one slack per
row, then one artificial per row with a negative right-hand side.  The
tableau keeps only the nonbasic columns; row i reads

    x[basis[i]] + sum_k tableau[i][k] * x[nonbasic[k]] = tableau[i][-1]

and a pivot swaps the entering and the leaving variable in place.  There
are n nonbasic columns plus one per artificial still basic, so a pivot
touches a few entries per row instead of one per variable.  The basic
columns a full tableau would also carry are unit vectors, and its
reduced costs on them are zero, so they never take part in a choice.

The rows are fraction-free (Edmonds 1967, Bareiss 1968): each is a list
of ints over its own positive denominator, and a pivot rewrites only the
rows with a nonzero entry in its column, each divided by its gcd.  The
ratio test cross-multiplies, where the row denominators cancel.  The
objective rows come last, the phase-two one carried through phase one.

Pivoting uses Bland's smallest-index rule on variable numbers: enter the
smallest-numbered nonbasic with a positive reduced cost, leave by the
minimum ratio with ties going to the smallest-numbered basic variable.
Artificials never re-enter, so the column of one that leaves is dropped.
After phase one, a zero-level artificial still basic is swapped for the
smallest-numbered nonbasic with a nonzero entry in its row.  Every choice
depends only on variable numbers and on entries that exact arithmetic
makes equal in any representation of one basis, so the pivots, and the
vertex returned, are those of the full tableau under the same rule.
Bland's rule rules out cycling at the price of a few extra pivots.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = ["maximize", "InfeasibleError", "UnboundedError"]


class InfeasibleError(Exception):
    """The constraint system has no solution at all."""


class UnboundedError(Exception):
    """The objective can be pushed beyond every bound."""


def maximize(c, rows, rhs):
    """Return (optimal value, vertex x) for max c.x, rows.x <= rhs, x >= 0,
    all Fractions.

    Raises InfeasibleError or UnboundedError.  Fully deterministic: the
    same input always yields the same vertex.
    """
    m, n = len(rows), len(c)
    first_art = n + m
    # Nonbasic columns: the structural variables, then the slack of every
    # row whose artificial starts basic.
    neg = [i for i in range(m) if rhs[i] < 0]
    nonbasic = [*range(n), *(n + i for i in neg)]
    basis = [n + i for i in range(m)]

    # tableau[i] / den[i] is row i; the cost row follows the m constraints
    tableau, den = [], []
    for coefs in [*([*row, b] for row, b in zip(rows, rhs)), [*c, 0]]:
        d = lcm(*(v.denominator for v in coefs))
        row = [v.numerator * (d // v.denominator) for v in coefs]
        row[n:n] = [0] * len(neg)
        tableau.append(row)
        den.append(d)
    for k, i in enumerate(neg):
        tableau[i] = [-v for v in tableau[i]]
        tableau[i][n + k] = -den[i]
        basis[i] = first_art + k

    if neg:
        # Phase one: drive the artificial variables to zero.
        d = lcm(*(den[i] for i in neg))
        tableau.append([sum(col) for col in zip(
            *([v * (d // den[i]) for v in tableau[i]] for i in neg))])
        den.append(d)
        _pivot_until_optimal(tableau, den, basis, nonbasic, first_art)
        if tableau.pop()[-1]:
            raise InfeasibleError("artificial variables cannot be eliminated")
        den.pop()
        _evict_artificials(tableau, den, basis, nonbasic, first_art)
    _pivot_until_optimal(tableau, den, basis, nonbasic, first_art)

    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = Fraction(tableau[i][-1], den[i])
    return Fraction(-tableau[-1][-1], den[-1]), x


def _pivot_until_optimal(tableau, den, basis, nonbasic, first_art):
    """Bland's rule as in the module docstring, on the last row's costs."""
    while True:
        obj = tableau[-1]
        col = -1
        for k, var in enumerate(nonbasic):
            if obj[k] > 0 and (col < 0 or var < nonbasic[col]):
                col = k
        if col < 0:
            return
        leave = -1
        for i, bv in enumerate(basis):
            a = tableau[i][col]
            if a > 0:
                b = tableau[i][-1]
                if leave < 0 or b * best_a < best_b * a or (
                        b * best_a == best_b * a and bv < basis[leave]):
                    leave, best_b, best_a = i, b, a
        if leave < 0:
            raise UnboundedError("improving column has no blocking row")
        _pivot(tableau, den, basis, nonbasic, leave, col)
        if nonbasic[col] >= first_art:
            _drop_column(tableau, nonbasic, col)


def _pivot(tableau, den, basis, nonbasic, r, col):
    """Exchange basis[r] and nonbasic[col]; column col then holds the
    leaving variable's coefficients."""
    prow = tableau[r]
    p = prow[col]
    prow[col] = den[r]
    if p < 0:
        prow, p = [-v for v in prow], -p
    tableau[r], den[r] = prow, p = _lowest(prow, p)
    for i, row in enumerate(tableau):
        f = row[col]
        if f and i != r:
            # (A_i p - f A_r) / (d_i p), with A_i's entry in col read as 0
            row[col] = 0
            tableau[i], den[i] = _lowest([v * p - f * w for v, w in zip(row, prow)],
                                         den[i] * p)
    basis[r], nonbasic[col] = nonbasic[col], basis[r]


def _lowest(row, d):
    """The row over d, divided by the gcd of d and its entries."""
    g = gcd(d, *row)
    return ([v // g for v in row], d // g) if g > 1 else (row, d)


def _drop_column(tableau, nonbasic, col):
    for row in tableau:
        del row[col]
    del nonbasic[col]


def _evict_artificials(tableau, den, basis, nonbasic, first_art):
    """Pivot leftover zero-level artificials onto real columns.

    Every row carries its own slack, so the real columns have full row
    rank and an artificial's row always has a nonzero real entry: no row
    is ever redundant.
    """
    for i, bv in enumerate(basis):
        if bv >= first_art:
            row = tableau[i]
            col = min((k for k, v in enumerate(nonbasic) if row[k]),
                      key=nonbasic.__getitem__)
            _pivot(tableau, den, basis, nonbasic, i, col)
            _drop_column(tableau, nonbasic, col)
