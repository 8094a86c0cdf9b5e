"""Compact-tableau two-phase simplex over exact rationals.

Solves  max c.x  subject to  A x <= b, x >= 0  with every coefficient a
Fraction, so verdicts are exact and the returned optimum is a vertex of
the feasible region.

Variables are numbered: the n structural ones first, then one slack per
row, then one artificial per row with a negative right-hand side.  The
tableau keeps only the nonbasic columns; row i reads

    x[basis[i]] + sum_k tableau[i][k] * x[nonbasic[k]] = tableau[i][-1]

and a pivot swaps the entering and the leaving variable in place.  There
are n nonbasic columns plus one per artificial still basic, so a pivot
touches a few entries per row instead of one per variable.  The basic
columns a full tableau would also carry are unit vectors, and its
reduced costs on them are zero, so they never take part in a choice.

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

__all__ = ["maximize", "InfeasibleError", "UnboundedError"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class InfeasibleError(Exception):
    """The constraint system has no solution at all."""


class UnboundedError(Exception):
    """The objective can be pushed beyond every bound."""


def maximize(c, rows, rhs):
    """Return (optimal value, vertex x) for max c.x, rows.x <= rhs, x >= 0.

    Raises InfeasibleError or UnboundedError.  Fully deterministic: the
    same input always yields the same vertex.
    """
    m, n = len(rows), len(c)
    first_art = n + m
    # Nonbasic columns: the structural variables, then the slack of every
    # row whose artificial starts basic.
    nonbasic = list(range(n))
    neg = [i for i in range(m) if rhs[i] < 0]
    nonbasic += [n + i for i in neg]
    art_of = {i: k for k, i in enumerate(neg)}
    width = len(nonbasic)

    tableau = []
    basis = []
    for i in range(m):
        row = [_ZERO] * (width + 1)
        if i in art_of:
            for j, v in enumerate(rows[i]):
                if v:
                    row[j] = -v
            row[n + art_of[i]] = -_ONE
            row[-1] = -rhs[i]
            basis.append(first_art + art_of[i])
        else:
            for j, v in enumerate(rows[i]):
                if v:
                    row[j] = v
            row[-1] = rhs[i]
            basis.append(n + i)
        tableau.append(row)

    if neg:
        # Phase one: drive the artificial variables to zero.
        obj = [_ZERO] * (width + 1)
        for i in neg:
            for k, v in enumerate(tableau[i]):
                if v:
                    obj[k] += v
        _pivot_until_optimal(tableau, basis, nonbasic, obj, first_art)
        if obj[-1] != 0:
            raise InfeasibleError("artificial variables cannot be eliminated")
        _evict_artificials(tableau, basis, nonbasic, first_art)

    obj = [_ZERO] * (len(nonbasic) + 1)
    for k, var in enumerate(nonbasic):
        if var < n:
            obj[k] = c[var]
    for i, bv in enumerate(basis):
        if bv < n and c[bv]:
            coef = c[bv]
            for k, v in enumerate(tableau[i]):
                if v:
                    obj[k] -= coef * v
    _pivot_until_optimal(tableau, basis, nonbasic, obj, first_art)

    x = [_ZERO] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tableau[i][-1]
    return -obj[-1], x


def _pivot_until_optimal(tableau, basis, nonbasic, obj, first_art):
    """Bland's rule on variable numbers, as in the module docstring."""
    while True:
        col = -1
        for k, var in enumerate(nonbasic):
            if obj[k] > 0 and (col < 0 or var < nonbasic[col]):
                col = k
        if col < 0:
            return
        best = None
        leave = -1
        for i, row in enumerate(tableau):
            a = row[col]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise UnboundedError("improving column has no blocking row")
        _pivot(tableau, basis, nonbasic, obj, leave, col)
        if nonbasic[col] >= first_art:
            _drop_column(tableau, nonbasic, obj, col)


def _pivot(tableau, basis, nonbasic, obj, r, col):
    """Exchange basis[r] and nonbasic[col]; column col then holds the
    leaving variable's coefficients."""
    prow = tableau[r]
    inv = _ONE / prow[col]
    prow = [v * inv if v else v for v in prow]
    prow[col] = inv
    tableau[r] = prow
    nz = [k for k, v in enumerate(prow) if v and k != col]
    for i, row in enumerate(tableau):
        if i != r and row[col]:
            _eliminate(row, prow, nz, col)
    if obj is not None and obj[col]:
        _eliminate(obj, prow, nz, col)
    basis[r], nonbasic[col] = nonbasic[col], basis[r]


def _eliminate(row, prow, nz, col):
    coef = row[col]
    for k in nz:
        row[k] -= coef * prow[k]
    row[col] = -coef * prow[col]


def _drop_column(tableau, nonbasic, obj, col):
    for row in tableau:
        del row[col]
    if obj is not None:
        del obj[col]
    del nonbasic[col]


def _evict_artificials(tableau, basis, nonbasic, first_art):
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
            _pivot(tableau, basis, nonbasic, None, i, col)
            _drop_column(tableau, nonbasic, None, col)
