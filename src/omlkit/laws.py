"""Every law the toolkit checks, one verdict type, one counterexample scanner.

A check returns a Verdict: whether it passed, the laws it checked in
order, and one Failure per broken law carrying the first counterexample
(variable -> element label) and a detail line.  scan is the one step from
a law's rows to its Failure: one row per assignment of all variables but
the last, compared whole, so the first differing row and position give
the lexicographically first counterexample.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

__all__ = ["LAWS", "Failure", "Verdict", "collect", "first_mismatch", "scan", "witness"]


#: Statement of every law, by name, with the family it belongs to:
#: orthomodular lattices ("lattice", in the order check_oml runs them),
#: event rings ("ring"), the lattice side of the ring correspondence
#: ("correspondence"), states ("state"), numerical event algebras
#: ("event") and the representation of a ring by event vectors
#: ("representation").
LAWS = {
    "meet-exists": ("lattice", "every pair has an infimum"),
    "join-exists": ("lattice", "every pair has a supremum"),
    "involution": ("lattice", "x'' = x"),
    "antitone": ("lattice", "x <= y  implies  y' <= x'"),
    "complement-law": ("lattice", "x^x' = 0 and x v x' = 1"),
    "orthomodular-law": ("lattice", "((x^y) v x')^x = x^y"),
    "times-commutative": ("ring", "x*y = y*x"),
    "times-idempotent": ("ring", "x*x = x"),
    "times-associative": ("ring", "(x*y)*z = x*(y*z)"),
    "times-unit": ("ring", "x*1 = x"),
    "times-zero": ("ring", "x*0 = 0"),
    "R1": ("ring", "x+y = y+x"),
    "R2": ("ring", "(x*y + 1)*(x + 1) + 1 = x"),
    "R3": ("ring", "((x*y + 1)*x + 1)*x = x*y"),
    "R4": ("ring", "x*y + (x + 1) = (x*y + 1)*x + 1"),
    "R4-orthogonal": ("ring", "x orth y  implies  (x+y) + 1 = (x+1)*(y+1)"),
    "R5": ("ring", "x+y = x*(y+1) + (x+1)*y"),
    "weak-associativity": ("ring", "(x+y) + 1 = x + (y+1)"),
    "T": ("ring", "(x*(y+1) + 1) * ((x+1)*y + 1) + 1 = x+y"),
    "double-negation": ("ring", "(x+1) + 1 = x"),
    "negation-disjoint": ("ring", "x*(x+1) = 0"),
    "one-self-inverse": ("ring", "1+1 = 0"),
    "zero-neutral": ("ring", "x+0 = x"),
    "negation-covers": ("ring", "x + (x+1) = 1"),
    "negation-antitone": ("ring", "x <= y  iff  y+1 <= x+1"),
    "plus-self-inverse": ("ring", "x+x = 0"),
    "plus-associative": ("ring", "(x+y)+z = x+(y+z)"),
    "distributive": ("ring", "x*(y+z) = x*y + x*z"),
    "plus-at-one": ("ring", "x+1 = x'"),
    "orthogonal-join": ("ring", "x orth y  implies  x+y = x v y"),
    "times-order": ("correspondence", "x <= y iff x*y = x is a bounded partial order"),
    "bounds": ("correspondence", "the order's bottom and top are 0 and 1"),
    "meet-is-times": ("correspondence", "x ^ y = x*y"),
    "plus-commutative": ("correspondence", "x+y = y+x"),
    "range": ("state", "0 <= m(x) <= 1"),
    "top-probability-one": ("state", "m(1) = 1"),
    "orthogonal-additivity": ("state", "x orth y  implies  m(x v y) = m(x) + m(y)"),
    "order-determining": ("state", "x <= y  iff  m(x) <= m(y) for every listed state m"),
    "contains-bounds": ("event", "the constant vectors 0 and 1 belong to the set"),
    "complement-closed": ("event", "1-p belongs to the set for every member p"),
    "orthogonal-triple-sum": ("event", "p+q+r belongs to the set for pairwise "
                                       "orthogonal members"),
    "orthogonal-pair-sum": ("event", "p+q belongs to the set and is the supremum, "
                                     "for orthogonal p, q"),
    "bijection": ("representation", "f maps the elements one to one onto the events"),
    "order-isomorphism": ("representation", "x <= y  iff  f(x) <= f(y) pointwise"),
    "algebra-axioms": ("representation", "the events form a probability algebra"),
}


class Failure(NamedTuple):
    """One broken law: its first counterexample and what went wrong there."""

    law: str
    witness: dict  # variable -> element label (or a value, as a string)
    detail: str = ""

    def __str__(self) -> str:
        asg = ", ".join(f"{v}={lab}" for v, lab in self.witness.items())
        out = f"{self.law} [{LAWS.get(self.law, ('', '?'))[1]}] fails at {asg}"
        if self.detail:
            out += f": {self.detail}"
        return out


class Verdict(NamedTuple):
    """Outcome of a batch of laws: checked in order, one Failure per broken law."""

    passed: bool
    checked: tuple[str, ...] = ()
    failures: tuple[Failure, ...] = ()

    @classmethod
    def of(cls, failure: Failure) -> "Verdict":
        """The verdict of a check that ran one law and saw it fail."""
        return cls(False, (failure.law,), (failure,))

    @property
    def first(self) -> Failure | None:
        """The first failure, or None when the verdict passed."""
        return self.failures[0] if self.failures else None

    def failure_for(self, law: str) -> Failure | None:
        return next((f for f in self.failures if f.law == law), None)


def collect(results, first_only=False) -> Verdict:
    """Verdict of (law, Failure or None) pairs, consumed in checking order.

    With first_only the pairs after the first failure are not drawn, so a
    lazy sequence runs no law past it.
    """
    checked, failures = [], []
    for law, failure in results:
        checked.append(law)
        if failure is not None:
            failures.append(failure)
            if first_only:
                break
    return Verdict(not failures, tuple(checked), tuple(failures))


def first_mismatch(prefixes, lhs, rhs):
    """The first position where two sequences of rows differ.

    prefixes, lhs and rhs are parallel iterables, drawn lazily: row pairs
    are compared whole and at the first unequal pair the result is
    (*prefix, i, lhs_row[i], rhs_row[i]) for the first i where they differ.
    None when all rows agree.  Rows must be of one type (lists, say), since
    a list never equals a tuple.
    """
    for pre, a, b in zip(prefixes, lhs, rhs):
        if a != b:
            i = next(i for i, (u, v) in enumerate(zip(a, b)) if u != v)
            return (*pre, i, a[i], b[i])
    return None


def witness(names, labels, hit) -> dict:
    """The variables named by names bound to the labels of a hit's indices."""
    return {v: labels[i] for v, i in zip(names, hit)}


def scan(law, names, labels, lhs, rhs, detail=""):
    """(law, Failure or None) from rows of lhs and rhs, one per assignment of
    names but the last, lexicographic over labels; a nonempty detail is
    filled with the witness and a and b, the labels of the two sides' values."""
    hit = first_mismatch(product(range(len(labels)), repeat=max(len(names) - 1, 0)), lhs, rhs)
    if hit is None:
        return law, None
    w = witness(names, labels, hit)
    if detail:
        detail = detail.format(a=labels[hit[-2]], b=labels[hit[-1]], **w)
    return law, Failure(law, w, detail)
