"""Binary lattice terms: syntax, evaluation, and the canonical census.

Terms are trees over two variables, the constants, meet (^), join (v) and
complement (postfix ').  The canonical census enumerates the joins of the
eight basis meets whose high part (basis elements five to eight) has size
zero, one or four; that yields 16 * 6 = 96 terms, one per element of the
free algebra on two generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

from .errors import EmptyCorpus, OracleMismatch
from .lattice import FiniteOml, is_distributive
from .laws import first_mismatch, witness
from .rlse import RlseTables, addition_failure

__all__ = [
    "Term",
    "Var",
    "Const",
    "Comp",
    "Meet",
    "Join",
    "format_term",
    "eval_term",
    "term_function",
    "basis_terms",
    "canonical_index_sets",
    "enumerate_canonical_terms",
    "filter_symmetric_difference_terms",
    "chain_check",
    "T1",
    "THAT",
    "T2",
    "FilterResult",
    "SurvivorClass",
    "Elimination",
]


class Term:
    """Base class; concrete nodes are Var, Const, Comp, Meet, Join."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str  # "x" or "y"


@dataclass(frozen=True)
class Const(Term):
    value: int  # 0 or 1


@dataclass(frozen=True)
class Comp(Term):
    arg: Term


@dataclass(frozen=True)
class Meet(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Join(Term):
    left: Term
    right: Term


X = Var("x")
Y = Var("y")

#: The two addition terms and the orthomodular collapse witness between them.
T1 = Join(Meet(X, Comp(Y)), Meet(Comp(X), Y))
THAT = Join(Meet(X, Join(Comp(X), Comp(Y))), Meet(Y, Join(Comp(X), Comp(Y))))
T2 = Meet(Join(X, Y), Join(Comp(X), Comp(Y)))


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------


def format_term(t: Term) -> str:
    """Serialize with explicit parentheses around binary subterms."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return str(t.value)
    if isinstance(t, Comp):
        return _operand(t.arg) + "'"
    op = " ^ " if isinstance(t, Meet) else " v "
    return _operand(t.left) + op + _operand(t.right)


def _operand(t: Term) -> str:
    """A subterm's text, in parentheses when it is binary."""
    s = format_term(t)
    return f"({s})" if isinstance(t, (Meet, Join)) else s


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _values(t: Term, oml: FiniteOml, xs: list, ys: list) -> list:
    """t's values at the index pairs (xs[k], ys[k]), one recursion per node."""
    if isinstance(t, Var):
        return xs if t.name == "x" else ys
    if isinstance(t, Const):
        return [oml.poset.bottom if t.value == 0 else oml.poset.top] * len(xs)
    if isinstance(t, Comp):
        comp = oml.comp
        return [comp[v] for v in _values(t.arg, oml, xs, ys)]
    op = oml.meet if isinstance(t, Meet) else oml.join
    return [op[a][b] for a, b in zip(_values(t.left, oml, xs, ys),
                                     _values(t.right, oml, xs, ys))]


def eval_term(t: Term, oml: FiniteOml, x: str, y: str) -> str:
    """Evaluate at a pair of element labels."""
    return oml.elements[_values(t, oml, [oml.index(x)], [oml.index(y)])[0]]


def term_function(t: Term, oml: FiniteOml) -> tuple[tuple[int, ...], ...]:
    """A term's n x n value table on one lattice: row x holds t(x, y)."""
    n = oml.n
    flat = _values(t, oml, [x for x in range(n) for _ in range(n)], list(range(n)) * n)
    return tuple(tuple(flat[i:i + n]) for i in range(0, n * n, n))


# ---------------------------------------------------------------------------
# The canonical 96-term census
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def basis_terms() -> tuple[Term, ...]:
    """The eight basis meets, in the conventional order."""
    x, y = X, Y
    nx, ny = Comp(X), Comp(Y)
    return (
        Meet(x, y),
        Meet(x, ny),
        Meet(nx, y),
        Meet(nx, ny),
        Meet(Meet(x, Join(nx, y)), Join(nx, ny)),
        Meet(Meet(nx, Join(x, y)), Join(x, ny)),
        Meet(Meet(y, Join(x, ny)), Join(nx, ny)),
        Meet(Meet(ny, Join(x, y)), Join(nx, y)),
    )


_HIGH_PARTS = (
    frozenset(),
    frozenset({5}),
    frozenset({6}),
    frozenset({7}),
    frozenset({8}),
    frozenset({5, 6, 7, 8}),
)


@lru_cache(maxsize=1)
def canonical_index_sets() -> tuple[frozenset, ...]:
    """The 96 admissible basis subsets: any low part, a high part of size
    zero, one or four."""
    out = []
    for low_mask in range(16):
        low = frozenset(i + 1 for i in range(4) if low_mask >> i & 1)
        for high in _HIGH_PARTS:
            out.append(low | high)
    return tuple(out)


@lru_cache(maxsize=1)
def enumerate_canonical_terms() -> tuple[Term, ...]:
    """One join of basis terms per admissible subset; the empty join is 0."""
    basis = basis_terms()
    return tuple(reduce(Join, [basis[i - 1] for i in sorted(s)]) if s else Const(0)
                 for s in canonical_index_sets())


# ---------------------------------------------------------------------------
# Filtering down to the addition candidates
# ---------------------------------------------------------------------------


class Elimination(NamedTuple):
    """Why one canonical term was rejected, with its first counterexample."""

    term_index: int
    index_set: frozenset
    condition: str          # symmetry / complement-at-one / orthogonal-join
    corpus_position: int
    witness: dict


class SurvivorClass(NamedTuple):
    """Terms that pass all three conditions and share all value tables."""

    term_indices: tuple[int, ...]
    index_sets: tuple[frozenset, ...]
    terms: tuple[Term, ...]
    tables: tuple[tuple[tuple[int, ...], ...], ...]  # one per corpus member


class FilterResult(NamedTuple):
    survivors: tuple[SurvivorClass, ...]
    eliminated: tuple[Elimination, ...]


#: The filter's name for each admissible-addition law of the ring side.
_CONDITIONS = {"R1": "symmetry", "plus-at-one": "complement-at-one",
               "orthogonal-join": "orthogonal-join"}


def _table_condition(table, oml: FiniteOml):
    """The first condition a term table breaks on oml, as (name, witness),
    or None; the table is judged as the addition of the ring whose
    multiplication is the lattice's meet."""
    r = RlseTables(oml.elements, table, oml.meet, oml.poset.bottom, oml.poset.top)
    f = addition_failure(r, oml.comp)
    return f and (_CONDITIONS[f.law], f.witness)


def filter_symmetric_difference_terms(corpus) -> FilterResult:
    """Keep the canonical terms that behave like an addition everywhere.

    corpus is a sequence of lattices; a term survives when its table is an
    admissible addition (rlse.ADDITION_LAWS: symmetric, x' at (x, 1), the
    join on orthogonal pairs) on every member.  Survivors are grouped
    extensionally: two terms land in one class when all their value tables
    coincide, and the classes come in the order of their first terms.
    """
    corpus = list(corpus)
    if not corpus:
        raise EmptyCorpus("term filtering needs at least one structure")
    terms = enumerate_canonical_terms()
    index_sets = canonical_index_sets()
    eliminated = []
    by_tables: dict = {}  # tables -> term indices
    for ti, t in enumerate(terms):
        tables = []
        for ci, oml in enumerate(corpus):
            table = term_function(t, oml)
            failure = _table_condition(table, oml)
            if failure is not None:
                eliminated.append(Elimination(ti, index_sets[ti], failure[0], ci, failure[1]))
                break
            tables.append(table)
        else:
            by_tables.setdefault(tuple(tables), []).append(ti)
    classes = [SurvivorClass(tuple(members), tuple(index_sets[ti] for ti in members),
                             tuple(terms[ti] for ti in members), tables)
               for tables, members in by_tables.items()]
    return FilterResult(tuple(classes), tuple(eliminated))


# ---------------------------------------------------------------------------
# The chain between the two additions
# ---------------------------------------------------------------------------


def chain_check(oml: FiniteOml):
    """Verify t1 <= that = t2 pointwise and that t1 = t2 exactly on
    distributive lattices.

    Returns (chain_holds, hat_equals_t2, witness): whether t1 <= that <= t2
    pointwise, whether that = t2, and the first pair where t1 and t2
    differ, None when they are equal.  The biconditional is cross-checked
    against is_distributive, and any disagreement raises.
    """
    n = oml.n
    up = oml.poset.up
    a, b, c = (term_function(t, oml) for t in (T1, THAT, T2))
    chain = all(
        up[a[x][y]] >> b[x][y] & 1 and up[b[x][y]] >> c[x][y] & 1
        for x in range(n) for y in range(n)
    )
    hat_eq = b == c
    hit = first_mismatch(((x,) for x in range(n)), a, c)
    t1_eq = hit is None
    distributive, _ = is_distributive(oml)
    if t1_eq != distributive:
        raise OracleMismatch(
            "t1 = t2 must hold exactly on distributive lattices; "
            f"equality {t1_eq}, distributivity {distributive}"
        )
    return chain, hat_eq, hit and witness(("x", "y", "t1", "t2"), oml.elements, hit)
