"""Binary lattice terms: syntax, evaluation, and the canonical census.

Terms are trees over two variables, the constants, meet (^), join (v) and
complement (postfix ').  The canonical census enumerates the joins of the
eight basis meets whose high part (basis elements five to eight) has size
zero, one or four; that yields 16 * 6 = 96 terms, one per element of the
free algebra on two generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    "TermFunction",
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
    "ChainReport",
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
        inner = format_term(t.arg)
        if isinstance(t.arg, (Meet, Join)):
            inner = f"({inner})"
        return inner + "'"
    op = " ^ " if isinstance(t, Meet) else " v "
    sides = []
    for side in (t.left, t.right):
        s = format_term(side)
        if isinstance(side, (Meet, Join)):
            s = f"({s})"
        sides.append(s)
    return op.join(sides)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _eval_idx(t: Term, oml: FiniteOml, xi: int, yi: int) -> int:
    if isinstance(t, Var):
        return xi if t.name == "x" else yi
    if isinstance(t, Const):
        return oml.poset.bottom if t.value == 0 else oml.poset.top
    if isinstance(t, Comp):
        return oml.comp[_eval_idx(t.arg, oml, xi, yi)]
    a = _eval_idx(t.left, oml, xi, yi)
    b = _eval_idx(t.right, oml, xi, yi)
    table = oml.meet if isinstance(t, Meet) else oml.join
    return table[a][b]


def eval_term(t: Term, oml: FiniteOml, x: str, y: str) -> str:
    """Evaluate at a pair of element labels."""
    return oml.elements[_eval_idx(t, oml, oml.index(x), oml.index(y))]


def _eval_table(t: Term, oml: FiniteOml):
    """Full n x n value table of a term, computed bottom-up."""
    n = oml.n
    if isinstance(t, Var):
        if t.name == "x":
            return tuple(tuple(i for _ in range(n)) for i in range(n))
        return tuple(tuple(range(n)) for _ in range(n))
    if isinstance(t, Const):
        v = oml.poset.bottom if t.value == 0 else oml.poset.top
        return tuple(tuple(v for _ in range(n)) for _ in range(n))
    if isinstance(t, Comp):
        sub = _eval_table(t.arg, oml)
        comp = oml.comp
        return tuple(tuple(comp[v] for v in row) for row in sub)
    left = _eval_table(t.left, oml)
    right = _eval_table(t.right, oml)
    op = oml.meet if isinstance(t, Meet) else oml.join
    return tuple(
        tuple(op[a][b] for a, b in zip(lr, rr)) for lr, rr in zip(left, right)
    )


@dataclass(frozen=True)
class TermFunction:
    """A term's value table on one lattice."""

    oml: FiniteOml
    table: tuple[tuple[int, ...], ...]


def term_function(t: Term, oml: FiniteOml) -> TermFunction:
    return TermFunction(oml, _eval_table(t, oml))


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
    out = []
    for idx_set in canonical_index_sets():
        t = None
        for i in sorted(idx_set):
            b = basis[i - 1]
            t = b if t is None else Join(t, b)
        out.append(Const(0) if t is None else t)
    return tuple(out)


# ---------------------------------------------------------------------------
# Filtering down to the addition candidates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Elimination:
    """Why one canonical term was rejected, with its first counterexample."""

    term_index: int
    index_set: frozenset
    condition: str          # symmetry / complement-at-one / orthogonal-join
    corpus_position: int
    witness: dict


@dataclass(frozen=True)
class SurvivorClass:
    """Terms that pass all three conditions and share all value tables."""

    term_indices: tuple[int, ...]
    index_sets: tuple[frozenset, ...]
    terms: tuple[Term, ...]
    tables: tuple[tuple[tuple[int, ...], ...], ...]  # one per corpus member


@dataclass(frozen=True)
class FilterResult:
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
    coincide.
    """
    corpus = list(corpus)
    if not corpus:
        raise EmptyCorpus("term filtering needs at least one structure")
    terms = enumerate_canonical_terms()
    index_sets = canonical_index_sets()
    eliminated = []
    survivors = []  # (term_index, tables)
    for ti, t in enumerate(terms):
        tables = []
        verdict = None
        for ci, oml in enumerate(corpus):
            table = _eval_table(t, oml)
            failure = _table_condition(table, oml)
            if failure is not None:
                verdict = Elimination(ti, index_sets[ti], failure[0], ci, failure[1])
                break
            tables.append(table)
        if verdict is None:
            survivors.append((ti, tuple(tables)))
        else:
            eliminated.append(verdict)

    by_tables: dict = {}
    for ti, tables in survivors:
        by_tables.setdefault(tables, []).append(ti)
    classes = []
    for tables, members in sorted(by_tables.items(), key=lambda kv: kv[1][0]):
        classes.append(SurvivorClass(
            tuple(members),
            tuple(index_sets[ti] for ti in members),
            tuple(terms[ti] for ti in members),
            tables,
        ))
    return FilterResult(tuple(classes), tuple(eliminated))


# ---------------------------------------------------------------------------
# The chain between the two additions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainReport:
    """How the three classical addition terms relate on one lattice."""

    chain_holds: bool          # t1 <= that <= t2 pointwise
    hat_equals_t2: bool
    t1_equals_t2: bool
    distributive: bool
    witness: dict | None       # first pair where t1 and t2 differ


def chain_check(oml: FiniteOml) -> ChainReport:
    """Verify t1 <= that = t2 pointwise and that t1 = t2 exactly on
    distributive lattices; the biconditional is cross-checked against a
    brute-force distributivity test and any disagreement raises."""
    n = oml.n
    up = oml.poset.up
    a = _eval_table(T1, oml)
    b = _eval_table(THAT, oml)
    c = _eval_table(T2, oml)
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
    return ChainReport(chain, hat_eq, t1_eq, distributive,
                       hit and witness(("x", "y", "t1", "t2"), oml.elements, hit))
