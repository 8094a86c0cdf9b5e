"""The headline verification suite over the builtin corpus.

Nine criteria, each checking one advertised property of the toolkit end
to end: the census of the ninety-six binary terms, the two-class
filter result, round trips between lattices and event rings with
cross-checked verdicts, the Boolean-ring characterization, the derived
identities, uniqueness of the ring addition, full state sets with the
event-set axioms, the event-ring inequality against the lattice's
distributivity, and the term chain.  All arithmetic is exact, so every
comparison is equality, never approximation.

Each criterion is a tuple of claims (CLAIMS) behind one judge, _judge.
A claim ranges over structures (corpus names, ring labels such as
"mo2+t1", mutant indices) and gives, for each, what it observed and what
it expected, so it can run on any list of structures.  The judge fails a
claim that observes otherwise, or that an omlkit error cuts short, as
"<claim> on <structure>: observed <x>, expected <y>".
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import NamedTuple

from . import corpus, states, terms
from .corpus import FILTER_CORPUS, OML_NAMES
from .errors import OmlkitError
from .lattice import is_distributive
from .laws import Failure
from .rlse import (
    RlseTables,
    check_correspondence,
    check_derived_identities,
    check_r4_orthogonal_form,
    check_r5,
    check_rlse,
    derived_lattice,
    is_boolean_ring,
    rlse_from_oml,
)

__all__ = ["CriterionResult", "run_all", "CRITERIA"]

#: Lattices whose state spaces the suite exercises explicitly.
STATES_CORPUS = ("boolean_2", "boolean_3", "mo2", "product_2p4_mo2")

#: Both constructions on every lattice, then every ring the suite ranges over.
_CONSTRUCTIONS = tuple(f"{name}+{plus}" for name in OML_NAMES for plus in ("t1", "t2"))
_RINGS = ("paper-example-2set",) + _CONSTRUCTIONS

_MUTATION_SEED = 1729
_MUTATION_COUNT = 12


class CriterionResult(NamedTuple):
    number: int
    title: str
    passed: bool
    detail: str


class Missing(OmlkitError):
    """A result that a claim builds on was not found."""


@lru_cache(maxsize=None)
def _ring(label: str) -> RlseTables:
    """The ring of "<lattice>+t1" or "+t2", or the builtin ring of a name."""
    name, _, plus = label.rpartition("+")
    return rlse_from_oml(corpus.builtin(name), plus) if name else corpus.builtin(label)


@lru_cache(maxsize=None)
def _full_states(name: str):
    result = states.find_full_state_set(corpus.builtin(name))
    if not result.ok:
        x, y = result.failure
        raise Missing(f"full state set, as no state puts {x} above {y}")
    return result.states


@lru_cache(maxsize=None)
def _events(name: str):
    return states.events_from_states(corpus.builtin(name), _full_states(name))


@lru_cache(maxsize=None)
def _boolean_members() -> tuple[str, ...]:
    """Corpus members that are distributive, decided by is_distributive."""
    return tuple(n for n in OML_NAMES if is_distributive(corpus.builtin(n))[0])


@lru_cache(maxsize=None)
def _mutants() -> tuple[RlseTables, ...]:
    rng = random.Random(_MUTATION_SEED)
    bases = [_ring(label) for label in ("paper-example-2set", "mo2+t1", "boolean_2+t1")]
    out = []
    while len(out) < _MUTATION_COUNT:
        base = rng.choice(bases)
        field = "oplus" if rng.random() < 0.5 else "times"
        table = [list(row) for row in getattr(base, field)]
        i, j = rng.randrange(base.n), rng.randrange(base.n)
        table[i][j] = rng.choice([v for v in range(base.n) if v != table[i][j]])
        out.append(base._replace(**{field: tuple(map(tuple, table))}))
    return tuple(out)


@lru_cache(maxsize=None)
def _filtered(names: tuple[str, ...]):
    return terms.filter_symmetric_difference_terms(tuple(map(corpus.builtin, names)))


def _judge(number, title, claims, detail) -> CriterionResult:
    """Judge each claim on its structures.  detail(seen), seen holding each
    claim's observations by its name, is the passing detail."""
    failed, seen = [], {}
    for name, over, fn in claims:
        for s in over:
            try:
                observed, expected = fn(s)
            except OmlkitError as exc:
                observed, expected = f"{type(exc).__name__}: {exc}", "a result"
            seen.setdefault(name, []).append(observed)
            if observed != expected:
                failed.append(f"{name} on {s}: observed {observed}, expected {expected}")
    return CriterionResult(number, title, not failed, "; ".join(failed) or detail(seen))


def _census(name):
    ts = terms.enumerate_canonical_terms()
    oml, (x, y) = corpus.builtin(name), corpus.product_generating_pair()
    return (len(ts), len({terms.eval_term(t, oml, x, y) for t in ts})), (96, 96)


def _survivor_tables(name):
    """Whether the two surviving classes tabulate t1 and t2 on name."""
    oml, pos = corpus.builtin(name), FILTER_CORPUS.index(name)
    survivors = _filtered(FILTER_CORPUS).survivors
    return tuple(cls.tables[pos] == terms.term_function(ref, oml)
                 for cls, ref in zip(survivors, (terms.T1, terms.T2))), (True, True)


def _elimination(index_set):
    hit = next((e for e in _filtered(FILTER_CORPUS).eliminated
                if e.index_set == frozenset(index_set)), None)
    return hit and (hit.condition, FILTER_CORPUS[hit.corpus_position]), ("symmetry", "mo2")


def _round_trip(label):
    r = _ring(label)
    source = corpus.builtin(label.rpartition("+")[0])
    return (check_rlse(r).passed, derived_lattice(r) == source), (True, True)


def _example(label):
    r = _ring(label)
    valid, w = check_rlse(r).passed, is_boolean_ring(r)[1].first
    one = r.index("{1}")
    derived = derived_lattice(r)
    return ((valid, w and (w.law, w.witness), r.elements[r.oplus[one][one]],
             derived == corpus.builtin("boolean_2"), is_distributive(derived)[0]),
            (True, ("plus-self-inverse", {"x": "{1}"}), "{1,2}", True, True))


def _event_ring(name):
    """Whether the events are Boolean, with + = t1, against distributivity."""
    witness, plus = states.boolean_test(_events(name))
    t1 = plus is not None and plus == terms.term_function(terms.T1, corpus.builtin(name))
    boolean = name in _boolean_members()
    return (witness is None, t1), (boolean, boolean)


def _event_witness(name):
    w = states.boolean_test(_events(name))[0]
    return w and (w["p"], w["q"], w["value"]), ("a", "b", "2")


def _chain(name):
    chain, hat_eq, witness = terms.chain_check(corpus.builtin(name))
    return (chain, hat_eq, witness is None), (True, True, name in _boolean_members())


def _passed(verdicts):
    return tuple(v.passed for v in verdicts)


#: Each criterion's claims, by number.  A claim is a triple (name,
#: structures, fn), fn(s) giving (observed, expected) for a structure s;
#: a claim over a pair of cross-checked verdicts expects them to agree.
CLAIMS = {
    1: (("terms, distinct values", ("product_2p4_mo2",), _census),),
    2: (("surviving classes", (FILTER_CORPUS,),
         lambda names: (len(_filtered(names).survivors), 2)),
        ("survivors are t1, t2", FILTER_CORPUS, _survivor_tables),
        ("near-miss elimination", ((2, 3, 5), (2, 3, 6), (2, 3, 7), (2, 3, 8)), _elimination)),
    3: (("ring axioms, derived lattice is the source", _CONSTRUCTIONS, _round_trip),
        ("correspondence verdicts", _RINGS,
         lambda label: (_passed(check_correspondence(_ring(label))), (True, True))),
        ("mutant verdicts, axioms and lattice side", tuple(range(_MUTATION_COUNT)),
         lambda index: _passed(check_correspondence(_mutants()[index])))),
    4: (("Boolean-ring routes, identities and ring axioms", _RINGS,
         lambda label: _passed(is_boolean_ring(_ring(label)))),
        ("the 2-set example", ("paper-example-2set",), _example)),
    5: (("first failed derived identity", _RINGS,
         lambda label: (check_derived_identities(_ring(label)).first, None)),
        ("R4 forms", _RINGS,
         lambda label: (_passed(check_r4_orthogonal_form(_ring(label))), (True, True)))),
    6: (("R5 for t1", OML_NAMES, lambda name: (check_r5(_ring(f"{name}+t1")).passed, True)),
        ("R5 for t2 exactly when distributive", OML_NAMES,
         lambda name: (check_r5(_ring(f"{name}+t2")).passed, name in _boolean_members())),
        ("first R5 failure", ("mo2+t2",), lambda label: (
            check_r5(_ring(label)).first, Failure("R5", {"x": "a", "y": "b"}, "lhs 1, rhs 0")))),
    7: (("state set is full", STATES_CORPUS, lambda name: (
            states.check_full(corpus.builtin(name), _full_states(name)).passed, True)),
        ("first failed event-set axiom", STATES_CORPUS,
         lambda name: (states.check_s_probability_algebra(_events(name)).first, None))),
    8: (("Boolean event ring, + = t1, exactly when distributive", OML_NAMES, _event_ring),
        ("event ring witness", ("mo2",), _event_witness)),
    9: (("chain, that = t2, t1 = t2 exactly when distributive", OML_NAMES, _chain),
        ("t1(a,b), t2(a,b)", ("mo2",), lambda name: (tuple(
            terms.eval_term(t, corpus.builtin(name), "a", "b") for t in (terms.T1, terms.T2)),
            ("0", "1")))),
}


def criterion_1() -> CriterionResult:
    """96 canonical terms, pairwise distinct at the designated pair."""
    x, y = corpus.product_generating_pair()
    return _judge(1, "term census", CLAIMS[1],
                  lambda seen: f"96 terms, 96 distinct values at ({x}, {y})")


def criterion_2() -> CriterionResult:
    """The filter leaves exactly the two symmetric-difference classes."""
    return _judge(2, "term classification", CLAIMS[2],
                  lambda seen: "exactly two classes; the four near-misses fail symmetry on mo2")


def criterion_3() -> CriterionResult:
    """Construct/derive round trips; the two equivalence verdicts agree."""
    return _judge(3, "round trips and cross-checked verdicts", CLAIMS[3], lambda seen: (
        f"{len(_CONSTRUCTIONS)} constructions round-trip; verdicts agree on "
        f"{len(_RINGS)} rings and {_MUTATION_COUNT} mutants "
        f"({seen['mutant verdicts, axioms and lattice side'].count(False)} rejected)"))


def criterion_4() -> CriterionResult:
    """Ring test: routes agree everywhere; the 2-set example is the
    canonical valid-but-not-Boolean ring with a Boolean lattice."""
    return _judge(4, "Boolean-ring characterization", CLAIMS[4], lambda seen: (
        f"routes agree on {len(_RINGS)} rings; {{1}}+{{1}} = "
        "{1,2} blocks the 2-set example while its lattice is Boolean"))


def criterion_5() -> CriterionResult:
    """Derived identities and both forms of the orthogonal addition law."""
    return _judge(5, "derived identities", CLAIMS[5], lambda seen: (
        f"all five identities and both R4 forms hold on {len(_RINGS)} rings"))


def criterion_6() -> CriterionResult:
    """The decomposition law pins the addition down to t1."""
    return _judge(6, "uniqueness of the addition", CLAIMS[6], lambda seen: (
        "R5 holds for t1 everywhere and for t2 exactly on the "
        f"{len(_boolean_members())} distributive members; mo2 witness (a, b)"))


def criterion_7() -> CriterionResult:
    """Full state sets exist and their event sets satisfy the axioms."""
    return _judge(7, "states pipeline", CLAIMS[7], lambda seen: (
        "full state sets found ("
        + ", ".join(f"{name}: {len(_full_states(name))}" for name in STATES_CORPUS)
        + "); all axioms hold"))


def criterion_8() -> CriterionResult:
    """The pointwise ring inequality decides Booleanness, matching the
    lattice's distributivity (is_distributive) on every corpus member."""
    return _judge(8, "event-ring inequality", CLAIMS[8], lambda seen: (
        f"verdict matches distributivity on all {len(OML_NAMES)} members; "
        "mo2 witness q_a+q_b reaches 2"))


def criterion_9() -> CriterionResult:
    """t1 <= that <= t2 with that = t2 everywhere; t1 = t2 only on the
    distributive members; the mo2 corner values come out 0 and 1."""
    return _judge(9, "term chain", CLAIMS[9], lambda seen: (
        "chain and middle-term collapse hold on all "
        f"{len(OML_NAMES)} members; t1(a,b) = 0 and t2(a,b) = 1 on mo2"))


CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9,
)


def run_all() -> tuple[CriterionResult, ...]:
    return tuple(fn() for fn in CRITERIA)
