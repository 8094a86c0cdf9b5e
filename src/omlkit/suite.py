"""The headline verification suite over the builtin corpus.

Nine criteria, each checking one advertised property of the toolkit end
to end: the census of the ninety-six binary terms, the two-class
filter result, round trips between lattices and event rings with
cross-checked verdicts, the Boolean-ring characterization, the derived
identities, uniqueness of the ring addition, full state sets with the
event-set axioms, the event-ring inequality against brute-force
distributivity, and the term chain.  All arithmetic is exact, so every
comparison is equality, never approximation.

The criteria share caches for constructed rings, state sets and event
sets; a full run over the corpus stays well under a minute.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from . import corpus, states, terms
from .errors import OracleMismatch
from .lattice import is_distributive
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

#: Corpus for the term filter; small members come first so cheap
#: eliminations happen before the big product is consulted.
FILTER_CORPUS = ("boolean_2", "mo2", "boolean_3", "product_2p4_mo2")

#: Lattices whose state spaces the suite exercises explicitly.
STATES_CORPUS = ("boolean_2", "boolean_3", "mo2", "product_2p4_mo2")

_MUTATION_SEED = 1729
_MUTATION_COUNT = 12


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str


@lru_cache(maxsize=None)
def _ring(name: str, plus: str) -> RlseTables:
    return rlse_from_oml(corpus.builtin(name), plus)


@lru_cache(maxsize=None)
def _corpus_rings() -> tuple[tuple[str, RlseTables], ...]:
    """Every ring the suite ranges over: the builtin one plus both
    constructions on every lattice."""
    out = [("paper-example-2set", corpus.builtin("paper-example-2set"))]
    for name in corpus.OML_NAMES:
        for plus in ("t1", "t2"):
            out.append((f"{name}+{plus}", _ring(name, plus)))
    return tuple(out)


@lru_cache(maxsize=None)
def _full_states(name: str):
    result = states.find_full_state_set(corpus.builtin(name))
    if not result.ok:
        return None
    return result.states


@lru_cache(maxsize=None)
def _events(name: str):
    sts = _full_states(name)
    if sts is None:
        return None
    return states.events_from_states(corpus.builtin(name), sts)


@lru_cache(maxsize=None)
def _boolean_members() -> tuple[str, ...]:
    """Corpus members that are distributive, decided by brute force."""
    return tuple(n for n in corpus.OML_NAMES
                 if is_distributive(corpus.builtin(n))[0])


def _result(number, title, problems, ok_detail) -> CriterionResult:
    if problems:
        return CriterionResult(number, title, False, "; ".join(problems))
    return CriterionResult(number, title, True, ok_detail)


def criterion_1() -> CriterionResult:
    """96 canonical terms, pairwise distinct at the designated pair."""
    problems = []
    ts = terms.enumerate_canonical_terms()
    if len(ts) != 96:
        problems.append(f"enumerated {len(ts)} terms, expected 96")
    prod = corpus.builtin("product_2p4_mo2")
    x, y = corpus.product_generating_pair()
    values = [terms.eval_term(t, prod, x, y) for t in ts]
    distinct = len(set(values))
    if distinct != len(ts):
        problems.append(f"only {distinct} distinct values at ({x}, {y})")
    return _result(1, "term census", problems,
                   f"96 terms, 96 distinct values at ({x}, {y})")


def criterion_2() -> CriterionResult:
    """The filter leaves exactly the two symmetric-difference classes."""
    problems = []
    omls = tuple(corpus.builtin(n) for n in FILTER_CORPUS)
    result = terms.filter_symmetric_difference_terms(omls)
    if len(result.survivors) != 2:
        problems.append(f"{len(result.survivors)} classes, expected 2")
    else:
        for cls, ref in zip(result.survivors, (terms.T1, terms.T2)):
            for oml in omls:
                if terms.term_function(cls.terms[0], oml).table != \
                        terms.term_function(ref, oml).table:
                    problems.append(
                        f"class {sorted(cls.index_sets[0])} differs from "
                        f"{terms.format_term(ref)} on {FILTER_CORPUS[omls.index(oml)]}")
                    break
    expected = [frozenset({2, 3, 5}), frozenset({2, 3, 6}),
                frozenset({2, 3, 7}), frozenset({2, 3, 8})]
    eliminated = {e.index_set: e for e in result.eliminated}
    for want in expected:
        hit = eliminated.get(want)
        if hit is None:
            problems.append(f"{sorted(want)} was not eliminated")
        elif hit.condition != "symmetry" or FILTER_CORPUS[hit.corpus_position] != "mo2":
            problems.append(
                f"{sorted(want)} eliminated by {hit.condition} on corpus "
                f"member {hit.corpus_position}, expected symmetry on mo2")
    return _result(2, "term classification", problems,
                   "exactly two classes; the four near-misses fail symmetry on mo2")


def _mutated_rings():
    rng = random.Random(_MUTATION_SEED)
    bases = [corpus.builtin("paper-example-2set"),
             _ring("mo2", "t1"), _ring("boolean_2", "t1")]
    out = []
    while len(out) < _MUTATION_COUNT:
        base = rng.choice(bases)
        n = base.n
        which = rng.random() < 0.5
        table = [list(row) for row in (base.oplus if which else base.times)]
        i, j = rng.randrange(n), rng.randrange(n)
        table[i][j] = rng.choice([v for v in range(n) if v != table[i][j]])
        frozen = tuple(tuple(row) for row in table)
        if which:
            out.append(RlseTables(base.elements, frozen, base.times,
                                  base.zero, base.one))
        else:
            out.append(RlseTables(base.elements, base.oplus, frozen,
                                  base.zero, base.one))
    return out


def criterion_3() -> CriterionResult:
    """Construct/derive round trips; the two equivalence verdicts agree."""
    problems = []
    for name in corpus.OML_NAMES:
        oml = corpus.builtin(name)
        for plus in ("t1", "t2"):
            r = _ring(name, plus)
            if not check_rlse(r).passed:
                problems.append(f"{name}+{plus} fails the ring axioms")
                continue
            if derived_lattice(r) != oml:
                problems.append(f"derived lattice of {name}+{plus} differs")
    for label, r in _corpus_rings():
        try:
            a, b = check_correspondence(r).verdicts
        except OracleMismatch as exc:
            problems.append(f"correspondence on {label}: {exc}")
            continue
        if not (a and b):
            problems.append(f"correspondence verdicts on {label}: {a}/{b}")
    mutants = _mutated_rings()
    rejected = 0
    for pos, r in enumerate(mutants):
        try:
            verdict = check_correspondence(r).verdicts[0]
        except OracleMismatch as exc:
            problems.append(f"mutant {pos}: {exc}")
            continue
        rejected += not verdict
    return _result(3, "round trips and cross-checked verdicts", problems,
                   f"20 constructions round-trip; verdicts agree on 21 rings "
                   f"and {len(mutants)} mutants ({rejected} rejected)")


def criterion_4() -> CriterionResult:
    """Ring test: routes agree everywhere; the 2-set example is the
    canonical valid-but-not-Boolean ring with a Boolean lattice."""
    problems = []
    for label, r in _corpus_rings():
        try:
            is_boolean_ring(r)
        except OracleMismatch as exc:
            problems.append(f"{label}: {exc}")
    ex = corpus.builtin("paper-example-2set")
    if not check_rlse(ex).passed:
        problems.append("the 2-set example fails the ring axioms")
    report = is_boolean_ring(ex)
    if report.is_boolean_ring:
        problems.append("the 2-set example passed the Boolean-ring test")
    w = report.witness
    if w is None or w.law != "plus-self-inverse" or w.witness != {"x": "{1}"}:
        problems.append(f"unexpected witness {w}")
    one = ex.elements[ex.oplus[ex.index("{1}")][ex.index("{1}")]]
    if one != "{1,2}":
        problems.append(f"{{1}}+{{1}} = {one}, expected {{1,2}}")
    derived = derived_lattice(ex)
    if derived != corpus.builtin("boolean_2"):
        problems.append("derived lattice of the 2-set example is not 2^{1,2}")
    if not is_distributive(derived)[0]:
        problems.append("derived lattice of the 2-set example is not Boolean")
    return _result(4, "Boolean-ring characterization", problems,
                   "routes agree on 21 rings; {1}+{1} = {1,2} blocks the "
                   "2-set example while its lattice is Boolean")


def criterion_5() -> CriterionResult:
    """Derived identities and both forms of the orthogonal addition law."""
    problems = []
    for label, r in _corpus_rings():
        report = check_derived_identities(r)
        if not report.passed:
            problems.append(f"{label}: {report.failures[0]}")
        forms = check_r4_orthogonal_form(r)
        if not (forms.agree and forms.r4.passed):
            problems.append(f"{label}: R4 forms {forms.r4.passed}/{forms.orthogonal.passed}")
    return _result(5, "derived identities", problems,
                   "all five identities and both R4 forms hold on 21 rings")


def criterion_6() -> CriterionResult:
    """The decomposition law pins the addition down to t1."""
    problems = []
    for name in corpus.OML_NAMES:
        if not check_r5(_ring(name, "t1")).passed:
            problems.append(f"t1 addition on {name} fails R5")
    report = check_r5(_ring("mo2", "t2"))
    if report.passed:
        problems.append("t2 addition on mo2 passed R5")
    else:
        f = report.failures[0]
        values = f.detail
        if f.witness != {"x": "a", "y": "b"} or values != "lhs 1, rhs 0":
            problems.append(f"unexpected R5 witness {f}")
    boolean = set(_boolean_members())
    for name in corpus.OML_NAMES:
        expect = name in boolean
        if check_r5(_ring(name, "t2")).passed != expect:
            problems.append(f"t2 on {name}: R5 should {'hold' if expect else 'fail'}")
    return _result(6, "uniqueness of the addition", problems,
                   "R5 holds for t1 everywhere and for t2 exactly on the "
                   f"{len(boolean)} distributive members; mo2 witness (a, b)")


def criterion_7() -> CriterionResult:
    """Full state sets exist and their event sets satisfy the axioms."""
    problems = []
    for name in STATES_CORPUS:
        sts = _full_states(name)
        if sts is None:
            problems.append(f"no full state set on {name}")
            continue
        oml = corpus.builtin(name)
        if not states.check_full(oml, sts).passed:
            problems.append(f"state set on {name} is not order-determining")
            continue
        ev = _events(name)
        report = states.check_s_probability_algebra(ev)
        if not report.passed:
            problems.append(f"{name} events fail {report.failures[0].law}")
    counts = ", ".join(f"{name}: {len(_full_states(name))}" for name in STATES_CORPUS)
    return _result(7, "states pipeline", problems,
                   f"full state sets found ({counts}); all axioms hold")


def criterion_8() -> CriterionResult:
    """The pointwise ring inequality decides Booleanness, matching
    brute-force distributivity on every corpus member."""
    problems = []
    boolean = set(_boolean_members())
    for name in corpus.OML_NAMES:
        oml = corpus.builtin(name)
        ev = _events(name)
        if ev is None:
            problems.append(f"no event set for {name}")
            continue
        report = states.boolean_test(ev)
        expect = name in boolean
        if report.is_boolean != expect:
            problems.append(f"{name}: ring test {report.is_boolean}, "
                            f"distributive {expect}")
            continue
        if expect:
            t1_table = terms.term_function(terms.T1, oml).table
            if report.plus_table != t1_table:
                problems.append(f"{name}: addition table differs from t1")
    mo2 = states.boolean_test(_events("mo2"))
    w = mo2.witness
    if w is None or (w["p"], w["q"], w["value"]) != ("a", "b", "2"):
        problems.append(f"unexpected mo2 witness {w}")
    return _result(8, "event-ring inequality", problems,
                   "verdict matches distributivity on all 10 members; "
                   "mo2 witness q_a+q_b reaches 2")


def criterion_9() -> CriterionResult:
    """t1 <= that <= t2 with that = t2 everywhere; t1 = t2 only on the
    distributive members; the mo2 corner values come out 0 and 1."""
    problems = []
    boolean = set(_boolean_members())
    for name in corpus.OML_NAMES:
        oml = corpus.builtin(name)
        report = terms.chain_check(oml)
        if not report.chain_holds:
            problems.append(f"chain fails on {name} at {report.witness}")
        if not report.hat_equals_t2:
            problems.append(f"middle term differs from t2 on {name}")
        if report.t1_equals_t2 != (name in boolean):
            problems.append(f"t1 = t2 wrong on {name}")
    mo2 = corpus.builtin("mo2")
    lo = terms.eval_term(terms.T1, mo2, "a", "b")
    hi = terms.eval_term(terms.T2, mo2, "a", "b")
    if (lo, hi) != ("0", "1"):
        problems.append(f"t1(a,b), t2(a,b) = {lo}, {hi}, expected 0, 1")
    return _result(9, "term chain", problems,
                   "chain and middle-term collapse hold on all 10 members; "
                   "t1(a,b) = 0 and t2(a,b) = 1 on mo2")


CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9,
)


def run_all() -> tuple[CriterionResult, ...]:
    return tuple(fn() for fn in CRITERIA)
