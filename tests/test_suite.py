"""The failing paths of the verification suite: every criterion fails
through its judge, with a detail that names the claim and the structure,
and a check that raises or a missing upstream result fails its claim
instead of escaping from run_all."""

import pytest

from omlkit import corpus, states, suite
from omlkit.errors import OracleMismatch


@pytest.fixture
def fresh_caches():
    """Empty the suite's state and event caches before and after, so that a
    patched state search is the one the criteria see, and is then forgotten."""
    caches = (suite._full_states, suite._events)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("number", range(1, 10))
def test_every_criterion_fails_on_a_wrong_observation(number, monkeypatch):
    claims = suite.CLAIMS[number]
    name, over, fn = claims[0]
    wrong = (name, over, lambda s: ("wrong", fn(s)[1]))
    monkeypatch.setitem(suite.CLAIMS, number, (wrong,) + claims[1:])
    result = getattr(suite, f"criterion_{number}")()
    assert (result.number, result.passed) == (number, False)
    assert result.detail.split("; ") == [
        f"{name} on {s}: observed wrong, expected {fn(s)[1]}" for s in over]


def test_a_lattice_without_a_full_state_set_fails_criteria_7_and_8(monkeypatch, fresh_caches):
    search = states.find_full_state_set
    mo2 = corpus.builtin("mo2")

    def fails_on_mo2(oml):
        if oml is mo2:
            return states.StateSearchResult(None, states.Infeasible("a", "b"))
        return search(oml)

    monkeypatch.setattr(states, "find_full_state_set", fails_on_mo2)
    results = suite.run_all()
    assert [r.number for r in results if not r.passed] == [7, 8]
    missing = "observed Missing: full state set, as no state puts a above b, expected a result"
    assert results[6].detail == (f"state set is full on mo2: {missing}; "
                                 f"first failed event-set axiom on mo2: {missing}")
    assert results[7].detail == (
        f"Boolean event ring, + = t1, exactly when distributive on mo2: {missing}; "
        f"event ring witness on mo2: {missing}")


def test_an_oracle_mismatch_fails_its_claim(monkeypatch):
    def mismatch(r):
        raise OracleMismatch("R5 routes disagree")

    monkeypatch.setattr(suite, "check_r5", mismatch)
    results = suite.run_all()
    assert [r.number for r in results if not r.passed] == [6]
    failures = results[5].detail.split("; ")
    assert len(failures) == 2 * len(corpus.OML_NAMES) + 1
    assert failures[0] == ("R5 for t1 on boolean_1: observed OracleMismatch: "
                           "R5 routes disagree, expected a result")
    assert failures[-1] == ("first R5 failure on mo2+t2: observed OracleMismatch: "
                            "R5 routes disagree, expected a result")
