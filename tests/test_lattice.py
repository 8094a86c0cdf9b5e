"""Posets, lattice tables and the orthomodular checks."""

import random
from collections import Counter
from fractions import Fraction
from itertools import compress, product

import pytest

from omlkit import corpus, lattice, rlse
from omlkit.errors import CycleError, NoBoundsError, UnknownLabel, ValidationError
from omlkit.lattice import (
    build_poset,
    check_oml,
    direct_product,
    is_distributive,
    lattice_tables,
)
from omlkit.laws import Failure
from omlkit.structfile import _cover_pairs

DIAMOND = (["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])


def test_build_poset_closure():
    poset = build_poset(["0", "x", "y", "1"], [("0", "x"), ("x", "y"), ("y", "1")])
    i = {lab: k for k, lab in enumerate(poset.elements)}
    assert poset.leq[i["0"]][i["1"]]
    assert poset.leq[i["x"]][i["1"]]
    assert not poset.leq[i["1"]][i["x"]]
    assert poset.elements[poset.bottom] == "0"
    assert poset.elements[poset.top] == "1"


def test_build_poset_bottom_is_first():
    # the bottom moves to index 0, the others keep their order and relations
    for labels in (DIAMOND[0], ["a", "0", "b", "1"], ["1", "a", "b", "0"],
                   ["a", "1", "0", "b"]):
        poset = build_poset(labels, DIAMOND[1])
        assert poset.bottom == 0
        assert poset.elements == ("0", *(lab for lab in labels if lab != "0"))
        assert poset.elements[poset.top] == "1"
        pos = {lab: i for i, lab in enumerate(poset.elements)}
        below = {*DIAMOND[1], ("0", "1"), *((lab, lab) for lab in labels)}
        assert poset.up == tuple(sum(1 << pos[b] for a, b in below if a == lab)
                                 for lab in poset.elements)


def test_cycle_rejected():
    with pytest.raises(CycleError):
        build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


def test_two_maximal_elements_rejected():
    with pytest.raises(NoBoundsError):
        build_poset(["0", "a", "b"], [("0", "a"), ("0", "b")])


def test_singleton_poset_rejected():
    # bottom and top must differ
    with pytest.raises(NoBoundsError):
        build_poset(["x"], [])


def test_an_unknown_label_raises_unknown_label():
    poset = build_poset(*DIAMOND)
    for call in (lambda: poset.index("q"),
                 lambda: build_poset(DIAMOND[0], [("q", "1")]),
                 lambda: build_poset(DIAMOND[0], [("0", "q")])):
        with pytest.raises(UnknownLabel) as info:
            call()
        assert str(info.value) == "unknown element label: 'q'"


def test_lattice_tables_diamond():
    poset = build_poset(*DIAMOND)
    meet, join, bad = lattice_tables(poset.elements, poset.up)
    assert bad is None
    i = {lab: k for k, lab in enumerate(poset.elements)}
    assert meet[i["a"]][i["b"]] == i["0"]
    assert join[i["a"]][i["b"]] == i["1"]


def test_lattice_tables_failure_witness():
    # two atoms under two coatoms: a v b has no least upper bound
    poset = build_poset(
        ["0", "a", "b", "c", "d", "1"],
        [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"),
         ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")],
    )
    meet, join, bad = lattice_tables(poset.elements, poset.up)
    assert meet is None and join is None
    assert bad == ("join", ("a", "b"))


@pytest.mark.parametrize("name", corpus.OML_NAMES)
def test_corpus_members_pass_all_laws(name):
    oml = corpus.builtin(name)
    verdict, got = check_oml(oml.poset, oml.comp)
    assert verdict.passed
    assert got == oml
    assert list(verdict.checked) == [
        "meet-exists", "join-exists", "involution", "antitone",
        "complement-law", "orthomodular-law",
    ]


def test_hexagon_fails_orthomodular_law():
    poset, comp = corpus.o6_candidate()
    verdict, oml = check_oml(poset, comp)
    assert not verdict.passed and oml is None
    assert verdict.failures[0].law == "orthomodular-law"
    assert verdict.failures[0].witness == {"x": "b", "y": "a"}


def test_identity_complement_rejected():
    poset = build_poset(*DIAMOND)
    verdict, _ = check_oml(poset, range(poset.n))
    assert not verdict.passed
    assert verdict.failures[0].law in ("antitone", "complement-law")


def test_complement_map_must_cover_all_labels():
    # the vector has one element index per element; an element without a
    # complement pair in a file is to_oml_input's UnknownLabel
    poset = build_poset(*DIAMOND)
    for comp, message in [
        ((3, 0), "complement vector has 2 entries, wants 4"),
        ((3, 2, 1, 0, 0), "complement vector has 5 entries, wants 4"),
        ((3, 2, 4, 0), "complement entry 4 is not an element index"),
        ((3, 2, -1, 0), "complement entry -1 is not an element index"),
        ((3, 2, "a", 0), "complement entry 'a' is not an element index"),
    ]:
        with pytest.raises(ValidationError) as info:
            check_oml(poset, comp)
        assert str(info.value) == message


def test_label_helpers_mo2():
    mo2 = corpus.builtin("mo2")
    els, i = mo2.elements, mo2.index
    assert els[mo2.meet[i("a")][i("b")]] == "0"
    assert els[mo2.join[i("a")][i("b")]] == "1"
    assert els[mo2.meet[i("a")][i("1")]] == "a"
    assert els[mo2.comp[i("a")]] == "a'"
    assert els[mo2.comp[i("0")]] == "1"


def test_orthogonality():
    mo2 = corpus.builtin("mo2")
    a, a_, b = mo2.index("a"), mo2.index("a'"), mo2.index("b")
    # orthogonal_rows[x] lists the y >= x (in index order) below x'
    assert max(a, a_) in mo2.orthogonal_rows[min(a, a_)]
    assert max(a, b) not in mo2.orthogonal_rows[min(a, b)]
    assert mo2.orthogonal_rows is mo2.orthogonal_rows  # built once per lattice


def test_direct_product_shape():
    b2 = corpus.builtin("boolean_2")
    mo2 = corpus.builtin("mo2")
    prod = direct_product(b2, mo2)
    assert prod.n == b2.n * mo2.n
    assert prod.elements[prod.poset.bottom] == "({},0)"
    assert prod.elements[prod.poset.top] == "({1,2},1)"
    # componentwise complement
    i = prod.index("({1},a)")
    assert prod.elements[prod.comp[i]] == "({2},a')"


def test_direct_product_rejects_colliding_labels():
    # ("p", "q,r") and ("p,q", "r") are both labelled (p,q,r)
    a, b = (check_oml(build_poset([lo, hi], [(lo, hi)]), (1, 0))[1]
            for lo, hi in (("p", "p,q"), ("q,r", "r")))
    with pytest.raises(ValidationError, match="^duplicate element labels$"):
        direct_product(a, b)


@pytest.mark.parametrize("names", [("mo2", "boolean_2"), ("boolean_2", "mo1", "mo2"),
                                   ("boolean_3", "mo3")])
def test_direct_product_order_is_componentwise(names):
    factors = [corpus.builtin(name) for name in names]
    prod = factors[0]
    for f in factors[1:]:
        prod = direct_product(prod, f)
    # element k of the product is the k-th tuple of factor indices
    tuples = list(product(*(range(f.n) for f in factors)))
    assert prod.poset.up == tuple(
        sum(1 << k for k, ys in enumerate(tuples)
            if all(f.poset.leq[x][y] for f, x, y in zip(factors, xs, ys)))
        for xs in tuples)


@pytest.mark.parametrize("name", corpus.OML_NAMES)
def test_leq_is_a_view_of_the_up_masks(name):
    poset = corpus.builtin(name).poset
    assert poset._fields == ("elements", "up", "bottom", "top")
    assert all(poset.leq[i][j] == bool(poset.up[i] >> j & 1)
               for i in range(poset.n) for j in range(poset.n))
    assert poset.leq is poset.leq  # built once per poset


def test_product_distributivity_mixes():
    b2 = corpus.builtin("boolean_2")
    mo2 = corpus.builtin("mo2")
    assert is_distributive(direct_product(b2, b2))[0]
    assert not is_distributive(direct_product(b2, mo2))[0]


def test_is_distributive_witness():
    mo2 = corpus.builtin("mo2")
    flag, witness = is_distributive(mo2)
    assert not flag
    x, y, z = map(mo2.index, witness)
    meet, join = mo2.meet, mo2.join
    # the witness triple really violates the distributive law
    assert meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]


def test_boolean_members_are_distributive():
    for name in corpus.OML_NAMES:
        oml = corpus.builtin(name)
        expected = name.startswith("boolean") or name == "mo1"
        assert is_distributive(oml)[0] is expected, name


def _scanned_tables(labels, up):
    """lattice_tables as it was: each bound found by scanning the common
    lower (upper) bounds, lowest index first, for one that holds them all."""
    down = [sum(1 << i for i in range(len(up)) if up[i] >> j & 1) for j in range(len(up))]

    def bound_of(s, masks):
        for z in range(len(masks)):
            if s >> z & 1 and masks[z] & s == s:
                return z
        return -1

    n = len(up)
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x, n):
            z = bound_of(down[x] & down[y], down)
            if z < 0:
                return None, None, ("meet", (labels[x], labels[y]))
            meet[x][y] = meet[y][x] = z
            z = bound_of(up[x] & up[y], up)
            if z < 0:
                return None, None, ("join", (labels[x], labels[y]))
            join[x][y] = join[y][x] = z
    return tuple(map(tuple, meet)), tuple(map(tuple, join)), None


def _permuted(up, order):
    """The up-masks with element order[k] moved to index k."""
    at = {old: k for k, old in enumerate(order)}
    return [sum(1 << at[j] for j in order if up[i] >> j & 1) for i in order]


def _random_bounded_poset(rng):
    # a random strict order on the inner elements, taken in a hidden
    # topological order, under a bottom and over a top
    inner = rng.randint(2, 8)
    n = inner + 2
    up = [1 << i for i in range(n)]
    for i in range(1, inner + 1):
        for j in range(i + 1, inner + 1):
            if rng.random() < 0.3:
                up[i] |= 1 << j
    for i in range(inner, 0, -1):
        for j in range(i + 1, inner + 1):
            if up[i] >> j & 1:
                up[i] |= up[j]
        up[i] |= 1 << n - 1
    up[0] = (1 << n) - 1
    return _permuted(up, rng.sample(range(n), n))


def test_lattice_tables_agree_with_the_bound_scan():
    rng = random.Random(1009)
    cases = [corpus.builtin(name).poset.up for name in corpus.OML_NAMES]
    for factors in (("mo2", "boolean_3"), ("mo3", "boolean_2"), ("boolean_4",),
                    ("mo2", "mo1", "boolean_2")):
        oml = corpus.builtin(factors[0])
        for name in factors[1:]:
            oml = direct_product(oml, corpus.builtin(name))
        for _ in range(3):
            cases.append(_permuted(oml.poset.up, rng.sample(range(oml.n), oml.n)))
    cases += [_random_bounded_poset(rng) for _ in range(1500)]
    kinds = Counter()
    for up in cases:
        labels = [f"e{i}" for i in range(len(up))]
        got = lattice_tables(labels, up)
        assert got == _scanned_tables(labels, up), up
        kinds[got[2] and got[2][0]] += 1
    assert kinds["meet"] >= 10 and kinds["join"] >= 10, kinds


# ---------------------------------------------------------------------------
# References for the closure, the validation, the covers and the ring order
# ---------------------------------------------------------------------------


def _pairwise_validate(elements, rows):
    """_validate_poset as it was: antisymmetry tested on every pair i < j."""
    n = len(elements)
    full = (1 << n) - 1
    for i in range(n):
        if not rows[i] & (1 << i):
            raise ValidationError(f"order not reflexive at {elements[i]!r}")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i] & (1 << j) and rows[j] & (1 << i):
                raise CycleError((elements[i], elements[j]))
    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1 and rows[j] & ~rows[i]:
                raise ValidationError(
                    f"order not transitive through {elements[i]!r} <= {elements[j]!r}")
    bottoms = [i for i in range(n) if rows[i] == full]
    tops = [j for j in range(n) if all(m >> j & 1 for m in rows)]
    if len(bottoms) != 1:
        raise NoBoundsError(f"poset has {len(bottoms)} minimum elements, wants 1")
    if len(tops) != 1:
        raise NoBoundsError(f"poset has {len(tops)} maximum elements, wants 1")
    if bottoms[0] == tops[0]:
        raise NoBoundsError("bottom equals top; the two-element chain is the smallest structure")
    return bottoms[0], tops[0]


def _fixpoint_build(labels, pairs):
    """build_poset as it was: each row grown by the rows it sees until no
    row changes, validated pairwise, the bottom moved to index 0.
    Returns (elements, up, top)."""
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate element labels")
    pos = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    rows = [1 << i for i in range(n)]
    for a, b in pairs:
        if a not in pos:
            raise UnknownLabel(a)
        if b not in pos:
            raise UnknownLabel(b)
        rows[pos[a]] |= 1 << pos[b]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = rows[i]
            for j in range(n):
                if rows[i] >> j & 1:
                    acc |= rows[j]
            if acc != rows[i]:
                rows[i] = acc
                changed = True
    bottom, top = _pairwise_validate(labels, rows)
    order = [bottom, *range(bottom), *range(bottom + 1, n)]
    return tuple(labels[i] for i in order), tuple(_permuted(rows, order)), order.index(top)


def _scanned_covers(poset):
    """_cover_pairs as it was: every pair x != y tested for a cover."""
    up, els, n = poset.up, poset.elements, poset.n
    down = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]
    return [(els[x], els[y]) for x in range(n) for y in range(n)
            if x != y and up[x] & down[y] == 1 << x | 1 << y]


def _looped_order_masks(r):
    """rlse._order_poset's masks as they were: bit j of row i set when
    i*j = i, one cell at a time."""
    rows = []
    for i in range(r.n):
        m = 0
        for j in range(r.n):
            if r.times[i][j] == i:
                m |= 1 << j
        rows.append(m)
    return rows


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except (ValidationError, CycleError, NoBoundsError, UnknownLabel) as exc:
        return type(exc).__name__, str(exc)


def _kind(outcome):
    """'ok', or the error's type and the word of its message naming the check."""
    tag, msg = outcome
    if tag == "ok":
        return tag
    words = ("reflexive", "transitive", "minimum", "maximum", "equals", "duplicate")
    return tag + "".join(f":{w}" for w in words if w in msg.split())


def _random_relation(rng):
    """Labels and order pairs: a bounded poset's covers or order pairs, a
    random subset of them, a few random extra pairs (cycles, new minima or
    maxima) or an unknown or repeated label."""
    up = _random_bounded_poset(rng) if rng.random() < 0.8 else [
        1 << i for i in range(rng.randint(1, 4))]
    n = len(up)
    labels = [f"e{i}" for i in rng.sample(range(n + 3), n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(n)
             if up[i] >> j & 1 and (i != j or rng.random() < 0.2)]
    if rng.random() < 0.5:
        pairs = [p for p in pairs if rng.random() < 0.8]
    for _ in range(rng.choice((0, 0, 1, 2))):
        pairs.append((rng.choice(labels), rng.choice(labels)))
    rng.shuffle(pairs)
    roll = rng.random()
    if roll < 0.02:
        labels.append(rng.choice(labels))
    elif roll < 0.04 and pairs:
        pairs[0] = (pairs[0][0], "stray")
    return labels, pairs


def _random_masks(rng):
    """A random bounded poset's up-masks with up to three bits flipped:
    missing reflexive bits, cycles, non-transitive rows, extra bounds."""
    n = rng.randint(1, 3)
    up = _random_bounded_poset(rng) if rng.random() < 0.9 else [
        rng.getrandbits(n) for _ in range(n)]
    n = len(up)
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        up[rng.randrange(n)] ^= 1 << rng.randrange(n)
    return [f"e{i}" for i in range(n)], up


def _posets():
    """The builtin posets and seeded shuffles of four products."""
    rng = random.Random(2203)
    posets = [corpus.builtin(name).poset for name in corpus.OML_NAMES]
    for names in (("mo2", "boolean_3"), ("mo3", "boolean_2"), ("boolean_2", "mo1", "mo2"),
                  ("boolean_4", "mo2")):
        oml = corpus.builtin(names[0])
        for name in names[1:]:
            oml = direct_product(oml, corpus.builtin(name))
        posets.append(oml.poset)
        for _ in range(2):
            els = rng.sample(oml.elements, oml.n)
            pairs = [(a, b) for a, row in zip(oml.elements, oml.poset.leq)
                     for b in compress(oml.elements, row)]
            rng.shuffle(pairs)
            posets.append(build_poset(els, pairs))
    return posets


def test_validate_poset_agrees_with_the_pairwise_scan():
    rng = random.Random(3301)
    cases = [_random_masks(rng) for _ in range(2000)]
    cases += [(p.elements, list(p.up)) for p in _posets()]
    kinds = Counter()
    for labels, rows in cases:
        got = _outcome(lattice._validate_poset, labels, rows)
        assert got == _outcome(_pairwise_validate, labels, rows), (labels, rows)
        kinds[_kind(got)] += 1
    assert set(kinds) == {
        "ok", "CycleError", "ValidationError:reflexive", "ValidationError:transitive",
        "NoBoundsError:minimum", "NoBoundsError:maximum", "NoBoundsError:equals"}, kinds
    assert min(kinds.values()) >= 10, kinds


def test_build_poset_agrees_with_the_fixpoint_closure():
    rng = random.Random(3307)
    cases = [_random_relation(rng) for _ in range(2000)]
    for p in _posets():
        pairs = [(a, b) for a, row in zip(p.elements, p.leq) for b in compress(p.elements, row)]
        cases.append((p.elements, pairs))
    kinds = Counter()
    for labels, pairs in cases:
        got = _outcome(build_poset, labels, pairs)
        expected = _outcome(_fixpoint_build, labels, pairs)
        if got[0] == "ok":
            p = got[1]
            got = "ok", (p.elements, p.up, p.top)
            assert p.bottom == 0
            assert _cover_pairs(p) == _scanned_covers(p), (labels, pairs)
        assert got == expected, (labels, pairs)
        kinds[_kind(got)] += 1
    assert set(kinds) == {
        "ok", "CycleError", "ValidationError:duplicate", "UnknownLabel",
        "NoBoundsError:minimum", "NoBoundsError:maximum", "NoBoundsError:equals"}, kinds
    assert min(kinds.values()) >= 10, kinds


def test_cover_pairs_agree_with_the_pair_scan():
    for p in _posets():
        assert _cover_pairs(p) == _scanned_covers(p), p.elements


def _mutant_rings(count, seed):
    """Rings of builtins and of the paper example with one to three cells
    of * changed, some of them symmetrically."""
    rng = random.Random(seed)
    bases = [corpus.builtin("paper-example-2set")] + [
        rlse.rlse_from_oml(corpus.builtin(name), plus)
        for name in ("boolean_2", "mo2", "boolean_3", "mo3") for plus in ("t1", "t2")]
    out = []
    for _ in range(count):
        r = rng.choice(bases)
        times = [list(row) for row in r.times]
        for _ in range(rng.randint(1, 3)):
            i, j, v = rng.randrange(r.n), rng.randrange(r.n), rng.randrange(r.n)
            times[i][j] = v
            if rng.random() < 0.5:
                times[j][i] = v
        out.append(r._replace(times=tuple(map(tuple, times))))
    return bases + out


def test_ring_order_agrees_with_the_cell_loop():
    kinds = Counter()
    for r in _mutant_rings(1500, 3313):
        rows = _looped_order_masks(r)
        reference = _outcome(_pairwise_validate, r.elements, rows)
        got = _outcome(rlse._order_poset, r)
        if got[0] == "ok":
            assert reference[0] == "ok" and got[1].up == tuple(rows), r
        else:
            assert got == reference, r
        lattice_side = rlse.check_correspondence(r)[1]
        if reference[0] == "ok":
            assert lattice_side.passed or lattice_side.first.law != "times-order", r
        else:
            assert lattice_side.first == Failure("times-order", {"reason": reference[1]}), r
        kinds[_kind(reference)] += 1
    assert set(kinds) == {"ok", "CycleError", "ValidationError:reflexive", "ValidationError:transitive",
                          "NoBoundsError:minimum", "NoBoundsError:maximum"}, kinds
    assert min(kinds.values()) >= 10, kinds
