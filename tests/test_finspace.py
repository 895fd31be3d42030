import random
from itertools import combinations

import pytest

from finsheaf.errors import InputError
from finsheaf.finspace import FinitePoset, OpenSet, RegularCWData, face_poset


def random_poset(rng, max_elems=8):
    n = rng.randint(1, max_elems)
    labels = [f"e{i}" for i in range(n)]
    rels = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                rels.append((labels[i], labels[j]))
    return FinitePoset(labels, rels)


def test_transitivity_and_cycle_rejection():
    p = FinitePoset("abc", [("a", "b"), ("b", "c")])
    assert p.lt("a", "c")
    with pytest.raises(InputError):
        FinitePoset("ab", [("a", "b"), ("b", "a")])


def test_covers_are_transitive_reduction():
    p = FinitePoset("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert set(p.covers) == {("a", "b"), ("b", "c")}


def test_up_down_sets_and_openness():
    p = FinitePoset("abc", [("a", "b"), ("b", "c")])
    assert p.up_set("b") == {"b", "c"}
    assert {e for e in p.elements if p.leq(e, "b")} == {"a", "b"}
    assert p.is_open({"b", "c"}) and not p.is_open({"b"})
    assert p.is_closed({"a", "b"})
    assert p.min_open("a").members == {"a", "b", "c"}


def random_subsets(rng, p):
    """The whole poset, the empty set and three random subsets."""
    return [frozenset(p.elements), frozenset()] + [frozenset(e for e in p.elements if rng.random() < 0.6) for _ in range(3)]


def test_strict_chain_counts_against_brute_force():
    rng = random.Random(11)
    for _ in range(30):
        p = random_poset(rng)
        for members in random_subsets(rng, p):
            chains = p.strict_chains(members)
            for k in range(0, p.height + 2):
                brute = [
                    c
                    for c in combinations([e for e in p.elements if e in members], k + 1)
                    if all(p.lt(c[i], c[i + 1]) for i in range(k))
                ]
                assert [c for c in chains if len(c) == k + 1] == brute
            assert all(len(c) <= p.height + 1 for c in chains)  # every chain compared above


def test_strict_chain_counts_match_the_enumeration():
    rng = random.Random(40)
    for _ in range(40):
        p = random_poset(rng, max_elems=12)
        for members in random_subsets(rng, p):
            assert p.chain_count(members) == len(p.strict_chains(members))
    assert FinitePoset([], []).chain_count(frozenset()) == 0
    # labels that are not elements are not in any chain
    assert FinitePoset("ab", [("a", "b")]).chain_count(frozenset("abc")) == 3


def test_strict_chains_deterministic_order():
    p = FinitePoset("abcd", [("a", "c"), ("a", "d"), ("b", "c")])
    assert p.strict_chains(frozenset(p.elements)) == [("a",), ("b",), ("c",), ("d",), ("a", "c"), ("a", "d"), ("b", "c")]
    assert p.strict_chains(frozenset("dca")) == [("a",), ("c",), ("d",), ("a", "c"), ("a", "d")]
    assert p.strict_chains(frozenset("az")) == [("a",)]


def test_components_join_members_across_a_missing_middle():
    """a < b < c: the subset {a, c} is connected although it holds no cover
    of the base; {d} and the empty set are read as well."""
    p = FinitePoset("abcd", [("a", "b"), ("b", "c")])
    assert p.components(frozenset("ac")) == [frozenset("ac")]
    assert p.components(frozenset("dca")) == [frozenset("ac"), frozenset("d")]
    assert p.components(frozenset()) == []


def test_face_poset_of_disk():
    # one 2-cell glued to two 1-cells joining two 0-cells: 5 faces
    cw = RegularCWData(
        [
            ("p", 0, []),
            ("q", 0, []),
            ("top", 1, ["p", "q"]),
            ("bot", 1, ["p", "q"]),
            ("int", 2, ["top", "bot"]),
        ]
    )
    p = face_poset(cw)
    assert len(p.elements) == 5
    assert p.lt("p", "int") and p.lt("bot", "int")
    assert p.height == 2


def test_cw_data_validation():
    with pytest.raises(InputError):
        RegularCWData([("a", 1, ["missing"])])
    with pytest.raises(InputError):
        RegularCWData([("a", 0, []), ("b", 0, ["a"])])  # faces must drop dimension


def test_open_set_validation():
    p = FinitePoset("ab", [("a", "b")])
    with pytest.raises(InputError):
        OpenSet(p, {"a"})
    u = OpenSet(p, {"b"})
    assert "b" in u and len(u) == 1


def strict_chains_by_order_tests(p, k):
    """The enumeration that tests `lt` against every element in element
    order, kept as the oracle for the up-set walk."""
    chains = []

    def extend(chain):
        if len(chain) == k + 1:
            chains.append(tuple(chain))
            return
        for e in p.elements:
            if p.lt(chain[-1], e):
                extend(chain + [e])

    for e in p.elements:
        extend([e])
    return chains


def test_strict_chains_match_the_order_test_enumeration():
    rng = random.Random(5)
    for _ in range(40):
        base = random_poset(rng, max_elems=9)
        # relabel in shuffled insertion order so element order is not the
        # order the relations were drawn in
        order = list(base.elements)
        rng.shuffle(order)
        rels = [(a, b) for a in base.elements for b in base.elements if base.lt(a, b)]
        p = FinitePoset(order, rels)
        chains = p.strict_chains(frozenset(p.elements))
        assert chains == [c for k in range(p.height + 2) for c in strict_chains_by_order_tests(p, k)]


def brute_closure(elements, relations):
    """(strict order, covers, height) by Warshall closure, the cover test on
    every pair and the longest cover path: the reference for the one-pass
    closure in FinitePoset.__init__."""
    less = {(a, b) for a, b in relations if a != b}
    for c in elements:
        for a in elements:
            for b in elements:
                if (a, c) in less and (c, b) in less:
                    less.add((a, b))
    covers = [
        (a, b)
        for a in elements
        for b in elements
        if (a, b) in less and not any((a, c) in less and (c, b) in less for c in elements)
    ]
    rise = {}
    for a in sorted(elements, key=lambda e: sum((e, b) in less for b in elements)):
        rise[a] = max((1 + rise[b] for x, b in covers if x == a), default=0)
    return less, covers, max(rise.values(), default=-1)


def random_generating_set(rng, max_elems=9):
    """A random acyclic relation set, not transitively closed, on labels
    listed in shuffled order, so element order is not a topological order."""
    n = rng.randint(1, max_elems)
    ranked = [f"e{i}" for i in range(n)]
    rels = [(ranked[i], ranked[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    elements = ranked[:]
    rng.shuffle(elements)
    rng.shuffle(rels)
    return elements, rels


def test_one_pass_closure_against_brute_force():
    rng = random.Random(47)
    for _ in range(40):
        elements, rels = random_generating_set(rng)
        p = FinitePoset(elements, rels)
        less, covers, height = brute_closure(elements, rels)
        assert p._less == frozenset(less)
        assert p.covers == tuple(covers)
        assert p.height == height
        for e in elements:
            assert p.up_set(e) == {e} | {b for a, b in less if a == e}
            assert {a for a in elements if p.leq(a, e)} == {e} | {a for a, b in less if b == e}
        # the chains inside an arbitrary subset follow the induced order
        kept = frozenset(e for e in elements if rng.random() < 0.6)
        pairs = {c for c in p.strict_chains(kept) if len(c) == 2}
        assert pairs == {(a, b) for a, b in less if a in kept and b in kept}


def test_one_pass_closure_rejects_every_cycle():
    rng = random.Random(53)
    for _ in range(20):
        elements, rels = random_generating_set(rng)
        p = FinitePoset(elements, rels)
        if not p.covers:
            continue
        # close a loop through a chain of covers of any length
        chain = p.strict_chains(frozenset(p.elements))[-1]
        with pytest.raises(InputError):
            FinitePoset(elements, rels + [(chain[-1], chain[0])])
    with pytest.raises(InputError):
        FinitePoset("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")])
