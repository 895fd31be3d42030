"""Leray's theorem as an independent oracle for truncated Čech complexes.

The minimal open set U_p = {q >= p} has least element p, so it is acyclic
for every sheaf.  A covering whose nonempty finite intersections each have
a least element is therefore a covering by minimal open sets, and its Čech
cohomology equals sheaf cohomology in every degree.  Each Ȟ^p below comes
from a complex cut at degree p + 1.  Drawn coverings by minimal open sets
need not have such intersections; those whose intersections are acyclic
for the drawn sheaf are Leray coverings all the same.
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import intersection, reference_nerve, subset_filter
from strategies import sheaves as random_sheaves

from finsheaf.abgroup import PresentedAbGroup
from finsheaf.cech import CechComplex, Covering, _Coefficients, cech_cohomology_hq
from finsheaf.cohom import CochainComplex, cohomology
from finsheaf.finspace import FinitePoset, OpenSet
from finsheaf.sheaf import constant_sheaf, extension_by_zero

TRIALS = 60
MIN_QUALIFYING = 40


def random_poset(rng):
    n = rng.randint(3, 7)
    labels = [f"e{i}" for i in range(n)]
    rels = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
    return FinitePoset(labels, rels)


def minimal_open_covering(rng, poset):
    """Up-sets of every minimal element and of a random subset of the rest."""
    picked = [e for e in poset.elements if not any(poset.lt(a, e) for a in poset.elements) or rng.random() < 0.4]
    return Covering(poset, {e: poset.up_set(e) for e in picked}, picked)


def has_least_element(poset, members):
    return any(poset.up_set(e) >= members for e in members)


def sheaves(rng, poset):
    seeds = rng.sample(poset.elements, rng.randint(1, len(poset.elements)))
    opens = OpenSet(poset, set().union(*(poset.up_set(e) for e in seeds)))
    return [
        constant_sheaf(poset, PresentedAbGroup.free(1)),
        constant_sheaf(poset, PresentedAbGroup.free(2)),
        extension_by_zero(poset, opens, PresentedAbGroup.free(1)),
    ]


def leray_corpus():
    """(covering, sheaves) for every covering of the seeded trials whose
    nonempty intersections each have a least element."""
    rng = random.Random(71)
    for _ in range(TRIALS):
        poset = random_poset(rng)
        c = minimal_open_covering(rng, poset)
        if all(has_least_element(poset, intersection(c, t)) for t in reference_nerve(c)):
            yield c, sheaves(rng, poset)


def test_cech_equals_sheaf_cohomology_on_leray_coverings():
    qualifying = cut_short = 0
    for c, corpus_sheaves in leray_corpus():
        qualifying += 1
        cut_short += bool(subset_filter(c, 2))  # the cut at degree 1 for Ȟ⁰ drops a nonempty degree
        for F in corpus_sheaves:
            for p in range(3):
                assert cech_cohomology_hq(c, F, 0, p).canonical == cohomology(c.base, F, p).canonical
    assert qualifying >= MIN_QUALIFYING
    assert cut_short >= 10


@st.composite
def minimal_open_coverings(draw):
    """A random sheaf, free or torsion stalks, and a covering of its base
    by the minimal open sets of every minimal element and of some others,
    listed in any order."""
    base, sheaf = draw(random_sheaves())
    minimal = [e for e in base.elements if not any(base.lt(a, e) for a in base.elements)]
    rest = [e for e in base.elements if e not in minimal]
    extra = draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    picked = draw(st.permutations(minimal + extra))
    return sheaf, Covering(base, {e: base.up_set(e) for e in picked}, picked)


@settings(max_examples=80, deadline=None)
@given(minimal_open_coverings())
def test_cech_equals_sheaf_cohomology_on_random_leray_coverings(drawn):
    """Leray's theorem on random coverings by minimal open sets whose
    intersections are acyclic, as fresh complexes on them show; every
    degree comes from one coefficient table."""
    F, c = drawn
    intersections = {intersection(c, t) for t in reference_nerve(c)}
    assume(all(CochainComplex(F, V).homology(q).group.is_trivial() for V in intersections for q in range(1, c.base.height + 1)))
    table = _Coefficients(F)
    for p in range(c.base.height + 1):
        got = CechComplex(c, table, 0, p + 1).homology(p).group
        assert got.canonical == cohomology(c.base, F, p).canonical
