"""Leray's theorem as an independent oracle for truncated Čech complexes.

The minimal open set U_p = {q >= p} has least element p, so it is acyclic
for every sheaf.  A covering whose nonempty finite intersections each have
a least element is therefore a covering by minimal open sets, and its Čech
cohomology equals sheaf cohomology in every degree.  Each Ȟ^p below comes
from a complex cut at degree p + 1.
"""

import random

from finsheaf.abgroup import PresentedAbGroup
from finsheaf.cech import Covering, cech_cohomology_hq, nerve
from finsheaf.cohom import cohomology
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
    picked = [e for e in poset.elements if poset.down_set(e) == {e} or rng.random() < 0.4]
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


def test_cech_equals_sheaf_cohomology_on_leray_coverings():
    rng = random.Random(71)
    qualifying = cut_short = 0
    for _ in range(TRIALS):
        poset = random_poset(rng)
        c = minimal_open_covering(rng, poset)
        if not all(has_least_element(poset, c.intersection(t)) for t in nerve(c)):
            continue
        qualifying += 1
        cut_short += bool(c.tuples(2))  # the cut at degree 1 for Ȟ⁰ drops a nonempty degree
        for F in sheaves(rng, poset):
            for p in range(3):
                assert cech_cohomology_hq(c, F, 0, p).canonical == cohomology(poset, F, p).canonical
    assert qualifying >= MIN_QUALIFYING
    assert cut_short >= 10
