"""Property tests on random posets, drawn by hypothesis: the Euler
characteristic of sheaves with free and torsion stalks, constant Z/2 and
Z/3 cohomology against the simplicial oracle under universal coefficients,
the complex on the chains inside a subset against the complex of the
restricted sheaf, the components of a subset against those of its
subposet, and the core of a subset against brute force and the
simplicial oracle.  The homology tests read cochain groups that have
relations, and torsion in the group after them."""

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    primary_decomposition,
    reference_acyclic_connected,
    reference_components,
    reference_restricted_sheaf,
    simplicial_cohomology,
    universal_coefficients,
)
from strategies import posets, sheaves

from finsheaf import wedge
from finsheaf.abgroup import PresentedAbGroup
from finsheaf.cohom import CochainComplex, cochain_complex, cohomology
from finsheaf.sheaf import constant_sheaf


@settings(max_examples=80, deadline=None)
@given(sheaves())
def test_euler_characteristic_of_sheaves_with_torsion_stalks(base_and_sheaf):
    """Σ(-1)^k rank C^k = Σ(-1)^q rank H^q, the cochain ranks counted from
    the strict chains and the stalk at each chain's last element."""
    base, sheaf = base_and_sheaf
    degrees = range(base.height + 1)
    cochains = sum((-1) ** (len(c) - 1) * sheaf.stalks[c[-1]].rank for c in base.strict_chains(frozenset(base.elements)))
    assert cochains == sum((-1) ** q * cohomology(base, sheaf, q).rank for q in degrees)


@settings(max_examples=50, deadline=None)
@given(posets())
def test_constant_torsion_coefficients_under_universal_coefficients(base):
    integral = simplicial_cohomology(list(base.elements), base.leq)
    degrees = base.height + 2
    for q in range(degrees):
        free, torsion = integral[q] if q < len(integral) else (0, [])
        rank, factors = cohomology(base, constant_sheaf(base, PresentedAbGroup.free(1)), q).canonical
        assert (rank, primary_decomposition(factors)) == (free, primary_decomposition(torsion))
    for prime in (2, 3):
        sheaf = constant_sheaf(base, PresentedAbGroup.from_canonical_form(0, [prime]))
        got = [cohomology(base, sheaf, q).canonical for q in range(degrees)]
        assert got == universal_coefficients(integral, prime, degrees), f"H^*(Z/{prime})"


def layout(cx):
    """Per degree, (chain, offset, generators, relations, end) of every summand."""
    return [[(t, off, g.generator_count, g.relations, end) for t, off, g, end in cx.summands(k)] for k in range(len(cx.groups))]


@settings(max_examples=80, deadline=None)
@given(sheaves(), st.data())
def test_subset_complex_is_the_complex_of_the_restricted_sheaf(base_and_sheaf, data):
    """On an arbitrary subset S, open, closed or neither, the complex on the
    chains inside S with the sheaf's own restriction table is the complex of
    the sheaf restricted to S, built on its subposet: the same summands at
    the same offsets, the same differentials and the same H^q.  The sheaves
    drawn compose their restrictions exactly, so the blocks agree as
    integer matrices and not only modulo relations."""
    base, sheaf = base_and_sheaf
    kept = data.draw(st.lists(st.booleans(), min_size=len(base), max_size=len(base)))
    members = frozenset(e for e, keep in zip(base.elements, kept) if keep)
    got = CochainComplex(sheaf, members)
    restricted = reference_restricted_sheaf(sheaf, members)
    want = cochain_complex(restricted.base, restricted)
    assert layout(got) == layout(want)
    assert got.maps == want.maps
    degrees = range(len(want.groups))
    assert [got.homology(q).group.canonical for q in degrees] == [want.homology(q).group.canonical for q in degrees]


@settings(max_examples=150, deadline=None)
@given(posets(max_elements=9), st.data())
def test_components_of_a_subset_are_those_of_its_subposet(base, data):
    """On an open set, its closed complement, an arbitrary subset (often not
    convex: it may hold a < c without the b between them) and the empty
    set, the components read on the base are those of the subposet, in
    content and in order."""
    seeds = data.draw(st.lists(st.sampled_from(base.elements), unique=True))
    opens = frozenset().union(*(base.up_set(e) for e in seeds))
    kept = data.draw(st.lists(st.booleans(), min_size=len(base), max_size=len(base)))
    arbitrary = frozenset(e for e, keep in zip(base.elements, kept) if keep)
    for members in (opens, frozenset(base.elements) - opens, arbitrary, frozenset()):
        assert base.components(members) == reference_components(base, members)


def is_beat_point(base, members, p):
    """The members above p have a minimum, or those below it a maximum."""
    above = [q for q in members if base.lt(p, q)]
    below = [q for q in members if base.lt(q, p)]
    return any(all(base.leq(m, q) for q in above) for m in above) or any(all(base.leq(q, m) for q in below) for m in below)


@settings(max_examples=150, deadline=None)
@given(posets(max_elements=9), st.data())
def test_core_is_a_beat_point_free_retract_with_the_same_cohomology(base, data):
    """The core of a nonempty subset S lies in S, has no beat point, and its
    order complex has the integral cohomology of S's in every degree, by
    the simplicial oracle; condition (i)'s verdict on S is the one of S's
    own subposet."""
    members = frozenset(data.draw(st.lists(st.sampled_from(base.elements), min_size=1, unique=True)))
    core = base.core(members)
    assert core <= members
    assert not any(is_beat_point(base, core, p) for p in core)

    def integral(subset):
        # the oracle lists a degree per simplex dimension; a core has fewer
        groups = simplicial_cohomology([e for e in base.elements if e in subset], base.leq)
        while groups[-1] == (0, []):
            groups.pop()
        return groups

    assert integral(core) == integral(members)
    assert wedge._acyclic_connected(base, [members]) == [reference_acyclic_connected(base, members)]
