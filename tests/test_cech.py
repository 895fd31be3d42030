import random
from itertools import combinations

import pytest

from finsheaf import cohom
from finsheaf.abgroup import GroupHom, PresentedAbGroup
from finsheaf.cech import (
    Covering,
    _cech_complex,
    _Coefficients,
    cech_cohomology,
    cech_cohomology_hq,
    cech_complex_hq,
    cech_complex_sheaf,
    covering_comparison_report,
    nerve,
    refinement_map,
)
from finsheaf.cohom import cohomology, restriction_induced
from finsheaf.errors import ContractViolation, InputError
from finsheaf.finspace import FinitePoset, OpenSet
from finsheaf.sheaf import constant_sheaf
from finsheaf.wedge import build_wedge, canonical_covering, gap_sheaf, stage_covering

Z = PresentedAbGroup.free(1)


def random_poset(rng, max_elems=7):
    n = rng.randint(2, max_elems)
    labels = [f"e{i}" for i in range(n)]
    rels = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                rels.append((labels[i], labels[j]))
    return FinitePoset(labels, rels)


def random_covering(rng, p):
    """Members are unions of minimal open sets; always a genuine covering."""
    mins = [p.up_set(e) for e in p.elements]
    k = rng.randint(1, 4)
    members = {}
    for i in range(k):
        pick = rng.sample(range(len(mins)), rng.randint(1, len(mins)))
        members[f"W{i}"] = set().union(*(mins[j] for j in pick))
    covered = set().union(*members.values())
    members["Wrest"] = set().union(*(mins[j] for j in range(len(mins)) if p.elements[j] not in covered)) or set(
        p.up_set(p.elements[0])
    )
    return Covering(p, members, sorted(members))


def test_covering_validation():
    p = FinitePoset("ab", [("a", "b")])
    with pytest.raises(InputError):
        Covering(p, {"U": {"a"}}, ["U"])  # not open
    with pytest.raises(InputError):
        Covering(p, {"U": {"b"}}, ["U"])  # does not cover


def test_coboundary_squares_to_zero_all_coefficient_degrees():
    w = build_wedge(2)
    F = gap_sheaf(w)
    c = canonical_covering(w)
    for q in (0, 1):
        cx = cech_complex_hq(c, F, q)
        for k in range(len(cx.maps) - 1):
            prod = cx.maps[k + 1] @ cx.maps[k]
            assert all(all(e == 0 for e in row) for row in prod.data)


def test_canonical_covering_cech_values():
    w = build_wedge(3)
    F = gap_sheaf(w)
    c = canonical_covering(w)
    assert cech_cohomology(c, F, 0).is_trivial()
    assert cech_cohomology(c, F, 1).is_trivial()
    assert cech_cohomology(c, F, 2).is_trivial()
    assert cech_cohomology_hq(c, F, 1, 0).is_trivial()
    assert cech_cohomology_hq(c, F, 1, 1).canonical == (3, ())


def test_nerve_of_canonical_covering_is_a_star():
    w = build_wedge(3)
    c = canonical_covering(w)
    tuples = nerve(c)
    pairs = [t for t in tuples if len(t) == 2]
    assert sorted(pairs) == [("U0", f"U{k}") for k in range(1, 4)]
    assert not [t for t in tuples if len(t) >= 3]


def test_index_permutation_invariance():
    w = build_wedge(2)
    F = gap_sheaf(w)
    c = canonical_covering(w)
    shuffled = c.reordered(["U2", "U0", "U1"])
    for p in (0, 1, 2):
        a = cech_cohomology_hq(c, F, 1, p).canonical
        b = cech_cohomology_hq(shuffled, F, 1, p).canonical
        assert a == b


def test_sheaf_axiom_h0_on_random_coverings():
    rng = random.Random(23)
    for _ in range(25):
        p = random_poset(rng)
        s = constant_sheaf(p, Z)
        c = random_covering(rng, p)
        assert cech_cohomology(c, s, 0).canonical == cohomology(p, s, 0).canonical


def test_cech_h1_rank_bounded_by_sheaf_h1():
    rng = random.Random(31)
    for _ in range(15):
        p = random_poset(rng)
        s = constant_sheaf(p, Z)
        c = random_covering(rng, p)
        cech1 = cech_cohomology(c, s, 1)
        sheaf1 = cohomology(p, s, 1)
        assert cech1.canonical[0] <= sheaf1.canonical[0]


def test_refinement_identity_and_tower():
    w = build_wedge(2)
    F = gap_sheaf(w)
    c = canonical_covering(w)
    ident = refinement_map(c, c, {n: n for n in c.order}, F, 1, 1)
    assert ident.equals_as_hom(GroupHom.identity(ident.source))


def test_refinement_requires_containment():
    w = build_wedge(1)
    F = gap_sheaf(w)
    c = canonical_covering(w)
    with pytest.raises(InputError):
        refinement_map(c, c, {"U0": "U1", "U1": "U0"}, F, 1, 1)


def test_comparison_report_flags_the_gap():
    w = build_wedge(2)
    F = gap_sheaf(w)
    rep = covering_comparison_report(canonical_covering(w), F)
    assert rep.gap
    assert rep.h0_agrees
    assert rep.rank_bookkeeping_ok and rep.torsion_ok
    assert rep.cech_h2.is_trivial() and rep.sheaf_h2.canonical == (2, ())
    assert isinstance(rep.table(), str) and "gap" in rep.table().lower()


def test_comparison_report_no_gap_for_constant_sheaf():
    w = build_wedge(2)
    s = constant_sheaf(w.poset, Z)
    rep = covering_comparison_report(canonical_covering(w), s)
    assert not rep.gap


def face_pairs(c):
    """(face intersection, simplex intersection) for every nerve simplex and
    each of its codimension-one faces: the restrictions a Čech differential uses."""
    for t in nerve(c):
        if len(t) > 1:
            for i in range(len(t)):
                yield c.intersection(t[:i] + t[i + 1:]), c.intersection(t)


@pytest.mark.parametrize("n", [2, 3])
def test_cached_restrictions_match_uncached(n):
    """The coefficient cache against fresh restriction_induced calls, and the
    Čech complex built again on a warm cache against the cold build."""
    w = build_wedge(n)
    F = gap_sheaf(w)
    coverings = [canonical_covering(w)] + [stage_covering(w, m) for m in range(2, n + 2)]
    for c in coverings:
        for q in (0, 1, 2):
            cold = cech_complex_hq(c, F, q)
            coeffs = cold.coefficients
            for big, small in face_pairs(c):
                cached = coeffs.restriction(big, small)
                fresh = restriction_induced(w.poset, OpenSet(w.poset, big), OpenSet(w.poset, small), F, q)
                assert cached.source.canonical == fresh.source.canonical
                assert cached.target.canonical == fresh.target.canonical
                assert cached.equals_as_hom(fresh)
                assert cached.matrix == fresh.matrix
            warm = _cech_complex(c, coeffs)
            assert warm.maps == cold.maps
            assert warm.groups == cold.groups


def test_stage_complex_builds_each_open_set_once(monkeypatch):
    w = build_wedge(4)
    F = gap_sheaf(w)
    built = []
    original = cohom.cochain_complex

    def counting(base, sheaf):
        built.append(frozenset(base.elements))
        return original(base, sheaf)

    monkeypatch.setattr(cohom, "cochain_complex", counting)
    for m in range(1, w.n + 2):
        c = stage_covering(w, m)
        built.clear()
        cech_complex_hq(c, F, 1)
        assert len(built) == len(set(built))
        assert set(built) == {c.intersection(t) for t in nerve(c)}


def test_truncated_complex_has_no_homology_at_its_top():
    """Degree top has no outgoing differential stored; reading it as zero
    would give a wrong group, so the complex refuses."""
    w = build_wedge(3)
    c = stage_covering(w, 3)
    full = cech_complex_hq(c, gap_sheaf(w), 1)
    assert full.top is None and len(full.groups) > 3
    cut = _cech_complex(c, full.coefficients, 2)
    assert cut.top == 2 and len(cut.groups) == 3
    assert cut.homology(1).group.canonical == full.homology(1).group.canonical
    for k in (2, 3):
        with pytest.raises(ContractViolation):
            cut.homology(k)


@pytest.mark.parametrize("n", [2, 3])
def test_truncated_cech_cohomology_matches_full_complex(n):
    w = build_wedge(n)
    F = gap_sheaf(w)
    coverings = [canonical_covering(w)] + [stage_covering(w, m) for m in range(2, n + 2)]
    for c in coverings:
        for q in (0, 1, 2):
            full = cech_complex_hq(c, F, q)
            for p in (0, 1, 2):
                want = full.homology(p).group
                got = cech_cohomology_hq(c, F, q, p)
                assert got.canonical == want.canonical
                assert got.generator_count == want.generator_count


def subset_filter(c, p):
    """The nerve in degree p by testing every (p+1)-subset."""
    return [t for t in combinations(c.order, p + 1) if c.intersection(t)]


def test_nerve_tuples_match_the_subset_filter():
    coverings = []
    for n in (1, 3, 5):
        w = build_wedge(n)
        coverings += [canonical_covering(w)] + [stage_covering(w, m) for m in range(2, n + 2)]
    rng = random.Random(61)
    for _ in range(40):
        coverings.append(random_covering(rng, random_poset(rng)))
    for c in coverings:
        for p in range(len(c.order) + 1):
            assert c.tuples(p) == subset_filter(c, p)
