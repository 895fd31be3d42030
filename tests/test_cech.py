import random
import time
from itertools import combinations

import pytest
from counting import counting_calls
from hypothesis import find, given, settings
from hypothesis import strategies as st
from oracles import layout_rank, reference_cech_cohomology, reference_cech_complex
from strategies import graphs, sheaves as random_sheaves
from test_coefficients import assert_first_of_each_class_built
from test_leray import leray_corpus

from finsheaf import cech, cohom, finspace
from finsheaf.abgroup import GroupHom, IntMatrix, PresentedAbGroup, direct_sum
from finsheaf.cech import (
    CechComplex,
    Covering,
    _Coefficients,
    cech_cohomology,
    cech_cohomology_hq,
    cech_complex_hq,
    covering_comparison_report,
    nerve,
    refinement_map,
)
from finsheaf.cohom import cohomology, restriction_induced
from finsheaf.errors import ContractViolation, InputError
from finsheaf.finspace import FinitePoset, OpenSet, RegularCWData, face_poset
from finsheaf.sheaf import PosetSheaf, constant_sheaf
from finsheaf.wedge import build_wedge, canonical_covering, gap_sheaf, stage_covering, stage_system

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
    shuffled = Covering(c.base, c.members, ["U2", "U0", "U1"])
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


@st.composite
def up_set_coverings(draw):
    """A random sheaf, free or torsion stalks, and a covering of its base by
    up to four open sets, each the union of the up-sets of drawn elements,
    and one more for the elements they leave out, in any order."""
    base, sheaf = draw(random_sheaves())
    members = {}
    for i in range(draw(st.integers(1, 4))):
        seeds = draw(st.lists(st.sampled_from(base.elements), min_size=1, unique=True))
        members[f"W{i}"] = frozenset().union(*(base.up_set(e) for e in seeds))
    left = set(base.elements).difference(*members.values())
    if left:
        members["Wrest"] = frozenset().union(*(base.up_set(e) for e in left))
    return sheaf, Covering(base, members, draw(st.permutations(sorted(members))))


@settings(max_examples=80, deadline=None)
@given(up_set_coverings())
def test_cech_h0_is_the_sheaf_h0_on_random_up_set_coverings(drawn):
    """Ȟ⁰(U; F) ≅ H⁰(X; F) on every open covering, by the sheaf axiom: the
    compatible families of sections on the members are the global ones."""
    F, c = drawn
    got = CechComplex(c, _Coefficients(F), 0, 1).homology(0).group
    assert got.canonical == cohomology(c.base, F, 0).canonical


@st.composite
def graph_coverings(draw):
    """A sheaf with free or torsion stalks on the face poset of a random
    graph, and the covering by the open stars of its vertices, in any
    order.  Two stars meet in the edges that join their vertices and no
    three meet, so the nerve is the graph and Ȟ¹ need not vanish."""
    base, sheaf = draw(random_sheaves(graphs()))
    stars = {v: base.up_set(v) for v in base.elements if v.startswith("v")}
    return sheaf, Covering(base, stars, draw(st.permutations(sorted(stars))))


@settings(max_examples=60, deadline=None)
@given(graph_coverings())
def test_cech_groups_of_graph_coverings_match_the_reference_loop(drawn):
    """Ȟ^p(U; H^q F), p <= 2 and q <= 1, on vertex-star coverings of graphs
    is the group the reference Čech loop gives on fresh complexes."""
    F, c = drawn
    for q in (0, 1):
        for p in (0, 1, 2):
            assert cech_cohomology_hq(c, F, q, p).canonical == reference_cech_cohomology(c, F, p, q)


def test_graph_coverings_reach_a_nonzero_cech_h1():
    """The graph coverings give nonzero groups in degree 1, so the test
    above compares more than trivial groups there."""
    F, c = find(
        graph_coverings(),
        lambda drawn: cech_cohomology_hq(drawn[1], drawn[0], 0, 1).canonical != (0, ()),
        settings=settings(max_examples=200, database=None),
    )
    assert reference_cech_cohomology(c, F, 1, 0) != (0, ())


@pytest.mark.parametrize(
    "group, want", [(Z, (1, ())), (PresentedAbGroup.from_canonical_form(0, [2]), (0, (2,)))], ids=["Z", "Z/2"]
)
def test_cech_of_a_four_cycle_covered_by_vertex_stars(group, want):
    """The nerve of the vertex stars of a 4-cycle is the 4-cycle, so a
    constant sheaf A has Ȟ⁰ = Ȟ¹ = A and Ȟ² = 0, in the package and in the
    reference loop."""
    edges = [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "v0")]
    cells = [(f"v{i}", 0, []) for i in range(4)] + [(f"x{i}", 1, list(e)) for i, e in enumerate(edges)]
    base = face_poset(RegularCWData(cells))
    F = constant_sheaf(base, group)
    c = Covering(base, {v: base.up_set(v) for v in ("v0", "v1", "v2", "v3")}, ["v0", "v1", "v2", "v3"])
    for p, expected in enumerate([want, want, (0, ())]):
        assert cech_cohomology_hq(c, F, 0, p).canonical == reference_cech_cohomology(c, F, p, 0) == expected


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
    rep = covering_comparison_report(canonical_covering(w), _Coefficients(F))
    assert rep.gap
    assert rep.h0_agrees
    assert rep.rank_bookkeeping_ok and rep.torsion_ok
    assert rep.cech_h2.is_trivial() and rep.sheaf_h2.canonical == (2, ())
    assert isinstance(rep.table(), str) and "gap" in rep.table().lower()


def test_comparison_report_no_gap_for_constant_sheaf():
    w = build_wedge(2)
    s = constant_sheaf(w.poset, Z)
    rep = covering_comparison_report(canonical_covering(w), _Coefficients(s))
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
                cached = coeffs.restriction(big, small, q)
                fresh = restriction_induced(w.poset, OpenSet(w.poset, big), OpenSet(w.poset, small), F, q)
                assert cached.source.canonical == fresh.source.canonical
                assert cached.target.canonical == fresh.target.canonical
                assert cached.equals_as_hom(fresh)
                assert cached.matrix == fresh.matrix
            warm = CechComplex(c, coeffs, q)
            assert warm.maps == cold.maps
            assert warm.groups == cold.groups


def shared_table_cases():
    """(coverings, sheaf, refinements) to read from one table: every stage
    covering of X_N, N <= 4, with the gap sheaf and the adjacent stage
    refinements; every Leray covering with each of its sheaves; and seeded
    random coverings with constant Z, whose open sets may carry H^0 and H^1
    at once.  Each of the latter two refines the one-member covering by the
    whole space."""
    for n in range(1, 5):
        w = build_wedge(n)
        stages = [stage_covering(w, m) for m in range(1, n + 2)]
        refinements = [
            (fine, coarse, {name: name if name in coarse.members else f"D{name[1:]}" for name in fine.order})
            for fine, coarse in zip(stages, stages[1:])
        ]
        yield stages, gap_sheaf(w), refinements
    corpus = list(leray_corpus())
    rng = random.Random(89)
    for _ in range(20):
        p = random_poset(rng)
        corpus.append((random_covering(rng, p), [constant_sheaf(p, Z)]))
    for c, sheaves in corpus:
        whole = Covering(c.base, {"X": c.base.elements}, ["X"])
        for F in sheaves:
            yield [c, whole], F, [(c, whole, {name: "X" for name in c.order})]


def test_one_table_for_every_degree_matches_a_fresh_table_per_complex():
    """Čech complexes with coefficients H^0 and H^1, full and cut at degree
    2, built in a shuffled order on one coefficient table, have the groups
    and maps of the same complexes built each on a fresh table, and the
    refinement maps between them are those between the fresh ones."""
    rng = random.Random(83)
    for coverings, F, refinements in shared_table_cases():
        table = _Coefficients(F)
        keys = [(c, q, top) for c in coverings for q in (0, 1) for top in (None, 2)]
        rng.shuffle(keys)
        shared = {}
        for c, q, top in keys:
            cx = shared[c, q, top] = CechComplex(c, table, q, top)
            fresh = CechComplex(c, _Coefficients(F), q, top)
            assert cx.groups == fresh.groups
            assert cx.maps == fresh.maps
        for fine, coarse, assignment in refinements:
            for q in (0, 1):
                for p in (0, 1):
                    got = cech._refinement_map(shared[fine, q, 2], shared[coarse, q, 2], assignment, p)
                    fine_cx, coarse_cx = (CechComplex(c, _Coefficients(F), q, 2) for c in (fine, coarse))
                    want = cech._refinement_map(fine_cx, coarse_cx, assignment, p)
                    assert (got.source, got.target, got.matrix) == (want.source, want.target, want.matrix)


def test_stage_complex_builds_each_open_set_once(monkeypatch):
    """Every cochain complex the stage Čech complexes read, by any route and
    in any coefficient degree, comes from one coefficient table across all
    the stages, on an intersection of their nerves.  The first open set of
    each class of alike ones is built, once, from the sheaf itself rather
    than a restriction of it; every other is a view of that build."""
    w = build_wedge(4)
    F = gap_sheaf(w)
    coefficients = _Coefficients(F)
    coverings = [stage_covering(w, m) for m in range(1, w.n + 2)]
    built = counting_calls(monkeypatch, cohom.CochainComplex, "__init__")
    for c in coverings:
        for q in (0, 1):
            CechComplex(c, coefficients, q)
    assert set(coefficients._complexes) == {c.intersection(t) for c in coverings for t in nerve(c)}
    assert coefficients.sheaf is F
    assert_first_of_each_class_built(coefficients, built)
    assert len(built) < len(coefficients._complexes)


def test_cech_complex_refuses_a_sheaf_on_another_poset():
    """The coefficient complexes lie on the sheaf's own base, so a covering
    of another poset is refused, even where its labels all occur there."""
    c = canonical_covering(build_wedge(2))
    F = gap_sheaf(build_wedge(3))
    with pytest.raises(InputError, match="same poset"):
        cech_complex_hq(c, F, 1)
    with pytest.raises(InputError, match="same poset"):
        cech_cohomology_hq(c, F, 0, 1)
    with pytest.raises(InputError, match="same poset"):
        covering_comparison_report(c, _Coefficients(F))


def test_truncated_complex_has_no_homology_at_its_top():
    """Degree top has no outgoing differential stored; reading it as zero
    would give a wrong group, so the complex refuses."""
    w = build_wedge(3)
    c = stage_covering(w, 3)
    full = cech_complex_hq(c, gap_sheaf(w), 1)
    assert full.top is None and len(full.groups) > 3
    cut = CechComplex(c, full.coefficients, 1, 2)
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


def nerve_test_coverings():
    """Canonical and stage coverings of 1, 3 and 5 disks, and 40 seeded
    random coverings."""
    coverings = []
    for n in (1, 3, 5):
        w = build_wedge(n)
        coverings += [canonical_covering(w)] + [stage_covering(w, m) for m in range(2, n + 2)]
    rng = random.Random(61)
    for _ in range(40):
        coverings.append(random_covering(rng, random_poset(rng)))
    return coverings


def test_nerve_tuples_match_the_subset_filter():
    for c in nerve_test_coverings():
        for p in range(len(c.order) + 1):
            assert c.tuples(p) == subset_filter(c, p)


def reference_tuples(c, p):
    """The nerve in degree p as `Covering.tuples` listed it before the
    one-pass `Covering.simplices`: its own extension from the empty tuple,
    one member longer per pass, by members that leave room for the rest."""
    order = c.order
    level = [((), frozenset(c.base.elements), 0)]
    for length in range(p + 1):
        longer = []
        for t, common, start in level:
            for i in range(start, len(order) - p + length):
                meet = common & c.members[order[i]]
                if meet:
                    longer.append((t + (order[i],), meet, i + 1))
        level = longer
    return [t for t, _, _ in level]


@pytest.mark.parametrize("n", range(2, 7))
def test_one_pass_nerve_matches_the_per_degree_reference(n):
    w = build_wedge(n)
    for c in [canonical_covering(w)] + [stage_covering(w, m) for m in range(2, n + 2)]:
        levels = c.simplices(len(c.order))
        expected = [reference_tuples(c, p) for p in range(len(levels))]
        assert [[t for t, _ in level] for level in levels] == expected
        assert not levels[-1] and all(expected[:-1]), "the list ends at the first empty degree"
        meets = {}
        for level in levels:
            for t, meet in level:
                assert meet == c.intersection(t)
                assert meets.setdefault(meet, meet) is meet, "equal intersections are one object"
        for top in range(len(levels)):
            assert c.simplices(top) == levels[: top + 1]


def test_simplex_count_is_the_size_of_the_listed_nerve():
    for c in nerve_test_coverings():
        sizes = [len(c.tuples(p)) for p in range(len(c.order))]
        for top in range(len(c.order)):
            assert c.simplex_count(top) == sum(sizes[: top + 1])
        assert c.simplex_count(len(c.order) - 1) == len(nerve(c))


def test_a_nerve_over_the_budget_is_refused_before_any_tuple_is_listed(monkeypatch):
    # the largest stage of N disks has N + 1 + C(N + 1, 2) + C(N + 1, 3) simplices in degrees 0..2
    assert stage_covering(build_wedge(65), 66).simplex_count(2) == 47_971
    assert stage_covering(build_wedge(66), 67).simplex_count(2) > cech.MAX_NERVE_SIMPLICES
    w = build_wedge(100)
    c, coeffs = stage_covering(w, 101), _Coefficients(gap_sheaf(w))

    def listing(self, top):
        raise AssertionError("a tuple was listed")

    monkeypatch.setattr(Covering, "simplices", listing)
    start = time.perf_counter()
    with pytest.raises(InputError, match="nerve simplices"):
        CechComplex(c, coeffs, 1, 2)
    assert time.perf_counter() - start < 1.0


def test_coefficients_build_one_complex_and_no_poset_per_open_set(monkeypatch):
    """The coefficient complex of each intersection lies on the chains of
    the base inside it: `cech_complex_hq` builds at most one cochain
    complex per open set, only for the first of each class of alike ones,
    reads every other as a view, and builds no poset and no sheaf at all.
    The canonical covering of X_4 has 9 intersections in 3 classes: U0, the
    U_k and the S_k = U0 ∩ U_k."""
    w = build_wedge(4)
    F = gap_sheaf(w)
    c = canonical_covering(w)
    opens = {c.intersection(t) for t in nerve(c)}
    posets = counting_calls(monkeypatch, finspace.FinitePoset, "__init__")
    sheaves = counting_calls(monkeypatch, PosetSheaf, "__init__")
    complexes = counting_calls(monkeypatch, cohom.CochainComplex, "__init__")
    cx = cech_complex_hq(c, F, 1)
    assert posets == [] and sheaves == []
    assert set(cx.coefficients._complexes) == opens
    assert_first_of_each_class_built(cx.coefficients, complexes)
    assert (len(complexes), len(opens)) == (3, 9)


# -- reference loops ----------------------------------------------------------
# Refinement chain maps built by their own loops over the layout of
# `oracles.reference_cech_complex`, independent of the shared face-complex
# builder.


def reference_refinement_chain_map(fine_cx, coarse_cx, assignment):
    """Per degree of the coarse complex, the map to the fine one: each fine
    tuple takes the restriction of its sorted image under the assignment,
    signed by the parity of the sort; degenerate images contribute zero."""
    coarse, coeffs, q = coarse_cx.covering, fine_cx.coefficients, fine_cx.q
    fine_layout = reference_cech_complex(fine_cx.covering, coeffs, q, fine_cx.top)[0]
    coarse_layout = reference_cech_complex(coarse, coeffs, q, coarse_cx.top)[0]
    coarse_pos = {name: i for i, name in enumerate(coarse.order)}
    fmat = []
    for k in range(len(coarse_layout)):
        src_index = {t: (off, meet) for t, off, _, meet in coarse_layout[k]}
        blocks = []
        for t, toff, _, meet in fine_layout[k] if k < len(fine_layout) else []:
            mapped = [assignment[n] for n in t]
            if len(set(mapped)) < len(mapped):
                continue
            perm = sorted(range(len(mapped)), key=lambda i: coarse_pos[mapped[i]])
            sign = 1
            for i in range(len(perm)):
                for j in range(i + 1, len(perm)):
                    if perm[i] > perm[j]:
                        sign = -sign
            source = src_index.get(tuple(mapped[i] for i in perm))
            if source is not None:
                blocks.append((toff, source[0], sign, coeffs.restriction(source[1], meet, q).matrix))
        fmat.append(IntMatrix.from_blocks(layout_rank(fine_layout, k), layout_rank(coarse_layout, k), blocks))
    return fmat


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cech_complexes_match_the_reference_loop(n):
    w = build_wedge(n)
    F = gap_sheaf(w)
    for c in [canonical_covering(w)] + [stage_covering(w, m) for m in range(2, n + 2)]:
        for q in (0, 1):
            coeffs = _Coefficients(F)
            for top in (None, 2):
                layout, maps = reference_cech_complex(c, coeffs, q, top)
                cx = CechComplex(c, coeffs, q, top)
                assert cx.maps == maps
                # summands without generators add no row or column and are not laid out
                placed = [[s for s in entries if s[2].generator_count] for entries in layout]
                assert [list(cx.summands(k)) for k in range(len(cx.groups))] == placed
                for k, entries in enumerate(layout):
                    whole = direct_sum([g for _, _, g, _ in entries])
                    assert cx.groups[k].generator_count == whole.generator_count
                    assert cx.groups[k].relations == whole.relations


@pytest.mark.parametrize("n", [2, 3, 4])
def test_refinement_chain_maps_match_the_reference_loop(monkeypatch, n):
    """Adjacent stage refinements, refinements between the canonical
    covering and shuffled copies of it, whose chain maps carry the parity
    of the reordering, and a refinement into two members that sends
    distinct tuples to degenerate ones, which map to zero."""
    seen = []
    original = cech.induced_on_homology

    def recording(f, source, target, p):
        seen.append((f, source, target))
        return original(f, source, target, p)

    monkeypatch.setattr(cech, "induced_on_homology", recording)
    w = build_wedge(n)
    F = gap_sheaf(w)
    assignments = []
    stages = stage_system(w, _Coefficients(F))
    for m in range(1, n + 1):
        stages.inclusion(m, m + 1)
        fine, coarse = stage_covering(w, m), stage_covering(w, m + 1)
        assignments.append({name: name if name in coarse.members else f"D{name[1:]}" for name in fine.order})
    c = canonical_covering(w)
    rng = random.Random(n)
    for _ in range(3):
        order = list(c.order)
        rng.shuffle(order)
        shuffled = Covering(c.base, c.members, order)
        for q in (0, 1):
            for p in (0, 1):
                for fine, coarse in ((c, shuffled), (shuffled, c)):
                    refinement_map(fine, coarse, {name: name for name in order}, F, p, q)
                    assignments.append({name: name for name in order})
    fine = stage_covering(w, 3)
    both = Covering(w.poset, {"A": w.poset.elements, "B": w.poset.elements}, ["A", "B"])
    onto_b = {name: "A" if name == "U0" else "B" for name in fine.order}
    for q in (0, 1):
        for p in (0, 1):
            refinement_map(fine, both, onto_b, F, p, q)
            assignments.append(onto_b)
    assert len(seen) == len(assignments)
    for (f, coarse_cx, fine_cx), assignment in zip(seen, assignments):
        want = reference_refinement_chain_map(fine_cx, coarse_cx, assignment)
        assert f == want
