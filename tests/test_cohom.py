import gc
import random
import time
import weakref

import pytest
from counting import counting_calls
from itertools import combinations

from oracles import kernel_group, reference_components, reference_induced_map, reference_restricted_sheaf, reference_subposet

from finsheaf import abgroup, cech, cohom, finspace
from finsheaf.abgroup import GroupHom, IntMatrix, PresentedAbGroup, solve
from finsheaf.cohom import (
    MAX_STRICT_CHAINS,
    CochainComplex,
    cochain_complex,
    cohomology,
    les_of_short_exact,
    component_identity_check,
    restriction_induced,
    restriction_on_homology,
    stalkwise_chain_map,
)
from finsheaf.errors import InputError
from finsheaf.finspace import FinitePoset, OpenSet
from finsheaf.sheaf import PosetSheaf, SheafMorphism, constant_sheaf, extension_by_zero, zero_sheaf
from finsheaf.wedge import build_wedge, canonical_covering, collect_stage_evidence, gap_sheaf, structure_sequence

Z = PresentedAbGroup.free(1)


def circle_poset():
    # minimal finite model of the circle: H^0 = H^1 = Z
    return FinitePoset("pqrs", [("p", "r"), ("p", "s"), ("q", "r"), ("q", "s")])


def test_constant_cohomology_of_point_and_circle():
    pt = FinitePoset(["only"], [])
    assert cohomology(pt, constant_sheaf(pt, Z), 0).canonical == (1, ())
    c = circle_poset()
    s = constant_sheaf(c, Z)
    assert cohomology(c, s, 0).canonical == (1, ())
    assert cohomology(c, s, 1).canonical == (1, ())
    assert cohomology(c, s, 2).is_trivial()


def test_cochain_complex_is_a_complex():
    w = build_wedge(2)
    cx = cochain_complex(w.poset, gap_sheaf(w))
    for k in range(len(cx.maps) - 1):
        prod = cx.maps[k + 1] @ cx.maps[k]
        assert all(all(e == 0 for e in row) for row in prod.data)


def test_degree_guards():
    pt = FinitePoset(["o"], [])
    s = constant_sheaf(pt, Z)
    with pytest.raises(InputError):
        cohomology(pt, s, -1)
    assert cohomology(pt, s, 99).is_trivial()


def test_restriction_contravariance():
    w = build_wedge(2)
    F = gap_sheaf(w)
    p = w.poset
    full = OpenSet(p, frozenset(p.elements))
    mid = p.min_open("x")
    small = p.min_open("a1")
    q = 1
    f1 = restriction_induced(p, full, mid, F, q)
    f2 = restriction_induced(p, mid, small, F, q)
    direct = restriction_induced(p, full, small, F, q)
    assert f2.compose(f1).equals_as_hom(direct)
    ident = restriction_induced(p, full, full, F, q)
    assert ident.equals_as_hom(GroupHom.identity(ident.source))


def test_les_of_structure_sequence():
    w = build_wedge(2)
    p = w.poset
    les = les_of_short_exact(p, structure_sequence(w), OpenSet(p, frozenset(p.elements)))
    assert les.exact
    # H^1 of the skeleton sheaf transports to H^2 of the extension by zero
    assert les.segment(1, 2).canonical == (2, ())
    assert les.segment(2, 0).canonical == (2, ())
    assert les.segment(0, 1).canonical == (1, ())
    assert les.segment(1, 1).is_trivial()
    assert les.segment(2, 1).is_trivial()


def test_les_reports_the_first_node_where_exactness_fails(monkeypatch):
    """With every induced map replaced by zero, H^0(A) = 0 still injects,
    but H^0(B) = Z is neither hit nor killed: the first failure is node 1."""

    def zero(self, target, f):
        return GroupHom(self.group, target.group, IntMatrix.zero(target.group.generator_count, self.group.generator_count))

    monkeypatch.setattr(abgroup.Subquotient, "induced_map", zero)
    w = build_wedge(2)
    p = w.poset
    les = les_of_short_exact(p, structure_sequence(w), OpenSet(p, frozenset(p.elements)))
    assert (les.exact, les.failing_node) == (False, 1)


def test_les_connecting_map_is_isomorphism_here():
    w = build_wedge(3)
    p = w.poset
    les = les_of_short_exact(p, structure_sequence(w), OpenSet(p, frozenset(p.elements)))
    conn = [
        a
        for n, a in zip(les.nodes, les.arrows)
        if a.connecting and n.degree == 1 and n.position == 2
    ]
    assert len(conn) == 1
    delta = conn[0].hom
    assert delta.is_surjective()
    assert kernel_group(delta).is_trivial()


def test_les_rejects_non_exact_input():
    w = build_wedge(1)
    p = w.poset
    seq = structure_sequence(w)
    broken = [SheafMorphism.zero(seq[0].source, seq[0].target), seq[1]]
    with pytest.raises(InputError):
        les_of_short_exact(p, broken, OpenSet(p, frozenset(p.elements)))
    # the sequence lives on X_1, not on the given X_2
    other = build_wedge(2).poset
    with pytest.raises(InputError):
        les_of_short_exact(other, seq, OpenSet(other, {"f1"}))
    with pytest.raises(InputError):
        les_of_short_exact(other, seq, OpenSet(p, frozenset(p.elements)))


def test_les_restricts_each_sheaf_once(monkeypatch):
    """A, B and C are read on the chains inside V, the whole space or a
    proper open set, with no subposet and no restricted sheaf built."""
    w = build_wedge(4)
    ses = structure_sequence(w)
    posets = counting_calls(monkeypatch, finspace.FinitePoset, "__init__")
    sheaves = counting_calls(monkeypatch, PosetSheaf, "__init__")
    for V in (OpenSet(w.poset, frozenset(w.poset.elements)), w.poset.min_open("x")):
        assert les_of_short_exact(w.poset, ses, V).exact
    assert posets == [] and sheaves == []


def test_component_identity_pass_and_hypothesis_gate():
    w = build_wedge(2)
    p = w.poset
    # V = intersection of the first two canonical members: hypothesis holds
    v = OpenSet(p, frozenset({"a1", "b1", "f1"}))
    res = component_identity_check(p, v, w.skeleton)
    assert res.status == "pass" and res.isomorphic
    assert res.lhs.canonical == (1, ())
    # V = punctured neighborhood with H^1(V, Z) != 0: gated out
    circle_like = frozenset({"a1", "b1", "f1", "a2", "b2", "f2", "x"})
    res2 = component_identity_check(p, OpenSet(p, circle_like), w.skeleton)
    assert res2.status in ("pass", "hypothesis_not_met")


def test_component_identity_full_space():
    w = build_wedge(2)
    p = w.poset
    res = component_identity_check(p, OpenSet(p, frozenset(p.elements)), w.skeleton)
    assert res.status == "pass" and res.isomorphic
    # an open set of another poset is refused, even where its labels are p's
    other = build_wedge(3).poset
    for members in (other.elements, {"f1"}):
        with pytest.raises(InputError):
            component_identity_check(p, OpenSet(other, members), w.skeleton)


def test_component_identity_builds_each_subposet_once(monkeypatch):
    """V and its skeleton trace are read on the whole space: no subposet is
    built, and two sheaves, constant Z and F, each on the whole space."""
    w = build_wedge(4)
    V = OpenSet(w.poset, frozenset(w.poset.elements))
    built = counting_calls(monkeypatch, finspace.FinitePoset, "__init__")
    sheaves = counting_calls(monkeypatch, PosetSheaf, "__init__")
    assert component_identity_check(w.poset, V, w.skeleton).status == "pass"
    assert built == []
    assert [call["base"] for call in sheaves] == [w.poset, w.poset]


# -- subspaces against their own subposets --------------------------------------


def subposet_les(base, ses, V):
    """The long exact sequence over the whole subposet of V, of the sheaves
    restricted to it by the oracles and the morphisms between them."""
    A, B, C = (reference_restricted_sheaf(s, V.members) for s in (ses[0].source, ses[0].target, ses[1].target))
    sub = A.base
    f = SheafMorphism(A, B, {e: ses[0].components[e] for e in sub.elements})
    g = SheafMorphism(B, C, {e: ses[1].components[e] for e in sub.elements})
    return les_of_short_exact(sub, [f, g], OpenSet(sub, sub.elements))


def subposet_component_identity(base, V, skeleton):
    """(status, lhs, rhs) of the component identity read on V's subposet:
    H^1 of constant Z and of F restricted there, and the components of V
    and of its skeleton trace by the oracle."""
    sub = reference_subposet(base, V.members)
    if not cohomology(sub, constant_sheaf(sub, Z), 1).is_trivial():
        return "hypothesis_not_met", None, None
    F = extension_by_zero(base, OpenSet(base, set(base.elements) - skeleton), Z)
    lhs = cohomology(sub, reference_restricted_sheaf(F, V.members), 1)
    v_comps, trace_comps = reference_components(base, V.members), reference_components(base, V.members & skeleton)
    entries = [[1 if d <= c else 0 for c in v_comps] for d in trace_comps]
    rhs = PresentedAbGroup(len(trace_comps), IntMatrix(len(trace_comps), len(v_comps), entries))
    return ("pass" if lhs.is_isomorphic_to(rhs) else "fail"), lhs, rhs


def group_data(g):
    return None if g is None else (g.generator_count, g.relations)


def les_data(les):
    nodes = [(n.degree, n.position, n.label, group_data(n.group)) for n in les.nodes]
    arrows = [(a.hom.matrix, group_data(a.hom.source), group_data(a.hom.target), a.connecting) for a in les.arrows]
    return nodes, arrows, les.exact, les.failing_node


def test_les_and_component_identity_on_open_sets_match_their_subposets():
    """On every open set of X_1 and X_2 and every minimal open set of X_3,
    the structure sequence's long exact sequence read on the chains inside
    V is the one of the sheaves restricted to V's subposet, node for node
    and arrow for arrow, and the component identity has the same status and
    the same two groups."""
    cases = []
    for n in (1, 2):
        p = build_wedge(n).poset
        subsets = (frozenset(c) for r in range(len(p) + 1) for c in combinations(p.elements, r))
        cases += [(n, OpenSet(p, s)) for s in subsets if p.is_open(s)]
    cases += [(3, build_wedge(3).poset.min_open(e)) for e in build_wedge(3).poset.elements]
    assert len(cases) == 61  # the empty open set of X_1 and of X_2 included
    statuses = set()
    for n, V in cases:
        w = build_wedge(n)
        ses = structure_sequence(w)
        assert les_data(les_of_short_exact(w.poset, ses, V)) == les_data(subposet_les(w.poset, ses, V))
        got = component_identity_check(w.poset, V, w.skeleton)
        status, lhs, rhs = subposet_component_identity(w.poset, V, w.skeleton)
        assert (got.status, group_data(got.lhs), group_data(got.rhs)) == (status, group_data(lhs), group_data(rhs))
        statuses.add(status)
    assert statuses == {"pass"}
    # the circle is the one case here where H^1(V, Z) = Z gates the identity out
    c = circle_poset()
    got = component_identity_check(c, OpenSet(c, c.elements), frozenset("pq"))
    want = subposet_component_identity(c, OpenSet(c, c.elements), frozenset("pq"))
    assert (got.status, got.lhs, got.rhs) == want == ("hypothesis_not_met", None, None)


def test_les_needs_exactness_only_on_v():
    """0 -> 0 -> Z_U -> Z -> 0 on a < b, with U = {b}, is exact at b and not
    at a: its long exact sequence is read over U, as on U's subposet, and
    refused over the whole space."""
    p = FinitePoset("ab", [("a", "b")])
    U = OpenSet(p, {"b"})
    B, C = extension_by_zero(p, U, Z), constant_sheaf(p, Z)
    ses = [SheafMorphism.zero(zero_sheaf(p), B), SheafMorphism(B, C, {"a": IntMatrix.zero(1, 0), "b": IntMatrix.identity(1)})]
    got = les_of_short_exact(p, ses, U)
    assert got.exact and les_data(got) == les_data(subposet_les(p, ses, U))
    assert [node.group.canonical for node in got.nodes] == [(0, ()), (1, ()), (1, ())]
    with pytest.raises(InputError, match="fails at a"):
        les_of_short_exact(p, ses, OpenSet(p, p.elements))


# -- reference loops ----------------------------------------------------------
# The strict-chain complex and its stalkwise chain maps built by their own
# loops over a layout of (chain, offset, rank) per degree, independent of
# the shared face-complex builder.


def reference_cochain_complex(base, sheaf):
    """(layout, differentials) of the strict-chain cochain complex."""
    layout, index = [], []
    chains = base.strict_chains(frozenset(base.elements))
    for k in range(base.height + 1):
        entries, idx, offset = [], {}, 0
        for chain in (c for c in chains if len(c) == k + 1):
            r = sheaf.stalks[chain[-1]].generator_count
            if r:
                idx[chain] = offset
                entries.append((chain, offset, r))
                offset += r
        layout.append(entries)
        index.append(idx)
    layout = layout or [[]]
    maps = []
    for k in range(len(layout) - 1):
        blocks = []
        for chain, off, _ in layout[k + 1]:
            for i in range(len(chain)):
                face = chain[:i] + chain[i + 1:]
                src_off = index[k].get(face)
                if src_off is not None:
                    rmat = sheaf.restrictions(face[-1], chain[-1])
                    blocks.append((off, src_off, -1 if i % 2 else 1, rmat))
        maps.append(IntMatrix.from_blocks(layout_rank(layout, k + 1), layout_rank(layout, k), blocks))
    return layout, maps


def layout_rank(layout, k):
    return sum(entry[-1] for entry in layout[k]) if k < len(layout) else 0


def reference_stalkwise_chain_map(source_layout, target_layout, components):
    """components[p] on every chain ending at p that both layouts list."""
    mats = []
    for k, entries in enumerate(source_layout):
        tgt_index = {chain: off for chain, off, _ in (target_layout[k] if k < len(target_layout) else [])}
        blocks = [
            (tgt_index[chain], soff, 1, components[chain[-1]]) for chain, soff, _ in entries if chain in tgt_index
        ]
        mats.append(IntMatrix.from_blocks(layout_rank(target_layout, k), layout_rank(source_layout, k), blocks))
    return mats


def identities(sheaf):
    """Identity components: the stalkwise map that projects onto a subspace."""
    return {p: IntMatrix.identity(sheaf.stalks[p].generator_count) for p in sheaf.base.elements}


def reference_corpus():
    """60 seeded posets, each with constant Z, constant Z/2 and Z^2 extended
    by zero from a random open set."""
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(3, 7)
        labels = [f"e{i}" for i in range(n)]
        rels = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
        base = FinitePoset(labels, rels)
        seeds = rng.sample(base.elements, rng.randint(1, n))
        opens = OpenSet(base, set().union(*(base.up_set(e) for e in seeds)))
        for sheaf in (
            constant_sheaf(base, Z),
            constant_sheaf(base, PresentedAbGroup.from_canonical_form(0, [2])),
            extension_by_zero(base, opens, PresentedAbGroup.free(2)),
        ):
            yield base, sheaf


def test_cochain_complexes_and_restrictions_match_the_reference_loops(monkeypatch):
    chain_maps = []
    original = abgroup.check_chain_map

    def recording(f, source, target):
        chain_maps.append(f)
        return original(f, source, target)

    monkeypatch.setattr(abgroup, "check_chain_map", recording)
    for base, sheaf in reference_corpus():
        layout, maps = reference_cochain_complex(base, sheaf)
        cx = cochain_complex(base, sheaf)
        assert cx.maps == maps
        summands = [[(t, off, g.generator_count) for t, off, g, _ in cx.summands(k)] for k in range(len(cx.groups))]
        assert summands == layout
        for e in base.elements:
            sub = reference_restricted_sheaf(sheaf, base.up_set(e))
            tgt_layout, _ = reference_cochain_complex(sub.base, sub)
            tgt = cochain_complex(sub.base, sub)
            want = reference_stalkwise_chain_map(layout, tgt_layout, identities(sub))
            for q in (0, 1):
                src_h, tgt_h = cx.homology(q), tgt.homology(q)
                got = restriction_on_homology(cx, tgt, q)
                assert chain_maps.pop() == want
                f = want[q] if q < len(want) else IntMatrix.zero(tgt.degree_rank(q), cx.degree_rank(q))
                assert got.matrix == reference_induced_map(src_h, tgt_h, f)
        W = base.min_open(base.elements[0])
        restriction_induced(base, OpenSet(base, base.elements), W, sheaf, 1)
        sub = reference_restricted_sheaf(sheaf, W.members)
        want = reference_stalkwise_chain_map(layout, reference_cochain_complex(sub.base, sub)[0], identities(sub))
        assert chain_maps.pop() == want


@pytest.mark.parametrize("n", [2, 3])
def test_les_arrows_match_the_reference_chain_maps(monkeypatch, n):
    """The structure sequence's chain maps, and every arrow of its long exact
    sequence against the arrows computed from the reference chain maps."""
    w = build_wedge(n)
    V = OpenSet(w.poset, w.poset.elements)
    ses = structure_sequence(w)
    for m in ses:
        src, tgt = cochain_complex(w.poset, m.source), cochain_complex(w.poset, m.target)
        src_layout, tgt_layout = (reference_cochain_complex(w.poset, s)[0] for s in (m.source, m.target))
        want = reference_stalkwise_chain_map(src_layout, tgt_layout, m.components)
        assert stalkwise_chain_map(src, tgt, m.components) == want
    got = les_of_short_exact(w.poset, ses, V)

    def reference(source, target, components):
        # a complex holds no sheaf: rebuild it from the restriction table
        source_layout, target_layout = (
            reference_cochain_complex(table.base, PosetSheaf(table.base, table.stalks, table.cover_maps))[0]
            for table in (source._restrictions, target._restrictions)
        )
        return reference_stalkwise_chain_map(source_layout, target_layout, components)

    monkeypatch.setattr(cohom, "stalkwise_chain_map", reference)
    want = les_of_short_exact(w.poset, ses, V)
    assert [a.hom.matrix for a in got.arrows] == [a.hom.matrix for a in want.arrows]
    assert [a.connecting for a in got.arrows] == [a.connecting for a in want.arrows]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_les_arrows_match_the_per_generator_route(n):
    """Every arrow of the structure sequence's long exact sequence, the
    connecting maps too, against the reference that lifts one generator at
    a time: a connecting map lifts each representative through B with one
    solve, applies d_B and pulls back to A with another."""
    w = build_wedge(n)
    V = OpenSet(w.poset, w.poset.elements)
    ses = structure_sequence(w)
    got = les_of_short_exact(w.poset, ses, V)
    A, B, C = (reference_restricted_sheaf(s, V.members) for s in (ses[0].source, ses[0].target, ses[1].target))
    cxs = [cochain_complex(s.base, s) for s in (A, B, C)]
    fmat = stalkwise_chain_map(cxs[0], cxs[1], ses[0].components)
    gmat = stalkwise_chain_map(cxs[1], cxs[2], ses[1].components)

    def preimage(m, target, y):
        x = solve(m.hstack(target.relations), y)
        assert x is not None
        return x.submatrix_rows(range(m.cols))

    def snake(k):
        return lambda rep: preimage(fmat[k + 1], cxs[1].group(k + 1), cxs[1].differential(k) @ preimage(gmat[k], cxs[2].group(k), rep))

    maxdeg = max(len(cx.groups) for cx in cxs)
    want = []
    for k in range(maxdeg):
        a, b, c = (cx.homology(k) for cx in cxs)
        want += [reference_induced_map(a, b, fmat[k]), reference_induced_map(b, c, gmat[k])]
        if k + 1 < maxdeg:
            want.append(reference_induced_map(c, cxs[0].homology(k + 1), snake(k)))
    assert [a.hom.matrix for a in got.arrows] == want
    assert sum(a.connecting for a in got.arrows) == maxdeg - 1
    assert any(not a.hom.matrix.is_zero() for a in got.arrows if a.connecting)


# -- one cochain complex per sheaf ---------------------------------------------


def test_cohomology_builds_one_complex_per_sheaf(monkeypatch):
    w = build_wedge(3)
    built = counting_calls(monkeypatch, CochainComplex, "__init__")
    sheaves = [gap_sheaf(w), constant_sheaf(w.poset, Z), extension_by_zero(w.poset, w.poset.min_open("x"), Z)]
    for sheaf in sheaves:
        for q in range(w.poset.height + 2):
            cohomology(w.poset, sheaf, q)
        assert cochain_complex(w.poset, sheaf) is cochain_complex(w.poset, sheaf)
    assert [id(call["sheaf"]) for call in built] == [id(s) for s in sheaves]
    assert [call["members"] for call in built] == [frozenset(w.poset.elements)] * len(sheaves)


def test_shared_complex_matches_a_fresh_one():
    for base, sheaf in reference_corpus():
        shared = cochain_complex(base, sheaf)
        fresh = CochainComplex(sheaf, frozenset(base.elements))
        assert shared.groups == fresh.groups and shared.maps == fresh.maps
        for q in range(base.height + 1):
            assert cohomology(base, sheaf, q).canonical == fresh.homology(q).group.canonical
            assert shared.homology(q).group.canonical == fresh.homology(q).group.canonical


def test_a_kept_complex_serves_restrictions_after_its_sheaf_is_gone():
    """A coefficient cache keeps the complexes of restricted sheaves that
    nothing else holds; their blocks come from the restriction table."""
    w = build_wedge(3)
    F = gap_sheaf(w)
    big, small = frozenset(w.poset.elements), frozenset(w.poset.min_open("a1").members)
    want = [restriction_induced(w.poset, OpenSet(w.poset, big), OpenSet(w.poset, small), F, q) for q in range(3)]
    sheaves = [reference_restricted_sheaf(F, members) for members in (big, small)]
    gone = [weakref.ref(s) for s in sheaves]
    source, target = (cochain_complex(s.base, s) for s in sheaves)
    del sheaves
    assert [r() for r in gone] == [None, None]
    for q in range(3):
        got = restriction_on_homology(source, target, q)
        assert got.matrix == want[q].matrix
        assert got.source.canonical == want[q].source.canonical


def test_cached_complex_still_checks_the_base():
    w = build_wedge(2)
    F = gap_sheaf(w)
    cochain_complex(w.poset, F)
    other = build_wedge(3).poset
    with pytest.raises(InputError):
        cochain_complex(other, F)
    with pytest.raises(InputError):
        cohomology(other, F, 1)


def test_sheaf_complex_and_coefficients_leave_no_reference_cycle():
    """Dropping a sheaf frees its complex by reference counting alone: the
    complex reads its blocks from the restriction table and holds no
    reference to the sheaf, so no cycle is left for the collector.  A
    coefficient table keeps nothing on its sheaf: dropping the table frees
    every complex it built, in every degree, while the sheaf lives on.  Nor
    does the stage evidence leave a cycle, whose coverings list their nerve
    tuples one length per pass."""
    w = build_wedge(3)
    members = (frozenset(w.poset.elements), frozenset(w.poset.min_open("a1").members))
    gc.collect()
    gc.disable()
    try:
        F = gap_sheaf(w)
        cx = cochain_complex(w.poset, F)
        for q in range(len(cx.groups)):
            cx.homology(q)
        coeffs = cech._Coefficients(F)
        for q in range(3):
            coeffs.restriction(*members, q)
        cech.CechComplex(canonical_covering(w), coeffs, 1, 2).homology(1)
        built = [weakref.ref(table_cx) for table_cx in coeffs._complexes.values()]
        assert len(built) > 2
        del coeffs
        assert [ref() for ref in built] == [None] * len(built)
        kept = weakref.ref(cx)
        del F, cx
        assert kept() is None
        assert gc.collect() == 0
        w = build_wedge(6)
        evidence = collect_stage_evidence(w, cech._Coefficients(gap_sheaf(w)))
        del evidence
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- strict-chain budget --------------------------------------------------------


def test_cochain_complex_refuses_too_many_chains_before_enumerating(monkeypatch):
    labels = [f"c{i}" for i in range(40)]
    chain = FinitePoset(labels, list(zip(labels, labels[1:])))
    assert chain.chain_count(frozenset(labels)) == 2**40 - 1 > MAX_STRICT_CHAINS

    def enumerating(self, members):
        raise AssertionError("strict chains were enumerated")

    monkeypatch.setattr(finspace.FinitePoset, "strict_chains", enumerating)
    start = time.perf_counter()
    with pytest.raises(InputError, match="strict chains"):
        cohomology(chain, constant_sheaf(chain, Z), 1)
    assert time.perf_counter() - start < 0.1
    # the budget counts every chain, whatever the stalks
    with pytest.raises(InputError, match="strict chains"):
        cochain_complex(chain, zero_sheaf(chain))
    # and it counts the chains inside a subset, not those of the whole base
    inside = frozenset(labels[:17])
    assert chain.chain_count(inside) == 2**17 - 1 > MAX_STRICT_CHAINS
    with pytest.raises(InputError, match="strict chains"):
        CochainComplex(constant_sheaf(chain, Z), inside)
    # the coefficient table reads open sets only: the top 17 of the chain
    with pytest.raises(InputError, match="strict chains"):
        cech._Coefficients(constant_sheaf(chain, Z)).group(frozenset(labels[-17:]), 0)

