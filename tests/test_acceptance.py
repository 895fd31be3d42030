"""Acceptance suite: the end-to-end guarantees of the package, one test per
criterion.  Everything is exact; every randomized sweep is seeded."""

import random
from itertools import combinations

from oracles import det, kernel_group, primary_decomposition, simplicial_cohomology, universal_coefficients

from finsheaf.abgroup import IntMatrix, PresentedAbGroup, smith_decompose
from finsheaf.cech import (
    CechComplex,
    Covering,
    _Coefficients,
    cech_cohomology_hq,
    covering_comparison_report,
)
from finsheaf.cli import main as cli_main
from finsheaf.cohom import cohomology, les_of_short_exact, component_identity_check
from finsheaf.finspace import FinitePoset, OpenSet
from finsheaf.sheaf import SheafMorphism, constant_sheaf
from finsheaf.symcolim import (
    Colim,
    CountableProduct,
    CountableSum,
    Quotient,
    SymbolicDirectSystem,
    cardinality_class,
    certify_theorem,
    normalize,
)
from finsheaf.wedge import (
    build_wedge,
    canonical_covering,
    collect_stage_evidence,
    gap_sheaf,
    stage_system,
    structure_sequence,
    validate_five_conditions,
)

Z = PresentedAbGroup.free(1)


def test_criterion_1_corner_group_at_every_truncation():
    """Ȟ¹ of the canonical covering with degree-one coefficients is Z^N."""
    for n in range(1, 7):
        w = build_wedge(n)
        g = cech_cohomology_hq(canonical_covering(w), gap_sheaf(w), 1, 1)
        assert g.canonical == (n, ()), f"N={n}: got {g}"


def test_criterion_2_gap_with_consistent_bookkeeping():
    """Ȟ² vanishes while sheaf H² is Z^N; the comparison report flags the
    gap and the corner group accounts for it exactly (0 + N = N)."""
    for n in range(1, 7):
        w = build_wedge(n)
        F = gap_sheaf(w)
        c = canonical_covering(w)
        assert cech_cohomology_hq(c, F, 0, 2).is_trivial()
        assert cohomology(w.poset, F, 2).canonical == (n, ())
        rep = covering_comparison_report(CechComplex(c, _Coefficients(F), 1, 2))
        assert rep.gap
        assert rep.rank_bookkeeping_ok and rep.torsion_ok
        assert rep.cech_h2.canonical[0] + rep.cech_h1_of_h1.canonical[0] == n


def test_criterion_3_h2_cross_checked_through_the_long_exact_sequence():
    """H² of the extension by zero agrees with the connecting isomorphism
    from H¹ of the skeleton sheaf, for every truncation up to 6."""
    for n in range(1, 7):
        w = build_wedge(n)
        les = les_of_short_exact(
            w.poset, structure_sequence(w), OpenSet(w.poset, frozenset(w.poset.elements))
        )
        assert les.exact, f"N={n}: long exact sequence failed"
        direct = cohomology(w.poset, gap_sheaf(w), 2)
        assert les.segment(2, 0).canonical == direct.canonical == (n, ())
        # the connecting map H^1(skeleton sheaf) -> H^2(F) is an isomorphism
        conn = [
            a
            for node, a in zip(les.nodes, les.arrows)
            if a.connecting and node.degree == 1 and node.position == 2
        ]
        assert len(conn) == 1
        assert conn[0].hom.is_surjective() and kernel_group(conn[0].hom).is_trivial()


def _all_open_sets(p):
    for r in range(len(p.elements) + 1):
        for sub in combinations(p.elements, r):
            if p.is_up_set(sub):
                yield frozenset(sub)


def test_criterion_4_component_count_identity_for_open_sets():
    """H¹(V, F) = coker(H⁰(V,Z) -> H⁰(V ∩ skeleton, Z)) whenever
    H¹(V,Z) = 0: exhaustively for N <= 3, then 100 seeded samples on X_4."""
    for n in (1, 2, 3):
        w = build_wedge(n)
        count = checked = 0
        for u in _all_open_sets(w.poset):
            count += 1
            res = component_identity_check(w.poset, OpenSet(w.poset, u), w.skeleton)
            assert res.status != "fail", f"N={n}, V={sorted(u)}"
            if res.status == "pass":
                checked += 1
                assert res.isomorphic
        assert count == 6**n + 2**n
        assert checked > 0

    w = build_wedge(4)
    rng = random.Random(2026)
    elems = list(w.poset.elements)
    for _ in range(100):
        u = set()
        for e in elems:
            if rng.random() < 0.5:
                u |= w.poset.up_set(e)
        res = component_identity_check(w.poset, OpenSet(w.poset, frozenset(u)), w.skeleton)
        assert res.status != "fail"


def _random_poset(rng, max_elems=12):
    n = rng.randint(1, max_elems)
    labels = [f"e{i}" for i in range(n)]
    rels = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.25:
                rels.append((labels[i], labels[j]))
    return FinitePoset(labels, rels)


def test_criterion_5_constant_sheaf_against_simplicial_oracle():
    """Cohomology of the constant sheaf equals independently computed
    simplicial cohomology of the order complex, all degrees, 50 seeded
    random posets."""
    rng = random.Random(777)
    for _ in range(50):
        p = _random_poset(rng)
        s = constant_sheaf(p, Z)
        oracle = simplicial_cohomology(list(p.elements), p.leq)
        for q in range(max(len(oracle), p.height + 1) + 1):
            got = cohomology(p, s, q).canonical
            want_free, want_torsion = oracle[q] if q < len(oracle) else (0, [])
            assert got[0] == want_free, f"degree {q}: rank {got[0]} vs {want_free}"
            assert primary_decomposition(got[1]) == primary_decomposition(want_torsion)


def _projective_plane():
    """Face poset of the six-vertex triangulation of RP^2, whose order
    complex has H^1 = 0 and H^2 = Z/2 over Z.  Faces are listed by
    dimension, which the oracle needs: it reads chains in list order."""
    triangles = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
        (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
    ]
    faces = {tuple(sorted(f)) for t in triangles for k in (1, 2, 3) for f in combinations(t, k)}
    faces = sorted(faces, key=lambda f: (len(f), f))
    name = {f: "f" + "".join(map(str, f)) for f in faces}
    return FinitePoset([name[f] for f in faces], [(name[a], name[b]) for a in faces for b in faces if set(a) < set(b)])


def test_torsion_coefficients_match_universal_coefficients():
    """Constant Z/2 and Z/3 cohomology equals the simplicial oracle's
    integral cohomology under universal coefficients,
    H^q(Z/p) = H^q(Z) (x) Z/p + Tor(H^{q+1}(Z), Z/p): 30 seeded random
    posets and the projective plane, every degree."""
    rng = random.Random(4242)
    for p in [_projective_plane()] + [_random_poset(rng) for _ in range(30)]:
        oracle = simplicial_cohomology(list(p.elements), p.leq)
        for prime in (2, 3):
            sheaf = constant_sheaf(p, PresentedAbGroup(1, IntMatrix(1, 1, [[prime]])))
            for q, want in enumerate(universal_coefficients(oracle, prime, p.height + 2)):
                assert cohomology(p, sheaf, q).canonical == want, f"H^{q}(Z/{prime})"


def test_long_exact_sequence_of_torsion_coefficients():
    """The long exact sequence of 0 -> Z/2 -> B -> Z/2 -> 0 for constant
    sheaves on the projective plane, where every H^q(Z/2) is Z/2: split
    with B = Z/2 + Z/2, every connecting map is zero; for B = Z/4 the
    connecting map H^1 -> H^2 is the Bockstein, an isomorphism there.
    Cocycles of the quotient lift only modulo the relations of B."""
    p = _projective_plane()
    z2 = PresentedAbGroup(1, IntMatrix(1, 1, [[2]]))
    z4 = PresentedAbGroup(1, IntMatrix(1, 1, [[4]]))
    z2z2 = PresentedAbGroup(2, IntMatrix(2, 2, [[2, 0], [0, 2]]))
    cases = [
        (z2z2, IntMatrix(2, 1, [[1], [0]]), IntMatrix(1, 2, [[0, 1]]), [(2, 2)] * 3, [False, False]),
        (z4, IntMatrix(1, 1, [[2]]), IntMatrix(1, 1, [[1]]), [(4,), (2,), (2,)], [False, True]),
    ]
    for middle, f, g, middle_factors, isomorphic in cases:
        A, B = constant_sheaf(p, z2), constant_sheaf(p, middle)
        ses = [SheafMorphism(A, B, {e: f for e in p.elements}), SheafMorphism(B, A, {e: g for e in p.elements})]
        les = les_of_short_exact(p, ses, OpenSet(p, frozenset(p.elements)))
        assert les.exact
        for q in range(3):
            assert [les.segment(q, pos).canonical for pos in range(3)] == [(0, (2,)), (0, middle_factors[q]), (0, (2,))]
        deltas = [a.hom for a in les.arrows if a.connecting]
        assert len(deltas) == 2
        for delta, iso in zip(deltas, isomorphic):
            if iso:
                assert delta.is_surjective() and kernel_group(delta).is_trivial()
            else:
                assert delta.target.represents_zero(delta.matrix)


def test_criterion_6_smith_normal_form_property_sweep():
    """1000 seeded random matrices (<= 8x8, entries in [-10, 10]):
    U·M·V = D, unimodularity, divisibility chain — zero failures."""
    rng = random.Random(123456)
    for _ in range(1000):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        m = IntMatrix(r, c, [[rng.randint(-10, 10) for _ in range(c)] for _ in range(r)])
        s = smith_decompose(m)
        assert s.U @ m @ s.V == s.D
        assert abs(det(s.U)) == 1 and abs(det(s.V)) == 1
        nz = [d for d in s.diagonal if d != 0]
        assert list(s.diagonal[: len(nz)]) == nz
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0


def _random_covering(rng, p):
    mins = [p.up_set(e) for e in p.elements]
    members = {}
    for i in range(rng.randint(1, 4)):
        pick = rng.sample(range(len(mins)), rng.randint(1, len(mins)))
        members[f"W{i}"] = set().union(*(mins[j] for j in pick))
    covered = set().union(*members.values())
    rest = set()
    for j, e in enumerate(p.elements):
        if e not in covered:
            rest |= mins[j]
    if rest:
        members["Wrest"] = rest
    return Covering(p, members, sorted(members))


def test_criterion_7_sheaf_axiom_degree_zero():
    """Ȟ⁰(covering, F) = H⁰(X, F) on 50 seeded random coverings."""
    rng = random.Random(999)
    for _ in range(50):
        p = _random_poset(rng, max_elems=9)
        s = constant_sheaf(p, Z)
        c = _random_covering(rng, p)
        assert cech_cohomology_hq(c, s, 0, 0).canonical == cohomology(p, s, 0).canonical


def test_criterion_8_five_condition_validator():
    """The canonical covering passes for N <= 6; five targeted mutations
    each trip their own condition."""
    for n in range(1, 7):
        w = build_wedge(n)
        assert validate_five_conditions(w, canonical_covering(w)).ok

    w = build_wedge(2)
    c = canonical_covering(w)
    base = {name: set(c.members[name]) for name in c.order}
    order = list(c.order)

    def failed(members, o):
        return validate_five_conditions(w, Covering(w.poset, members, o)).failed()

    m = dict(base)
    m["W"] = {"a1", "b1", "f1"}
    assert "i" in failed(m, order + ["W"])

    m = dict(base)
    m["D1"] = {"x", "v1", "a1", "b1", "f1", "a2", "b2", "f2"}
    assert "ii" in failed(m, order + ["D1"])

    m = dict(base)
    m["U1"] = {"v1", "a1", "b1", "f1", "a2", "b2", "f2"}
    assert "iii" in failed(m, order)

    assert failed(base, ["U0", "U2", "U1"]) == ["iv"]

    m = dict(base)
    m["W"] = {"f1"}
    assert failed(m, order + ["W"]) == ["v"]


def test_criterion_9_stage_system_and_certificate():
    """For N = 4: surjective projection transitions with the predicted
    kernel ranks, the symbolic limit normalizes to (∏Z)/(⊕Z) and is
    classified uncountable, and the full pipeline command exits 0."""
    w = build_wedge(4)
    coefficients = _Coefficients(gap_sheaf(w))
    sys_ = stage_system(w, coefficients)
    for m in range(1, 5):
        t = sys_.transition(m, m + 1)
        assert t.is_surjective()
        assert kernel_group(t).canonical == (1, ())
    assert kernel_group(sys_.transition(1, 5)).canonical == (4, ())

    term = Colim(SymbolicDirectSystem("prod_tail", "projection"))
    assert normalize(term) == Quotient(CountableProduct(), CountableSum())
    assert cardinality_class(term) == "uncountable"

    cert = certify_theorem(collect_stage_evidence(sys_).to_dict())
    assert cert.ok and cert.limit_cardinality == "uncountable" and not cert.caveats

    assert cli_main(["reproduce", "--disks", "4"]) == 0
