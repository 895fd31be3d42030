import pytest
from counting import counting_calls
from oracles import intersection, kernel_group, reference_acyclic_connected, reference_induced_map, subset_filter
from test_coefficients import assert_first_of_each_class_built

from finsheaf import abgroup, cohom, wedge
from finsheaf.abgroup import GroupHom, IntMatrix, PresentedAbGroup, smith_decompose
from finsheaf.cech import Covering, _Coefficients, cech_cohomology_hq
from finsheaf.cohom import cohomology
from finsheaf.errors import ContractViolation, InputError
from finsheaf.finspace import FinitePoset
from finsheaf.sheaf import PosetSheaf, constant_sheaf, is_exact, zero_sheaf
from finsheaf.wedge import (
    build_wedge,
    canonical_covering,
    collect_stage_evidence,
    gap_sheaf,
    skeleton_sheaf,
    stage_covering,
    stage_system,
    structure_sequence,
    validate_five_conditions,
)


def gap_table(w):
    """A fresh coefficient table of the gap sheaf of w."""
    return _Coefficients(gap_sheaf(w))


def test_build_wedge_shape():
    w = build_wedge(1)
    assert len(w.poset.elements) == 5
    assert len(w.poset.covers) == 6
    assert w.poset.height == 2
    with pytest.raises(InputError):
        build_wedge(0)


def test_skeleton_closed_open_cells_open():
    w = build_wedge(3)
    assert w.poset.is_closed(w.skeleton)
    assert w.poset.is_open(w.open_u)
    assert w.skeleton | w.open_u == frozenset(w.poset.elements)


def test_sheaf_cohomology_of_the_wedge():
    for n in (1, 2, 3):
        w = build_wedge(n)
        F = gap_sheaf(w)
        assert cohomology(w.poset, F, 0).is_trivial()
        assert cohomology(w.poset, F, 1).is_trivial()
        assert cohomology(w.poset, F, 2).canonical == (n, ())


def test_skeleton_sheaf_cohomology():
    w = build_wedge(2)
    s = skeleton_sheaf(w)
    assert cohomology(w.poset, s, 0).canonical == (1, ())
    assert cohomology(w.poset, s, 1).canonical == (2, ())


def test_structure_sequence_exact():
    for n in (1, 2):
        w = build_wedge(n)
        assert bool(is_exact(structure_sequence(w), w.poset.elements))


def test_canonical_covering_members_disjoint_as_expected():
    w = build_wedge(2)
    c = canonical_covering(w)
    assert c.members["U1"] & c.members["U2"] == frozenset()
    assert c.members["U1"] & c.members["U0"] == {"a1", "b1", "f1"}


def test_five_conditions_on_canonical():
    for n in (1, 2, 3):
        w = build_wedge(n)
        assert validate_five_conditions(w, canonical_covering(w)).ok


@pytest.fixture
def w2():
    return build_wedge(2)


def _mutated(w, members, order):
    return validate_five_conditions(w, Covering(w.poset, members, order))


def test_condition_i_mutation(w2):
    c = canonical_covering(w2)
    m = {n: set(c.members[n]) for n in c.order}
    m["W"] = {"a1", "b1", "f1"}  # skeleton trace {a1,b1} is disconnected
    rep = _mutated(w2, m, list(c.order) + ["W"])
    assert "i" in rep.failed()


def test_condition_ii_mutation(w2):
    c = canonical_covering(w2)
    m = {n: set(c.members[n]) for n in c.order}
    m["D1"] = {"x", "v1", "a1", "b1", "f1", "a2", "b2", "f2"}
    rep = _mutated(w2, m, list(c.order) + ["D1"])
    assert "ii" in rep.failed()


def test_condition_iii_mutation(w2):
    c = canonical_covering(w2)
    m = {n: set(c.members[n]) for n in c.order}
    m["U1"] = {"v1", "a1", "b1", "f1", "a2", "b2", "f2"}
    rep = _mutated(w2, m, list(c.order))
    assert "iii" in rep.failed()


def test_condition_iv_mutation(w2):
    c = canonical_covering(w2)
    m = {n: set(c.members[n]) for n in c.order}
    rep = _mutated(w2, m, ["U0", "U2", "U1"])
    assert rep.failed() == ["iv"]


def test_condition_v_mutation(w2):
    c = canonical_covering(w2)
    m = {n: set(c.members[n]) for n in c.order}
    m["W"] = {"f1"}
    rep = _mutated(w2, m, list(c.order) + ["W"])
    assert rep.failed() == ["v"]


def test_stage_covering_bounds_and_canonical_stage():
    w = build_wedge(2)
    with pytest.raises(InputError):
        stage_covering(w, 0)
    with pytest.raises(InputError):
        stage_covering(w, 4)
    s1 = stage_covering(w, 1)
    c = canonical_covering(w)
    assert s1.order == c.order
    assert all(s1.members[n] == c.members[n] for n in c.order)


def test_stage_groups_decrease():
    w = build_wedge(3)
    for m in range(1, 5):
        assert cech_cohomology_hq(stage_covering(w, m), gap_sheaf(w), 1, 1).canonical == (3 - m + 1, ())


def test_stage_system_transitions():
    w = build_wedge(3)
    sys_ = stage_system(w, gap_table(w))
    t12 = sys_.transition(1, 2)
    t23 = sys_.transition(2, 3)
    t13 = sys_.transition(1, 3)
    assert t12.is_surjective()
    assert t13.equals_as_hom(t23.compose(t12))
    assert sys_.transition(2, 2).equals_as_hom(GroupHom.identity(sys_.groups[2]))
    with pytest.raises(InputError):
        sys_.transition(3, 1)


def test_transition_retracts_refinement_inclusion():
    w = build_wedge(2)
    sys_ = stage_system(w, gap_table(w))
    incl = sys_.inclusion(1, 2)
    t = sys_.transition(1, 2)
    assert t.compose(incl).equals_as_hom(GroupHom.identity(sys_.groups[2]))
    # the inclusion is injective but not surjective
    assert kernel_group(incl).is_trivial()
    assert not incl.is_surjective()


def test_collect_stage_evidence():
    w = build_wedge(2)
    ev = collect_stage_evidence(stage_system(w, gap_table(w)))
    assert ev.n == 2
    assert ev.stage_forms[1] == (2, ())
    assert ev.stage_forms[3] == (0, ())
    assert all(t["surjective"] for t in ev.transitions)
    assert all(t["kernel_rank"] == t["m2"] - t["m"] for t in ev.transitions)
    assert all(t["retraction_of_inclusion"] for t in ev.transitions)


def test_stage_system_refuses_a_table_of_another_sheaf(monkeypatch):
    """The stage run reads H¹ of the gap sheaf from the table it is given;
    a table of the constant sheaf, of the zero sheaf, or of the gap sheaf of
    another wedge is refused before any complex is built."""
    w = build_wedge(2)
    tables = [
        _Coefficients(constant_sheaf(w.poset, PresentedAbGroup.free(1))),
        _Coefficients(zero_sheaf(w.poset)),
        gap_table(build_wedge(3)),
    ]
    built = counting_calls(monkeypatch, cohom.CochainComplex, "__init__")
    for table in tables:
        with pytest.raises(InputError, match="coefficient table"):
            stage_system(w, table)
    assert built == []


def test_stage_evidence_builds_each_open_set_once(monkeypatch):
    """One coefficient table and one Čech complex per stage serve every
    readout and refinement map of the run: every cochain complex it builds,
    by any route, is on a distinct intersection, from the gap sheaf itself,
    the first of its class of alike open sets; every other intersection is
    read as a view of that build."""
    w = build_wedge(4)
    table = gap_table(w)
    built = counting_calls(monkeypatch, cohom.CochainComplex, "__init__")
    collect_stage_evidence(stage_system(w, table))
    stages = [stage_covering(w, m) for m in range(1, w.n + 2)]
    assert set(table._complexes) == {intersection(c, t) for c in stages for p in range(3) for t in subset_filter(c, p)}
    assert_first_of_each_class_built(table, built)
    assert len(built) < len(table._complexes)


def test_condition_i_and_stage_evidence_build_no_subposet(monkeypatch):
    """Condition (i) reads each member and skeleton trace from its core, on
    the chains of the wedge inside it where the core is not a point, with
    the verdicts of the subposets' own complexes.  It builds no poset, and
    one constant sheaf for all the subsets whose core is not a point; the
    canonical covering's are all points, so its validation builds no sheaf,
    and the stage evidence builds one, the gap sheaf."""
    w = build_wedge(3)
    c = canonical_covering(w)
    subsets = [c.members[n] for n in c.order] + [c.members[n] & w.skeleton for n in c.order]
    subsets += [frozenset({"a1", "b1"}), frozenset({"x", "v1", "a1", "b1"}), w.skeleton, frozenset(w.poset.elements)]
    want = [reference_acyclic_connected(w.poset, members) for members in subsets]
    assert True in want and False in want
    posets = counting_calls(monkeypatch, FinitePoset, "__init__")
    sheaves = counting_calls(monkeypatch, PosetSheaf, "__init__")
    assert wedge._acyclic_connected(w.poset, subsets) == want
    assert (len(posets), len(sheaves)) == (0, 1)
    assert validate_five_conditions(w, c).ok
    assert (len(posets), len(sheaves)) == (0, 1)
    collect_stage_evidence(stage_system(w, gap_table(w)))
    assert (len(posets), len(sheaves)) == (0, 2)


def test_validation_builds_one_constant_sheaf_for_every_core_that_is_not_a_point(monkeypatch):
    """Stage 9 of X_8 has 8 skeleton traces whose core is a circle; all of
    them are read from one constant sheaf of the wedge."""
    w = build_wedge(8)
    sheaves = counting_calls(monkeypatch, PosetSheaf, "__init__")
    report = validate_five_conditions(w, stage_covering(w, 9))
    assert report.verdicts[0].detail.count("not acyclic+connected") == 8
    assert len(sheaves) == 1


def test_cores_of_the_canonical_members_and_the_circles():
    """Every member and skeleton trace of the canonical covering retracts to
    a point; the circle of one disk's boundary, x, v1, a1, b1, has no beat
    point, and neither has the whole skeleton, a wedge of circles."""
    w = build_wedge(3)
    c = canonical_covering(w)
    subsets = [subset for name in c.order for subset in (c.members[name], c.members[name] & w.skeleton)]
    assert all(len(w.poset.core(subset)) == 1 for subset in subsets)
    assert wedge._acyclic_connected(w.poset, subsets) == [True] * len(subsets)
    circle = frozenset({"x", "v1", "a1", "b1"})
    assert w.poset.core(circle) == circle and w.poset.core(w.skeleton) == w.skeleton
    assert wedge._acyclic_connected(w.poset, [circle, w.skeleton]) == [False, False]
    assert not reference_acyclic_connected(w.poset, circle) and not reference_acyclic_connected(w.poset, w.skeleton)


@pytest.mark.parametrize("n", range(1, 9))
def test_condition_i_on_the_canonical_covering_takes_no_algebra(monkeypatch, n):
    """Validating the canonical covering of X_N builds no Smith form and no
    cochain complex: every member and trace has a one-point core."""
    w = build_wedge(n)
    smith = counting_calls(monkeypatch, abgroup.SmithDecomposition, "__init__")
    complexes = counting_calls(monkeypatch, cohom.CochainComplex, "__init__")
    assert validate_five_conditions(w, canonical_covering(w)).ok
    assert smith == [] and complexes == []


@pytest.mark.parametrize("n", range(1, 7))
def test_stage_coverings_keep_their_condition_reports(monkeypatch, n):
    """Every stage covering's report, verdicts and details, is the one made
    with condition (i) read from the subposets' own cohomology.  From stage
    2 on, D_k ∩ skeleton keeps the circle x, v_k, a_k, b_k as its core, so
    the complex route runs there."""
    w = build_wedge(n)
    got = [validate_five_conditions(w, stage_covering(w, m)).to_dict() for m in range(1, n + 2)]
    monkeypatch.setattr(
        wedge, "_acyclic_connected", lambda base, subsets: [reference_acyclic_connected(base, s) for s in subsets]
    )
    assert got == [validate_five_conditions(w, stage_covering(w, m)).to_dict() for m in range(1, n + 2)]
    assert got[0]["ok"] and all("D1 ∩ skeleton not acyclic+connected" in r["conditions"][0]["detail"] for r in got[1:])


def test_stage_evidence_intersects_each_nerve_tuple_at_most_once(monkeypatch):
    """Faces and refinement maps read each tuple's intersection from the
    Čech layout, where the nerve enumeration put it: the stage run meets
    members only inside `Covering.simplices` and `simplex_count`."""
    enumerated, outside, listing = [], [], []
    simplices, simplex_count, meet = Covering.simplices, Covering.simplex_count, Covering._meet

    def counting_simplices(self, top):
        listing.append(True)
        out = simplices(self, top)
        listing.pop()
        enumerated.extend(t for level in out for t, _ in level)
        return out

    def counting_count(self, top):
        listing.append(True)
        out = simplex_count(self, top)
        listing.pop()
        return out

    def counting_meet(self, common, i):
        if not listing:
            outside.append(i)
        return meet(self, common, i)

    monkeypatch.setattr(Covering, "simplices", counting_simplices)
    monkeypatch.setattr(Covering, "simplex_count", counting_count)
    monkeypatch.setattr(Covering, "_meet", counting_meet)
    w = build_wedge(4)
    collect_stage_evidence(stage_system(w, gap_table(w)))
    assert enumerated
    assert outside == []


def test_stage_refinements_reuse_the_readout_homologies(monkeypatch):
    """Once every stage is read out, the refinement maps of the stage
    evidence take Ȟ¹ of each stage complex from its cache: no homology is
    built on a Čech group afterwards."""
    ambients = []
    init = abgroup.Subquotient.__init__

    def recording(self, ambient, *rest):
        ambients.append(ambient)
        init(self, ambient, *rest)

    w = build_wedge(4)
    system = stage_system(w, gap_table(w))
    monkeypatch.setattr(abgroup.Subquotient, "__init__", recording)
    evidence = collect_stage_evidence(system)
    assert len(evidence.transitions) == 5
    cech_groups = {id(g) for cx in system.complexes.values() for g in cx.groups}
    assert not [a for a in ambients if id(a) in cech_groups]


def reference_readout(w, m, cx):
    """(readout, readback) of stage m as first written: the live coordinates
    mapped, one generator at a time, into a free group of the live rank."""
    h = cx.homology(1)
    rows = [cx.summand(1, ("U0", f"U{k}"))[1] for k in range(m, w.n + 1)]
    coordinates = abgroup.Subquotient(
        PresentedAbGroup.free(len(rows)), None, IntMatrix.zero(0, len(rows)), PresentedAbGroup.trivial()
    )
    select = IntMatrix.identity(h.ambient.generator_count).submatrix_rows(rows)
    readout = reference_induced_map(h, coordinates, select)
    s = smith_decompose(readout)
    return readout, s.V @ s.U


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stage_readouts_match_the_reference(n):
    w = build_wedge(n)
    complexes = wedge.stage_system(w, gap_table(w)).complexes
    for m, cx in complexes.items():
        _, readout, readback = wedge._stage_readout(w, m, cx)
        assert (readout, readback) == reference_readout(w, m, cx)


def test_stage_readout_builds_no_subquotient_of_its_own(monkeypatch):
    """Once Ȟ¹ of a stage is computed, reading it out constructs no further
    homology: the columns come from its representative cycles."""
    w = build_wedge(3)
    complexes = wedge.stage_system(w, gap_table(w)).complexes
    for cx in complexes.values():
        cx.homology(1)
    built = counting_calls(monkeypatch, abgroup.Subquotient, "__init__")
    for m, cx in complexes.items():
        wedge._stage_readout(w, m, cx)
    assert built == []


def test_stage_readout_rejects_a_readout_that_is_not_unimodular(monkeypatch):
    w = build_wedge(3)
    cx = wedge.stage_system(w, gap_table(w)).complexes[1]
    reps = abgroup.Subquotient.reps

    def doubled(self):
        return IntMatrix.from_blocks(self.ambient.generator_count, self.group.generator_count, [(0, 0, 2, reps.func(self))])

    group, readout, readback = wedge._stage_readout(w, 1, cx)
    assert readout @ readback == IntMatrix.identity(3)
    # the readout's columns come from the representative cycles
    monkeypatch.setattr(abgroup.Subquotient, "reps", property(doubled))
    with pytest.raises(ContractViolation, match="not an isomorphism over Z"):
        wedge._stage_readout(w, 1, cx)
