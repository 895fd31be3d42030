import pytest

from finsheaf import cohom
from finsheaf.abgroup import GroupHom
from finsheaf.cech import Covering
from finsheaf.cohom import cohomology
from finsheaf.errors import InputError
from finsheaf.sheaf import is_exact
from finsheaf.wedge import (
    build_wedge,
    canonical_covering,
    collect_stage_evidence,
    gap_sheaf,
    skeleton_sheaf,
    stage_covering,
    stage_group,
    stage_refinement_inclusion,
    stage_system,
    structure_sequence,
    validate_five_conditions,
)


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
        assert bool(is_exact(structure_sequence(build_wedge(n))))


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
        assert stage_group(w, m).canonical == (3 - m + 1, ())


def test_stage_system_transitions():
    w = build_wedge(3)
    sys_ = stage_system(w)
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
    sys_ = stage_system(w)
    incl = stage_refinement_inclusion(w, 1, 2)
    t = sys_.transition(1, 2)
    assert t.compose(incl).equals_as_hom(GroupHom.identity(sys_.groups[2]))
    # the inclusion is injective but not surjective
    assert incl.kernel_group().is_trivial()
    assert not incl.is_surjective()


def test_collect_stage_evidence():
    w = build_wedge(2)
    ev = collect_stage_evidence(w)
    assert ev.n == 2
    assert ev.stage_forms[1] == (2, ())
    assert ev.stage_forms[3] == (0, ())
    assert all(t["surjective"] for t in ev.transitions)
    assert all(t["kernel_rank"] == t["m2"] - t["m"] for t in ev.transitions)
    assert all(t["retraction_of_inclusion"] for t in ev.transitions)


def test_stage_evidence_builds_each_open_set_once(monkeypatch):
    """One coefficient cache and one Čech complex per stage serve every
    readout and refinement map of the run."""
    w = build_wedge(4)
    built = []
    original = cohom.cochain_complex

    def counting(base, sheaf):
        built.append(frozenset(base.elements))
        return original(base, sheaf)

    monkeypatch.setattr(cohom, "cochain_complex", counting)
    collect_stage_evidence(w)
    assert len(built) == len(set(built))
    stages = [stage_covering(w, m) for m in range(1, w.n + 2)]
    assert set(built) == {c.intersection(t) for c in stages for p in range(3) for t in c.tuples(p)}
