"""The coefficient table H^q(-, F) of the Čech layer against fresh
complexes: every complex the table reads, built or relabelled, lists the
chains, groups and differentials of a cochain complex built afresh on its
open set; every group, presentation included, is that complex's homology;
and every restriction, the identity V -> V too, is
`restriction_on_homology` between fresh complexes.  Alike open sets, whose
stalks and restrictions agree position for position in the base's element
order, share one build and one homology, which the tables of `reproduce`
and of the corner group rely on."""

import pytest
from counting import counting_calls
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import sheaves, two_copies

from finsheaf import abgroup, cech, cohom
from finsheaf.abgroup import IntMatrix, PresentedAbGroup, direct_sum
from finsheaf.cech import _Coefficients, cech_cohomology_hq
from finsheaf.cli import main
from finsheaf.cohom import CochainComplex, restriction_on_homology
from finsheaf.errors import InputError
from finsheaf.finspace import FinitePoset
from finsheaf.sheaf import PosetSheaf, constant_sheaf
from finsheaf.wedge import build_wedge, canonical_covering, gap_sheaf


def assert_table_matches_fresh_complexes(table):
    """Each complex the table holds, and each group, and its restriction
    between every two of its open sets W ⊆ V, V = W included, in every
    degree of V."""
    fresh = {V: CochainComplex(table.sheaf, V) for V in table._complexes}
    for V, cx in fresh.items():
        mine = table._complexes[V]
        degrees = range(len(cx.groups))
        assert [list(mine.summands(k)) for k in degrees] == [list(cx.summands(k)) for k in degrees]
        assert (mine.groups, mine.maps) == (cx.groups, cx.maps)
        assert [table.group(V, q) for q in degrees] == [cx.homology(q).group for q in degrees]
        for W in fresh:
            if W <= V:
                for q in degrees:
                    got = table.restriction(V, W, q)
                    want = restriction_on_homology(cx, fresh[W], q)
                    assert (got.source, got.target, got.matrix) == (want.source, want.target, want.matrix)


def alike(sheaf, V, W):
    """Does the bijection V -> W that keeps the base's element order keep
    the order, the stalks and every restriction matrix?"""
    base = sheaf.base
    v, w = ([e for e in base.elements if e in S] for S in (V, W))
    if len(v) != len(w):
        return False
    pairs = list(zip(v, w))
    return all(sheaf.stalks[a] == sheaf.stalks[b] for a, b in pairs) and all(
        base.lt(a, c) == base.lt(b, d) and (not base.lt(a, c) or sheaf.restrictions(a, c) == sheaf.restrictions(b, d))
        for a, b in pairs
        for c, d in pairs
    )


def assert_twins_share_homology(table):
    """Alike open sets read one homology; complexes that share one are equal."""
    for V, a in table._complexes.items():
        for W, b in table._complexes.items():
            if alike(table.sheaf, V, W):
                assert a._homology is b._homology
            if a._homology is b._homology:
                assert (a.groups, a.maps) == (b.groups, b.maps)


def assert_first_of_each_class_built(table, built):
    """`built` records the complexes built while the table was read.  In
    the order the table first read its open sets, the first of each class
    of alike ones is built, once, and every other is a view of it: no build,
    and the same group, differential and homology objects."""
    firsts = []
    for V, cx in table._complexes.items():
        first = next((W for W in firsts if alike(table.sheaf, W, V)), None)
        if first is None:
            firsts.append(V)
        else:
            built_cx = table._complexes[first]
            assert cx.groups is built_cx.groups and cx.maps is built_cx.maps and cx._homology is built_cx._homology
    assert [call["members"] for call in built] == firsts
    assert all(call["sheaf"] is table.sheaf for call in built)


def test_reproduce_tables_match_fresh_complexes(capsys, monkeypatch):
    """The one table of `reproduce --disks N`, N <= 6, after the run: the
    U_k and S_k = U0 ∩ U_k of the N alike disks share their homology."""
    tables = counting_calls(monkeypatch, cech._Coefficients, "__init__")
    for n in range(1, 7):
        assert main(["reproduce", "--disks", str(n)]) == 0
        capsys.readouterr()
        assert len(tables) == n
        table = tables[-1]["self"]
        assert_twins_share_homology(table)
        assert len({id(cx._homology) for cx in table._complexes.values()}) <= len(table._complexes) - 2 * (n - 1)
        assert_table_matches_fresh_complexes(table)


def test_wide_corner_table_matches_fresh_complexes(monkeypatch):
    """The table of the corner group Ȟ¹(cov, H¹F) of X_8."""
    w = build_wedge(8)
    tables = counting_calls(monkeypatch, cech._Coefficients, "__init__")
    assert cech_cohomology_hq(canonical_covering(w), gap_sheaf(w), 1, 1).canonical == (8, ())
    table = tables[0]["self"]
    assert_twins_share_homology(table)
    assert_table_matches_fresh_complexes(table)


def up_sets(base, draw):
    """A few open sets of base: unions of the up-sets of drawn elements."""
    seeds = draw(st.lists(st.lists(st.sampled_from(base.elements), unique=True), min_size=1, max_size=4))
    return [frozenset().union(*(base.up_set(e) for e in s)) for s in seeds]


@settings(max_examples=60, deadline=None)
@given(sheaves(), st.data())
def test_table_with_torsion_stalks_matches_fresh_complexes(base_and_sheaf, data):
    """Stalks with torsion, cochain groups with relations, and open sets
    whose complexes are often equal (no generators at all, say)."""
    base, sheaf = base_and_sheaf
    table = _Coefficients(sheaf)
    for V in up_sets(base, data.draw):
        table.group(V, 0)
    assert_twins_share_homology(table)
    assert_table_matches_fresh_complexes(table)


@settings(max_examples=60, deadline=None)
@given(sheaves(), st.data())
def test_two_disjoint_copies_share_homology_and_read_as_separate_tables(base_and_sheaf, data):
    """An open set read in the second copy after the first is a view, with
    no build of its own, and has the groups and restrictions of the same
    open set read on a table of its own, and of the original open set."""
    base, sheaf = base_and_sheaf
    copies, doubled = two_copies(base, sheaf, sheaf)
    opens = up_sets(base, data.draw)
    table = _Coefficients(doubled)
    a, b = ([frozenset(c[e] for e in V) for V in opens] for c in copies)
    for V in a:
        table.group(V, 0)
    with pytest.MonkeyPatch.context() as monkeypatch:
        built = counting_calls(monkeypatch, cohom.CochainComplex, "__init__")
        for V in b:
            table.group(V, 0)
    assert built == []
    for Va, Vb in zip(a, b):
        assert table._complexes[Va].maps is table._complexes[Vb].maps
        assert table._complexes[Va]._homology is table._complexes[Vb]._homology
    separate, original = _Coefficients(doubled), _Coefficients(sheaf)
    degrees = range(base.height + 1)
    for V, Vb in zip(opens, b):
        want = [original.group(V, q) for q in degrees]
        assert [table.group(Vb, q) for q in degrees] == [separate.group(Vb, q) for q in degrees] == want
        for W, Wb in zip(opens, b):
            if W <= V:
                for q in degrees:
                    got, alone = table.restriction(Vb, Wb, q), separate.restriction(Vb, Wb, q)
                    assert (got.source, got.target, got.matrix) == (alone.source, alone.target, alone.matrix)
                    assert got.matrix == original.restriction(V, W, q).matrix


def negated_at(sheaf, e):
    """The sheaf with every cover map at e negated: isomorphic to the given
    one through -1 on the stalk at e, and where e has one cover, the given
    one with that cover map negated."""
    cover_maps = {pair: -m if e in pair else m for pair, m in sheaf.cover_maps.items()}
    return PosetSheaf(sheaf.base, sheaf.stalks, cover_maps)


def widened_at(sheaf, e):
    """The sheaf whose stalk at e has one more free generator, which every
    cover map into e misses and every cover map out of e sends to zero:
    a functor still, with one stalk changed."""
    stalks = {**sheaf.stalks, e: direct_sum([sheaf.stalks[e], PresentedAbGroup.free(1)])}
    cover_maps = {
        (a, b): IntMatrix.from_blocks(stalks[b].generator_count, stalks[a].generator_count, [(0, 0, 1, m)])
        for (a, b), m in sheaf.cover_maps.items()
    }
    return PosetSheaf(sheaf.base, stalks, cover_maps)


@settings(max_examples=60, deadline=None)
@given(sheaves(), st.data())
def test_a_copy_with_a_cover_map_negated_or_a_stalk_changed_is_no_twin(base_and_sheaf, data):
    """The second copy differs from the first at one element e: its cover
    maps there negated, or its stalk there widened.  An open set of the
    second copy that holds e and sees the change (a nonzero cover map at e
    between its members, or the stalk) is not read as a view of its twin in
    the first copy, and every complex still matches a fresh one."""
    base, sheaf = base_and_sheaf
    e = data.draw(st.sampled_from(base.elements))
    change = data.draw(st.sampled_from([negated_at, widened_at]))
    copies, doubled = two_copies(base, sheaf, change(sheaf, e))
    opens = up_sets(base, data.draw)
    table = _Coefficients(doubled)
    a, b = ([frozenset(c[x] for x in V) for V in opens] for c in copies)
    for V in a + b:
        table.group(V, 0)
    for V, Va, Vb in zip(opens, a, b):
        seen = e in V and (
            change is widened_at
            or any(not m.is_zero() for (x, y), m in sheaf.cover_maps.items() if e in (x, y) and {x, y} <= V)
        )
        assert alike(doubled, Va, Vb) != seen
        assert (table._complexes[Va]._homology is table._complexes[Vb]._homology) != seen
        if change is negated_at:
            degrees = range(base.height + 1)
            assert [table.group(Va, q).canonical for q in degrees] == [table.group(Vb, q).canonical for q in degrees]
    assert_twins_share_homology(table)
    assert_table_matches_fresh_complexes(table)


def test_table_refuses_a_set_that_is_not_open():
    """The table's key lists the covers inside an open set, which generate
    its order.  On a < b < c, the set {a, c} holds a < c with no cover
    between them, and it is not open: the table refuses it, whether it is
    read as a group or on either side of a restriction, and an unknown
    element too."""
    chain = FinitePoset("abc", [("a", "b"), ("b", "c")])
    table = _Coefficients(constant_sheaf(chain, PresentedAbGroup.free(1)))
    gap, whole = frozenset("ac"), frozenset("abc")
    with pytest.raises(InputError, match="open"):
        table.group(gap, 0)
    with pytest.raises(InputError, match="open"):
        table.restriction(whole, gap, 0)
    with pytest.raises(InputError, match="open"):
        table.restriction(gap, frozenset("c"), 0)
    with pytest.raises(InputError, match="unknown element"):
        table.group(frozenset("cz"), 0)
    assert gap not in table._complexes
    assert table.group(whole, 0).canonical == (1, ())


# Cochain complexes built, Smith forms and homology computations of the
# corner group Ȟ¹(cov, H¹F) of X_24.  Its table holds 49 open sets in 3
# classes of alike ones: the whole U0, the 24 U_k and the 24 S_k = U0 ∩ U_k.
# Homology is taken once per class and once for the Čech complex itself.
# Computed once per open set, they were 49, 99 and 50.
CORNER_24_COCHAIN_COMPLEXES = 3
CORNER_24_SMITH_FORMS = 7
CORNER_24_SUBQUOTIENTS = 4


def test_corner_table_computes_homology_once_per_class_of_equal_complexes(monkeypatch):
    w = build_wedge(24)
    F, c = gap_sheaf(w), canonical_covering(w)
    tables = counting_calls(monkeypatch, cech._Coefficients, "__init__")
    built = counting_calls(monkeypatch, cohom.CochainComplex, "__init__")
    smith = counting_calls(monkeypatch, abgroup.SmithDecomposition, "__init__")
    homology = counting_calls(monkeypatch, abgroup.Subquotient, "__init__")
    assert cech_cohomology_hq(c, F, 1, 1).canonical == (24, ())
    assert len(built) == CORNER_24_COCHAIN_COMPLEXES
    assert len(smith) == CORNER_24_SMITH_FORMS
    assert len(homology) == CORNER_24_SUBQUOTIENTS
    assert_first_of_each_class_built(tables[0]["self"], built)
