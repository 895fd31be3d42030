"""The coefficient table H^q(-, F) of the Čech layer against fresh
complexes: every group, presentation included, is the homology of a
cochain complex built afresh on its open set, and every restriction, the
identity V -> V too, is `restriction_on_homology` between fresh complexes.
Complexes with equal groups and differentials share one homology, which
the tables of `reproduce` and of the corner group rely on."""

from counting import counting_calls
from hypothesis import given, settings
from hypothesis import strategies as st
from test_properties import sheaves

from finsheaf import abgroup, cech
from finsheaf.cech import _Coefficients, cech_cohomology_hq
from finsheaf.cli import main
from finsheaf.cohom import CochainComplex, restriction_on_homology
from finsheaf.finspace import FinitePoset
from finsheaf.sheaf import PosetSheaf
from finsheaf.wedge import build_wedge, canonical_covering, gap_sheaf


def assert_table_matches_fresh_complexes(table):
    """Each group the table holds, and its restriction between every two of
    its open sets W ⊆ V, V = W included, in every degree of V."""
    fresh = {V: CochainComplex(table.sheaf, V) for V in table._complexes}
    for V, cx in fresh.items():
        degrees = range(len(cx.groups))
        assert [table.group(V, q) for q in degrees] == [cx.homology(q).group for q in degrees]
        for W in fresh:
            if W <= V:
                for q in degrees:
                    got = table.restriction(V, W, q)
                    want = restriction_on_homology(cx, fresh[W], q)
                    assert (got.source, got.target, got.matrix) == (want.source, want.target, want.matrix)


def assert_twins_share_homology(table):
    """Complexes with equal groups and differentials read one homology;
    others do not."""
    complexes = list(table._complexes.values())
    for a in complexes:
        for b in complexes:
            same = (a.groups, a.maps) == (b.groups, b.maps)
            assert (a._homology is b._homology) == same


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


def two_copies(base, sheaf):
    """The disjoint union of two copies of base, ...a before ...b, and the
    sheaf that is the given one on each copy."""
    copies = [{e: f"{e}{tag}" for e in base.elements} for tag in "ab"]
    poset = FinitePoset(
        [c[e] for c in copies for e in base.elements],
        [(c[a], c[b]) for c in copies for a, b in base.covers],
    )
    stalks = {c[e]: sheaf.stalks[e] for c in copies for e in base.elements}
    cover_maps = {(c[a], c[b]): m for c in copies for (a, b), m in sheaf.cover_maps.items()}
    return copies, PosetSheaf(poset, stalks, cover_maps)


@settings(max_examples=60, deadline=None)
@given(sheaves(), st.data())
def test_two_disjoint_copies_share_homology_and_read_as_separate_tables(base_and_sheaf, data):
    """An open set read in the second copy after the first shares the first
    one's homology and has the groups and restrictions of the same open set
    read on a table of its own, and of the original open set."""
    base, sheaf = base_and_sheaf
    copies, doubled = two_copies(base, sheaf)
    opens = up_sets(base, data.draw)
    table = _Coefficients(doubled)
    a, b = ([frozenset(c[e] for e in V) for V in opens] for c in copies)
    for V in a + b:
        table.group(V, 0)
    for Va, Vb in zip(a, b):
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


# Smith forms and homology computations of the corner group Ȟ¹(cov, H¹F) of
# X_24.  Its table holds 49 open sets in 4 classes of equal complexes: the
# whole U0, the 24 alike U_k, the 24 alike S_k = U0 ∩ U_k, and the Čech
# complex itself.  Computed once per open set, they were 99 and 50.
CORNER_24_SMITH_FORMS = 7
CORNER_24_SUBQUOTIENTS = 4


def test_corner_table_computes_homology_once_per_class_of_equal_complexes(monkeypatch):
    w = build_wedge(24)
    F, c = gap_sheaf(w), canonical_covering(w)
    smith = counting_calls(monkeypatch, abgroup.SmithDecomposition, "__init__")
    homology = counting_calls(monkeypatch, abgroup.Subquotient, "__init__")
    assert cech_cohomology_hq(c, F, 1, 1).canonical == (24, ())
    assert len(smith) == CORNER_24_SMITH_FORMS
    assert len(homology) == CORNER_24_SUBQUOTIENTS
