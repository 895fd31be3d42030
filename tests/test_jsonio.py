import json

import pytest
from hypothesis import given, settings
from strategies import sheaves

from finsheaf import jsonio
from finsheaf.abgroup import PresentedAbGroup
from finsheaf.cohom import cohomology
from finsheaf.errors import InputError
from finsheaf.finspace import FinitePoset
from finsheaf.sheaf import closed_pushforward, constant_sheaf
from finsheaf.wedge import build_wedge, canonical_covering, gap_sheaf


def roundtrip(obj):
    return json.loads(json.dumps(obj))


def test_matrix_roundtrip_and_validation():
    m = jsonio.matrix_from_json([["3", "-4"], ["0", "7"]], 2, 2)
    assert jsonio.matrix_to_json(m) == [["3", "-4"], ["0", "7"]]
    with pytest.raises(InputError):
        jsonio.matrix_from_json([["a"]], 1, 1)
    with pytest.raises(InputError):
        jsonio.matrix_from_json([["1", "2"], ["3"]], 2, 2)
    with pytest.raises(InputError):
        jsonio.matrix_from_json([["1"]], 2, 1)


def test_poset_roundtrip():
    w = build_wedge(2)
    back = jsonio.poset_from_json(roundtrip(jsonio.poset_to_json(w.poset)))
    assert back == w.poset
    with pytest.raises(InputError):
        jsonio.poset_from_json({"elements": ["a"]})


def test_covering_roundtrip():
    w = build_wedge(2)
    c = canonical_covering(w)
    back = jsonio.covering_from_json(w.poset, roundtrip(jsonio.covering_to_json(c)))
    assert list(back.order) == list(c.order)
    assert all(back.members[n] == c.members[n] for n in c.order)


def test_sheaf_roundtrip_preserves_cohomology():
    w = build_wedge(2)
    s = gap_sheaf(w)
    back = jsonio.sheaf_from_json(w.poset, roundtrip(jsonio.sheaf_to_json(s)))
    for q in (0, 1, 2):
        assert cohomology(w.poset, back, q).canonical == cohomology(w.poset, s, q).canonical


def test_sheaf_roundtrip_of_stalks_presented_off_their_canonical_form():
    """A stalk written as its canonical form may have fewer generators than
    it is presented on (Z/2 + Z/3 on two is Z/6 on one), or other
    relations (Z/4 + Z/6 is Z/2 + Z/12); the cover maps are written in the
    canonical coordinates, so the file reads back as an isomorphic sheaf."""
    base = FinitePoset("abc", [("a", "b"), ("a", "c")])
    for s in (
        constant_sheaf(base, PresentedAbGroup.from_canonical_form(0, [2, 3])),
        closed_pushforward(base, {"a"}, PresentedAbGroup.from_canonical_form(1, [4, 6])),
    ):
        back = jsonio.sheaf_from_json(base, roundtrip(jsonio.sheaf_to_json(s)))
        assert [cohomology(base, back, q).canonical for q in (0, 1)] == [cohomology(base, s, q).canonical for q in (0, 1)]


@settings(max_examples=60, deadline=None)
@given(sheaves())
def test_sheaf_roundtrip_with_torsion_stalks_preserves_cohomology(base_and_sheaf):
    base, s = base_and_sheaf
    back = jsonio.sheaf_from_json(base, roundtrip(jsonio.sheaf_to_json(s)))
    degrees = range(base.height + 1)
    assert [cohomology(base, back, q).canonical for q in degrees] == [cohomology(base, s, q).canonical for q in degrees]


def test_sheaf_from_json_rejects_bad_data():
    w = build_wedge(1)
    obj = jsonio.sheaf_to_json(gap_sheaf(w))
    incomplete = {"stalks": {}, "restrictions": obj["restrictions"]}
    with pytest.raises(InputError):
        jsonio.sheaf_from_json(w.poset, incomplete)
    missing_restriction = {"stalks": obj["stalks"], "restrictions": {}}
    with pytest.raises(InputError):
        jsonio.sheaf_from_json(w.poset, missing_restriction)


COVERS_ONLY = {"a<b": [["1"]], "b<c": [["1"]]}


@pytest.mark.parametrize(
    "restrictions, named",
    [
        ({**COVERS_ONLY, "a<c": [["5"]]}, "'a<c'"),
        ({**COVERS_ONLY, "c<a": [["7"]]}, "'c<a'"),
        ({**COVERS_ONLY, "zz": 3}, "'zz'"),
        (3, "'restrictions'"),
        ("a<b b<c", "'restrictions'"),
    ],
)
def test_sheaf_from_json_refuses_a_key_that_is_not_a_cover(restrictions, named):
    """On the chain a<b<c, a restriction keyed by a comparable pair that is
    not a cover, by a pair the wrong way round or by no pair at all is
    refused by name, not ignored; restrictions that are not an object are
    refused, not read until a TypeError."""
    chain = FinitePoset("abc", [("a", "b"), ("b", "c")])
    stalks = {e: {"rank": 1} for e in "abc"}
    covers_only = jsonio.sheaf_from_json(chain, {"stalks": stalks, "restrictions": COVERS_ONLY})
    assert covers_only.restrictions("a", "c").data == ((1,),)
    with pytest.raises(InputError, match=named):
        jsonio.sheaf_from_json(chain, {"stalks": stalks, "restrictions": restrictions})


def test_group_forms():
    g = jsonio.group_from_json({"rank": 1, "invariant_factors": [2]})
    assert g.canonical == (1, (2,))
    assert jsonio.group_to_json(g) == {"rank": 1, "invariant_factors": [2]}
    with pytest.raises(InputError):
        jsonio.group_from_json({"rank": "x"})
    assert jsonio.group_from_json({"rank": "2", "invariant_factors": ["0004", 6]}).canonical == (2, (2, 12))
    for stated_otherwise in (
        {"rank": 0, "invariant_factors": "23"},
        {"rank": 0, "invariant_factors": {"4": 1}},
        {"rank": 0, "invariant_factors": (4,)},
        {"rank": "1_0"},
        {"rank": 0, "invariant_factors": ["1_2"]},
        {"rank": "9" * 5000},
        {"rank": "-"},
    ):
        with pytest.raises(InputError):
            jsonio.group_from_json(stated_otherwise)
