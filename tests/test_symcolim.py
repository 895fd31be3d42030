import copy
import json

import pytest

from finsheaf.errors import InputError
from finsheaf.symcolim import (
    COUNTABLE,
    UNCOUNTABLE,
    UNKNOWN,
    Colim,
    CountableProduct,
    CountableSum,
    Quotient,
    SymbolicDirectSystem,
    cardinality_class,
    certify_theorem,
    normalize,
)
from finsheaf.cech import _Coefficients
from finsheaf.wedge import build_wedge, collect_stage_evidence, gap_sheaf


def stage_evidence(n):
    w = build_wedge(n)
    return collect_stage_evidence(w, _Coefficients(gap_sheaf(w))).to_dict()


def test_rewrite_product_projection_system():
    t = Colim(SymbolicDirectSystem("prod_tail", "projection"))
    assert normalize(t) == Quotient(CountableProduct(), CountableSum())


def test_unrecognized_terms_stay_unreduced():
    """Only the colimit is rewritten; a quotient whose cardinality does not
    follow from an uncountable numerator over a countable denominator is
    classified unknown, not guessed."""
    for t in [
        Quotient(CountableSum(), CountableSum()),
        Quotient(CountableProduct(), CountableProduct()),
        Quotient(CountableSum(), CountableProduct()),
        Quotient(CountableProduct(), Colim(SymbolicDirectSystem("prod_tail", "projection"))),
    ]:
        assert normalize(t) == t
        assert cardinality_class(t) == UNKNOWN


def test_normalize_idempotent_and_deterministic():
    terms = [
        Colim(SymbolicDirectSystem("prod_tail", "projection")),
        Quotient(CountableProduct(), CountableSum()),
        Quotient(Colim(SymbolicDirectSystem("prod_tail", "projection")), CountableSum()),
    ]
    for t in terms:
        assert normalize(normalize(t)) == normalize(t)
        assert normalize(t) == normalize(t)


def test_cardinality_classes():
    colim = Colim(SymbolicDirectSystem("prod_tail", "projection"))
    assert cardinality_class(CountableSum()) == COUNTABLE
    assert cardinality_class(CountableProduct()) == UNCOUNTABLE
    assert cardinality_class(Quotient(CountableProduct(), CountableSum())) == UNCOUNTABLE
    assert cardinality_class(colim) == UNCOUNTABLE
    assert cardinality_class(Quotient(colim, CountableSum())) == UNCOUNTABLE


def test_system_validation():
    """The stage system is the only one: every other family or transition
    is refused."""
    for family, transition in [("nope", "projection"), ("prod_tail", "sideways"), ("sum_tail", "projection"), ("prod_tail", "inclusion")]:
        with pytest.raises(InputError):
            SymbolicDirectSystem(family, transition)


def test_certify_on_real_evidence():
    ev = stage_evidence(2)
    cert = certify_theorem(ev)
    assert cert.ok and cert.verdict == "uncountable"
    assert cert.limit_cardinality == UNCOUNTABLE
    assert cert.caveats == []
    assert any("∏" in line or "prod" in line for line in cert.transcript)
    assert "uncountable" in json.dumps(cert.to_dict(), sort_keys=True, indent=2)


def test_certify_single_disk_carries_caveat():
    cert = certify_theorem(stage_evidence(1))
    assert cert.ok and cert.caveats


def test_certify_refuses_tampered_rank():
    ev = stage_evidence(2)
    bad = copy.deepcopy(ev)
    bad["stages"]["2"]["rank"] = 7
    cert = certify_theorem(bad)
    assert not cert.ok and cert.verdict == "refused"


def test_certify_refuses_non_surjective_transition():
    ev = stage_evidence(2)
    bad = copy.deepcopy(ev)
    bad["transitions"][0]["surjective"] = False
    assert not certify_theorem(bad).ok


def test_certify_refuses_wrong_kernel_rank():
    ev = stage_evidence(2)
    bad = copy.deepcopy(ev)
    bad["transitions"][1]["kernel_rank"] = 5
    assert not certify_theorem(bad).ok


def test_certify_refuses_missing_stage_and_garbage():
    ev = stage_evidence(2)
    bad = copy.deepcopy(ev)
    del bad["stages"]["3"]
    assert not certify_theorem(bad).ok
    assert not certify_theorem({}).ok
    assert not certify_theorem({"disks": 0, "stages": {}, "transitions": []}).ok


@pytest.mark.parametrize(
    "path, value",
    [
        (("stages",), []),
        (("stages", "2"), 5),
        (("transitions", 0), {"surjective": True, "kernel_rank": 1}),
        (("transitions", 0), 3),
        (("disks",), 2.7),
    ],
    ids=["stages-a-list", "stage-record-a-number", "transition-without-stages", "transition-a-number", "fractional-disks"],
)
def test_certify_refuses_malformed_evidence(path, value):
    """Evidence of the wrong shape is refused with ok=False, never raises,
    and a fractional number of disks is not read as a whole one."""
    bad = stage_evidence(2)
    *inner, last = path
    record = bad
    for key in inner:
        record = record[key]
    record[last] = value
    cert = certify_theorem(bad)
    assert (cert.ok, cert.verdict) == (False, "refused")
    assert cert.transcript == ["REFUSED: evidence record is malformed"]
