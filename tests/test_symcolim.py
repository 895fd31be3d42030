import copy
import json

import pytest

from finsheaf.errors import InputError
from finsheaf.symcolim import (
    COUNTABLE,
    FINITE,
    UNCOUNTABLE,
    UNKNOWN,
    Colim,
    CountableProduct,
    CountableSum,
    FreeFinite,
    Quotient,
    SymbolicDirectSystem,
    Trivial,
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


def test_rewrite_sum_projection_dies():
    t = Colim(SymbolicDirectSystem("sum_tail", "projection"))
    assert normalize(t) == Trivial()


def test_rewrite_exhausting_inclusions():
    t = Colim(SymbolicDirectSystem("prod_head", "inclusion"))
    assert normalize(t) == CountableSum()


def test_rewrite_constant_and_zero():
    c = Colim(SymbolicDirectSystem("constant", "identity", term=FreeFinite(2)))
    assert normalize(c) == FreeFinite(2)
    z = Colim(SymbolicDirectSystem("constant", "zero", term=FreeFinite(2)))
    assert normalize(z) == Trivial()


def test_quotient_simplifications():
    assert normalize(Quotient(CountableSum(), CountableSum())) == Trivial()
    assert normalize(Quotient(FreeFinite(3), Trivial())) == FreeFinite(3)
    assert normalize(FreeFinite(0)) == Trivial()


def test_unrecognized_terms_stay_unreduced():
    t = Colim(SymbolicDirectSystem("prod_tail", "inclusion"))
    assert normalize(t) == t
    assert cardinality_class(t) == UNKNOWN


def test_normalize_idempotent_and_deterministic():
    terms = [
        Colim(SymbolicDirectSystem("prod_tail", "projection")),
        Quotient(CountableProduct(), CountableSum()),
        Quotient(Colim(SymbolicDirectSystem("sum_tail", "projection")), FreeFinite(0)),
    ]
    for t in terms:
        assert normalize(normalize(t)) == normalize(t)
        assert normalize(t) == normalize(t)


def test_cardinality_classes():
    assert cardinality_class(Trivial()) == FINITE
    assert cardinality_class(FreeFinite(5)) == COUNTABLE
    assert cardinality_class(CountableSum()) == COUNTABLE
    assert cardinality_class(CountableProduct()) == UNCOUNTABLE
    assert cardinality_class(Quotient(CountableProduct(), CountableSum())) == UNCOUNTABLE
    assert cardinality_class(Colim(SymbolicDirectSystem("prod_tail", "projection"))) == UNCOUNTABLE


def test_system_validation():
    with pytest.raises(InputError):
        SymbolicDirectSystem("nope", "projection")
    with pytest.raises(InputError):
        SymbolicDirectSystem("prod_tail", "sideways")
    with pytest.raises(InputError):
        SymbolicDirectSystem("constant", "identity")  # missing term


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
