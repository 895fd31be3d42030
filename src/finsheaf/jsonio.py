"""JSON wire formats.

Matrices serialize as arrays of arrays of decimal strings so that nothing is
ever rounded in transit.  Posets serialize by their cover relations, sheaves
by stalk canonical forms plus restriction matrices keyed by "p<q" for cover
pairs, coverings by member lists plus the index order.
"""

from __future__ import annotations

from typing import Dict

from .abgroup import IntMatrix, PresentedAbGroup
from .cech import Covering
from .errors import ContractViolation, InputError
from .finspace import FinitePoset
from .sheaf import PosetSheaf


def matrix_to_json(m: IntMatrix) -> list:
    return [[str(e) for e in row] for row in m.data]


def _integer(value, what: str) -> int:
    """A JSON integer, or a string of ASCII digits with an optional leading
    minus, as an int; floats, booleans and every other spelling (signs,
    spaces, digit separators, non-ASCII digits) are refused, not read."""
    digits = value.removeprefix("-") if isinstance(value, str) else ""
    try:
        if type(value) is int or (digits.isascii() and digits.isdigit()):
            return int(value)
    except ValueError:  # more digits than Python converts
        pass
    raise InputError(f"{what} must be an integer or a decimal string, not {value!r}")


def matrix_from_json(obj, rows: int, cols: int) -> IntMatrix:
    """The rows x cols matrix `obj`; a different shape is refused by IntMatrix."""
    if not isinstance(obj, list) or any(not isinstance(r, list) for r in obj):
        raise InputError("matrix must be an array of arrays")
    return IntMatrix(rows, cols, [[_integer(e, "a matrix entry") for e in row] for row in obj])


def group_to_json(g: PresentedAbGroup) -> dict:
    rank, factors = g.canonical
    return {"rank": rank, "invariant_factors": list(factors)}


def group_from_json(obj) -> PresentedAbGroup:
    try:
        rank, factors = obj["rank"], obj.get("invariant_factors", [])
    except (KeyError, TypeError, AttributeError):
        raise InputError("group must have integer 'rank' and 'invariant_factors'")
    if not isinstance(factors, list):
        raise InputError(f"'invariant_factors' must be an array, not {factors!r}")
    rank = _integer(rank, "'rank'")
    factors = [_integer(f, "an invariant factor") for f in factors]
    if rank < 0:
        raise InputError(f"group rank must be >= 0, not {rank}")
    if any(f < 2 for f in factors):
        raise InputError(f"invariant factors must be >= 2, not {factors}")
    return PresentedAbGroup.from_canonical_form(rank, factors)


def _labels(obj, what: str) -> list:
    """obj, refused with InputError unless it is an array of element labels."""
    if not isinstance(obj, list) or not all(isinstance(e, str) for e in obj):
        raise InputError(f"{what} must be an array of strings")
    return obj


def poset_to_json(p: FinitePoset) -> dict:
    return {"elements": list(p.elements), "covers": [[a, b] for a, b in p.covers]}


def poset_from_json(obj) -> FinitePoset:
    try:
        elements, covers = obj["elements"], obj["covers"]
    except (KeyError, TypeError):
        raise InputError("poset must have 'elements' and 'covers'")
    if not isinstance(covers, list) or any(len(_labels(pair, "a cover")) != 2 for pair in covers):
        raise InputError("'covers' must be an array of [lower, upper] pairs")
    return FinitePoset(_labels(elements, "'elements'"), covers)


def covering_to_json(c: Covering) -> dict:
    return {
        "members": {
            name: sorted(c.members[name], key=c.base.elements.index) for name in c.order
        },
        "order": list(c.order),
    }


def covering_from_json(base: FinitePoset, obj) -> Covering:
    try:
        members = {name: _labels(labels, f"member {name!r}") for name, labels in obj["members"].items()}
        order = _labels(obj["order"], "'order'")
    except (KeyError, TypeError, AttributeError):
        raise InputError("covering must have 'members' and 'order'")
    return Covering(base, members, order)


def sheaf_to_json(s: PosetSheaf) -> dict:
    """Stalks by canonical form, cover maps in their canonical coordinates."""
    stalks = {e: group_to_json(s.stalks[e]) for e in s.base.elements}
    restrictions = {}
    for p, q in s.base.covers:
        restrictions[f"{p}<{q}"] = matrix_to_json(s.stalks[q].to_canonical(s.restrictions(p, q) @ s.stalks[p].section))
    return {"stalks": stalks, "restrictions": restrictions}


def sheaf_from_json(base: FinitePoset, obj) -> PosetSheaf:
    try:
        stalks = {e: group_from_json(g) for e, g in obj["stalks"].items()}
        raw = obj["restrictions"]
    except (KeyError, TypeError, AttributeError):
        raise InputError("sheaf must have 'stalks' and 'restrictions'")
    for e in base.elements:
        if e not in stalks:
            raise InputError(f"missing stalk for element {e!r}")
    cover_maps: Dict[tuple, IntMatrix] = {}
    for p, q in base.covers:
        key = f"{p}<{q}"
        if key not in raw:
            raise InputError(f"missing restriction {key!r}")
        cover_maps[(p, q)] = matrix_from_json(raw[key], stalks[q].generator_count, stalks[p].generator_count)
    try:
        return PosetSheaf(base, stalks, cover_maps)
    except ContractViolation as e:
        # user data, not an internal bug
        raise InputError(str(e))
