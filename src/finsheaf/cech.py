"""Čech complexes of open coverings, with sheaf or cohomology-presheaf
coefficients, refinement maps, and the covering-level comparison report.

The alternating complex on strictly increasing index tuples is used
throughout: same cohomology as the full complex, matches the usual
"alpha < beta" indexing, and keeps the complexes small.  Empty
intersections contribute zero summands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .abgroup import (
    ChainComplexData,
    GroupHom,
    IntMatrix,
    PresentedAbGroup,
    Subquotient,
    direct_sum,
    induced_on_homology,
)
from .errors import ContractViolation, InputError
from .finspace import FinitePoset
from .sheaf import PosetSheaf
from . import cohom as _cohom


class Covering:
    """An ordered open covering: named members plus a total order on names."""

    def __init__(self, base: FinitePoset, members: Dict[str, Sequence[str]], order: Optional[Sequence[str]] = None):
        self.base = base
        if order is None:
            order = list(members)
        if sorted(order) != sorted(members):
            raise InputError("order must list exactly the member names")
        self.order = tuple(order)
        self.members = {}
        union = set()
        for name in self.order:
            s = frozenset(members[name])
            if not base.is_open(s):
                raise InputError(f"member {name!r} is not open")
            self.members[name] = s
            union |= s
        if union != set(base.elements):
            raise InputError("members do not cover the space")

    def intersection(self, names: Sequence[str]) -> frozenset:
        out = None
        for n in names:
            s = self.members[n]
            out = s if out is None else (out & s)
        return out if out is not None else frozenset(self.base.elements)

    def tuples(self, p: int) -> List[tuple]:
        """Strictly increasing (p+1)-tuples of member names with nonempty
        intersection, in lexicographic member order.

        Depth-first over the member order, extending only tuples whose
        running intersection is nonempty, so the work follows the output
        rather than all (p+1)-subsets.
        """
        out: List[tuple] = []
        order = self.order

        def extend(t: tuple, common: frozenset, start: int) -> None:
            if len(t) == p + 1:
                out.append(t)
                return
            for i in range(start, len(order) - p + len(t)):
                meet = common & self.members[order[i]]
                if meet:
                    extend(t + (order[i],), meet, i + 1)

        extend((), frozenset(self.base.elements), 0)
        return out

    def reordered(self, new_order: Sequence[str]) -> "Covering":
        return Covering(self.base, {n: self.members[n] for n in self.members}, new_order)

    def __repr__(self):
        return f"Covering({', '.join(self.order)})"


def nerve(c: Covering) -> List[tuple]:
    """All simplices of the nerve: index tuples with nonempty intersection."""
    out = []
    for p in range(len(c.order)):
        tups = c.tuples(p)
        if not tups:
            break
        out.extend(tups)
    return out


class _Coefficients:
    """H^q(-, F) on the opens of a covering, with restriction maps.

    Keeps, per open set, the cochain complex of F on it and that complex's
    degree-q homology, and memoizes every restriction H^q(big) -> H^q(small)
    by (big, small); an open set met in many intersections, or a pair met
    again, is computed once.
    """

    def __init__(self, base: FinitePoset, sheaf: PosetSheaf, q: int):
        if q < 0:
            raise InputError("coefficient degree must be >= 0")
        self.base = base
        self.sheaf = sheaf
        self.q = q
        self._complexes: Dict[frozenset, Tuple[_cohom.CochainComplex, Subquotient]] = {}
        self._restrictions: Dict[Tuple[frozenset, frozenset], GroupHom] = {}

    def _complex(self, members: frozenset) -> Tuple[_cohom.CochainComplex, Subquotient]:
        got = self._complexes.get(members)
        if got is None:
            cx = _cohom.cochain_complex(self.base.subposet(members), self.sheaf.restricted_to(members))
            got = (cx, cx.homology(self.q))
            self._complexes[members] = got
        return got

    def group(self, members: frozenset) -> PresentedAbGroup:
        return self._complex(members)[1].group

    def restriction(self, big: frozenset, small: frozenset) -> GroupHom:
        got = self._restrictions.get((big, small))
        if got is None:
            if not small <= big:
                raise InputError("restriction needs the smaller open set inside the bigger one")
            got = _cohom.restriction_on_homology(*self._complex(big), *self._complex(small), self.q)
            self._restrictions[(big, small)] = got
        return got


class CechComplex(ChainComplexData):
    """Alternating Čech complex; block layout records, per degree, the index
    tuple, the coefficient group, and its offset.

    A complex truncated at degree `top` stores degrees 0..top only, so its
    homology is known below `top` alone; `top` is None for the full complex.
    """

    def __init__(self, covering, coefficients, groups, maps, block_layout, top=None):
        self.covering = covering
        self.coefficients = coefficients
        self.block_layout = block_layout  # per degree: list of (tuple, offset, group)
        self.top = top
        super().__init__(groups, maps)

    def homology(self, k: int) -> Subquotient:
        # past the top the differential is missing, not zero
        if self.top is not None and k >= self.top:
            raise ContractViolation(f"Čech complex truncated at degree {self.top} has no homology in degree {k}")
        return super().homology(k)

    def blocks(self, p: int) -> list:
        """The layout of degree p; empty outside the stored degrees."""
        return self.block_layout[p] if 0 <= p < len(self.block_layout) else []

    def block_offset(self, p: int, names: tuple) -> Tuple[int, PresentedAbGroup]:
        for t, off, g in self.block_layout[p]:
            if t == names:
                return off, g
        raise InputError(f"no block for {names} in degree {p}")


def cech_complex_hq(c: Covering, sheaf: PosetSheaf, q: int) -> CechComplex:
    """The Čech complex of the covering with coefficients V -> H^q(V, F)."""
    return _cech_complex(c, _Coefficients(c.base, sheaf, q))


def _cech_complex(c: Covering, coeffs: _Coefficients, top: Optional[int] = None) -> CechComplex:
    """The Čech complex of the covering with the given coefficient cache,
    in degrees 0..top only when `top` is given (Ȟ^p needs top = p + 1)."""
    layout: List[List[Tuple[tuple, int, PresentedAbGroup]]] = []
    p = 0
    while p < len(c.order) and (top is None or p <= top):
        tups = c.tuples(p)
        entries = []
        off = 0
        for t in tups:
            g = coeffs.group(c.intersection(t))
            entries.append((t, off, g))
            off += g.generator_count
        layout.append(entries)
        if not tups:
            break
        p += 1
    groups = [direct_sum([g for _, _, g in entries]) for entries in layout]
    maps = []
    for k in range(len(groups) - 1):
        src_index = {t: off for t, off, _ in layout[k]}
        blocks = []
        for t, toff, _ in layout[k + 1]:
            for i in range(len(t)):
                face = t[:i] + t[i + 1:]
                soff = src_index.get(face)
                if soff is not None:
                    res = coeffs.restriction(c.intersection(face), c.intersection(t)).matrix
                    blocks.append((toff, soff, -1 if i % 2 else 1, res))
        maps.append(IntMatrix.from_blocks(groups[k + 1].generator_count, groups[k].generator_count, blocks))
    return CechComplex(c, coeffs, groups, maps, layout, top)


def cech_complex_sheaf(c: Covering, sheaf: PosetSheaf) -> CechComplex:
    """Čech complex with coefficients the sections H^0(-, F)."""
    return cech_complex_hq(c, sheaf, 0)


def cech_cohomology_hq(c: Covering, sheaf: PosetSheaf, q: int, p: int) -> PresentedAbGroup:
    if p < 0:
        raise InputError("degree must be >= 0")
    return _cech_complex(c, _Coefficients(c.base, sheaf, q), p + 1).homology(p).group


def cech_cohomology(c: Covering, sheaf: PosetSheaf, p: int) -> PresentedAbGroup:
    return cech_cohomology_hq(c, sheaf, 0, p)


def refinement_map(
    fine: Covering,
    coarse: Covering,
    assignment: Dict[str, str],
    sheaf: PosetSheaf,
    p: int,
    q: int = 0,
) -> GroupHom:
    """The induced map Ȟ^p(coarse, H^q(F)) -> Ȟ^p(fine, H^q(F)).

    The assignment must witness the refinement: each fine member contained
    in its assigned coarse member.
    """
    coeffs = _Coefficients(fine.base, sheaf, q)
    return _refinement_map(_cech_complex(fine, coeffs, p + 1), _cech_complex(coarse, coeffs, p + 1), assignment, p)


def _refinement_map(fine_cx: CechComplex, coarse_cx: CechComplex, assignment: Dict[str, str], p: int) -> GroupHom:
    """`refinement_map` between Čech complexes already built, up to degree
    p + 1 at least; the restrictions run from coarse to fine opens."""
    fine, coarse, coeffs = fine_cx.covering, coarse_cx.covering, fine_cx.coefficients
    if fine.base != coarse.base:
        raise InputError("refinement requires coverings of the same space")
    for name in fine.order:
        big = assignment.get(name)
        if big is None or big not in coarse.members:
            raise InputError(f"no coarse member assigned to {name!r}")
        if not fine.members[name] <= coarse.members[big]:
            raise InputError(f"{name!r} is not contained in {big!r}: not a refinement witness")
    coarse_pos = {name: i for i, name in enumerate(coarse.order)}

    fmat = []
    for k in range(len(coarse_cx.groups)):
        src_index = {t: off for t, off, _ in coarse_cx.blocks(k)}
        blocks = []
        for t, toff, _ in fine_cx.blocks(k):
            mapped = [assignment[n] for n in t]
            if len(set(mapped)) < len(mapped):
                continue  # degenerate tuple, zero in the alternating complex
            order_key = sorted(range(len(mapped)), key=lambda i: coarse_pos[mapped[i]])
            sorted_tuple = tuple(mapped[i] for i in order_key)
            # parity of the sorting permutation
            perm = list(order_key)
            sign = 1
            for i in range(len(perm)):
                for j in range(i + 1, len(perm)):
                    if perm[i] > perm[j]:
                        sign = -sign
            soff = src_index.get(sorted_tuple)
            if soff is None:
                continue
            res = coeffs.restriction(coarse.intersection(sorted_tuple), fine.intersection(t)).matrix
            blocks.append((toff, soff, sign, res))
        fmat.append(IntMatrix.from_blocks(fine_cx.degree_rank(k), coarse_cx.degree_rank(k), blocks))
    return induced_on_homology(fmat, coarse_cx, fine_cx, p)


@dataclass
class ComparisonReport:
    """Covering-level comparison of Čech and sheaf cohomology."""

    cech_h0: PresentedAbGroup
    cech_h1: PresentedAbGroup
    cech_h2: PresentedAbGroup
    cech_h1_of_h1: PresentedAbGroup
    sheaf_h0: PresentedAbGroup
    sheaf_h1: PresentedAbGroup
    sheaf_h2: PresentedAbGroup
    h0_agrees: bool
    rank_bookkeeping_ok: bool
    torsion_ok: bool
    gap: bool  # Ȟ² not isomorphic to H²

    def to_dict(self) -> dict:
        def canon(g):
            return {"rank": g.canonical[0], "invariant_factors": list(g.canonical[1]), "pretty": str(g)}

        return {
            "cech": {
                "H0": canon(self.cech_h0),
                "H1": canon(self.cech_h1),
                "H2": canon(self.cech_h2),
                "H1_of_H1_presheaf": canon(self.cech_h1_of_h1),
            },
            "sheaf": {
                "H0": canon(self.sheaf_h0),
                "H1": canon(self.sheaf_h1),
                "H2": canon(self.sheaf_h2),
            },
            "h0_agrees": self.h0_agrees,
            "rank_bookkeeping_ok": self.rank_bookkeeping_ok,
            "torsion_ok": self.torsion_ok,
            "gap": self.gap,
        }

    def table(self) -> str:
        rows = [
            ("Cech H^0", str(self.cech_h0)),
            ("Cech H^1", str(self.cech_h1)),
            ("Cech H^2", str(self.cech_h2)),
            ("Cech H^1(H^1 presheaf)", str(self.cech_h1_of_h1)),
            ("sheaf H^0", str(self.sheaf_h0)),
            ("sheaf H^1", str(self.sheaf_h1)),
            ("sheaf H^2", str(self.sheaf_h2)),
            ("H^0 agreement", "yes" if self.h0_agrees else "NO"),
            ("rank bookkeeping", "consistent" if self.rank_bookkeeping_ok else "INCONSISTENT"),
            ("torsion bookkeeping", "consistent" if self.torsion_ok else "INCONSISTENT"),
            ("Cech vs sheaf gap in degree 2", "GAP" if self.gap else "none"),
        ]
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def covering_comparison_report(c: Covering, sheaf: PosetSheaf) -> ComparisonReport:
    """Compute both pipelines and report the low-degree corner of the
    Čech-to-derived comparison for this covering."""
    cech = _cech_complex(c, _Coefficients(c.base, sheaf, 0), 3)
    cech_h0, cech_h1, cech_h2 = (cech.homology(p).group for p in range(3))
    cech_h1h1 = cech_cohomology_hq(c, sheaf, 1, 1)
    cochains = _cohom.cochain_complex(c.base, sheaf)
    sheaf_h0, sheaf_h1, sheaf_h2 = (cochains.homology(q).group for q in range(3))
    combined = direct_sum([cech_h2, cech_h1h1])
    return ComparisonReport(
        cech_h0=cech_h0,
        cech_h1=cech_h1,
        cech_h2=cech_h2,
        cech_h1_of_h1=cech_h1h1,
        sheaf_h0=sheaf_h0,
        sheaf_h1=sheaf_h1,
        sheaf_h2=sheaf_h2,
        h0_agrees=cech_h0.is_isomorphic_to(sheaf_h0),
        rank_bookkeeping_ok=(cech_h2.rank + cech_h1h1.rank == sheaf_h2.rank),
        torsion_ok=(combined.canonical[1] == sheaf_h2.canonical[1]),
        gap=not cech_h2.is_isomorphic_to(sheaf_h2),
    )
