"""Čech complexes of open coverings, with sheaf or cohomology-presheaf
coefficients, refinement maps, and the covering-level comparison report.

The alternating complex on strictly increasing index tuples is used
throughout: same cohomology as the full complex, matches the usual
"alpha < beta" indexing, and keeps the complexes small.  Empty
intersections contribute zero summands, and a summand whose coefficient
group has no generators is not laid out (`abgroup.FaceComplex`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .abgroup import (
    FaceComplex,
    GroupHom,
    IntMatrix,
    PresentedAbGroup,
    Subquotient,
    direct_sum,
    face_chain_map,
    induced_on_homology,
)
from .errors import ContractViolation, InputError
from .finspace import FinitePoset
from .sheaf import PosetSheaf
from . import cohom as _cohom

# The most nerve simplices a Čech complex is built on, over the degrees it
# stores.  `Covering.simplex_count` counts them without listing them, and a
# covering with more is refused with InputError before any tuple is listed.
# The last stage covering of N disks has N + 1 members that all meet, so its
# degrees 0..2 hold N + 1 + C(N + 1, 2) + C(N + 1, 3), about N³/6,
# simplices: 19,649 in `reproduce --disks 48`, and N = 66 is the first wedge
# refused.  For scale, `reproduce --disks 48` took 8.7 s and 212 MiB on a
# 2-core shared machine with Python 3.11.7 (measured 2026-10-20).
MAX_NERVE_SIMPLICES = 50_000


class Covering:
    """An ordered open covering: named members plus a total order on names."""

    def __init__(self, base: FinitePoset, members: Dict[str, Sequence[str]], order: Sequence[str]):
        self.base = base
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
        self._whole = frozenset(base.elements)
        # (intersection, member index) -> their intersection; every value is
        # one interned object per distinct intersection
        self._meet_of: Dict[Tuple[frozenset, int], frozenset] = {}
        self._interned: Dict[frozenset, frozenset] = {}

    def _meet(self, common: frozenset, i: int) -> frozenset:
        """common ∩ the i-th member, as the covering's one object for it."""
        meet = self._meet_of.get((common, i))
        if meet is None:
            meet = common & self.members[self.order[i]]
            meet = self._meet_of[common, i] = self._interned.setdefault(meet, meet)
        return meet

    def intersection(self, names: Sequence[str]) -> frozenset:
        out = None
        for n in names:
            s = self.members[n]
            out = s if out is None else (out & s)
        return out if out is not None else frozenset(self.base.elements)

    def simplices(self, top: int) -> List[List[Tuple[tuple, frozenset]]]:
        """Per degree p = 0..top, the strictly increasing (p+1)-tuples of
        member names with nonempty intersection, in lexicographic member
        order, each with its intersection; the list ends at the first empty
        degree.

        One pass, one member longer per degree, extending only tuples whose
        running intersection is nonempty, so the work follows the output
        rather than all subsets; extending each tuple in order by the later
        members, in order, keeps every degree sorted.  Tuples with equal
        intersections share one object.
        """
        order = self.order
        level = [((), self._whole, 0)]  # (tuple, intersection, next member)
        out = []
        for _ in range(top + 1):
            longer = []
            for t, common, start in level:
                for i in range(start, len(order)):
                    meet = self._meet(common, i)
                    if meet:
                        longer.append((t + (order[i],), meet, i + 1))
            level = longer
            out.append([(t, common) for t, common, _ in level])
            if not level:
                break
        return out

    def tuples(self, p: int) -> List[tuple]:
        """The tuples of degree p in `simplices`."""
        levels = self.simplices(p)
        return [t for t, _ in levels[p]] if 0 <= p < len(levels) else []

    def simplex_count(self, top: int) -> int:
        """The number of nerve simplices in degrees 0..top, counted without
        listing them.  Tuples that share their intersection and their next
        member extend alike, so one pass per length carries only a count per
        (intersection, next member).  Counting stops after the length at
        which the total passes MAX_NERVE_SIMPLICES; the total so far is
        returned."""
        states = {(self._whole, 0): 1}  # (intersection, next member) -> tuples ending there
        total = 0
        for _ in range(top + 1):
            longer: Dict[Tuple[frozenset, int], int] = {}
            for (common, start), ways in states.items():
                for i in range(start, len(self.order)):
                    meet = self._meet(common, i)
                    if meet:
                        longer[meet, i + 1] = longer.get((meet, i + 1), 0) + ways
            states = longer
            total += sum(states.values())
            if total > MAX_NERVE_SIMPLICES or not states:
                break
        return total

    def __repr__(self):
        return f"Covering({', '.join(self.order)})"


def nerve(c: Covering) -> List[tuple]:
    """All simplices of the nerve: index tuples with nonempty intersection."""
    return [t for level in c.simplices(len(c.order) - 1) for t, _ in level]


class _Coefficients:
    """H^q(-, F) on open sets, in every degree q, with restriction maps.

    Keeps, per open set, the cochain complex of F on it (the chains of the
    base inside it, with F's own restriction table), whose homology is
    computed once per degree, and memoizes every restriction H^q(big) ->
    H^q(small) by (big, small, q).  Before a build, an open set is keyed by
    its stalks and the cover maps between its members, by position in the
    base's element order.  An open set holds every element above its
    members, so its covers generate its order: alike open sets, such as the
    N disks of a wedge, have the same chains position for position, groups
    and blocks.  The first of each key is built and every later one is that
    complex relabelled.  The table belongs to the call or run that made it
    and keeps nothing on the sheaf: dropping it frees all.
    """

    def __init__(self, sheaf: PosetSheaf):
        self.sheaf = sheaf
        self._complexes: Dict[frozenset, _cohom.CochainComplex] = {}
        # key -> the first complex built with it, and its members in element order
        self._built: Dict[tuple, Tuple[_cohom.CochainComplex, tuple]] = {}
        self._restrictions: Dict[Tuple[frozenset, frozenset, int], GroupHom] = {}

    def _complex(self, members: frozenset) -> _cohom.CochainComplex:
        cx = self._complexes.get(members)
        if cx is None:
            base, cover_maps = self.sheaf.base, self.sheaf.cover_maps
            if not base.is_open(members):
                raise InputError("coefficients are read on open sets only")
            order = tuple(sorted(members, key=base._index.__getitem__))
            at = {e: i for i, e in enumerate(order)}
            # every element above a member is a member
            covers = tuple((at[a], at[b], cover_maps[a, b]) for a in order for b in base._above_ordered[a] if (a, b) in cover_maps)
            key = tuple(map(self.sheaf.stalks.__getitem__, order)), covers
            first = self._built.get(key)
            if first is None:
                cx = _cohom.CochainComplex(self.sheaf, members)
                self._built[key] = cx, order
            else:
                cx = first[0].relabelled(dict(zip(first[1], order)))
            self._complexes[members] = cx
        return cx

    def group(self, members: frozenset, q: int) -> PresentedAbGroup:
        return self._complex(members).homology(q).group

    def restriction(self, big: frozenset, small: frozenset, q: int) -> GroupHom:
        got = self._restrictions.get((big, small, q))
        if got is None:
            if not small <= big:
                raise InputError("restriction needs the smaller open set inside the bigger one")
            got = _cohom.restriction_on_homology(self._complex(big), self._complex(small), q)
            self._restrictions[(big, small, q)] = got
        return got


class CechComplex(FaceComplex):
    """Alternating Čech complex of a covering with coefficients
    V -> H^q(V, F) from a coefficient table of F: the summand of an index
    tuple is H^q of its intersection, and its data is that intersection.

    A complex truncated at degree `top` stores degrees 0..top only, so its
    homology is known below `top` alone (Ȟ^p needs top = p + 1); `top` is
    None for the full complex.  Tuples whose coefficient group has no
    generators are not laid out.  A nerve with more than
    MAX_NERVE_SIMPLICES simplices in those degrees is refused before any
    tuple is listed.
    """

    def __init__(self, covering: Covering, coefficients: _Coefficients, q: int, top: Optional[int] = None):
        if q < 0:
            raise InputError("coefficient degree must be >= 0")
        if covering.base != coefficients.sheaf.base:
            raise InputError("the covering and the sheaf must live on the same poset")
        self.covering = covering
        self.coefficients = coefficients
        self.q = q
        self.top = top
        degrees = len(covering.order) if top is None else min(len(covering.order), top + 1)
        if covering.simplex_count(degrees - 1) > MAX_NERVE_SIMPLICES:
            raise InputError(
                f"the Čech complex would have over {MAX_NERVE_SIMPLICES} nerve simplices in degrees 0..{degrees - 1}"
            )
        levels = covering.simplices(degrees - 1)
        super().__init__([[(t, coefficients.group(meet, q), meet) for t, meet in level] for level in levels])

    def block(self, big: frozenset, small: frozenset) -> IntMatrix:
        return self.coefficients.restriction(big, small, self.q).matrix

    def homology(self, k: int) -> Subquotient:
        # past the top the differential is missing, not zero
        if self.top is not None and k >= self.top:
            raise ContractViolation(f"Čech complex truncated at degree {self.top} has no homology in degree {k}")
        return super().homology(k)


def cech_complex_hq(c: Covering, sheaf: PosetSheaf, q: int) -> CechComplex:
    """The Čech complex of the covering with coefficients V -> H^q(V, F)."""
    return CechComplex(c, _Coefficients(sheaf), q)


def cech_cohomology_hq(c: Covering, sheaf: PosetSheaf, q: int, p: int) -> PresentedAbGroup:
    if p < 0:
        raise InputError("degree must be >= 0")
    return CechComplex(c, _Coefficients(sheaf), q, p + 1).homology(p).group


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
    coeffs = _Coefficients(sheaf)
    return _refinement_map(CechComplex(fine, coeffs, q, p + 1), CechComplex(coarse, coeffs, q, p + 1), assignment, p)


def _refinement_map(fine_cx: CechComplex, coarse_cx: CechComplex, assignment: Dict[str, str], p: int) -> GroupHom:
    """`refinement_map` between Čech complexes already built, up to degree
    p + 1 at least; the restrictions run from coarse to fine opens."""
    fine, coarse = fine_cx.covering, coarse_cx.covering
    if fine.base != coarse.base:
        raise InputError("refinement requires coverings of the same space")
    for name in fine.order:
        big = assignment.get(name)
        if big is None or big not in coarse.members:
            raise InputError(f"no coarse member assigned to {name!r}")
        if not fine.members[name] <= coarse.members[big]:
            raise InputError(f"{name!r} is not contained in {big!r}: not a refinement witness")
    coarse_pos = {name: i for i, name in enumerate(coarse.order)}

    def coarse_tuple(t: tuple) -> Optional[tuple]:
        """The sorted image of t and the parity of its sorting permutation."""
        mapped = [assignment[n] for n in t]
        if len(set(mapped)) < len(mapped):
            return None  # degenerate tuple, zero in the alternating complex
        perm = sorted(range(len(mapped)), key=lambda i: coarse_pos[mapped[i]])
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        return tuple(mapped[i] for i in perm), (-1) ** inversions

    fmat = face_chain_map(coarse_cx, fine_cx, coarse_tuple, fine_cx.block)
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


def covering_comparison_report(c: Covering, coefficients: _Coefficients) -> ComparisonReport:
    """Compute both pipelines, Čech with H^0 and H^1 coefficients from the
    one table, and report the low-degree corner of the comparison."""
    cech = CechComplex(c, coefficients, 0, 3)
    cech_h0, cech_h1, cech_h2 = (cech.homology(p).group for p in range(3))
    cech_h1h1 = CechComplex(c, coefficients, 1, 2).homology(1).group
    cochains = _cohom.cochain_complex(c.base, coefficients.sheaf)
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
