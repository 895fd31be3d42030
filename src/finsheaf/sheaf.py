"""Sheaves of abelian groups on finite posets.

A sheaf is the same thing as a functor: one stalk per element plus a
restriction homomorphism along every comparable pair p <= q (remember that
the stalk at p is the sections over its minimal open set, which shrinks as
p grows).  Restriction maps are stored on cover relations only; composites
are derived, cached, and checked for path independence at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .abgroup import ChainComplexData, IntMatrix, PresentedAbGroup, Subquotient, direct_sum
from .errors import ContractViolation, InputError
from .finspace import FinitePoset, OpenSet


class _Restrictions:
    """The restriction matrices stalk(p) -> stalk(q), p <= q, of one sheaf,
    each composed along covers on first use and kept.  It holds the base,
    stalks and cover maps but not the sheaf, so a cochain complex that reads
    its blocks here may outlive the sheaf without keeping it alive."""

    def __init__(
        self,
        base: FinitePoset,
        stalks: Dict[str, PresentedAbGroup],
        cover_maps: Dict[Tuple[str, str], IntMatrix],
    ):
        self.base = base
        self.stalks = stalks
        self.cover_maps = cover_maps
        self._memo: Dict[Tuple[str, str], IntMatrix] = {}

    def __call__(self, p: str, q: str) -> IntMatrix:
        key = (p, q)
        m = self._memo.get(key)
        if m is not None:
            return m
        if p == q:
            m = IntMatrix.identity(self.stalks[p].generator_count)
        elif not self.base.lt(p, q):
            raise InputError(f"{p!r} is not below {q!r}")
        elif key in self.cover_maps:
            m = self.cover_maps[key]
        else:
            # any cover path gives the same hom; functoriality was checked
            mid = next(c for (a, c) in self.base.covers if a == p and self.base.lt(c, q))
            m = self(mid, q) @ self.cover_maps[(p, mid)]
        self._memo[key] = m
        return m


class PosetSheaf:
    """Stalks and cover restrictions on a finite poset, checked at
    construction to be a functor (ContractViolation)."""

    def __init__(
        self,
        base: FinitePoset,
        stalks: Dict[str, PresentedAbGroup],
        cover_maps: Dict[Tuple[str, str], IntMatrix],
    ):
        if set(stalks) != set(base.elements):
            raise InputError("stalks must be given for exactly the elements of the base")
        for (a, b) in cover_maps:
            if (a, b) not in base.covers:
                raise InputError(f"({a},{b}) is not a cover relation of the base")
        for (a, b) in base.covers:
            m = cover_maps.get((a, b))
            if m is None:
                raise InputError(f"missing restriction map for cover relation ({a},{b})")
            if m.rows != stalks[b].generator_count or m.cols != stalks[a].generator_count:
                raise InputError(f"restriction matrix for ({a},{b}) has wrong dimensions")
        self.base = base
        self.stalks = dict(stalks)
        self.cover_maps = dict(cover_maps)
        self.restrictions = _Restrictions(base, self.stalks, self.cover_maps)
        # the strict-chain cochain complex, built by `cohom.cochain_complex`
        # on first use; a sheaf is never changed after construction
        self._cochains = None
        self._check_functorial()

    def _check_functorial(self) -> None:
        # Every cover map respects relations, and for every cover p < m and
        # every q above m the composite through m agrees with restrictions(p, q).
        # By induction on the length of [p, q], every factorization p < m < q
        # then agrees and every composite respects relations.
        for p, m in self.base.covers:
            cover = self.cover_maps[(p, m)]
            if not self.stalks[m].represents_zero(cover @ self.stalks[p].relations):
                raise ContractViolation(f"restriction ({p},{m}) does not respect relations")
            for q in self.base._above_ordered[m]:
                direct, via = self.restrictions(p, q), self.restrictions(m, q) @ cover
                if direct != via and not self.stalks[q].represents_zero(direct - via):
                    raise ContractViolation(f"restriction maps not functorial along {p} < {m} < {q}")

    def __repr__(self):
        return f"<PosetSheaf on {len(self.base)} elements>"


def constant_sheaf(base: FinitePoset, group: PresentedAbGroup) -> PosetSheaf:
    """Every stalk the given group, every restriction the identity."""
    n = group.generator_count
    ident = IntMatrix.identity(n)
    return PosetSheaf(
        base,
        {e: group for e in base.elements},
        {c: ident for c in base.covers},
    )


def zero_sheaf(base: FinitePoset) -> PosetSheaf:
    return constant_sheaf(base, PresentedAbGroup.trivial())


def extension_by_zero(base: FinitePoset, opens: OpenSet, group: PresentedAbGroup) -> PosetSheaf:
    """Stalk = group inside the open set, trivial outside; restriction is the
    identity inside and zero across the boundary."""
    if opens.parent != base:
        raise InputError("open set does not belong to the given poset")
    trivial = PresentedAbGroup.trivial()
    stalks = {e: (group if e in opens else trivial) for e in base.elements}
    maps = {}
    for (a, b) in base.covers:
        maps[(a, b)] = (
            IntMatrix.identity(group.generator_count)
            if a in opens and b in opens
            else IntMatrix.zero(stalks[b].generator_count, stalks[a].generator_count)
        )
    return PosetSheaf(base, stalks, maps)


def closed_pushforward(base: FinitePoset, closed: Iterable[str], group: PresentedAbGroup) -> PosetSheaf:
    """The pushforward of the constant sheaf on a closed subspace.

    The stalk at p is one copy of the group per connected component of
    min_open(p) ∩ A; restrictions refine components.
    """
    a_set = frozenset(closed)
    if not base.is_closed(a_set):
        raise InputError("subset is not closed (complement is not an up-set)")
    comps = {p: base.components(base.up_set(p) & a_set) for p in base.elements}
    g = group.generator_count
    stalks = {p: direct_sum([group] * len(comps[p])) for p in base.elements}
    maps = {}
    ident = IntMatrix.identity(g)
    for (p, q) in base.covers:
        blocks = [
            (i * g, j * g, 1, ident)
            for i, dq in enumerate(comps[q])
            for j, cp in enumerate(comps[p])
            if dq <= cp
        ]
        maps[(p, q)] = IntMatrix.from_blocks(len(comps[q]) * g, len(comps[p]) * g, blocks)
    return PosetSheaf(base, stalks, maps)


class SheafMorphism:
    """A natural transformation between sheaves on the same base; every one
    is checked to commute with the cover restrictions modulo the target
    relations (ContractViolation)."""

    def __init__(self, source: PosetSheaf, target: PosetSheaf, components: Dict[str, IntMatrix]):
        if source.base != target.base:
            raise InputError("morphism requires sheaves on the same base")
        for e in source.base.elements:
            m = components.get(e)
            if m is None:
                raise InputError(f"missing component at {e!r}")
            if m.rows != target.stalks[e].generator_count or m.cols != source.stalks[e].generator_count:
                raise InputError(f"component at {e!r} has wrong dimensions")
        self.source = source
        self.target = target
        self.components = dict(components)
        for (p, q) in source.base.covers:
            left = self.components[q] @ source.restrictions(p, q)
            right = target.restrictions(p, q) @ self.components[p]
            if not target.stalks[q].represents_zero(left - right):
                raise ContractViolation(f"naturality fails on cover relation ({p},{q})")

    @classmethod
    def zero(cls, source: PosetSheaf, target: PosetSheaf) -> "SheafMorphism":
        comps = {
            e: IntMatrix.zero(
                target.stalks[e].generator_count, source.stalks[e].generator_count
            )
            for e in source.base.elements
        }
        return cls(source, target, comps)

    @classmethod
    def identity(cls, sheaf: PosetSheaf) -> "SheafMorphism":
        comps = {e: IntMatrix.identity(sheaf.stalks[e].generator_count) for e in sheaf.base.elements}
        return cls(sheaf, sheaf, comps)


def kernel_sheaf(m: SheafMorphism) -> PosetSheaf:
    """Stalkwise kernel with the induced restrictions: each restriction of a
    kernel generator is written on the kernel generators at the target."""
    base = m.source.base
    kernels = {
        p: Subquotient(m.source.stalks[p], None, m.components[p], m.target.stalks[p])
        for p in base.elements
    }
    maps = {}
    for (p, q) in base.covers:
        maps[(p, q)] = kernels[q].cycle_coordinates(m.source.restrictions(p, q) @ kernels[p].cycle_gens)
    return PosetSheaf(base, {p: k.presented for p, k in kernels.items()}, maps)


def cokernel_sheaf(m: SheafMorphism) -> PosetSheaf:
    """Stalkwise cokernel; restrictions descend from the target sheaf."""
    base = m.source.base
    stalks = {
        p: PresentedAbGroup(
            m.target.stalks[p].generator_count,
            m.target.stalks[p].relations.hstack(m.components[p]),
        )
        for p in base.elements
    }
    maps = {(p, q): m.target.restrictions(p, q) for (p, q) in base.covers}
    return PosetSheaf(base, stalks, maps)


@dataclass(frozen=True)
class ExactnessResult:
    exact: bool
    failing_element: Optional[str] = None
    failing_position: Optional[int] = None

    def __bool__(self):
        return self.exact


def is_exact(morphisms: Sequence[SheafMorphism], elements: Iterable[str]) -> ExactnessResult:
    """Stalkwise exactness of 0 -> F_0 -> F_1 -> ... -> F_n -> 0 at the given
    elements of the base, which are checked in the base's element order.

    The stalks and components at each element are read as one complex,
    zero outside its stored degrees, whose construction checks d∘d once.
    Where it fails, the first nonzero composite F_{i-1} -> F_{i+1} is
    sought and fails position i: a non-complex is not exact.  Otherwise
    position i fails where the degree-i homology is not trivial.  The
    certificate names the first failing element and position.
    """
    if not morphisms:
        raise InputError("need at least one morphism")
    for a, b in zip(morphisms, morphisms[1:]):
        # b starts at a's target, or at a sheaf with the same stalks and cover maps
        if a.target is not b.source and (a.target.stalks, a.target.cover_maps) != (b.source.stalks, b.source.cover_maps):
            raise InputError("morphisms do not compose")
    sheaves = [morphisms[0].source] + [m.target for m in morphisms]
    checked = frozenset(elements)
    for p in (e for e in sheaves[0].base.elements if e in checked):
        stalks = [s.stalks[p] for s in sheaves]
        maps = [m.components[p] for m in morphisms]
        try:
            stalk_sequence = ChainComplexData(stalks, maps)
        except ContractViolation:
            i = next(i for i in range(len(maps) - 1) if not stalks[i + 2].represents_zero(maps[i + 1] @ maps[i]))
            return ExactnessResult(False, p, i + 1)
        for i in range(len(stalks)):
            if not stalk_sequence.homology(i).group.is_trivial():
                return ExactnessResult(False, p, i)
    return ExactnessResult(True)
