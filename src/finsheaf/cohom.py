"""Sheaf cohomology on finite posets via the canonical strict-chain complex.

The degree-k cochain group is the direct sum, over strict chains
p_0 < ... < p_k, of the stalk at p_k.  The differential is the alternating
sum of face maps; dropping the last element composes with the restriction
stalk(p_{k-1}) -> stalk(p_k).  In degree 0 this picks out compatible
families, i.e. global sections, and the complex computes sheaf cohomology
of the Alexandrov space.  For the constant sheaf it is literally the
simplicial cochain complex of the order complex.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import groupby
from typing import List, Mapping, Optional, Sequence

from .abgroup import (
    ChainComplexData,
    FaceComplex,
    GroupHom,
    IntMatrix,
    PresentedAbGroup,
    face_chain_map,
    induced_on_homology,
    solve,
)
from .errors import ContractViolation, InputError
from .finspace import FinitePoset, OpenSet
from .sheaf import PosetSheaf, SheafMorphism, constant_sheaf, extension_by_zero, is_exact

# The most strict chains a cochain complex is built on.  Degree k has one
# summand per strict (k+1)-chain, and a chain of h + 1 elements alone has
# 2^(h+1) - 1 of them.  A subset with more is refused with InputError as
# soon as `FinitePoset.chain_count` has counted them, before any chain is
# listed, instead of being left to run out of time or memory.  For scale, on
# a 2-core machine: 65,535 chains (8 levels of 3, all adjacent pairs
# related) take 2.6 s to build and 100 s and 215 MiB for every degree of
# constant-Z cohomology.
MAX_STRICT_CHAINS = 100_000


class CochainComplex(FaceComplex):
    """Strict-chain cochain complex of a sheaf on a subspace: the summands
    sit on the chains of the base inside `members`, the summand of a chain
    is the stalk at its end, and its data is that end.  Chains whose end
    has no generators are left out, as `FaceComplex` leaves out every
    summand without generators.

    The sheaf induced on a subspace is the same functor on the induced
    order, so this is the complex of that sheaf on the subposet of
    `members`, built with neither: the same chains in the same order, and
    blocks that agree modulo the relations of their target stalks (as
    matrices wherever restrictions compose exactly).  The whole base is one
    such subset.  The blocks come from the sheaf's restriction
    table, and the complex holds no reference to the sheaf itself: a sheaf
    keeps its complex (`cochain_complex`) without a reference cycle.
    """

    def __init__(self, sheaf: PosetSheaf, members: frozenset):
        # n elements have at most 2^n - 1 chains, so only a larger subset is counted
        if 2 ** len(members) > MAX_STRICT_CHAINS and (total := sheaf.base.chain_count(members)) > MAX_STRICT_CHAINS:
            raise InputError(
                f"the cochain complex would have {total} strict chains, over the limit of {MAX_STRICT_CHAINS}"
            )
        self._restrictions = sheaf.restrictions
        stalks = sheaf.stalks
        degrees = groupby(sheaf.base.strict_chains(members), len)
        super().__init__([[(c, stalks[c[-1]], c[-1]) for c in chains] for _, chains in degrees] or [[]])

    def block(self, face_end: str, chain_end: str) -> IntMatrix:
        # identity unless the face drops the last element
        return self._restrictions(face_end, chain_end)

    def relabelled(self, names: Mapping[str, str]) -> "CochainComplex":
        """This complex, sharing its groups, differentials and homology, on
        its chains renamed element by element through `names`.  The caller
        vouches that renaming keeps the order, stalks and restrictions, so
        the renamed chains are those of their subset, in the same order."""
        view = copy.copy(self)
        view._summands = []
        for placed in self._summands:
            renamed = ((tuple(map(names.__getitem__, t)), off, g) for t, off, g, _ in placed.values())
            view._summands.append({c: (c, off, g, c[-1]) for c, off, g in renamed})
        return view


def cochain_complex(base: FinitePoset, sheaf: PosetSheaf) -> CochainComplex:
    """The canonical cochain complex of a sheaf on a poset.  Degree k is the
    direct sum of the stalks at the ends of the k-chains, relations included,
    so stalks with torsion carry through to the cohomology.

    There is one complex per sheaf object: it is built on first use and kept
    on the sheaf for the sheaf's lifetime, so every degree and every caller
    reads the same complex and the homology it computes once per degree."""
    if sheaf.base != base:
        raise InputError("sheaf is not defined on the given poset")
    if sheaf._cochains is None:
        sheaf._cochains = CochainComplex(sheaf, frozenset(base.elements))
    return sheaf._cochains


def cohomology(base: FinitePoset, sheaf: PosetSheaf, q: int) -> PresentedAbGroup:
    """H^q of the sheaf, in canonical form, read from the sheaf's one cochain
    complex (`cochain_complex`), so H^0..H^h cost one complex together.
    Degrees above the poset height are trivial."""
    if q < 0:
        raise InputError("degree must be >= 0")
    if q > base.height:
        return PresentedAbGroup.trivial()
    return cochain_complex(base, sheaf).homology(q).group


def _same_chain(chain: tuple) -> tuple:
    return chain, 1


def stalkwise_chain_map(
    source: CochainComplex, target: CochainComplex, components: Mapping[str, IntMatrix]
) -> List[IntMatrix]:
    """Per degree of source, the map C^k(source) -> C^k(target) applying
    components[p] on the summand of every chain ending at p that both
    complexes list.  With identity components on a subspace W of V it is the
    projection C^k(V) -> C^k(W) keeping the chains inside W."""
    return face_chain_map(source, target, _same_chain, lambda _, end: components[end])


def restriction_on_homology(source: CochainComplex, target: CochainComplex, q: int) -> GroupHom:
    """The map H^q(V,F) -> H^q(W,F) induced by W ⊆ V, from the cochain
    complexes of F on V and on W.  The projection keeping the chains inside
    W is checked to be a chain map."""
    return induced_on_homology(face_chain_map(source, target, _same_chain, target.block), source, target, q)


def restriction_induced(
    base: FinitePoset, V: OpenSet, W: OpenSet, sheaf: PosetSheaf, q: int
) -> GroupHom:
    """The map H^q(V,F) -> H^q(W,F) induced by W ⊆ V, both open."""
    if not W.members <= V.members:
        raise InputError("W must be contained in V")
    if V.parent != base or W.parent != base or sheaf.base != base:
        raise InputError("open sets and sheaf must live on the given poset")
    return restriction_on_homology(CochainComplex(sheaf, V.members), CochainComplex(sheaf, W.members), q)


@dataclass
class LESNode:
    degree: int
    position: int  # 0, 1, 2 for the three sheaves
    label: str
    group: PresentedAbGroup


@dataclass
class LESArrow:
    hom: GroupHom
    connecting: bool


@dataclass
class LongExactSequence:
    nodes: List[LESNode]
    arrows: List[LESArrow]  # arrows[i]: nodes[i] -> nodes[i+1]
    exact: bool
    failing_node: Optional[int] = None

    def segment(self, degree: int, position: int) -> PresentedAbGroup:
        for n in self.nodes:
            if n.degree == degree and n.position == position:
                return n.group
        raise InputError(f"no node at degree {degree}, position {position}")


def les_of_short_exact(
    base: FinitePoset,
    ses: Sequence[SheafMorphism],
    V: OpenSet,
) -> LongExactSequence:
    """The long exact cohomology sequence of 0 -> A -> B -> C -> 0 over V,
    read from the complexes of A, B and C on the chains inside V; the
    sequence must be exact at the elements of V.

    Connecting maps are computed by the snake lemma with exact integer
    preimage solving; exactness is re-verified at every node.
    """
    if len(ses) != 2:
        raise InputError("a short exact sequence is given by two morphisms A->B and B->C")
    if V.parent != base or ses[0].source.base != base:
        raise InputError("the open set and the sequence must live on the given poset")
    verdict = is_exact(ses, V.members)
    if not verdict.exact:
        raise InputError(
            f"input sequence is not exact over V (fails at {verdict.failing_element})"
        )
    cxs = [CochainComplex(s, V.members) for s in (ses[0].source, ses[0].target, ses[1].target)]
    maxdeg = max(len(c.groups) for c in cxs)
    fmat = stalkwise_chain_map(cxs[0], cxs[1], ses[0].components)
    gmat = stalkwise_chain_map(cxs[1], cxs[2], ses[1].components)
    labels = ["A", "B", "C"]
    nodes: List[LESNode] = []
    arrows: List[LESArrow] = []
    for k in range(maxdeg):
        for pos in range(3):
            nodes.append(LESNode(k, pos, f"H^{k}({labels[pos]})", cxs[pos].homology(k).group))

    def preimage(m: IntMatrix, target: PresentedAbGroup, Y: IntMatrix, what: str) -> IntMatrix:
        """X with m @ X == Y modulo the relations of the target group."""
        X = solve(m.hstack(target.relations), Y)
        if X is None:
            raise ContractViolation(f"snake lemma: {what} failed")
        return X.submatrix_rows(range(m.cols))

    def connecting(k: int) -> GroupHom:
        """Snake lemma: lift every representative C-cocycle to B, apply d_B,
        pull back to A."""
        h_c, h_a = cxs[2].homology(k), cxs[0].homology(k + 1)
        b_lift = preimage(gmat[k], cxs[2].group(k), h_c.reps, "lift through B")
        a_lift = preimage(fmat[k + 1], cxs[1].group(k + 1), cxs[1].differential(k) @ b_lift, "preimage in A")
        return GroupHom(h_c.group, h_a.group, h_a.classes(a_lift))

    for k in range(maxdeg):
        a, b, c = (cx.homology(k) for cx in cxs)
        arrows.append(LESArrow(a.induced_map(b, fmat[k]), False))
        arrows.append(LESArrow(b.induced_map(c, gmat[k]), False))
        if k + 1 < maxdeg:
            arrows.append(LESArrow(connecting(k), True))

    # exact at node i < len(arrows) iff the sequence, read as one complex,
    # has no homology there; the left end needs injectivity
    les = ChainComplexData([n.group for n in nodes], [a.hom.matrix for a in arrows])
    failing = next((i for i in range(len(arrows)) if not les.homology(i).group.is_trivial()), None)
    return LongExactSequence(nodes, arrows, failing is None, failing)


@dataclass
class ComponentIdentityResult:
    status: str  # "pass", "fail", "hypothesis_not_met"
    lhs: Optional[PresentedAbGroup] = None
    rhs: Optional[PresentedAbGroup] = None

    @property
    def isomorphic(self) -> Optional[bool]:
        if self.status == "hypothesis_not_met":
            return None
        return self.lhs.is_isomorphic_to(self.rhs)


def component_identity_check(base: FinitePoset, V: OpenSet, skeleton: Sequence[str]) -> ComponentIdentityResult:
    """Compare H^1(V, F) with coker(H^0(V,Z) -> H^0(V ∩ skeleton, Z)), where
    F is the rank-one sheaf extended by zero from the open complement of the
    skeleton.  Requires H^1(V, Z) = 0; otherwise reports hypothesis-not-met
    rather than a verdict."""
    skel = frozenset(skeleton)
    if V.parent != base:
        raise InputError("the open set must live on the given poset")
    if not base.is_closed(skel):
        raise InputError("skeleton must be a closed subset")
    complement = OpenSet(base, set(base.elements) - skel)
    Z = PresentedAbGroup.free(1)
    if not CochainComplex(constant_sheaf(base, Z), V.members).homology(1).group.is_trivial():
        return ComponentIdentityResult("hypothesis_not_met")
    lhs = CochainComplex(extension_by_zero(base, complement, Z), V.members).homology(1).group
    # coker of the component-refinement matrix H^0(V) -> H^0(V ∩ skeleton)
    trace_comps = base.components(V.members & skel)
    v_comps = base.components(V.members)
    entries = [[1 if d <= c else 0 for c in v_comps] for d in trace_comps]
    mat = IntMatrix(len(trace_comps), len(v_comps), entries)
    rhs = PresentedAbGroup(len(trace_comps), mat)
    status = "pass" if lhs.is_isomorphic_to(rhs) else "fail"
    return ComponentIdentityResult(status, lhs, rhs)
