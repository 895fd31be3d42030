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

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .abgroup import (
    ChainComplexData,
    GroupHom,
    IntMatrix,
    PresentedAbGroup,
    Subquotient,
    check_chain_map,
    direct_sum,
    solve,
)
from .errors import ContractViolation, InputError
from .finspace import FinitePoset, OpenSet
from .sheaf import PosetSheaf, SheafMorphism, constant_sheaf, extension_by_zero, is_exact


class CochainComplex(ChainComplexData):
    """Strict-chain cochain complex of a sheaf, with the chain bookkeeping
    needed to build chain-level maps (projections, stalkwise morphisms)."""

    def __init__(self, base, sheaf, groups, maps, chain_layout):
        self.base = base
        self.sheaf = sheaf
        # per degree: list of (chain, offset, rank); only nonzero stalks listed
        self.chain_layout = chain_layout
        super().__init__(groups, maps)

    def chains(self, k: int) -> list:
        """The layout of degree k; empty outside the stored degrees."""
        return self.chain_layout[k] if 0 <= k < len(self.chain_layout) else []


def cochain_complex(base: FinitePoset, sheaf: PosetSheaf) -> CochainComplex:
    """The canonical cochain complex of a sheaf on a poset.  Degree k is the
    direct sum of the stalks at the ends of the k-chains, relations included,
    so stalks with torsion carry through to the cohomology."""
    if sheaf.base != base:
        raise InputError("sheaf is not defined on the given poset")
    top = base.height
    layout: List[List[Tuple[tuple, int, int]]] = []
    index: List[Dict[tuple, int]] = []
    for k in range(top + 1):
        entries = []
        offset = 0
        idx = {}
        for chain in base.strict_chains(k):
            r = sheaf.stalks[chain[-1]].generator_count
            if r == 0:
                continue
            idx[chain] = offset
            entries.append((chain, offset, r))
            offset += r
        layout.append(entries)
        index.append(idx)
    groups = [direct_sum([sheaf.stalks[chain[-1]] for chain, _, _ in entries]) for entries in layout]
    if not groups:
        groups = [PresentedAbGroup.trivial()]
        layout = [[]]
    maps = []
    for k in range(len(groups) - 1):
        blocks = []
        for chain, off, _ in layout[k + 1]:
            for i in range(len(chain)):
                face = chain[:i] + chain[i + 1:]
                src_off = index[k].get(face)
                if src_off is not None:
                    # identity unless the face drops the last element
                    rmat = sheaf.restrict(face[-1], chain[-1])
                    blocks.append((off, src_off, -1 if i % 2 else 1, rmat))
        maps.append(IntMatrix.from_blocks(groups[k + 1].generator_count, groups[k].generator_count, blocks))
    return CochainComplex(base, sheaf, groups, maps, layout)


def cohomology(base: FinitePoset, sheaf: PosetSheaf, q: int) -> PresentedAbGroup:
    """H^q of the sheaf, in canonical form.  Degrees above the poset height
    are trivial."""
    if q < 0:
        raise InputError("degree must be >= 0")
    if q > base.height:
        return PresentedAbGroup.trivial()
    return cochain_complex(base, sheaf).homology(q).group


def stalkwise_chain_map(
    source: CochainComplex, target: CochainComplex, components: Mapping[str, IntMatrix]
) -> List[IntMatrix]:
    """Per degree of source, the map C^k(source) -> C^k(target) applying
    components[p] on the summand of every chain ending at p that both
    complexes list.  With identity components on a subspace W of V it is the
    projection C^k(V) -> C^k(W) keeping the chains inside W."""
    mats = []
    for k in range(len(source.groups)):
        tgt_index = {chain: off for chain, off, _ in target.chains(k)}
        blocks = [
            (tgt_index[chain], soff, 1, components[chain[-1]])
            for chain, soff, _ in source.chains(k)
            if chain in tgt_index
        ]
        mats.append(IntMatrix.from_blocks(target.degree_rank(k), source.degree_rank(k), blocks))
    return mats


def restriction_on_homology(
    source: CochainComplex, source_h: Subquotient, target: CochainComplex, target_h: Subquotient, q: int
) -> GroupHom:
    """The map H^q(V,F) -> H^q(W,F) induced by W ⊆ V, from the cochain
    complexes of F on V and on W and their degree-q homologies.  The
    projection keeping the chains inside W is checked to be a chain map."""
    f = stalkwise_chain_map(source, target, {p: target.sheaf.restrict(p, p) for p in target.base.elements})
    check_chain_map(f, source, target)
    # f lists every degree of source; above them H^q(V,F) has no generators
    return source_h.induced_map(target_h, lambda rep: f[q].apply(rep))


def restriction_induced(
    base: FinitePoset, V: OpenSet, W: OpenSet, sheaf: PosetSheaf, q: int
) -> GroupHom:
    """The map H^q(V,F) -> H^q(W,F) induced by W ⊆ V, both open."""
    if not W.members <= V.members:
        raise InputError("W must be contained in V")
    if V.parent != base or W.parent != base:
        raise InputError("open sets must live on the given poset")
    src_cx = cochain_complex(base.subposet(V.members), sheaf.restricted_to(V.members))
    tgt_cx = cochain_complex(base.subposet(W.members), sheaf.restricted_to(W.members))
    return restriction_on_homology(src_cx, src_cx.homology(q), tgt_cx, tgt_cx.homology(q), q)


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
    """The long exact cohomology sequence of 0 -> A -> B -> C -> 0 over V.

    Connecting maps are computed by the snake lemma with exact integer
    preimage solving; exactness is re-verified at every node.
    """
    if len(ses) != 2:
        raise InputError("a short exact sequence is given by two morphisms A->B and B->C")
    sub = [m.restricted_to(V.members) for m in ses]
    verdict = is_exact(sub)
    if not verdict.exact:
        raise InputError(
            f"input sequence is not exact over V (fails at {verdict.failing_element})"
        )
    fa, fb = sub
    space = base.subposet(V.members)
    cxs = [
        cochain_complex(space, fa.source),
        cochain_complex(space, fa.target),
        cochain_complex(space, fb.target),
    ]
    maxdeg = max(len(c.groups) for c in cxs)
    fmat = stalkwise_chain_map(cxs[0], cxs[1], fa.components)
    gmat = stalkwise_chain_map(cxs[1], cxs[2], fb.components)
    labels = ["A", "B", "C"]
    homs: Dict[Tuple[int, int], Subquotient] = {}
    for k in range(maxdeg):
        for pos in range(3):
            homs[(k, pos)] = cxs[pos].homology(k)

    nodes: List[LESNode] = []
    arrows: List[LESArrow] = []
    for k in range(maxdeg):
        for pos in range(3):
            nodes.append(LESNode(k, pos, f"H^{k}({labels[pos]})", homs[(k, pos)].group))

    def preimage(m: IntMatrix, target: PresentedAbGroup, y, what: str):
        """x with m @ x == y modulo the relations of the target group."""
        x = solve(m.hstack(target.relations), y)
        if x is None:
            raise ContractViolation(f"snake lemma: {what} failed")
        return x[: m.cols]

    def connecting(k: int) -> GroupHom:
        """Snake lemma: lift a C-cocycle to B, apply d_B, pull back to A."""

        def snake(c_rep):
            b_lift = preimage(gmat[k], cxs[2].group(k), c_rep, "lift through B")
            d_b = cxs[1].differential(k).apply(b_lift)
            return preimage(fmat[k + 1], cxs[1].group(k + 1), d_b, "preimage in A")

        return homs[(k, 2)].induced_map(homs[(k + 1, 0)], snake)

    for k in range(maxdeg):
        arrows.append(LESArrow(homs[(k, 0)].induced_map(homs[(k, 1)], fmat[k].apply), False))
        arrows.append(LESArrow(homs[(k, 1)].induced_map(homs[(k, 2)], gmat[k].apply), False))
        if k + 1 < maxdeg:
            arrows.append(LESArrow(connecting(k), True))

    # verify exactness at every node; the left end needs injectivity
    exact = True
    failing = None
    if arrows and not arrows[0].hom.kernel_group().is_trivial():
        exact = False
        failing = 0
    for i in range(1, len(nodes) - 1):
        if not exact:
            break
        incoming = arrows[i - 1].hom
        outgoing = arrows[i].hom if i < len(arrows) else None
        if outgoing is None:
            break
        cx = ChainComplexData(
            [incoming.source, incoming.target, outgoing.target],
            [incoming.matrix, outgoing.matrix],
        )
        if not cx.homology(1).group.is_trivial():
            exact = False
            failing = i
            break
    return LongExactSequence(nodes, arrows, exact, failing)


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
    if not base.is_closed(skel):
        raise InputError("skeleton must be a closed subset")
    complement = OpenSet(base, set(base.elements) - skel)
    Z = PresentedAbGroup.free(1)
    v_space = base.subposet(V.members)
    if not cohomology(v_space, constant_sheaf(v_space, Z), 1).is_trivial():
        return ComponentIdentityResult("hypothesis_not_met")
    F = extension_by_zero(base, complement, Z)
    lhs = cohomology(v_space, F.restricted_to(V.members), 1)
    # coker of the component-refinement matrix H^0(V) -> H^0(V ∩ skeleton)
    trace = V.members & skel
    trace_comps = base.subposet(trace).connected_components()
    v_comps = v_space.connected_components()
    entries = [[1 if d <= c else 0 for c in v_comps] for d in trace_comps]
    mat = IntMatrix(len(trace_comps), len(v_comps), entries)
    rhs = PresentedAbGroup(len(trace_comps), mat)
    status = "pass" if lhs.is_isomorphic_to(rhs) else "fail"
    return ComponentIdentityResult(status, lhs, rhs)
