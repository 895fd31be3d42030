"""The wedge-of-disks family: finite truncations X_N of the infinite wedge,
the rank-one sheaf extended by zero from the union of open 2-cells, the
canonical covering, the five-condition covering validator, and the stage
system of Čech corner groups feeding the symbolic direct-limit certificate.

Labels: origin "x"; for disk n the 0-cell "vn", the 1-cells "an"/"bn", and
the 2-cell "fn".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .abgroup import GroupHom, IntMatrix, PresentedAbGroup, kernel_basis, solve
from .cech import CechComplex, Covering, _Coefficients, refinement_map
from .cohom import CochainComplex
from .errors import ContractViolation, InputError
from .finspace import FinitePoset, OpenSet, RegularCWData, face_poset
from .sheaf import PosetSheaf, SheafMorphism, closed_pushforward, constant_sheaf, extension_by_zero


@dataclass
class WedgeSpace:
    n: int
    poset: FinitePoset
    skeleton: frozenset  # the 1-skeleton: x, v_n, a_n, b_n
    open_u: frozenset  # union of the open 2-cells: the f_n

    def zero_cells(self) -> List[str]:
        return ["x"] + [f"v{k}" for k in range(1, self.n + 1)]


def wedge_cw_data(n: int) -> RegularCWData:
    """Cell list of the truncated wedge: 0-cells x and v_k, 1-cell pairs
    a_k/b_k joining them, 2-cells f_k attached along x, v_k, a_k, b_k."""
    cells = [("x", 0, [])]
    for k in range(1, n + 1):
        cells.append((f"v{k}", 0, []))
        cells.append((f"a{k}", 1, ["x", f"v{k}"]))
        cells.append((f"b{k}", 1, ["x", f"v{k}"]))
        cells.append((f"f{k}", 2, [f"a{k}", f"b{k}"]))
    return RegularCWData(cells)


def build_wedge(n: int) -> WedgeSpace:
    if n < 1:
        raise InputError("need at least one disk")
    poset = face_poset(wedge_cw_data(n))
    skeleton = frozenset(["x"] + [f"{t}{k}" for k in range(1, n + 1) for t in ("v", "a", "b")])
    open_u = frozenset(f"f{k}" for k in range(1, n + 1))
    w = WedgeSpace(n, poset, skeleton, open_u)
    if not poset.is_closed(w.skeleton) or not poset.is_open(w.open_u):
        raise ContractViolation("skeleton/open-cell decomposition is inconsistent")
    return w


def gap_sheaf(w: WedgeSpace) -> PosetSheaf:
    """Rank-one stalks exactly on the open 2-cells, zero elsewhere."""
    return extension_by_zero(w.poset, OpenSet(w.poset, w.open_u), PresentedAbGroup.free(1))


def skeleton_sheaf(w: WedgeSpace) -> PosetSheaf:
    """The constant rank-one sheaf on the 1-skeleton, pushed forward."""
    return closed_pushforward(w.poset, w.skeleton, PresentedAbGroup.free(1))


def structure_sequence(w: WedgeSpace) -> List[SheafMorphism]:
    """The short exact sequence 0 -> F -> Z_X -> Z_{X^1} -> 0."""
    F = gap_sheaf(w)
    ZX = constant_sheaf(w.poset, PresentedAbGroup.free(1))
    ZX1 = skeleton_sheaf(w)
    comp_a = {}
    for e in w.poset.elements:
        if e in w.open_u:
            comp_a[e] = IntMatrix.identity(1)
        else:
            comp_a[e] = IntMatrix.zero(1, 0)
    comp_b = {}
    for e in w.poset.elements:
        rows = ZX1.stalks[e].generator_count
        comp_b[e] = IntMatrix(rows, 1, [[1]] * rows)
    return [SheafMorphism(F, ZX, comp_a), SheafMorphism(ZX, ZX1, comp_b)]


def canonical_covering(w: WedgeSpace) -> Covering:
    """The stage-1 covering: U_0 = complement of the 0-cells v_k; U_k =
    closed disk k minus x."""
    return stage_covering(w, 1)


@dataclass
class ConditionVerdict:
    condition: str
    ok: bool
    detail: str = ""


@dataclass
class FiveConditionReport:
    verdicts: List[ConditionVerdict]

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def failed(self) -> List[str]:
        return [v.condition for v in self.verdicts if not v.ok]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "conditions": [
                {"condition": v.condition, "ok": v.ok, "detail": v.detail} for v in self.verdicts
            ],
        }


def _acyclic_connected(base: FinitePoset, subsets: List[frozenset]) -> List[bool]:
    """Whether the order complex of each nonempty subset has the cohomology
    of a point (the computable proxy for CW-contractibility used by
    condition (i)).  A subset's core (`FinitePoset.core`) has a
    homotopy-equivalent order complex (Stong 1966, McCord 1966), so a
    one-point core settles it with no algebra; every other core is read
    from one constant-Z sheaf of the whole space, on the chains inside the
    core, built only if some core is not a point."""
    cores = [base.core(members) for members in subsets]
    if all(len(core) == 1 for core in cores):
        return [True] * len(cores)
    Z = constant_sheaf(base, PresentedAbGroup.free(1))

    def acyclic(core):
        cx = CochainComplex(Z, core)
        return cx.homology(0).group.canonical == (1, ()) and all(
            cx.homology(q).group.is_trivial() for q in range(1, len(cx.groups))
        )

    return [len(core) == 1 or acyclic(core) for core in cores]


def validate_five_conditions(w: WedgeSpace, c: Covering) -> FiveConditionReport:
    """The finite-model translation of the five cofinality conditions used in
    the uncountability proof."""
    if c.base != w.poset:
        raise InputError("covering does not live on the wedge space")
    verdicts: List[ConditionVerdict] = []

    # (i) each member and its skeleton trace, if nonempty, acyclic and connected
    subsets = [
        (label, subset)
        for name in c.order
        for label, subset in ((name, c.members[name]), (f"{name} ∩ skeleton", c.members[name] & w.skeleton))
        if subset
    ]
    oks = _acyclic_connected(w.poset, [subset for _, subset in subsets])
    bad = [label for (label, _), ok in zip(subsets, oks) if not ok]
    verdicts.append(
        ConditionVerdict("i", not bad, "; ".join(f"{b} not acyclic+connected" for b in bad))
    )

    # (ii) each 0-cell in precisely one member
    bad = []
    for cell in w.zero_cells():
        owners = [name for name in c.order if cell in c.members[name]]
        if len(owners) != 1:
            bad.append(f"{cell} in {len(owners)} members")
    verdicts.append(ConditionVerdict("ii", not bad, "; ".join(bad)))

    # (iii) a member containing v_k lies inside the punctured closed disk k
    bad = []
    for k in range(1, w.n + 1):
        allowed = {f"v{k}", f"a{k}", f"b{k}", f"f{k}"}
        for name in c.order:
            if f"v{k}" in c.members[name] and not c.members[name] <= allowed:
                bad.append(f"member {name} containing v{k} exceeds disk {k}")
    verdicts.append(ConditionVerdict("iii", not bad, "; ".join(bad)))

    # (iv) indices: x in the first member, v_k in the k-th
    bad = []
    if "x" not in c.members[c.order[0]]:
        bad.append("x not in the first member")
    for k in range(1, w.n + 1):
        if k >= len(c.order) or f"v{k}" not in c.members[c.order[k]]:
            bad.append(f"v{k} not in member #{k}")
    verdicts.append(ConditionVerdict("iv", not bad, "; ".join(bad)))

    # (v) a punctured disk covered by the first and k-th member meets no other
    bad = []
    first = c.members[c.order[0]]
    for k in range(1, w.n + 1):
        punctured = {f"v{k}", f"a{k}", f"b{k}", f"f{k}"}
        kth = c.members[c.order[k]] if k < len(c.order) else frozenset()
        if punctured <= (first | kth):
            for j, name in enumerate(c.order):
                if j in (0, k):
                    continue
                if c.members[name] & punctured:
                    bad.append(f"member {name} meets disk {k}")
    verdicts.append(ConditionVerdict("v", not bad, "; ".join(bad)))

    return FiveConditionReport(verdicts)


def stage_covering(w: WedgeSpace, m: int) -> Covering:
    """Stage-m covering: the canonical covering with disks k < m absorbed.

    Each absorbed disk k gets the single member D_k = the smallest open set
    containing its closed 2-cell; the pair coordinate of disk k disappears
    from the degree-one Čech group.  Stage 1 is the canonical covering.
    """
    if not (1 <= m <= w.n + 1):
        raise InputError(f"stage must lie in 1..{w.n + 1}")
    all_abf = {f"{t}{k}" for k in range(1, w.n + 1) for t in ("a", "b", "f")}
    members: Dict[str, set] = {
        "U0": set(w.poset.elements) - {f"v{k}" for k in range(1, w.n + 1)}
    }
    order = ["U0"]
    for k in range(1, m):
        members[f"D{k}"] = {"x", f"v{k}"} | all_abf
        order.append(f"D{k}")
    for k in range(m, w.n + 1):
        members[f"U{k}"] = {f"v{k}", f"a{k}", f"b{k}", f"f{k}"}
        order.append(f"U{k}")
    return Covering(w.poset, members, order)


def _stage_readout(w: WedgeSpace, m: int, cx: CechComplex) -> Tuple[PresentedAbGroup, IntMatrix, IntMatrix]:
    """(group, readout, readback) for the stage-m corner group.

    `readout` maps canonical generators of Ȟ¹ to the live disk coordinates
    (the summands at the pairs (U0, U_k), k >= m); `readback` is its exact
    inverse.  Well-defined because the degree-zero Čech term vanishes for
    stage coverings.
    """
    if not cx.groups[0].is_trivial():
        raise ContractViolation("stage covering has nonvanishing degree-zero term")
    h = cx.homology(1)
    group = h.group
    live = [("U0", f"U{k}") for k in range(m, w.n + 1)]
    rows = []
    for pair in live:
        summand = cx.summand(1, pair)
        if summand is None or summand[2].canonical != (1, ()):
            raise ContractViolation(f"live block {pair} is not infinite cyclic")
        rows.append(summand[1])
    # column k: the live coordinates of the representative cycle of generator k
    readout = h.reps.submatrix_rows(rows)
    if readout.rows != readout.cols:
        raise ContractViolation("corner group rank does not match the live disk count")
    # a square integer matrix with an integer right inverse is unimodular
    identity = IntMatrix.identity(readout.rows)
    readback = solve(readout, identity)
    if readback is None:
        raise ContractViolation("readout to disk coordinates is not an isomorphism over Z")
    if not (readout @ readback == identity):
        raise ContractViolation("failed to invert the readout matrix")
    return group, readout, readback


@dataclass
class StageSystem:
    """Corner groups Ȟ¹(stage m, H¹(F)) for m = 1..N+1, the stage Čech
    complexes they are read from, and the projection transitions that mirror
    the infinite-space direct system.

    In the finite truncation the refinement arrows between stage coverings
    run opposite to the infinite space (every open set around the origin
    already contains all punctured disks), so refinement induces the
    coordinate inclusions; the recorded transitions are their exact
    retractions, the coordinate projections, verified as such.
    """

    n: int
    complexes: Dict[int, CechComplex]
    groups: Dict[int, PresentedAbGroup]
    readouts: Dict[int, IntMatrix]
    readbacks: Dict[int, IntMatrix]

    def _check_stages(self, m: int, m2: int) -> None:
        if not (1 <= m <= m2 <= self.n + 1):
            raise InputError("need 1 <= m <= m' <= N+1")

    def transition(self, m: int, m2: int) -> GroupHom:
        self._check_stages(m, m2)
        src, tgt = self.groups[m], self.groups[m2]
        # drop the coordinates of disks m..m'-1
        proj = IntMatrix.from_blocks(
            tgt.generator_count, src.generator_count, [(0, m2 - m, 1, IntMatrix.identity(tgt.generator_count))]
        )
        return GroupHom(src, tgt, self.readbacks[m2] @ proj @ self.readouts[m])

    def inclusion(self, m: int, m2: int) -> GroupHom:
        """The refinement-induced map Ȟ¹(stage m') -> Ȟ¹(stage m) for m <= m'
        (the stage-m covering refines the stage-m' covering): a live disk
        k < m' goes into the absorbed member D_k."""
        self._check_stages(m, m2)
        fine_cx, coarse_cx = self.complexes[m], self.complexes[m2]
        coarse = coarse_cx.covering.members
        assignment = {name: name if name in coarse else f"D{name[1:]}" for name in fine_cx.covering.order}
        return refinement_map(fine_cx, coarse_cx, assignment, 1)


def stage_system(w: WedgeSpace, coefficients: _Coefficients) -> StageSystem:
    """The stage Čech complexes with coefficients H¹(-, F), up to degree 2,
    all read from the given coefficient table of the gap sheaf F, and their
    readouts.  A table whose sheaf is not on w's poset, with stalk Z exactly
    on the open 2-cells and 0 elsewhere, is refused (the stalks fix F up to
    sign: the 2-cells are maximal and pairwise incomparable).  The latest
    stage, whose nerve is the largest, is built first, so a wedge over the
    nerve budget is refused before any stage is built."""
    sheaf = coefficients.sheaf
    if sheaf.base != w.poset or any(
        sheaf.stalks[e].canonical != ((1, ()) if e in w.open_u else (0, ())) for e in w.poset.elements
    ):
        raise InputError("the coefficient table is not of the gap sheaf of this wedge")
    complexes = {m: CechComplex(stage_covering(w, m), coefficients, 1, 2) for m in range(w.n + 1, 0, -1)}
    groups: Dict[int, PresentedAbGroup] = {}
    readouts: Dict[int, IntMatrix] = {}
    readbacks: Dict[int, IntMatrix] = {}
    for m in range(1, w.n + 2):
        groups[m], readouts[m], readbacks[m] = _stage_readout(w, m, complexes[m])
    return StageSystem(w.n, complexes, groups, readouts, readbacks)


@dataclass
class StageEvidence:
    """The machine-checked finite facts handed to the symbolic certificate."""

    n: int
    stage_forms: Dict[int, tuple]  # m -> canonical form of the corner group
    transitions: List[dict]  # m, m2, surjective, kernel_rank, retraction_of_inclusion

    def to_dict(self) -> dict:
        return {
            "disks": self.n,
            "stages": {str(m): {"rank": f[0], "invariant_factors": list(f[1])} for m, f in self.stage_forms.items()},
            "transitions": self.transitions,
        }


def collect_stage_evidence(system: StageSystem) -> StageEvidence:
    """Record what the certificate may rely on from a built stage system:
    each stage's Čech complex serves both its readout and every refinement
    map it takes part in."""
    n = system.n
    forms = {m: system.groups[m].canonical for m in range(1, n + 2)}
    transitions = []
    pairs = [(m, m + 1) for m in range(1, n + 1)]
    pairs += [(1, n + 1)] if n >= 1 else []
    for m, m2 in pairs:
        t = system.transition(m, m2)
        krank = kernel_basis(t.matrix).cols
        roundtrip = t.compose(system.inclusion(m, m2))
        transitions.append(
            {
                "m": m,
                "m2": m2,
                "surjective": t.is_surjective(),
                "kernel_rank": krank,
                "retraction_of_inclusion": roundtrip.equals_as_hom(GroupHom.identity(system.groups[m2])),
            }
        )
    # transitions compose
    if n >= 2:
        direct = system.transition(1, 3)
        chained = system.transition(2, 3).compose(system.transition(1, 2))
        if not direct.equals_as_hom(chained):
            raise ContractViolation("stage transitions do not compose")
    return StageEvidence(n, forms, transitions)
