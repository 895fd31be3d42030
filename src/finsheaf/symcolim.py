"""The direct limit that carries the gap to the infinite wedge, and the
certificate built on it.

The finite computations only ever see truncations; the passage to the full
space is the direct limit over stages m of the corner groups ∏_{n>=m} Z
with the coordinate projections as transition maps.  That is the one
system this module holds.  Its colimit normalizes to (∏ Z)/(⊕ Z), which is
uncountable (Specker 1950), and the certificate combines the
machine-checked finite evidence with that limit identity.

Classification is deliberately conservative: a term whose cardinality does
not follow from the rules here is `unknown`, never guessed at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from .errors import InputError

COUNTABLE = "countably_infinite"
UNCOUNTABLE = "uncountable"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class CountableProduct:
    """∏_{n>=1} Z, the Baer–Specker group."""

    def render(self) -> str:
        return "∏_n Z"


@dataclass(frozen=True)
class CountableSum:
    """⊕_{n>=1} Z, free of countable rank."""

    def render(self) -> str:
        return "⊕_n Z"


@dataclass(frozen=True)
class Quotient:
    numerator: "Term"
    denominator: "Term"

    def render(self) -> str:
        return f"({self.numerator.render()}) / ({self.denominator.render()})"


@dataclass(frozen=True)
class SymbolicDirectSystem:
    """The ω-indexed system m ↦ ∏_{n>=m} Z (family "prod_tail") whose
    transitions m -> m' drop the coordinates m..m'-1 (transition
    "projection"): the stage corner groups of the infinite wedge.  No other
    family or transition is accepted."""

    family: str
    transition: str

    def __post_init__(self):
        if (self.family, self.transition) != ("prod_tail", "projection"):
            raise InputError(f"unknown direct system {self.family!r} along {self.transition!r}")


@dataclass(frozen=True)
class Colim:
    system: SymbolicDirectSystem

    def render(self) -> str:
        return "colim_m [∏_{n>=m} Z; projection]"


if TYPE_CHECKING:
    # annotation only: a runtime Union would sit in typing's cache and keep
    # these classes, and through them this module, alive after a re-import
    from typing import Union

    Term = Union[CountableProduct, CountableSum, Quotient, Colim]


def normalize(t: Term) -> Term:
    """The colimit of the stage system rewritten as (∏ Z) / (⊕ Z); any other
    term is returned as it is."""
    if isinstance(t, Colim):
        # colim_m ∏_{n>=m} Z along projections: a sequence dies in the limit
        # iff some finite stage drops all its nonzero coordinates, i.e. iff
        # it is finitely supported, so the kernel of ∏ Z -> colim is ⊕ Z.
        return Quotient(CountableProduct(), CountableSum())
    return t


def cardinality_class(t: Term) -> str:
    t = normalize(t)
    if isinstance(t, CountableSum):
        return COUNTABLE
    if isinstance(t, CountableProduct):
        return UNCOUNTABLE
    if isinstance(t, Quotient):
        # a quotient of an uncountable group by a countable subgroup keeps
        # uncountably many cosets; no other quotient is classified
        if cardinality_class(t.numerator) == UNCOUNTABLE and cardinality_class(t.denominator) == COUNTABLE:
            return UNCOUNTABLE
    return UNKNOWN


@dataclass
class Certificate:
    """Verdict tying the finite evidence to the symbolic limit."""

    ok: bool
    verdict: str
    limit_term: Optional[Term]
    limit_cardinality: Optional[str]
    caveats: List[str]
    transcript: List[str]
    evidence: dict

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "verdict": self.verdict,
            "limit": self.limit_term.render() if self.limit_term else None,
            "limit_cardinality": self.limit_cardinality,
            "caveats": self.caveats,
            "transcript": self.transcript,
            "evidence": self.evidence,
        }


def _well_formed(evidence) -> bool:
    """Whether the evidence has the shape `StageEvidence.to_dict` gives: an
    integer number of disks, stage records keyed by stage, and transition
    records naming their integer stages m and m2."""
    if not isinstance(evidence, dict):
        return False
    n, stages, transitions = (evidence.get(key) for key in ("disks", "stages", "transitions"))
    return (
        type(n) is int
        and isinstance(stages, dict)
        and all(isinstance(rec, dict) for rec in stages.values())
        and isinstance(transitions, list)
        and all(isinstance(rec, dict) and type(rec.get("m")) is int and type(rec.get("m2")) is int for rec in transitions)
    )


def certify_theorem(evidence: dict) -> Certificate:
    """Check the finite stage evidence and, if it has the expected shape,
    conclude the symbolic limit identity for the untruncated system.

    `evidence` is the dictionary produced by the stage pipeline: number of
    disks, stage group canonical forms, and transition verification records.
    Refuses (ok=False) on any mismatch rather than guessing.
    """
    transcript: List[str] = []
    caveats: List[str] = []

    def refuse(msg: str) -> Certificate:
        transcript.append(f"REFUSED: {msg}")
        return Certificate(False, "refused", None, None, caveats, transcript, evidence)

    if not _well_formed(evidence):
        return refuse("evidence record is malformed")
    n, stages, transitions = evidence["disks"], evidence["stages"], evidence["transitions"]
    if n < 1:
        return refuse("need at least one disk of evidence")

    transcript.append(f"finite model with N={n} disks; expecting stage groups Z^(N-m+1)")
    for m in range(1, n + 2):
        rec = stages.get(str(m))
        if rec is None:
            return refuse(f"stage {m} missing from evidence")
        want = n - m + 1
        if rec.get("rank") != want or rec.get("invariant_factors"):
            return refuse(
                f"stage {m} group is Z^{rec.get('rank')}"
                f"{' with torsion' if rec.get('invariant_factors') else ''}, expected Z^{want}"
            )
    transcript.append("all stage groups have the expected free rank and no torsion")

    seen_adjacent = set()
    for rec in transitions:
        m, m2 = rec["m"], rec["m2"]
        if not rec.get("surjective"):
            return refuse(f"transition {m}->{m2} is not surjective")
        if rec.get("kernel_rank") != m2 - m:
            return refuse(
                f"transition {m}->{m2} has kernel rank {rec.get('kernel_rank')}, expected {m2 - m}"
            )
        if "retraction_of_inclusion" in rec and not rec["retraction_of_inclusion"]:
            return refuse(f"transition {m}->{m2} does not retract the refinement inclusion")
        if m2 == m + 1:
            seen_adjacent.add(m)
    if seen_adjacent != set(range(1, n + 1)):
        return refuse("adjacent-stage transitions are not all verified")
    transcript.append(
        "all transitions are verified coordinate projections (surjective, kernel rank m'-m)"
    )
    if n == 1:
        caveats.append(
            "only a single adjacent transition was verified (N=1); the projection "
            "pattern rests on one data point"
        )

    transcript.append(
        "symbolic passage: replacing the truncated stages Z^(N-m+1) by the full "
        "stages ∏_{n>=m} Z with the same coordinate projections"
    )
    term: Term = Colim(SymbolicDirectSystem("prod_tail", "projection"))
    transcript.append(f"limit term: {term.render()}")
    reduced = normalize(term)
    transcript.append(f"normalized: {reduced.render()}")
    card = cardinality_class(reduced)
    transcript.append(f"cardinality class: {card}")
    if card != UNCOUNTABLE:
        return refuse(f"normalized limit is not uncountable (got {card})")
    transcript.append(
        "conclusion: the colimit of the stage corner groups is (∏ Z)/(⊕ Z), "
        "an uncountable group; the corner term cannot vanish in the limit"
    )
    return Certificate(True, "uncountable", reduced, card, caveats, transcript, evidence)
