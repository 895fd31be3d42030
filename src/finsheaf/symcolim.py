"""Symbolic calculus for direct limits of countable systems of abelian groups.

The finite computations only ever see truncations; the passage to the full
space is a direct limit over stages m of groups like ∏_{n>=m} Z with the
coordinate projections as transition maps.  This module represents such
systems symbolically, normalizes their colimits by a fixed list of rewrite
rules, classifies cardinalities, and assembles a certificate that combines
the machine-checked finite evidence with the symbolic limit identity.

Normalization is deliberately conservative: a term that matches no rule is
returned unreduced, never guessed at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from .errors import InputError

FINITE = "finite"
COUNTABLE = "countably_infinite"
UNCOUNTABLE = "uncountable"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Trivial:
    def render(self) -> str:
        return "0"


@dataclass(frozen=True)
class FreeFinite:
    """Z^k for a concrete finite k >= 0."""

    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise InputError("rank must be nonnegative")

    def render(self) -> str:
        return "Z" if self.rank == 1 else f"Z^{self.rank}"


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
    """An ω-indexed system m ↦ A_m with uniform transition maps.

    family:
      "prod_tail"        A_m = ∏_{n>=m} Z
      "sum_tail"         A_m = ⊕_{n>=m} Z
      "prod_head"        A_m = Z^(m-1) (an exhausting chain of finite blocks)
      "constant"         A_m = the given term for every m

    transition:
      "projection"  drop the coordinates indexed m..m'-1
      "inclusion"   include the coordinates, filling with zero
      "identity"    the identity map (only meaningful for "constant")
      "zero"        the zero map
    """

    family: str
    transition: str
    term: Optional["Term"] = None

    _FAMILIES = ("prod_tail", "sum_tail", "prod_head", "constant")
    _TRANSITIONS = ("projection", "inclusion", "identity", "zero")

    def __post_init__(self):
        if self.family not in self._FAMILIES:
            raise InputError(f"unknown family {self.family!r}")
        if self.transition not in self._TRANSITIONS:
            raise InputError(f"unknown transition {self.transition!r}")
        if self.family == "constant" and self.term is None:
            raise InputError("constant family needs a term")

    def stage(self, m: int) -> str:
        if self.family == "prod_tail":
            return f"∏_{{n>={m}}} Z"
        if self.family == "sum_tail":
            return f"⊕_{{n>={m}}} Z"
        if self.family == "prod_head":
            return f"Z^{m - 1}"
        return self.term.render()

    def render(self) -> str:
        return f"colim_m [{self.stage('m')}; {self.transition}]"


@dataclass(frozen=True)
class Colim:
    system: SymbolicDirectSystem

    def render(self) -> str:
        return self.system.render()


if TYPE_CHECKING:
    # annotation only: a runtime Union would sit in typing's cache and keep
    # these classes, and through them this module, alive after a re-import
    from typing import Union

    Term = Union[Trivial, FreeFinite, CountableProduct, CountableSum, Quotient, Colim]


def _rewrite_colim(t: Colim) -> Optional[Term]:
    s = t.system
    if s.family == "prod_tail" and s.transition == "projection":
        # colim_m ∏_{n>=m} Z along projections = (∏ Z) / (⊕ Z): a sequence
        # dies in the limit iff almost all coordinates are dropped, i.e. iff
        # it is eventually zero... but only finitely supported sequences are
        # killed by some finite stage, so the kernel of ∏ Z -> colim is ⊕ Z.
        return Quotient(CountableProduct(), CountableSum())
    if s.family == "sum_tail" and s.transition == "projection":
        # every element of ⊕_{n>=1} Z has finite support and dies at a
        # large enough stage
        return Trivial()
    if s.family == "prod_head" and s.transition == "inclusion":
        # exhausting union of the finite blocks Z^(m-1)
        return CountableSum()
    if s.family == "constant" and s.transition == "identity":
        return s.term
    if s.transition == "zero":
        return Trivial()
    return None


def normalize(t: Term) -> Term:
    """Apply the rewrite rules until a fixed point; unrecognized terms are
    returned as-is."""
    if isinstance(t, Quotient):
        num = normalize(t.numerator)
        den = normalize(t.denominator)
        if num == den:
            return Trivial()
        if isinstance(den, Trivial):
            return num
        if isinstance(num, Trivial):
            return Trivial()
        if isinstance(num, FreeFinite) and num.rank == 0:
            return Trivial()
        return Quotient(num, den)
    if isinstance(t, FreeFinite) and t.rank == 0:
        return Trivial()
    if isinstance(t, Colim):
        reduced = _rewrite_colim(t)
        if reduced is not None:
            return normalize(reduced)
        return t
    return t


def cardinality_class(t: Term) -> str:
    t = normalize(t)
    if isinstance(t, Trivial):
        return FINITE
    if isinstance(t, FreeFinite):
        return FINITE if t.rank == 0 else COUNTABLE
    if isinstance(t, CountableSum):
        return COUNTABLE
    if isinstance(t, CountableProduct):
        return UNCOUNTABLE
    if isinstance(t, Quotient):
        if t == Quotient(CountableProduct(), CountableSum()):
            # a quotient of an uncountable group by a countable subgroup
            # keeps uncountably many cosets
            return UNCOUNTABLE
        num = cardinality_class(t.numerator)
        den = cardinality_class(t.denominator)
        if num == UNCOUNTABLE and den in (FINITE, COUNTABLE):
            return UNCOUNTABLE
        if num in (FINITE, COUNTABLE):
            return num if num == FINITE else UNKNOWN
        return UNKNOWN
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

    try:
        n = int(evidence["disks"])
        stages = evidence["stages"]
        transitions = evidence["transitions"]
    except (KeyError, TypeError, ValueError):
        return refuse("evidence record is malformed")
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
        m, m2 = rec.get("m"), rec.get("m2")
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
    system = SymbolicDirectSystem("prod_tail", "projection")
    term: Term = Colim(system)
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
