"""Exact sheaf and Čech cohomology on finite topological spaces.

Finite T0 spaces are posets under the specialization order; open means
up-set throughout.  All linear algebra is over Z via Smith normal form —
no floats anywhere.  The flagship construction is a truncated wedge of
disks on which Čech cohomology of the canonical covering provably differs
from sheaf cohomology, together with a symbolic direct-limit certificate
for the infinite statement.
"""

from .abgroup import (
    GroupHom,
    IntMatrix,
    PresentedAbGroup,
    SmithDecomposition,
    direct_sum,
    kernel_basis,
    smith_decompose,
    solve,
)
from .cech import (
    Covering,
    cech_cohomology,
    cech_cohomology_hq,
    cech_complex_hq,
    covering_comparison_report,
    nerve,
    refinement_map,
)
from .cohom import (
    LongExactSequence,
    cochain_complex,
    cohomology,
    les_of_short_exact,
    component_identity_check,
    restriction_induced,
)
from .errors import ContractViolation, InputError
from .finspace import FinitePoset, OpenSet, RegularCWData, face_poset
from .sheaf import (
    PosetSheaf,
    SheafMorphism,
    closed_pushforward,
    cokernel_sheaf,
    constant_sheaf,
    extension_by_zero,
    is_exact,
    kernel_sheaf,
    zero_sheaf,
)
from .symcolim import (
    Colim,
    CountableProduct,
    CountableSum,
    Quotient,
    SymbolicDirectSystem,
    cardinality_class,
    certify_theorem,
    normalize,
)
from .wedge import (
    StageSystem,
    WedgeSpace,
    build_wedge,
    canonical_covering,
    collect_stage_evidence,
    gap_sheaf,
    skeleton_sheaf,
    stage_covering,
    stage_system,
    structure_sequence,
    validate_five_conditions,
)

__version__ = "0.1.0"
