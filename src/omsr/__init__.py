"""Oriented m-semiregular representations: construction, verification, search.

The package builds block digraphs over finite groups from connection
matrices, computes their automorphism groups exactly, certifies when the
group of symmetries collapses to the right translations, and exhausts small
parameter spaces where no such digraph exists.
"""

from .autgroup import automorphism_group, brute_force_order, is_automorphism
from .constructions import (
    FAMILIES,
    ExceptionVerdict,
    FamilyError,
    applicable_family,
    construct_omsr,
    family_matrix,
    validate_claims,
)
from .digraphs import (
    Digraph,
    is_k_regular,
    is_oriented,
    is_weakly_connected,
)
from .groups import (
    FiniteGroup,
    GeneratorSpec,
    direct_product,
    group_from_json,
    klein_four,
    load_group_file,
    make_cyclic,
    standard_two_generated,
)
from .mcayley import (
    ConnectionMatrix,
    build,
    check_prop21_hypotheses,
    connection_is_oriented,
    regular_action_group,
    right_translation,
    valency_profile,
    vertex_of,
)
from .perms import PermGroup
from .search import (
    BudgetExceeded,
    RigidSearchOutcome,
    SearchOutcome,
    SearchSpace,
    exhaustive_search,
    search_trivial_aut_digraph,
)
from .verify import VerificationReport, verify_connection

__all__ = [
    "BudgetExceeded",
    "ConnectionMatrix",
    "Digraph",
    "ExceptionVerdict",
    "FAMILIES",
    "FamilyError",
    "FiniteGroup",
    "GeneratorSpec",
    "PermGroup",
    "RigidSearchOutcome",
    "SearchOutcome",
    "SearchSpace",
    "VerificationReport",
    "applicable_family",
    "automorphism_group",
    "brute_force_order",
    "build",
    "check_prop21_hypotheses",
    "connection_is_oriented",
    "construct_omsr",
    "direct_product",
    "exhaustive_search",
    "family_matrix",
    "group_from_json",
    "is_automorphism",
    "is_k_regular",
    "is_oriented",
    "is_weakly_connected",
    "klein_four",
    "load_group_file",
    "make_cyclic",
    "regular_action_group",
    "right_translation",
    "search_trivial_aut_digraph",
    "standard_two_generated",
    "validate_claims",
    "valency_profile",
    "verify_connection",
    "vertex_of",
]

__version__ = "0.1.0"
