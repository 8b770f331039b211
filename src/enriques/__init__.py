"""Exact arithmetic for the Enriques lattice and the component
classification of polarized moduli spaces by profile.

The lattice layer works in a fixed rank-10 basis with integer-only
arithmetic. On top of it sit a brute-force search oracle for profiles, the
closed-form coefficient parametrization with its rewrite algorithm, the
genus-by-genus component enumeration, and cross-checking suites.
"""

from .lattice import (
    D,
    NotBigError,
    NumClass,
    RANK,
    generator_e,
    generator_pair,
    gram_determinant,
    gram_matrix,
    gram_signature,
    is_positive,
    is_primitive,
    is_two_divisible,
    linear_form,
    pair,
    require_big,
    self_int,
    sequence_combination,
    standard_sequence,
)
from .oracle import (
    IsotropicSequence,
    PhiVector,
    box_isotropics,
    eight_lowest,
    enumerate_isotropics,
    order_key,
    phi_vector_oracle,
)
from .fundamental import (
    FundamentalCoefficients,
    class_from_presentation,
    coefficients_from_phivector,
    format_coefficients,
    fundamental_presentation,
    iter_coefficient_tuples,
    parse_coefficients,
    phivector_from_coefficients,
    quadratic_value,
    rewrite_to_fundamental,
)
from .components import (
    ModuliComponent,
    component_of,
    components_by_genus,
    enumerate_components,
    enumerate_components_by_phi,
    unirationality_flag,
)
from .verify import (
    SUITES,
    CheckResult,
    golden_low_phi,
    phi_profiles_by_genus,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "D",
    "FundamentalCoefficients",
    "IsotropicSequence",
    "ModuliComponent",
    "NotBigError",
    "NumClass",
    "PhiVector",
    "RANK",
    "SUITES",
    "box_isotropics",
    "class_from_presentation",
    "coefficients_from_phivector",
    "component_of",
    "components_by_genus",
    "eight_lowest",
    "enumerate_components",
    "enumerate_components_by_phi",
    "enumerate_isotropics",
    "format_coefficients",
    "fundamental_presentation",
    "generator_e",
    "generator_pair",
    "golden_low_phi",
    "gram_determinant",
    "gram_matrix",
    "gram_signature",
    "is_positive",
    "is_primitive",
    "is_two_divisible",
    "iter_coefficient_tuples",
    "linear_form",
    "order_key",
    "pair",
    "parse_coefficients",
    "phi_profiles_by_genus",
    "phi_vector_oracle",
    "phivector_from_coefficients",
    "quadratic_value",
    "rewrite_to_fundamental",
    "require_big",
    "run_suite",
    "self_int",
    "sequence_combination",
    "standard_sequence",
    "unirationality_flag",
]
