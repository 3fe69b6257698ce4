"""Weighted multilinear Hardy-Cesaro operators on Herz and Morrey-Herz spaces.

Numerical toolkit: dyadic-shell norms under homogeneous weights, operator
and commutator evaluation on radial profiles, the sharp/structural
constants of the boundedness theory, and empirical verification of the
inequalities and sharpness equalities at desk scale.
"""

from .parameters import Aggregates, ExponentSet, TheoremMode, derive_aggregates, validate
from .weights import HomogeneousWeight, product_weight, sphere_mass_unit
from .profiles import (PowerLaw, RadialProfile, SampledProfile, ScaledProfile,
                       SumProfile, TruncatedPowerLaw, extremal_herz, extremal_morrey_herz)
from .quadrature import (CurveCallback, IntegralResult, IntegralStatus, KernelSpec,
                         MinPower, PowerBeta, PowerCurve, ProductPowerBeta,
                         PsiCallback, beta_closed_form, integrate_unit_cube,
                         kernel_power_integral)
from .norms import (NormResult, NormStatus, herz_norm, morrey_herz_norm,
                    power_norm_closed, shell_norm)
from .operators import (OperatorDivergenceError, OperatorSpec, PowerSymbol,
                        apply_commutator, apply_hardy_cesaro, apply_to_profile,
                        commutator_to_profile, log2_grid)
from .constants import ConstantKind, StructuralKind, kernel_constant, structural_constant
from .verification import (HypothesisError, NormStatusError, TheoremId,
                           VerificationReport, verify_commutator, verify_herz,
                           verify_herz_upper, verify_mh_sharpness, verify_mh_upper)

__all__ = [
    "Aggregates", "ExponentSet", "TheoremMode", "derive_aggregates", "validate",
    "HomogeneousWeight", "product_weight", "sphere_mass_unit",
    "PowerLaw", "RadialProfile", "SampledProfile", "ScaledProfile", "SumProfile",
    "TruncatedPowerLaw", "extremal_herz", "extremal_morrey_herz",
    "CurveCallback", "IntegralResult", "IntegralStatus", "KernelSpec", "MinPower",
    "PowerBeta", "PowerCurve", "ProductPowerBeta", "PsiCallback",
    "beta_closed_form", "integrate_unit_cube", "kernel_power_integral",
    "NormResult", "NormStatus", "herz_norm", "morrey_herz_norm",
    "power_norm_closed", "shell_norm",
    "OperatorDivergenceError", "OperatorSpec", "PowerSymbol", "apply_commutator",
    "apply_hardy_cesaro", "apply_to_profile", "commutator_to_profile", "log2_grid",
    "ConstantKind", "StructuralKind", "kernel_constant", "structural_constant",
    "HypothesisError", "NormStatusError", "TheoremId", "VerificationReport",
    "verify_commutator", "verify_herz", "verify_herz_upper", "verify_mh_sharpness",
    "verify_mh_upper",
]

__version__ = "0.1.0"
