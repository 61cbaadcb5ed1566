"""Exact value-set statistics of monic polynomial families over F_q.

The package counts, with no floating-point error, the value sets of the
polynomials T^d + a_{d-1}T^{d-1} + ... + a_1 T + a_0 whose tail coefficients
satisfy polynomial constraints, together with the interpolating-set and
root-tuple incidence counts that tie the average value-set size to an exact
inclusion-exclusion identity.  A separate module evaluates explicit error
bounds for those counts, and a small CLI runs configured experiments into
CSV reports.
"""

from .bounds import (
    average_bound_applicable,
    average_error_bound,
    average_error_bound_linear,
    family_size_bracket,
    interp_count_error_bound,
    value_set_term_profile,
)
from .config import ExperimentConfig, build_family, parse_config
from .diagnostics import (
    DiagnosticReport,
    check_discriminant_loci,
    check_regularity,
    check_regularity_at_infinity,
)
from .engine import ScanResult, generic_density, scan_family, value_set_size
from .exprs import parse_poly_expr, poly_to_expr
from .families import (
    FamilySpec,
    enumerate_family,
    family_cardinality,
    linear_family,
    symmetric_family,
)
from .ffield import Field, field_new
from .incidence import collect, hermite_profile
from .multipoly import MultiPoly
from .unipoly import UniPoly, discriminant, resultant

__version__ = "0.1.0"

__all__ = [
    "DiagnosticReport",
    "ExperimentConfig",
    "FamilySpec",
    "Field",
    "MultiPoly",
    "ScanResult",
    "UniPoly",
    "average_bound_applicable",
    "average_error_bound",
    "average_error_bound_linear",
    "build_family",
    "check_discriminant_loci",
    "check_regularity",
    "check_regularity_at_infinity",
    "collect",
    "discriminant",
    "enumerate_family",
    "family_cardinality",
    "family_size_bracket",
    "field_new",
    "generic_density",
    "hermite_profile",
    "interp_count_error_bound",
    "linear_family",
    "parse_config",
    "parse_poly_expr",
    "poly_to_expr",
    "resultant",
    "scan_family",
    "symmetric_family",
    "value_set_size",
    "value_set_term_profile",
    "__version__",
]
