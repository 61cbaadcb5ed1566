"""Exact value-set statistics of monic polynomial families over F_q.

The package counts, with no floating-point error, the value sets of the
polynomials T^d + a_{d-1}T^{d-1} + ... + a_1 T + a_0 whose tail coefficients
satisfy polynomial constraints, together with the interpolating-set and
root-tuple incidence counts that tie the average value-set size to an exact
inclusion-exclusion identity.  A separate module evaluates explicit error
bounds for those counts, and a small CLI runs configured experiments into
CSV reports.

`import valuesets` imports no submodule.  Each name in `__all__`, and each
submodule named in `_SUBMODULES`, resolves on first use (PEP 562): the
module `__getattr__` imports its home module and keeps the value here, so
a program pays only for the modules it reads.  `valuesets.config` loads
its parser alone: `errors`, `exprs`, `families`, `ffield` and `multipoly`.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_HOMES = {
    "average_bound_applicable": "bounds",
    "average_error_bound": "bounds",
    "average_error_bound_linear": "bounds",
    "family_size_bracket": "bounds",
    "interp_count_error_bound": "bounds",
    "value_set_term_profile": "bounds",
    "ExperimentConfig": "config",
    "build_family": "config",
    "parse_config": "config",
    "DiagnosticReport": "diagnostics",
    "check_discriminant_loci": "diagnostics",
    "check_regularity": "diagnostics",
    "check_regularity_at_infinity": "diagnostics",
    "ScanResult": "engine",
    "generic_density": "engine",
    "scan_family": "engine",
    "value_set_size": "engine",
    "parse_poly_expr": "exprs",
    "FamilySpec": "families",
    "enumerate_family": "families",
    "family_cardinality": "families",
    "linear_family": "families",
    "symmetric_family": "families",
    "Field": "ffield",
    "field_new": "ffield",
    "collect": "incidence",
    "hermite_profile": "incidence",
    "MultiPoly": "multipoly",
    "UniPoly": "unipoly",
    "resultant": "unipoly",
}

# the submodules an attribute access imports, as `valuesets.engine`
_SUBMODULES = frozenset(_HOMES.values()) | {"errors", "linalg"}

__all__ = sorted(_HOMES) + ["__version__"]


def __getattr__(name):
    if name in _HOMES:
        value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)  # the import binds it here
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
