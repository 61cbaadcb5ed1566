"""Sectioned key-value experiment configs.

The grammar (documented in docs/config_grammar.txt) is deliberately tiny:
`[section]` headers, `key = value` entries, `#` comments, blank lines.
Sections and keys are fixed; anything unrecognized is a ParseError with its
line number.  One table, `_KEYS`, holds each key's `ExperimentConfig`
field, its parser and whether it is required; a key left out takes the
field's default.  Semantic violations (q <= d, r_max > d, ...) raise
ValidationError naming the broken precondition.  Constraint expressions are
parsed eagerly so syntax errors surface at config time with positions.
"""

from __future__ import annotations

import re
import sys

from .errors import ParseError, ValidationError, shown
from .exprs import (
    coeff_variables,
    parse_poly_expr,
    symmetric_variables,
)
from .families import FamilySpec, linear_family, symmetric_family
from .ffield import field_new

_KINDS = ("linear", "symmetric", "custom")

# Work ceiling for the oracles; an oracle priced above it is skipped.
DEFAULT_ORACLE_BUDGET = 5_000_000

# Extension degrees k checked when a run names none: F_q and F_(q^2).
DEFAULT_EXTENSION_DEGREES = (1, 2)

# Candidate-point ceiling for the diagnostics' extension scans; Q^(d-1)
# above this skips k.
POINT_BUDGET = 300_000


class ExperimentConfig:
    """The settings of one run; `_KEYS` maps each config key to its field."""

    __slots__ = (
        "p", "s", "modulus", "kind", "d", "m", "forms", "s_count", "shapes", "r_max",
        "oracle_budget", "diag_extensions", "workers", "csv_path", "summary_path",
    )

    def __init__(self, p, s=1, modulus=None, kind="custom", d=0, m=0, forms=(),
                 s_count=None, shapes=(), r_max=None, oracle_budget=DEFAULT_ORACLE_BUDGET,
                 diag_extensions=DEFAULT_EXTENSION_DEGREES, workers=1, csv_path=None,
                 summary_path=None):
        self.p = p
        self.s = s
        self.modulus = modulus
        self.kind = kind
        self.d = d
        self.m = m
        self.forms = forms
        self.s_count = s_count
        self.shapes = shapes
        self.r_max = r_max
        self.oracle_budget = oracle_budget
        self.diag_extensions = diag_extensions
        self.workers = workers
        self.csv_path = csv_path
        self.summary_path = summary_path

    @property
    def q(self) -> int:
        return self.p**self.s

    @property
    def effective_r_max(self) -> int:
        return self.d if self.r_max is None else self.r_max

    @property
    def exprs(self) -> tuple:
        """The constraint expressions: the shapes of a symmetric family,
        the forms of any other."""
        return self.shapes if self.kind == "symmetric" else self.forms

    def family_id(self) -> str:
        tag = "&".join(e.replace(" ", "") for e in self.exprs)
        return f"{self.kind}-d{self.d}-m{self.m}-{tag}"


# a decimal literal as `int(text, 0)` reads it; one it refuses is too long
_DECIMAL = re.compile(r"[+-]?(0(_?0)*|[1-9](_?[0-9])*)")


def _int(value, line, key):
    try:
        return int(value, 0)
    except ValueError:
        if _DECIMAL.fullmatch(value):
            digits = sum(ch.isdigit() for ch in value)
            raise ParseError(
                f"key {key} expects an integer of at most {sys.get_int_max_str_digits()} "
                f"digits, got {digits} digits starting {value[:12]!r}",
                line=line,
            )
        raise ParseError(f"key {key} expects an integer, got {shown(value)!r}", line=line)


def _int_list(value, line, key):
    return tuple(_int(part.strip(), line, key) for part in value.split(",") if part.strip())


def _expr_list(value, line, key):
    return tuple(part.strip() for part in value.split(";") if part.strip())


def _text(value, line, key):
    return value


def _kind(value, line, key):
    if value not in _KINDS:
        raise ValidationError(f"unknown family kind {shown(value)!r}, expected one of {_KINDS}")
    return value


# key -> (ExperimentConfig field, parser, required), read in this order, so
# a config with several faults reports the same one first on every run
_KEYS = {
    "field.p": ("p", _int, True),
    "field.s": ("s", _int, False),
    "field.modulus": ("modulus", _int_list, False),
    "family.kind": ("kind", _kind, False),
    "family.d": ("d", _int, True),
    "family.m": ("m", _int, True),
    "family.forms": ("forms", _expr_list, False),
    "family.s_count": ("s_count", _int, False),
    "family.S": ("shapes", _expr_list, False),
    "run.r_max": ("r_max", _int, False),
    "run.oracle_budget": ("oracle_budget", _int, False),
    "run.diag_extensions": ("diag_extensions", _int_list, False),
    "run.workers": ("workers", _int, False),
    "output.csv": ("csv_path", _text, False),
    "output.summary": ("summary_path", _text, False),
}

_SECTIONS = {key.partition(".")[0] for key in _KEYS}


def _key_of(name):
    """The config key that sets the field `name`."""
    return next(key for key, (field, _, _) in _KEYS.items() if field == name)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config; defaults applied, family built eagerly."""
    raw: dict = {}  # key -> (value, line number)
    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", line=lineno)
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ParseError(f"unknown section [{shown(section)}]", line=lineno)
            continue
        if "=" not in line:
            raise ParseError("expected key = value", line=lineno)
        if section is None:
            raise ParseError("key outside any [section]", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        full = f"{section}.{key}"
        if full not in _KEYS:
            raise ParseError(f"unknown key {shown(key)} in [{section}]", line=lineno)
        if full in raw:
            raise ParseError(f"duplicate key {full}", line=lineno)
        raw[full] = (value.strip(), lineno)

    fields = {}
    for key, (name, parse, required) in _KEYS.items():
        if key in raw:
            fields[name] = parse(*raw[key], key)
        elif required:
            raise ValidationError(f"missing required key {key}")
    config = ExperimentConfig(**fields)
    validate_config(config)
    build_family(config)  # expression and family errors surface here
    return config


def validate_config(config: ExperimentConfig) -> None:
    """The range checks; `parse_config` builds the family after them."""
    if config.s < 1:
        raise ValidationError(f"s >= 1 required (s={config.s})")
    if config.q <= config.d:
        raise ValidationError(f"q > d required (q={config.q}, d={config.d})")
    if config.d < config.m + 2:
        raise ValidationError(f"d >= m+2 required (d={config.d}, m={config.m})")
    r_max = config.effective_r_max
    if not 1 <= r_max <= config.d:
        raise ValidationError(f"1 <= r_max <= d required (r_max={r_max}, d={config.d})")
    if config.modulus is not None:
        # checked at every s, though only s > 1 reads it; a monic linear
        # modulus is irreducible, and `field_new` tests the others
        key = _key_of("modulus")
        if len(config.modulus) != config.s + 1:
            raise ValidationError(
                f"{key} has {len(config.modulus)} coefficients, expected s+1 = {config.s + 1}"
            )
        if config.modulus[-1] % config.p != 1:  # q > d >= r_max >= 1, so p != 0
            raise ValidationError(f"{key} must be monic")
    if config.workers < 1:
        raise ValidationError(f"workers >= 1 required (workers={config.workers})")
    if config.oracle_budget < 0:
        raise ValidationError("oracle_budget must be nonnegative")
    if not config.diag_extensions:
        raise ValidationError("diag_extensions must name at least one extension degree")
    if any(k < 1 for k in config.diag_extensions):
        raise ValidationError("diag_extensions must be positive integers")
    k_max = POINT_BUDGET.bit_length() - 1  # the largest k with 2^k <= POINT_BUDGET
    if max(config.diag_extensions) > k_max:
        raise ValidationError(
            f"diag_extensions must be at most {k_max}: F_(q^k) has at least 2^k points, "
            f"more than the diagnostic budget {POINT_BUDGET} (k={max(config.diag_extensions)})"
        )
    symmetric = config.kind == "symmetric"
    if symmetric and config.s_count is None:
        raise ValidationError(f"symmetric families require {_key_of('s_count')}")
    noun = "shapes" if symmetric else "forms"
    if not config.exprs:
        raise ValidationError(f"{config.kind} families require {_key_of(noun)}")
    if len(config.exprs) != config.m:
        raise ValidationError(
            f"m must match the number of {noun} (m={config.m}, {noun}={len(config.exprs)})"
        )


def build_family(config: ExperimentConfig) -> FamilySpec:
    """Construct the configured field and family spec."""
    field = field_new(config.p, config.s, config.modulus)
    nvars = config.d - 1
    variables = coeff_variables(config.d)
    if config.kind == "symmetric":
        shape_vars = symmetric_variables(config.s_count)
        shape_polys = [
            parse_poly_expr(text, field, config.s_count, shape_vars)
            for text in config.shapes
        ]
        return symmetric_family(field, config.d, config.m, config.s_count, shape_polys)
    polys = [parse_poly_expr(text, field, nvars, variables) for text in config.forms]
    if config.kind == "linear":
        return linear_family(field, config.d, config.m, polys)
    return FamilySpec(field, config.d, config.m, polys)
