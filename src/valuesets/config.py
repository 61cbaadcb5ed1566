"""Sectioned key-value experiment configs.

The grammar (documented in docs/config_grammar.txt) is deliberately tiny:
`[section]` headers, `key = value` entries, `#` comments, blank lines.
Sections and keys are fixed; anything unrecognized is a ParseError with its
line number.  One table, `_KEYS`, holds each key's `ExperimentConfig`
field, its parser and its default; a key left out takes its default, and
one whose default is `_REQUIRED` must be set.  Semantic violations (q <= d,
r_max > d, ...) raise ValidationError naming the broken precondition.
Constraint expressions are parsed eagerly so syntax errors surface at
config time with positions.
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


# the default of a key every config sets
_REQUIRED = object()

# key -> (ExperimentConfig field, parser, default), read in this order, so
# a config with several faults reports the same one first on every run
_KEYS = {
    "field.p": ("p", _int, _REQUIRED),
    "field.s": ("s", _int, 1),
    "field.modulus": ("modulus", _int_list, None),
    "family.kind": ("kind", _kind, "custom"),
    "family.d": ("d", _int, _REQUIRED),
    "family.m": ("m", _int, _REQUIRED),
    "family.forms": ("forms", _expr_list, ()),
    "family.s_count": ("s_count", _int, None),
    "family.S": ("shapes", _expr_list, ()),
    "run.r_max": ("r_max", _int, None),
    "run.oracle_budget": ("oracle_budget", _int, DEFAULT_ORACLE_BUDGET),
    "run.diag_extensions": ("diag_extensions", _int_list, DEFAULT_EXTENSION_DEGREES),
    "run.workers": ("workers", _int, 1),
    "output.csv": ("csv_path", _text, None),
    "output.summary": ("summary_path", _text, None),
}

_SECTIONS = {key.partition(".")[0] for key in _KEYS}


class ExperimentConfig:
    """The settings of one run, by field name: a field left out takes its
    `_KEYS` default, and one of a required key must be given."""

    __slots__ = tuple(field for field, _, _ in _KEYS.values())

    def __init__(self, **settings):
        for field, _, default in _KEYS.values():
            value = settings.pop(field, default)
            if value is _REQUIRED:
                raise TypeError(f"ExperimentConfig needs the setting {field!r}")
            setattr(self, field, value)
        if settings:
            raise TypeError(f"ExperimentConfig has no setting {sorted(settings)[0]!r}")

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
    for key, (name, parse, default) in _KEYS.items():
        if key in raw:
            fields[name] = parse(*raw[key], key)
        elif default is _REQUIRED:
            raise ValidationError(f"missing required key {key}")
    config = ExperimentConfig(**fields)
    validate_config(config)
    build_family(config)  # expression and family errors surface here
    return config


def validate_config(config: ExperimentConfig) -> None:
    """The range checks; `parse_config` builds the family after them."""
    if config.s < 1:
        raise ValidationError(f"s >= 1 required (s={config.s})")
    # every family walk covers at least the q^(d-1-m) points of its free
    # coordinates, and `islice` indexes a walk by a machine int; the bit
    # lengths decide before any power is formed that could be too large
    free = config.d - 1 - config.m
    if free >= 1 and (
        (config.p.bit_length() - 1) * config.s * free >= sys.maxsize.bit_length()
        or config.p ** (config.s * free) > sys.maxsize
    ):
        raise ValidationError(
            f"q^(d-1-m) <= sys.maxsize = {sys.maxsize} required, the least walk "
            f"(p={shown(str(config.p))}, s={shown(str(config.s))}, "
            f"d-1-m={shown(str(free))})"
        )
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
    if symmetric and not config.m <= config.s_count <= config.d - config.m - 4:
        raise ValidationError(
            f"{_key_of('s_count')} must satisfy m <= s_count <= d-m-4 "
            f"(m={config.m}, s_count={shown(str(config.s_count))}, d={config.d})"
        )
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
