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

from dataclasses import dataclass

from .errors import ParseError, ValidationError
from .exprs import (
    coeff_variables,
    parse_poly_expr,
    symmetric_variables,
)
from .families import FamilySpec, linear_family, symmetric_family
from .ffield import field_new
from .incidence import DEFAULT_ORACLE_BUDGET

_KINDS = ("linear", "symmetric", "custom")


@dataclass
class ExperimentConfig:
    p: int
    s: int = 1
    modulus: tuple | None = None
    kind: str = "custom"
    d: int = 0
    m: int = 0
    forms: tuple = ()
    s_count: int | None = None
    shapes: tuple = ()
    r_max: int | None = None
    oracle_budget: int = DEFAULT_ORACLE_BUDGET
    diag_extensions: tuple = (1, 2)
    workers: int = 1
    csv_path: str | None = None
    summary_path: str | None = None

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


def _int(value, line, key):
    try:
        return int(value, 0)
    except ValueError:
        raise ParseError(f"key {key} expects an integer, got {value!r}", line=line)


def _int_list(value, line, key):
    return tuple(_int(part.strip(), line, key) for part in value.split(",") if part.strip())


def _expr_list(value, line, key):
    return tuple(part.strip() for part in value.split(";") if part.strip())


def _text(value, line, key):
    return value


def _kind(value, line, key):
    if value not in _KINDS:
        raise ValidationError(f"unknown family kind {value!r}, expected one of {_KINDS}")
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
                raise ParseError(f"unknown section [{section}]", line=lineno)
            continue
        if "=" not in line:
            raise ParseError("expected key = value", line=lineno)
        if section is None:
            raise ParseError("key outside any [section]", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        full = f"{section}.{key}"
        if full not in _KEYS:
            raise ParseError(f"unknown key {key} in [{section}]", line=lineno)
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
    return config


def validate_config(config: ExperimentConfig) -> None:
    """Range checks plus an eager family build for expression errors."""
    if config.q <= config.d:
        raise ValidationError(f"q > d required (q={config.q}, d={config.d})")
    if config.d < config.m + 2:
        raise ValidationError(f"d >= m+2 required (d={config.d}, m={config.m})")
    r_max = config.effective_r_max
    if not 1 <= r_max <= config.d:
        raise ValidationError(f"1 <= r_max <= d required (r_max={r_max}, d={config.d})")
    if config.workers < 1:
        raise ValidationError(f"workers >= 1 required (workers={config.workers})")
    if config.oracle_budget < 0:
        raise ValidationError("oracle_budget must be nonnegative")
    if not config.diag_extensions:
        raise ValidationError("diag_extensions must name at least one extension degree")
    if any(k < 1 for k in config.diag_extensions):
        raise ValidationError("diag_extensions must be positive integers")
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
    build_family(config)


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
