"""Sectioned key-value experiment configs.

The grammar (documented in docs/config_grammar.txt) is deliberately tiny:
`[section]` headers, `key = value` entries, `#` comments, blank lines.
Sections and keys are fixed; anything unrecognized is a ParseError with its
line number.  Semantic violations (q <= d, r_max > d, ...) raise
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

_SECTIONS = {
    "field": {"p", "s", "modulus"},
    "family": {"kind", "d", "m", "forms", "s_count", "S"},
    "run": {"r_max", "oracle_budget", "diag_extensions", "workers"},
    "output": {"csv", "summary"},
}

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

    def family_id(self) -> str:
        exprs = self.shapes if self.kind == "symmetric" else self.forms
        tag = "&".join(e.replace(" ", "") for e in exprs)
        return f"{self.kind}-d{self.d}-m{self.m}-{tag}"


def _int(value, line, key):
    try:
        return int(value, 0)
    except ValueError:
        raise ParseError(f"key {key} expects an integer, got {value!r}", line=line)


def _int_list(value, line, key):
    return tuple(_int(part.strip(), line, key) for part in value.split(",") if part.strip())


def _expr_list(value):
    return tuple(part.strip() for part in value.split(";") if part.strip())


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config; defaults applied, family built eagerly."""
    raw: dict = {}
    lines_of: dict = {}
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
        value = value.strip()
        if key not in _SECTIONS[section]:
            raise ParseError(f"unknown key {key} in [{section}]", line=lineno)
        full = f"{section}.{key}"
        if full in raw:
            raise ParseError(f"duplicate key {full}", line=lineno)
        raw[full] = value
        lines_of[full] = lineno

    def take(full, default=None):
        return raw.pop(full, default)

    def need(full):
        if full not in raw:
            raise ValidationError(f"missing required key {full}")
        return raw.pop(full)

    p = _int(need("field.p"), lines_of.get("field.p"), "field.p")
    s = _int(take("field.s", "1"), lines_of.get("field.s"), "field.s")
    modulus = take("field.modulus")
    if modulus is not None:
        modulus = _int_list(modulus, lines_of.get("field.modulus"), "field.modulus")
    kind = take("family.kind", "custom")
    if kind not in _KINDS:
        raise ValidationError(f"unknown family kind {kind!r}, expected one of {_KINDS}")
    d = _int(need("family.d"), lines_of.get("family.d"), "family.d")
    m = _int(need("family.m"), lines_of.get("family.m"), "family.m")
    forms = _expr_list(take("family.forms", ""))
    s_count = take("family.s_count")
    if s_count is not None:
        s_count = _int(s_count, lines_of.get("family.s_count"), "family.s_count")
    shapes = _expr_list(take("family.S", ""))
    r_max = take("run.r_max")
    if r_max is not None:
        r_max = _int(r_max, lines_of.get("run.r_max"), "run.r_max")
    budget = _int(
        take("run.oracle_budget", str(DEFAULT_ORACLE_BUDGET)),
        lines_of.get("run.oracle_budget"),
        "run.oracle_budget",
    )
    diag = _int_list(
        take("run.diag_extensions", "1,2"),
        lines_of.get("run.diag_extensions"),
        "run.diag_extensions",
    )
    workers = _int(take("run.workers", "1"), lines_of.get("run.workers"), "run.workers")
    config = ExperimentConfig(
        p=p,
        s=s,
        modulus=modulus,
        kind=kind,
        d=d,
        m=m,
        forms=forms,
        s_count=s_count,
        shapes=shapes,
        r_max=r_max,
        oracle_budget=budget,
        diag_extensions=diag,
        workers=workers,
        csv_path=take("output.csv"),
        summary_path=take("output.summary"),
    )
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
    if config.kind == "symmetric":
        if config.s_count is None:
            raise ValidationError("symmetric families require family.s_count")
        if not config.shapes:
            raise ValidationError("symmetric families require family.S")
        if len(config.shapes) != config.m:
            raise ValidationError(
                f"m must match the number of shapes (m={config.m}, shapes={len(config.shapes)})"
            )
    else:
        if not config.forms:
            raise ValidationError(f"{config.kind} families require family.forms")
        if len(config.forms) != config.m:
            raise ValidationError(
                f"m must match the number of forms (m={config.m}, forms={len(config.forms)})"
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
