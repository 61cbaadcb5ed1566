"""Deterministic rendering of experiment results.

Numbers follow three fixed rules so reruns are byte-identical:

- rationals print as exact num/den pairs plus a 12-significant-digit decimal
  rounded half-even;
- plain counts print as integers until 10^15, then as "log10=x.xxxx";
- log-space magnitudes (the headline allowances) print the same way from
  their stored logarithm.

CSV output is UTF-8 with LF line endings and one header row; the columns
are the row's keys in order (documented in the README), and the per-r
column blocks run over r = 1..r_max.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field as dc_field
from decimal import Context, Decimal, ROUND_HALF_EVEN
from fractions import Fraction
from math import exp, log10

_CTX = Context(prec=12, rounding=ROUND_HALF_EVEN)
_HIGH = Context(prec=40, rounding=ROUND_HALF_EVEN)
_BIG = 10**15


def format_rational(x) -> str:
    """12 significant digits, round half even; exact ints stay exact-looking."""
    frac = Fraction(x)
    return str(_CTX.divide(Decimal(frac.numerator), Decimal(frac.denominator)))


def format_count(n: int) -> str:
    if abs(n) > _BIG:
        return f"log10={log10(n):.4f}"
    return str(n)


def format_magnitude(lm) -> str:
    """Render a LogMagnitude: decimal when small, log10 form when huge."""
    l10 = lm.log10()
    if l10 > 15.0:
        return f"log10={l10:.4f}"
    return str(+_CTX.create_decimal(repr(exp(lm.ln))))


def error_over_sqrt_q(deviation: Fraction, q: int) -> str:
    """deviation / sqrt(q) as a 12-digit decimal, computed in high precision."""
    if deviation == 0:
        return "0"
    dev = _HIGH.divide(Decimal(deviation.numerator), Decimal(deviation.denominator))
    root = _HIGH.sqrt(Decimal(q))
    return str(+_CTX.create_decimal(_HIGH.divide(dev, root)))


@dataclass
class ExperimentReport:
    """One experiment run: a fixed-order CSV row plus summary payload."""

    row: dict
    summary_lines: list = dc_field(default_factory=list)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.row.keys())
        writer.writerow(self.row.values())
        return out.getvalue()

    def to_summary(self) -> str:
        return "\n".join(self.summary_lines) + "\n"
