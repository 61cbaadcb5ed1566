"""Output checks for one `valuesets run`, all decidable from the run alone.

A run fails on a nonzero exit, on a traceback on stderr, or on a CSV row that
breaks one of the identities below.  The identities need only the row and the
family's closed-form size; none of them re-runs the computation.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction


def _int(row, key):
    value = row.get(key)
    if value is None or not value.lstrip("-").isdigit():
        raise ValueError(f"column {key} is not an exact integer: {value!r}")
    return int(value)


def check_row(row: dict, family) -> list:
    """Problems with one CSV row of `family` (an empty list means it passed).

    Uses r_max = d, so the alternating sum over S_1..S_d is the full
    inclusion-exclusion for the average value-set size.
    """
    problems = []
    try:
        for key, want in (("q", family.q), ("d", family.d), ("m", family.m)):
            if _int(row, key) != want:
                problems.append(f"{key} = {row[key]}, expected {want}")
        size = _int(row, "family_size")
        if size != family.members:
            problems.append(f"family_size = {size}, expected q^(d-1-m) = {family.members}")
        s = {r: _int(row, f"S_{r}") for r in range(1, family.d + 1)}
        if s[1] != size * family.q:
            problems.append(f"S_1 = {s[1]}, expected family_size*q = {size * family.q}")
        avg = Fraction(_int(row, "avg_value_set_num"), _int(row, "avg_value_set_den"))
        alternating = Fraction(sum((-1) ** (r - 1) * s[r] for r in s), size)
        if avg != alternating:
            problems.append(f"average {avg} != alternating S_r sum / |A| = {alternating}")
    except (ValueError, ZeroDivisionError) as exc:
        problems.append(str(exc))
    for r in range(1, family.d + 1):
        if row.get(f"gamma_identity_{r}") != "ok":
            problems.append(f"gamma_identity_{r} = {row.get(f'gamma_identity_{r}')!r}")
    return problems


def check_run(returncode: int, stderr: str, csv_text: str | None, family,
              reference: str | None = None) -> list:
    """Problems with one CLI run of `family`; `reference` is the stored CSV."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if csv_text is None:
        return problems + ["no CSV written"]
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if len(rows) != 1:
        return problems + [f"expected one CSV row, found {len(rows)}"]
    problems += check_row(rows[0], family)
    if reference is not None and csv_text != reference:
        problems.append("CSV differs from the stored reference")
    return problems
