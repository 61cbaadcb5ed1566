import math
from fractions import Fraction
from textwrap import dedent

import pytest

from valuesets.bounds import LogMagnitude, family_size_bracket, value_set_term_profile
from valuesets.cli import run_experiment
from valuesets.config import build_family, parse_config
from valuesets.diagnostics import check_regularity
from valuesets.engine import scan_family
from valuesets.ffield import field_new
from valuesets.incidence import collect
from valuesets.report import (
    ExperimentReport,
    error_over_sqrt_q,
    format_count,
    format_magnitude,
    format_rational,
)
from valuesets.unipoly import UniPoly, disc_info


def test_rational_rendering_is_12_significant_digits():
    assert format_rational(Fraction(55, 8)) == "6.875"
    assert format_rational(Fraction(861, 121)) == "7.11570247934"
    assert format_rational(Fraction(1, 3)) == "0.333333333333"
    assert format_rational(5) == "5"
    assert format_rational(Fraction(0)) == "0"


def test_rational_rendering_rounds_half_even():
    # exact ties on the 13th significant digit break toward the even digit
    assert format_rational(Fraction(1000000000005, 10**12)) == "1.00000000000"
    assert format_rational(Fraction(1000000000015, 10**12)) == "1.00000000002"


def test_count_rendering_switches_to_log_form():
    assert format_count(0) == "0"
    assert format_count(123456) == "123456"
    assert format_count(10**15) == str(10**15)
    assert format_count(10**16) == "log10=16.0000"


def test_count_rendering_takes_fractions_past_the_float_range():
    # float() overflows on these, and str() on the int past the digit limit
    assert format_count(10**5000) == "log10=5000.0000"
    assert format_count(Fraction(10**5000, 3)) == "log10=4999.5229"
    assert format_count(Fraction(1331, 2)) == "1331/2"


def test_magnitude_rendering():
    small = LogMagnitude(math.log(1000))
    assert float(format_magnitude(small)) == 1000.0
    huge = LogMagnitude(40 * math.log(10))
    assert format_magnitude(huge) == "log10=40.0000"


def test_error_over_sqrt_q():
    assert error_over_sqrt_q(Fraction(0), 11) == "0"
    # deviation sqrt(q) / q renders as 1/sqrt(q)
    import decimal

    got = decimal.Decimal(error_over_sqrt_q(Fraction(11), 121))
    assert got == decimal.Decimal("1")


def test_report_columns_and_csv_shape():
    cols = [
        "q", "p", "s", "d", "m", "family_id", "family_size",
        "avg_value_set_num", "avg_value_set_den", "avg_value_set",
        "mu_d_q_num", "mu_d_q_den", "mu_d_q",
        "deviation_num", "deviation_den", "deviation",
        "error_over_sqrt_q", "main_bound", "bound_satisfied",
        "S_1", "S_2", "gamma_identity_1", "gamma_identity_2", "diagnostics",
    ]
    assert cols[:6] == ["q", "p", "s", "d", "m", "family_id"]
    assert "S_1" in cols and "S_2" in cols and "S_3" not in cols
    assert cols[-1] == "diagnostics"
    assert cols.index("gamma_identity_1") > cols.index("S_2")
    row = {c: "x" for c in cols}
    text = ExperimentReport(row).to_csv()
    lines = text.split("\n")
    assert lines[0] == ",".join(cols)
    assert lines[1] == ",".join(["x"] * len(cols))
    assert text.endswith("\n") and "\r" not in text


def test_summary_join():
    rep = ExperimentReport({"q": "7"}, ["line one", "line two"])
    assert rep.to_summary() == "line one\nline two\n"


SMALL_Q7 = dedent(
    """\
    [field]
    p = 7

    [family]
    kind = linear
    d = 3
    m = 1
    forms = A2

    [run]
    oracle_budget = 0
    """
)


def _incidence_counts():
    spec = build_family(parse_config(SMALL_Q7))
    return collect(spec, 2, scan_family(spec))[1]


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: family_size_bracket(4, 1, (2,), 11), "upper"),
        (lambda: value_set_term_profile(6), "total"),
        (_incidence_counts, "hermite"),
        (lambda: disc_info(UniPoly(field_new(7), [1, 3, 0, 1])), "disc"),
        (lambda: check_regularity(build_family(parse_config(SMALL_Q7))), "status"),
        (lambda: run_experiment(parse_config(SMALL_Q7)), "row"),
    ],
    ids=["FamilySizeBracket", "TermProfile", "IncidenceCounts", "DiscInfo",
         "DiagnosticReport", "ExperimentReport"],
)
def test_value_records_compare_by_value_and_refuse_assignment(build, field):
    # two separate computations of one result give equal records
    first, second = build(), build()
    assert first is not second and first == second
    with pytest.raises(AttributeError):
        setattr(first, field, None)
    assert first == second
