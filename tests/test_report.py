from fractions import Fraction

from valuesets.bounds import LogMagnitude
from valuesets.report import (
    ExperimentReport,
    error_over_sqrt_q,
    format_count,
    format_magnitude,
    format_rational,
)


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


def test_magnitude_rendering():
    small = LogMagnitude.from_int(1000)
    assert float(format_magnitude(small)) == 1000.0
    import math

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
