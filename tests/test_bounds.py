import math
from fractions import Fraction
from math import comb, factorial, isqrt

import pytest

from valuesets.bounds import (
    LogMagnitude,
    average_bound_applicable,
    average_error_bound,
    average_error_bound_linear,
    constants,
    family_size_bracket,
    interp_count_error_bound,
    point_count_error_bound,
    size_threshold_ok,
    value_set_term_profile,
)
from valuesets.errors import ParameterRange


def test_constants_worked_example():
    c = constants(4, [1], 2)
    assert (c.deg_product, c.excess_sum) == (1, 0)
    assert (c.dd_deg_product, c.dd_excess_sum) == (12, 5)
    assert (c.total_deg_product, c.total_excess_sum) == (12, 5)


def test_constants_basic():
    c = constants(5, [2, 3], 1)
    assert c.deg_product == 6 and c.excess_sum == 3
    for d in (3, 4, 5, 7):
        assert constants(d, [1], d).dd_deg_product == factorial(d)
        for r in range(1, d + 1):
            c = constants(d, [1], r)
            assert c.dd_deg_product == factorial(d) // factorial(d - r)
            assert c.dd_excess_sum == sum(d - i for i in range(1, r + 1))


def test_constants_errors():
    with pytest.raises(ParameterRange):
        constants(4, [], 1)
    with pytest.raises(ParameterRange):
        constants(4, [0], 1)
    with pytest.raises(ParameterRange):
        constants(4, [1], 0)
    with pytest.raises(ParameterRange):
        constants(4, [1], 5)


def test_point_count_error_bound_worked():
    # dimension 2, single quadric over q=25: lead coefficient vanishes,
    # leaving 14 * 1 * 4 * 25 = 1400 exactly
    assert point_count_error_bound(2, [2], 25) == 1400
    # all-ones multidegree gives a zero allowance: product 1, excess 0
    assert point_count_error_bound(2, [1, 1], 49) == 0
    assert point_count_error_bound(3, [1], 9) == 0
    with pytest.raises(ParameterRange):
        point_count_error_bound(1, [2], 25)
    with pytest.raises(ParameterRange):
        point_count_error_bound(2, [0], 25)


def test_point_count_error_bound_monotone_in_q():
    vals = [point_count_error_bound(2, [2, 3], q) for q in (9, 25, 49, 121)]
    assert vals == sorted(vals) and vals[0] < vals[-1]


def test_size_threshold_examples():
    # linear constraints: expression is 0, any q passes
    assert size_threshold_ok([1], 5)
    assert size_threshold_ok([1, 1, 1], 2)
    # one quadric: 16*(2 + 56/sqrt(q))^2, huge against q=7, tiny against 10^6
    assert not size_threshold_ok([2], 7)
    assert size_threshold_ok([2], 10**6)


def test_family_size_bracket_linear_collapses():
    for d, m, q in [(4, 1, 5), (5, 1, 11), (5, 2, 7), (6, 3, 13)]:
        br = family_size_bracket(d, m, [1] * m, q)
        assert br.exponent == d - m - 1
        assert br.lower == Fraction(q ** (d - m - 1), 2)
        assert br.upper == q ** (d - m - 1)
        assert br.threshold_ok
        inc = family_size_bracket(d, m, [1] * m, q, inclusive=True)
        assert inc.exponent == d - m
        assert inc.upper == q ** (d - m)
        assert inc.lower == Fraction(q ** (d - m), 2)


def test_family_size_bracket_general_terms():
    d, m, q = 5, 1, 49
    br = family_size_bracket(d, m, [2], q)
    lead = 2 * (1 - 2) + 2  # delta*(excess-2)+2 = 0
    want = q**3 + 2 * lead * 7 * q**2 + 28 * 1 * 4 * q**2
    assert br.upper == want
    with pytest.raises(ParameterRange):
        family_size_bracket(3, 2, [1, 1], 5)


def test_interp_count_error_bound_structure():
    # r=1 specialization: ((d*(d-3)+2)*isqrt(q) + 14*(d-1)^2*d^2 + 4) * q^(d-m-1)
    for d, q in [(3, 7), (4, 11), (5, 11)]:
        got = interp_count_error_bound(d, 1, [1], 1, q)
        want = (d * (d - 3) + 2) * isqrt(q) + 14 * (d - 1) ** 2 * d**2 + 4
        assert got == want * q ** (d - 2)
    # nonnegative across a sweep
    for d in range(3, 7):
        for m in range(1, d - 1):
            for r in range(1, d + 1):
                assert interp_count_error_bound(d, m, [2] * m, r, 11) >= 0


def test_interp_count_error_bound_monotone_in_degrees():
    a = interp_count_error_bound(5, 1, [1], 2, 11)
    b = interp_count_error_bound(5, 1, [2], 2, 11)
    c = interp_count_error_bound(5, 1, [3], 2, 11)
    assert a < b < c


def test_log_magnitude_basics():
    lm = LogMagnitude.from_int(100)
    assert lm.covers(100)
    assert lm.covers(99)
    assert lm.covers(0)
    assert not lm.covers(101)
    assert abs(lm.log10() - 2.0) < 1e-12
    with pytest.raises(ParameterRange):
        LogMagnitude.from_int(0)


def test_log_magnitude_plus():
    a, b = LogMagnitude.from_int(3), LogMagnitude.from_int(5)
    assert abs(a.plus(b).ln - math.log(8)) < 1e-12


def test_linear_bound_exact_integer_crosscheck():
    # at d=4 the transcendental factor e^(2*sqrt(4)-4) is exactly 1, so the
    # whole bound is the integer 2^4*16*sqrt(25) + 268*4^9
    lm = average_error_bound_linear(4, 25)
    exact = 2**4 * 16 * 5 + 268 * 4**9
    assert abs(lm.ln - math.log(exact)) < 1e-9
    assert lm.covers(exact - 1)


def test_main_bound_exact_integer_crosscheck():
    # same trick at d=4 with one quadric constraint
    lm = average_error_bound(4, 1, [2], 25)
    exact = 2**4 * 2 * (3 * 1 + 16) * 5 + 67 * 4 * 9 * 4**9
    assert abs(lm.ln - math.log(exact)) < 1e-9


def test_linear_equals_main_at_unit_degrees():
    for d in (3, 4, 5, 8, 12):
        for q in (11, 101, 10**6 + 3):
            lin = average_error_bound_linear(d, q)
            for m in (1, max(1, d - 2)):
                main = average_error_bound(d, m, [1] * m, q)
                assert lin.ln == main.ln, (d, q, m)


def test_average_bound_applicable():
    assert average_bound_applicable(4, 1, [1], 11)
    assert not average_bound_applicable(4, 1, [1], 4)  # q > d fails
    assert not average_bound_applicable(4, 1, [2], 7)  # threshold fails
    with pytest.raises(ParameterRange):
        average_error_bound(3, 2, [1, 1], 25)


def test_term_profile_small_cases():
    p2 = value_set_term_profile(2)
    assert p2.values == (2, 4)
    assert p2.peak_index == 1 and p2.unimodal
    assert p2.total == 6 and p2.chain_bound == 8
    p3 = value_set_term_profile(3)
    assert p3.values == (6, 18, 9)
    assert p3.peak_index == 1 and p3.unimodal
    p5 = value_set_term_profile(5)
    assert p5.values == (120, 600, 600, 200, 25)
    assert p5.peak_index == 2  # plateau: h(1) = h(2) = max


def test_term_profile_sweep_2_to_30():
    for d in range(2, 31):
        prof = value_set_term_profile(d)
        assert prof.values == tuple(comb(d, k) ** 2 * factorial(d - k) for k in range(d))
        assert prof.unimodal, d
        assert prof.values[prof.peak_index] == max(prof.values), d
        assert prof.total <= prof.chain_bound, d
    with pytest.raises(ParameterRange):
        value_set_term_profile(1)
