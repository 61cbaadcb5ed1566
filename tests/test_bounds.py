import math
from fractions import Fraction
from math import comb, factorial, isqrt

import pytest

from valuesets.bounds import (
    LogMagnitude,
    average_bound_applicable,
    average_error_bound,
    average_error_bound_linear,
    family_size_bracket,
    interp_count_error_bound,
    point_count_error_bound,
    size_threshold_ok,
    value_set_term_profile,
)
from valuesets.errors import ParameterRange


# The three bounds with the point-count estimate written out in each, as
# they read before it moved into `bounds._deviation`: the reference that the
# derived bounds must match exactly.


def _ref_pair(degrees):
    delta, excess = 1, 0
    for e in degrees:
        delta *= e
        excess += e - 1
    return delta, excess


def _ref_point_count(l, degrees, q):
    delta, excess = _ref_pair(degrees)
    lead = delta * (excess - 2) + 2
    return lead * isqrt(q) * q ** (l - 1) + 14 * excess**2 * delta**2 * q ** (l - 1)


def _ref_bracket_upper(d, m, degrees, q, inclusive):
    delta, excess = _ref_pair(degrees)
    e = d - m - 1 + (1 if inclusive else 0)
    lead = delta * (excess - 2) + 2
    return q**e + 2 * lead * isqrt(q) * q ** (e - 1) + 28 * excess**2 * delta**2 * q ** (e - 1)


def _ref_interp(d, m, degrees, r, q):
    deg_product, excess_sum = _ref_pair(degrees)
    dd_deg_product = 1
    for i in range(1, r + 1):
        dd_deg_product *= d - i + 1
    total_deg = deg_product * dd_deg_product
    total_excess = excess_sum + r * d - r * (r + 1) // 2
    lead = total_deg * (total_excess - 2) + 2
    tail = 14 * total_excess**2 * total_deg**2 + comb(r, 2) * total_deg + 4 * r * deg_product
    return Fraction(lead * isqrt(q) + tail, factorial(r)) * q ** (d - m - 1)


def test_constants_worked_example():
    # d=4, one linear constraint, r=2: the cut has degree 12 = 4*3 and
    # excess sum 5 = 3+2, so the allowance is ((12*3+2)*sqrt(q) + 14*25*144
    # + 1*12 + 4*2*1) * q^2 / 2!
    for q in (5, 11, 49, 121):
        want = Fraction((38 * isqrt(q) + 50_420) * q**2, 2)
        assert interp_count_error_bound(4, 1, [1], 2, q) == want
    assert interp_count_error_bound(4, 1, [1], 2, 11) == 3_057_307


def test_constants_basic():
    # at q = 10^40 the allowance times r!/q^(d-m-1) splits into the lead
    # coefficient (times isqrt(q) = 10^20) and a tail below 10^20, which
    # exposes the degree d!/(d-r)! and the excess sum sum_{i<=r} (d-i)
    q, root = 10**40, 10**20
    cases = [(d, [1], 1, 0) for d in (3, 4, 5, 7)] + [(d, [2, 3], 6, 3) for d in (4, 5, 7)]
    for d, degrees, delta, excess in cases:
        m = len(degrees)
        for r in range(1, d + 1):
            scaled = interp_count_error_bound(d, m, degrees, r, q) * factorial(r)
            scaled /= q ** (d - m - 1)
            assert scaled.denominator == 1
            lead, tail = divmod(scaled.numerator, root)
            total_deg = delta * (factorial(d) // factorial(d - r))
            total_excess = excess + sum(d - i for i in range(1, r + 1))
            assert lead == total_deg * (total_excess - 2) + 2, (d, m, r)
            assert tail == (
                14 * total_excess**2 * total_deg**2 + comb(r, 2) * total_deg + 4 * r * delta
            ), (d, m, r)


def test_constants_errors():
    with pytest.raises(ParameterRange):
        interp_count_error_bound(4, 1, [], 1, 11)
    with pytest.raises(ParameterRange):
        interp_count_error_bound(4, 1, [0], 1, 11)
    with pytest.raises(ParameterRange):
        interp_count_error_bound(4, 1, [1], 0, 11)
    with pytest.raises(ParameterRange):
        interp_count_error_bound(4, 1, [1], 5, 11)


def test_interp_count_error_bound_needs_d_at_least_m_plus_2():
    # below d = m+2, q^(d-m-1) would take a negative exponent and the
    # allowance turn float; the bracket and the headline allowance refuse too
    for d, m in ((3, 3), (3, 2), (5, 4)):
        with pytest.raises(ParameterRange, match="d >= m\\+2"):
            interp_count_error_bound(d, m, [1] * m, 1, 5)


def test_family_bounds_need_one_degree_per_constraint():
    # m and the degree list describe the same constraints; a contradiction
    # is refused rather than answered for one of the two
    for call in (
        lambda: family_size_bracket(4, 1, [], 5),
        lambda: family_size_bracket(4, 1, [2, 2], 5, inclusive=True),
        lambda: interp_count_error_bound(4, 2, [2], 1, 5),
        lambda: average_error_bound(4, 2, [3], 5),
        lambda: average_bound_applicable(4, 1, [], 5),
        lambda: average_bound_applicable(3, 2, [1], 5),
    ):
        with pytest.raises(ParameterRange, match="one degree per constraint"):
            call()
    # below d = m+2 each keeps its answer: a refusal, or not applicable
    with pytest.raises(ParameterRange, match="d >= m\\+2"):
        average_error_bound(3, 2, [1, 1], 5)
    assert not average_bound_applicable(3, 2, [1, 1], 5)
    # no constraint at all: an affine space has exactly q^l points
    assert point_count_error_bound(2, [], 5) == 0


def test_bounds_match_the_reference_formulas():
    shapes = ([1], [2], [2, 3], [1, 1, 4], [3, 3])
    for q in (2, 4, 5, 9, 11, 16, 25, 49, 121, 397, 10**6 + 3):
        for degrees in shapes:
            for l in (2, 3, 4):
                got = point_count_error_bound(l, degrees, q)
                assert got == _ref_point_count(l, degrees, q), (l, degrees, q)
            m = len(degrees)
            for d in range(m + 2, m + 6):  # d = m+2 puts the bracket at e = 1
                for inclusive in (False, True):
                    got = family_size_bracket(d, m, degrees, q, inclusive).upper
                    want = _ref_bracket_upper(d, m, degrees, q, inclusive)
                    assert got == want, (d, m, degrees, q, inclusive)
                for r in range(1, d + 1):
                    got = interp_count_error_bound(d, m, degrees, r, q)
                    want = _ref_interp(d, m, degrees, r, q)
                    assert type(got) is Fraction and got == want, (d, m, degrees, r, q)


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
