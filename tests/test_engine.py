import itertools
from fractions import Fraction
from math import comb

import pytest

from valuesets.engine import (
    ScanResult,
    count_interpolating_sets_direct,
    generic_density,
    scan_family,
    value_set_size,
)
from valuesets.cli import run_experiment
from valuesets.config import parse_config
from valuesets.errors import BudgetExceeded, EmptyFamily, ParameterRange
from valuesets.exprs import coeff_variables, parse_poly_expr
from valuesets.families import (
    FamilySpec,
    enumerate_family,
    linear_family,
    partition_ranges,
)
from valuesets.ffield import field_new
from valuesets.incidence import check_identities, hermite_profile
from valuesets.multipoly import MultiPoly
from valuesets.unipoly import UniPoly

F3 = field_new(3)
F5 = field_new(5)
F7 = field_new(7)


def constraint(text, field, d):
    return parse_poly_expr(text, field, d - 1, coeff_variables(d))


def spec_a2_f5():
    # d=3, m=1, constraint A2 = 0 over F_5: members are T^3 + a1*T
    return linear_family(F5, 3, 1, [constraint("A2", F5, 3)])


def average(spec):
    scan = scan_family(spec)
    return Fraction(scan.sum_values, scan.member_count)


def test_value_set_size_examples():
    # independent integer-arithmetic images
    assert value_set_size(UniPoly.of(F3, [0, 0, 1])) == len({c * c % 3 for c in range(3)}) == 2
    assert value_set_size(UniPoly.of(F5, [0, 0, 0, 1])) == len({c**3 % 5 for c in range(5)}) == 5
    assert value_set_size(UniPoly.of(F7, [0, 0, 0, 1])) == len({c**3 % 7 for c in range(7)}) == 3


def test_value_set_shift_invariance():
    for tail in itertools.product(range(5), repeat=3):
        f = UniPoly.of(F5, list(tail) + [1])
        base = value_set_size(f)
        for c in range(1, 5):
            assert value_set_size(f + UniPoly.of(F5, [c])) == base


def test_value_set_equals_root_shift_count():
    # V(f) = #{a_0 : f + a_0 has a root}, exhaustively at q=5, d=3
    for tail in itertools.product(range(5), repeat=3):
        f = UniPoly.of(F5, list(tail) + [1])
        with_root = 0
        for a0 in range(5):
            g = f + UniPoly.of(F5, [a0])
            if any(g.eval(c) == 0 for c in range(5)):
                with_root += 1
        assert value_set_size(f) == with_root


def test_generic_density_values():
    assert generic_density(1) == 1
    assert generic_density(2) == Fraction(1, 2)
    assert generic_density(3) == Fraction(2, 3)
    assert generic_density(4) == Fraction(5, 8)
    with pytest.raises(ParameterRange):
        generic_density(0)


def test_average_brute_force_oracle():
    spec = spec_a2_f5()
    total = 0
    for a1 in range(5):
        total += len({(c**3 + a1 * c) % 5 for c in range(5)})
    assert average(spec) == Fraction(total, 5)


def test_average_of_singleton_family():
    # constraints pin a3 = 1, a2 = 2, a1 = 3 over F_7, d = 4
    spec = FamilySpec(
        F7,
        4,
        3,
        [constraint("A3 - 1", F7, 4), constraint("A2 - 2", F7, 4), constraint("A1 - 3", F7, 4)],
    )
    f = UniPoly.of(F7, [0, 3, 2, 1, 1])
    assert average(spec) == value_set_size(f)


def test_average_bounds():
    spec = linear_family(F7, 4, 1, [constraint("A3", F7, 4)])
    avg = average(spec)
    assert 1 <= avg <= 7


def test_empty_family_raises():
    # the scan of an empty family is the empty scan; the run refuses to
    # divide by its zero member count
    spec = FamilySpec(F5, 3, 1, [MultiPoly.constant(F5, 2, 1)])
    assert scan_family(spec) == ScanResult.empty(3)
    text = "[field]\np = 5\n[family]\nkind = custom\nd = 3\nm = 1\nforms = A2^2 + 2\n"
    with pytest.raises(EmptyFamily):
        run_experiment(parse_config(text))


def test_s1_is_family_size_times_q():
    for spec in [spec_a2_f5(), linear_family(F7, 4, 1, [constraint("A3 - 1", F7, 4)])]:
        members = sum(1 for _ in enumerate_family(spec))
        assert scan_family(spec).interpolating_count(1) == members * spec.field.q


def test_s_r_zero_beyond_degree():
    scan = scan_family(spec_a2_f5())
    for r in range(4, 8):
        assert scan.interpolating_count(r) == 0


def test_s_r_direct_matches_fast():
    spec = spec_a2_f5()
    scan = scan_family(spec)
    for r in (1, 2, 3):
        assert count_interpolating_sets_direct(spec, r) == scan.interpolating_count(r)
    quad = FamilySpec(F5, 4, 1, [constraint("A3^2 - A2", F5, 4)])
    scan = scan_family(quad)
    for r in (1, 2, 3, 4):
        assert count_interpolating_sets_direct(quad, r) == scan.interpolating_count(r)


def test_s_2_pure_integer_oracle():
    # fully independent recount of S_2 for the A2=0 family at q=5
    want = 0
    for x, y in itertools.combinations(range(5), 2):
        for a1 in range(5):
            for a0 in range(5):
                if (x**3 + a1 * x + a0) % 5 == 0 and (y**3 + a1 * y + a0) % 5 == 0:
                    want += 1
    assert scan_family(spec_a2_f5()).interpolating_count(2) == want


def test_direct_budget_guard():
    spec = spec_a2_f5()
    with pytest.raises(BudgetExceeded):
        count_interpolating_sets_direct(spec, 2, budget=3)


def test_inclusion_exclusion_exact():
    for spec in [
        spec_a2_f5(),
        FamilySpec(F5, 4, 1, [constraint("A3^2 - A2", F5, 4)]),
        linear_family(F7, 4, 1, [constraint("A3 - 2", F7, 4)]),
    ]:
        scan = scan_family(spec)
        star, coinc = hermite_profile(spec, spec.d)
        check_identities(scan, star, coinc, spec.d, repr(spec))
        alternating = sum(
            (-1) ** (r - 1) * scan.interpolating_count(r) for r in range(1, spec.d + 1)
        )
        assert alternating == scan.sum_values


def test_summary_fields():
    spec = spec_a2_f5()
    scan = scan_family(spec)
    assert scan.member_count == 5
    assert len(scan.profile) == spec.d + 1
    # the histogram sum equals V(f) computed member by member
    members = list(enumerate_family(spec))
    assert len(members) == 5
    assert scan.sum_values == sum(
        value_set_size(UniPoly(F5, [0] + list(reversed(member)) + [1]))
        for member in members
    )


def test_scan_profile_consistency():
    spec = spec_a2_f5()
    scan = scan_family(spec)
    # profile counts all (member, a_0) cells
    assert sum(scan.profile) == scan.member_count * 5
    # n-weighted sum counts roots, i.e. q per member (each c gives one a_0)
    assert sum(n * cnt for n, cnt in enumerate(scan.profile)) == scan.member_count * 5
    assert scan.interpolating_count(1) == scan.distinct_tuple_count(1)


def test_partitioned_scan_merges_to_full():
    spec = FamilySpec(F5, 4, 1, [constraint("A3^2 - A2", F5, 4)])
    full = scan_family(spec)
    for parts in (2, 3, 8):
        merged = ScanResult.empty(spec.d)
        for rng in partition_ranges(spec.space_size(), parts):
            merged = merged.merge(scan_family(spec, partition=rng))
        assert merged == full


def test_combinatorial_sanity_binomial_collapse():
    # sum_r (-1)^(r-1) C(n, r) = 1 for n >= 1 underlies the identity
    for n in range(1, 8):
        assert sum((-1) ** (r - 1) * comb(n, r) for r in range(1, n + 1)) == 1
