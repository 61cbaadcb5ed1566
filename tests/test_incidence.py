from math import factorial

import pytest

from valuesets import incidence
from valuesets.engine import scan_family
from valuesets.errors import BudgetExceeded, IdentityViolation, ParameterRange
from valuesets.exprs import coeff_variables, parse_poly_expr
from valuesets.families import FamilySpec, enumerate_family, linear_family
from valuesets.ffield import field_new
from valuesets.incidence import (
    IncidenceCounts,
    collect,
    count_distinct_tuples_oracle,
    count_hermite_tuples_oracle,
    count_interpolating_sets_direct,
    hermite_profile,
)

F4 = field_new(2, 2)
F5 = field_new(5)
F7 = field_new(7)
F9 = field_new(3, 2)


def constraint(text, field, d):
    return parse_poly_expr(text, field, d - 1, coeff_variables(d))


def spec_a2_f5():
    return linear_family(F5, 3, 1, [constraint("A2", F5, 3)])


def quad_spec(field, d):
    top = d - 1
    return FamilySpec(field, d, 1, [constraint(f"A{top}^2 - A{top - 1}", field, d)])


def test_r1_counts():
    for spec in [spec_a2_f5(), quad_spec(F5, 4)]:
        members = sum(1 for _ in enumerate_family(spec))
        q = spec.field.q
        star, coinc = hermite_profile(spec, 1)
        assert star == [members * q]
        assert coinc == [0]
        assert scan_family(spec).distinct_tuple_count(1) == members * q


def test_distinct_matches_raw_enumeration():
    for spec, rs in [(spec_a2_f5(), (1, 2, 3)), (quad_spec(F5, 4), (1, 2, 3))]:
        scan = scan_family(spec)
        for r in rs:
            assert scan.distinct_tuple_count(r) == count_distinct_tuples_oracle(spec, r)


def test_hermite_matches_division_oracle():
    # one kernel over both enumerators: the direct walk and the filter agree
    for spec, rs in [
        (spec_a2_f5(), (1, 2, 3)),
        (quad_spec(F5, 4), (1, 2, 3)),
        (linear_family(F4, 3, 1, [constraint("A2", F4, 3)]), (1, 2, 3)),
    ]:
        star, coinc = hermite_profile(spec, max(rs))
        for r in rs:
            assert star[r - 1] == count_hermite_tuples_oracle(spec, r), (spec, r)


def rowless(field):
    """A copy of field whose `rows` raises; its methods never read rows."""

    class Rowless(type(field)):
        def rows(self):
            raise AssertionError("the lookup rows were read")

    fresh = object.__new__(Rowless)
    fresh.__dict__.update(vars(field), _rows=None)
    return fresh


def counting(field):
    """A copy of field whose `add` and `mul` count their calls in `calls`."""

    class Counting(type(field)):
        def add(self, a, b):
            self.calls += 1
            return super().add(a, b)

        def mul(self, a, b):
            self.calls += 1
            return super().mul(a, b)

    fresh = object.__new__(Counting)
    fresh.__dict__.update(vars(field), calls=0)
    return fresh


def test_literal_oracles_make_no_calls_per_shift(monkeypatch):
    # one Horner pass per member and node, 2d - 1 calls, and none per shift
    # or per tuple: each tuple is tested against its first node's pin
    field = counting(F7)
    spec = quad_spec(field, 4)
    members = list(enumerate_family(spec))
    monkeypatch.setattr(incidence, "filter_family", lambda spec: iter(members))
    scan = scan_family(quad_spec(F7, 4))
    bound = len(members) * field.q * (2 * spec.d - 1)
    for oracle, expected in (
        (count_interpolating_sets_direct, scan.interpolating_count(2)),
        (count_distinct_tuples_oracle, scan.distinct_tuple_count(2)),
    ):
        field.calls = 0
        assert oracle(spec, 2, member_count=len(members)) == expected
        assert field.calls <= bound == 2401


def test_prefix_dfs_tries_only_the_kept_roots():
    # the 98 calls of the direct walk included; trying every node at every
    # depth, as the DFS once did, took 30 380
    field = counting(F7)
    spec = quad_spec(field, 4)
    field.calls = 0
    star, coinc = hermite_profile(spec, 4)
    assert field.calls == 20048 < 30380
    scan = scan_family(quad_spec(F7, 4))
    assert star == [scan.hermite_count(r) for r in range(1, 5)]
    assert coinc == [scan.coincident_count(r) for r in range(1, 5)]


def test_no_oracle_reads_the_lookup_rows():
    # the scan reads `Field.rows()`; every oracle recounts it on the `Field`
    # methods alone, so they all run on a field whose rows raise
    for field in (F7, F9):
        scan = scan_family(quad_spec(field, 4))
        spec = quad_spec(rowless(field), 4)
        with pytest.raises(AssertionError, match="lookup rows"):
            scan_family(spec)
        r_max = min(spec.d, 3)
        star, coinc = hermite_profile(spec, r_max)
        for r in range(1, r_max + 1):
            assert star[r - 1] == scan.hermite_count(r), (field, r)
            assert coinc[r - 1] == scan.coincident_count(r), (field, r)
            assert count_hermite_tuples_oracle(spec, r) == scan.hermite_count(r)
            assert count_distinct_tuples_oracle(spec, r) == scan.distinct_tuple_count(r)
            assert count_interpolating_sets_direct(spec, r) == scan.interpolating_count(r)


def test_subtraction_identity_and_collect():
    for spec in [spec_a2_f5(), quad_spec(F5, 4), linear_family(F7, 4, 1, [constraint("A3", F7, 4)])]:
        counts = collect(spec, spec.d, scan_family(spec))
        for c in counts:
            assert c.distinct == c.hermite - c.coincident
            assert c.distinct % factorial(c.r) == 0
        assert [c.r for c in counts] == list(range(1, spec.d + 1))


def test_orbit_identity_against_direct_subset_oracle():
    spec = spec_a2_f5()
    scan = scan_family(spec)
    for r in (1, 2, 3):
        assert factorial(r) * count_interpolating_sets_direct(spec, r) == (
            scan.distinct_tuple_count(r)
        )


def test_double_root_confluent_pairs():
    # singleton family f = T^3 + 3T^2 + T = T*(T-1)^2 over F_5
    spec = FamilySpec(
        F5, 3, 2, [constraint("A2 - 3", F5, 3), constraint("A1 - 1", F5, 3)]
    )
    assert sum(1 for _ in enumerate_family(spec)) == 1
    # count (beta, beta) pairs by brute force over all shifts
    want = 0
    for a0 in range(5):
        for b in range(5):
            if (b**3 + 3 * b**2 + b + a0) % 5 == 0 and (3 * b**2 + 6 * b + 1) % 5 == 0:
                want += 1
    assert want >= 1  # a_0 = 0, beta = 1 at least
    assert hermite_profile(spec, 2)[1][1] == want
    # the confluent pair is a hermite tuple but not a distinct tuple
    hermite = hermite_profile(spec, 2)[0][1]
    assert hermite == scan_family(spec).distinct_tuple_count(2) + want


def test_counts_vanish_beyond_degree():
    spec = spec_a2_f5()
    star, coinc = hermite_profile(spec, spec.d + 2)
    assert star[spec.d] == 0 and star[spec.d + 1] == 0
    assert coinc[spec.d] == 0


def test_extension_monotonicity():
    for spec in [spec_a2_f5(), quad_spec(F7, 4)]:
        star, _ = hermite_profile(spec, spec.d)
        q = spec.field.q
        for a, b in zip(star, star[1:]):
            assert b <= q * a


def test_collect_rejects_tampered_scan():
    spec = spec_a2_f5()
    scan = scan_family(spec)
    scan.profile[1] += 1  # corrupt the histogram: identity must catch it
    with pytest.raises(IdentityViolation):
        collect(spec, 2, scan)


def test_oracle_budgets():
    spec = spec_a2_f5()
    with pytest.raises(BudgetExceeded):
        count_distinct_tuples_oracle(spec, 2, budget=10)
    with pytest.raises(BudgetExceeded):
        count_hermite_tuples_oracle(spec, 2, budget=10)
    with pytest.raises(ParameterRange):
        hermite_profile(spec, 0)


def test_oracles_check_budget_before_enumerating(monkeypatch):
    from valuesets import engine, families, incidence

    spec = linear_family(F7, 3, 1, [constraint("A2", F7, 3)])
    members = scan_family(spec).member_count
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    for module in (engine, families, incidence):
        for name in ("enumerate_family", "filter_family", "family_cardinality"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
    # the refusal texts are part of the byte-identical summary
    cases = [
        (count_interpolating_sets_direct, 1, "direct S_r cost 49 exceeds budget 0"),
        (count_interpolating_sets_direct, 2, "direct S_r cost 147 exceeds budget 0"),
        (count_distinct_tuples_oracle, 1, "raw tuple enumeration cost 343 exceeds budget 0"),
        (count_distinct_tuples_oracle, 2, "raw tuple enumeration cost 2058 exceeds budget 0"),
        (count_hermite_tuples_oracle, 1, "division oracle cost 343 exceeds budget 0"),
        (count_hermite_tuples_oracle, 2, "division oracle cost 2401 exceeds budget 0"),
    ]
    for oracle, r, message in cases:
        with pytest.raises(BudgetExceeded) as info:
            oracle(spec, r, 0, members)
        assert str(info.value) == message
    assert calls == []
    # within budget the oracle lists members through the candidate filter
    assert count_hermite_tuples_oracle(spec, 1, 343, members) == members * 7
    assert calls == ["filter_family"]



def test_oracle_refuses_a_filter_larger_than_its_budget(monkeypatch):
    # |A| = 7 members among 7^3 = 343 candidates: the direct S_1 price, 49,
    # passes a budget of 100, and the candidate filter, priced apart, does not
    field = F7
    spec = linear_family(field, 4, 2, [constraint(t, field, 4) for t in ("A3", "A2")])
    calls = []
    original = incidence.filter_family

    def counted(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(incidence, "filter_family", counted)
    with pytest.raises(BudgetExceeded) as info:
        count_interpolating_sets_direct(spec, 1, 100, 7)
    assert str(info.value) == "direct S_r lists 7^3 filter candidates, over budget 100"
    assert calls == []
    assert count_interpolating_sets_direct(spec, 1, 343, 7) == 49
    assert calls == [spec]
