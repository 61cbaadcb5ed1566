import itertools
import sys

import pytest

from valuesets.errors import (
    ArityMismatch,
    ParameterRange,
    RankDeficient,
    ZeroPolynomial,
)
from valuesets.diagnostics import _embedded_spec, check_regularity
from valuesets.exprs import coeff_variables, parse_poly_expr
from valuesets.ffield import field_new
from valuesets.families import (
    FamilySpec,
    enumerate_family,
    family_cardinality,
    filter_family,
    linear_family,
    partition_ranges,
    symmetric_family,
)
from valuesets.multipoly import MultiPoly

from poly_reference import walk_rank

F3 = field_new(3)
F5 = field_new(5)
F7 = field_new(7)


def constraint(text, field, d):
    return parse_poly_expr(text, field, d - 1, coeff_variables(d))


def test_linear_count_q5_d4():
    spec = linear_family(F5, 4, 1, [constraint("A3", F5, 4)])
    members = list(enumerate_family(spec))
    assert len(members) == 25
    assert all(m[0] == 0 for m in members)
    assert family_cardinality(spec) == 25


def test_unit_constraint_empty_family():
    spec = FamilySpec(F5, 3, 1, [MultiPoly.constant(F5, 2, 1)])
    assert family_cardinality(spec) == 0
    assert list(enumerate_family(spec)) == []


def test_quadratic_constraint_count_f3():
    # a2 determined by a3, a1 free: q*q members
    spec = FamilySpec(F3, 4, 1, [constraint("A3^2 - A2", F3, 4)])
    members = list(enumerate_family(spec))
    assert len(members) == 9
    for m in members:
        a3, a2, a1 = m
        assert (a3 * a3 - a2) % 3 == 0
    assert family_cardinality(spec) == 9


def test_enumeration_order_and_decode():
    spec = linear_family(F3, 4, 1, [constraint("A3", F3, 4)])
    members = list(enumerate_family(spec))
    # a3 = 0 throughout; a1 is the fast digit
    assert members[0] == (0, 0, 0)
    assert members[1] == (0, 0, 1)
    assert members[3] == (0, 1, 0)
    # candidate index 5 decodes to (0, 1, 2), a member; 9 to (1, 0, 0), not one
    assert list(filter_family(spec, (5, 6))) == [(0, 1, 2)]
    assert list(filter_family(spec, (9, 10))) == []


def test_members_satisfy_all_constraints():
    g1 = constraint("A4 + A3", F5, 6)
    g2 = constraint("A2 - 1", F5, 6)
    spec = FamilySpec(F5, 6, 2, [g1, g2])
    count = 0
    for mem in enumerate_family(spec):
        count += 1
        assert g1.eval(mem) == 0 and g2.eval(mem) == 0
    assert count == family_cardinality(spec) == 5**3


def test_partition_ranges_cover_disjointly():
    for total, parts in [(10, 3), (9, 9), (25, 4), (7, 1), (3, 8)]:
        ranges = partition_ranges(total, parts)
        assert len(ranges) == parts
        flat = [i for lo, hi in ranges for i in range(lo, hi)]
        assert flat == list(range(total))
    with pytest.raises(ParameterRange):
        partition_ranges(10, 0)


def test_partitioned_enumeration_matches_full():
    spec = FamilySpec(F5, 4, 1, [constraint("A3^2 - A2", F5, 4)])
    full = list(enumerate_family(spec))
    for parts in (1, 2, 3, 8):
        pieces = []
        for rng in partition_ranges(spec.space_size(), parts):
            pieces.extend(enumerate_family(spec, partition=rng))
        assert pieces == full


def test_partition_bounds_checked():
    spec = linear_family(F3, 4, 1, [constraint("A3", F3, 4)])
    with pytest.raises(ParameterRange):
        list(enumerate_family(spec, partition=(0, 100)))


def test_linear_family_validation():
    # full-rank two-form system: |A| = q^2 at d=5
    spec = linear_family(F5, 5, 2, [constraint("A4", F5, 5), constraint("A3 - 1", F5, 5)])
    assert family_cardinality(spec) == 25
    with pytest.raises(RankDeficient):
        linear_family(F5, 4, 2, [constraint("A3", F5, 4), constraint("2*A3", F5, 4)])
    with pytest.raises(ParameterRange):
        linear_family(F5, 4, 3, [constraint("A3", F5, 4)] * 3)
    with pytest.raises(ParameterRange):
        linear_family(F5, 4, 1, [constraint("A3^2", F5, 4)])
    with pytest.raises(ParameterRange):
        linear_family(F5, 4, 1, [constraint("A1", F5, 4)])
    with pytest.raises(ArityMismatch):
        linear_family(F5, 4, 1, [])


def test_linear_full_rank_cardinality_identity():
    # q^(d-1-m) exactly, several shapes
    cases = [
        (F5, 4, 1, ["A3"]),
        (F5, 5, 1, ["A4 + 2*A3"]),
        (F7, 5, 2, ["A4", "A3 - 1"]),
        (F3, 6, 2, ["A5 + A4", "A3"]),
    ]
    for field, d, m, texts in cases:
        spec = linear_family(field, d, m, [constraint(t, field, d) for t in texts])
        assert family_cardinality(spec) == field.q ** (d - 1 - m)


def test_symmetric_family_construction():
    # m=1, s=1, S=Y1, d=6: constraint is A5+A4+A3+A2
    y1 = MultiPoly.variable(F5, 1, 0)
    spec = symmetric_family(F5, 6, 1, 1, [y1])
    want = constraint("A5 + A4 + A3 + A2", F5, 6)
    assert spec.constraints == (want,)
    # m=1, s=2, S=Y2, d=7: constraint is Pi_2 over A6..A2, A1 unused
    y2 = MultiPoly.variable(F5, 2, 1)
    spec2 = symmetric_family(F5, 7, 1, 2, [y2])
    g = spec2.constraints[0]
    assert g.nvars == 6
    assert g.total_degree == 2
    assert all(e[5] == 0 for e in g.terms)  # A1 slot untouched
    assert len(g.terms) == 10  # C(5,2) pair products


def test_symmetric_family_parameter_range():
    y1 = MultiPoly.variable(F5, 1, 0)
    with pytest.raises(ParameterRange):
        symmetric_family(F5, 5, 1, 1, [y1])  # needs d >= s+m+4 = 6
    with pytest.raises(ParameterRange):
        symmetric_family(F5, 8, 2, 1, [y1, y1])  # s < m
    with pytest.raises(ArityMismatch):
        symmetric_family(F5, 7, 1, 2, [y1])  # shape arity 1 != s=2


def test_spec_validation():
    with pytest.raises(ZeroPolynomial):
        FamilySpec(F5, 4, 1, [MultiPoly.zero(F5, 3)])
    with pytest.raises(ArityMismatch):
        FamilySpec(F5, 4, 2, [constraint("A3", F5, 4)])
    with pytest.raises(ArityMismatch):
        FamilySpec(F5, 5, 1, [constraint("A3", F5, 4)])
    with pytest.raises(ArityMismatch):
        FamilySpec(F3, 4, 1, [constraint("A3", F5, 4)])


def test_spec_refuses_a_walk_past_sys_maxsize():
    # `islice` refuses a stop past sys.maxsize; 31^13 is the unsolved filter
    # walk of A13^2 + A12^2 + 1, and 31^12 its solved neighbour's direct walk
    F31 = field_new(31)
    with pytest.raises(ParameterRange, match=r"q\^13 indices exceeds sys.maxsize"):
        FamilySpec(F31, 14, 1, [constraint("A13^2 + A12^2 + 1", F31, 14)])
    spec = FamilySpec(F31, 14, 1, [constraint("A13^2 + A12", F31, 14)])
    assert spec.space_size() == 31**12 <= sys.maxsize


def test_degrees_recorded():
    spec = FamilySpec(F5, 5, 2, [constraint("A4^2 - A3", F5, 5), constraint("A2", F5, 5)])
    assert spec.degrees == (2, 1)


def test_brute_force_cross_check_small():
    # independent filter over the whole space
    g = constraint("A3^2 + A2*A1 - 2", F5, 4)
    spec = FamilySpec(F5, 4, 1, [g])
    want = [
        a
        for a in itertools.product(range(5), repeat=3)
        if (a[0] * a[0] + a[1] * a[2] - 2) % 5 == 0
    ]
    got = list(enumerate_family(spec))
    assert got == want


def test_graph_family_solved_over_f16():
    # A2 = A3^3 + A3^2 + A4 + 1 reads only coordinates to its left
    f16 = field_new(2, 4)
    spec = FamilySpec(f16, 5, 1, [constraint("A2 + A3^3 + A3^2 + A4 + 1", f16, 5)])
    assert spec.walked == (0, 1, 3)  # A4, A3, A1; the pivot A2 is filled in
    assert spec.space_size() == 4096
    assert list(enumerate_family(spec, partition=(0, 300))) == list(
        itertools.islice(filter_family(spec), 300)
    )


def test_embedded_and_top_form_specs_solved():
    f13 = field_new(13)
    spec = FamilySpec(f13, 5, 1, [constraint("A4 - 3", f13, 5)])
    top = FamilySpec(f13, 5, 1, [g.highest_form() for g in spec.constraints])
    assert top.solution is not None
    assert family_cardinality(top) == top.space_size() == 13**3
    ext = _embedded_spec(spec, 2)
    assert ext.solution is not None
    assert ext.space_size() == 169**3
    for mem in enumerate_family(ext, partition=(0, 50)):
        assert ext.constraints[0].eval(mem) == 0


def test_rule_reading_to_the_right_stays_on_filter():
    # A1 occurs only squared, so the rule A3 = -A1^2 reads to its right:
    # the family is solved, a graph over (A2, A1), but walked by the filter
    spec = FamilySpec(F5, 4, 1, [constraint("A3 + A1^2", F5, 4)])
    assert spec.solution is not None
    assert not spec.direct
    assert spec.walked == (0, 1, 2)
    assert spec.space_size() == 5**3
    assert list(enumerate_family(spec)) == list(filter_family(spec))
    assert family_cardinality(spec) == 25
    rep = check_regularity(spec, (1,))
    assert (rep.evidence["k1.points"], rep.evidence["k1.deficient"]) == (25, 0)
    assert walk_rank(spec) == (25, 0, None)
