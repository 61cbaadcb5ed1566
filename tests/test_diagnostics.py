from fractions import Fraction

import pytest

from valuesets import diagnostics
from valuesets.diagnostics import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    check_discriminant_loci,
    check_regularity,
    check_regularity_at_infinity,
    run_all,
)
from valuesets.engine import scan_family
from valuesets.exprs import coeff_variables, parse_poly_expr
from valuesets.families import FamilySpec, enumerate_family, linear_family
from valuesets.ffield import field_new
from valuesets.multipoly import MultiPoly
from valuesets.unipoly import UniPoly, disc_info


def constraint(field, d, text):
    return parse_poly_expr(text, field, d - 1, coeff_variables(d))


def spec_of(field, d, texts):
    return FamilySpec(field, d, len(texts), [constraint(field, d, t) for t in texts])


def test_linear_family_passes_regularity():
    f5 = field_new(5)
    spec = linear_family(f5, 4, 1, [constraint(f5, 4, "A3")])
    rep = check_regularity(spec)
    assert rep.status == PASS
    assert "necessary conditions only" in rep.text
    assert rep.witness is None
    assert rep.evidence["k1.points"] == 25 and rep.evidence["k1.deficient"] == 0
    assert rep.evidence["k2.points"] == 625 and rep.evidence["k2.deficient"] == 0
    assert rep.evidence["k1.bracket_ok"] and rep.evidence["k2.bracket_ok"]


def test_square_constraint_fails_with_witness():
    # the zero set of A3^2 is the hyperplane A3 = 0 but the Jacobian row
    # (2*A3, 0, 0) vanishes on all of it
    f5 = field_new(5)
    rep = check_regularity(spec_of(f5, 4, ["A3^2"]))
    assert rep.status == FAIL
    assert rep.witness == (0, 0, 0)
    assert rep.evidence["k1.deficient"] == 25 == rep.evidence["k1.points"]


def test_smooth_quadratic_is_inconclusive_at_desk_scale():
    # Jacobian of A3^2 - A2 is (2*A3, -1, 0): never rank deficient, but the
    # size-bracket threshold needs q far beyond desk scale
    f5 = field_new(5)
    rep = check_regularity(spec_of(f5, 4, ["A3^2 - A2"]))
    assert rep.status == INCONCLUSIVE
    assert rep.evidence["k1.deficient"] == 0
    assert rep.evidence["k1.bracket"] == "threshold unmet"
    assert "threshold" in rep.text


def test_at_infinity_drops_constant_and_finds_witness():
    # highest form of A3*A2 + A3 is A3*A2, singular where both vanish
    f5 = field_new(5)
    rep = check_regularity_at_infinity(spec_of(f5, 4, ["A3*A2 + A3"]))
    assert rep.check == "regularity-at-infinity"
    assert rep.status == FAIL
    assert rep.witness == (0, 0, 0)


def test_homogeneous_input_gives_identical_verdict():
    f5 = field_new(5)
    spec = linear_family(f5, 4, 1, [constraint(f5, 4, "A3")])
    a = check_regularity(spec)
    b = check_regularity_at_infinity(spec)
    assert b.check == "regularity-at-infinity"
    assert (a.status, a.text, a.evidence, a.witness) == (
        b.status,
        b.text,
        b.evidence,
        b.witness,
    )


def test_quadratic_family_fails_at_infinity():
    # the affine variety of A3^2 - A2 is smooth, its highest form A3^2 is not
    f5 = field_new(5)
    rep = check_regularity_at_infinity(spec_of(f5, 4, ["A3^2 - A2"]))
    assert rep.status == FAIL
    assert rep.witness == (0, 0, 0)


def test_budget_skips_give_inconclusive():
    # 13^5 = 371 293 candidates exceed POINT_BUDGET at k = 1 already
    f13 = field_new(13)
    spec = linear_family(f13, 6, 1, [constraint(f13, 6, "A5")])
    rep = check_regularity(spec)
    assert rep.status == INCONCLUSIVE
    assert "skipped" in rep.text
    assert "k1.skipped" in rep.evidence and "k2.skipped" in rep.evidence


def test_repeated_and_reordered_extension_degrees():
    # each k is reported once, at its first place; a repeat adds nothing
    f5 = field_new(5)
    spec = spec_of(f5, 3, ["A2"])
    for degrees, listed in (((1, 1), [1]), ((2, 1), [2, 1]), ((1, 2, 1), [1, 2])):
        rep = check_regularity(spec, degrees)
        assert rep.status == PASS
        assert f"at k={listed};" in rep.text, degrees
        assert rep == check_regularity(spec, tuple(listed))
    # the rank fails at Q = 9 only, whichever place k = 2 takes
    f3 = field_new(3)
    spec = spec_of(f3, 4, ["A3^3"])
    for degrees in ((2, 1), (1, 2)):
        rep = check_regularity(spec, degrees)
        assert rep.status == FAIL
        assert rep.text.startswith("81 of 81 points at Q=9 have Jacobian rank < 1"), degrees
        assert rep.witness == (0, 0, 0)
        assert rep.evidence["k1.rank_ok"] and not rep.evidence["k2.rank_ok"]


def test_too_many_constraints_give_inconclusive_not_traceback():
    # m = 2 > d - 2 = 1: the size bracket around q^(d-m-1) is undefined, and
    # FamilySpec still builds such specs (Hypothesis draws them)
    f2 = field_new(2)
    spec = spec_of(f2, 3, ["A2", "A1 + A2^2"])
    for check in (check_regularity, check_regularity_at_infinity):
        rep = check(spec)
        assert rep.status == INCONCLUSIVE
        assert "size bracket needs d >= m+2" in rep.text
        assert rep.evidence == {"constant": 4, "dimension": 0}
    assert [rep.status for rep in run_all(spec, scan_family(spec))][:2] == [INCONCLUSIVE, INCONCLUSIVE]


def test_solved_families_are_not_walked(monkeypatch):
    # a solved family is a graph: points and rank are read off the solution,
    # with the same evidence the walk gave
    def no_walk(*args, **kwargs):
        raise AssertionError("a solved family was enumerated")

    monkeypatch.setattr(diagnostics, "enumerate_family", no_walk)
    f16 = field_new(2, 4)
    rep = check_regularity(spec_of(f16, 5, ["A2 + A3^3 + A3^2 + A4 + 1"]))
    assert rep.status == INCONCLUSIVE and rep.witness is None
    assert rep.evidence == {
        "constant": 9,
        "dimension": 3,
        "k1.Q": 16,
        "k1.points": 4096,
        "k1.deficient": 0,
        "k1.allowed": Fraction(144),
        "k1.rank_ok": True,
        "k1.bracket": "threshold unmet",
        "k2.skipped": "256^4 candidates exceed budget 300000",
    }
    f5 = field_new(5)
    graph = linear_family(f5, 4, 1, [constraint(f5, 4, "A3")])
    reports = run_all(graph, scan_family(graph))
    expected = {"constant": 1, "dimension": 2}
    for k, big_q in ((1, 5), (2, 25)):
        expected.update({
            f"k{k}.Q": big_q,
            f"k{k}.points": big_q**2,
            f"k{k}.deficient": 0,
            f"k{k}.allowed": Fraction(1),
            f"k{k}.rank_ok": True,
            f"k{k}.bracket": f"({big_q**2}/2, {big_q**2}]",
            f"k{k}.bracket_ok": True,
        })
    for rep in reports[:2]:
        assert (rep.status, rep.evidence, rep.witness) == (PASS, expected, None)
    assert reports[2].status == PASS


def test_extension_base_field_goes_through_embedding():
    f4 = field_new(2, 2)
    spec = spec_of(f4, 3, ["A2"])
    rep = check_regularity(spec, extension_degrees=(2,))
    assert rep.status == PASS
    assert rep.evidence["k2.Q"] == 16 and rep.evidence["k2.points"] == 16


def test_empty_family_is_inconclusive_everywhere():
    f5 = field_new(5)
    one = MultiPoly.constant(f5, 3, 1)
    spec = FamilySpec(f5, 4, 1, [one])
    assert check_regularity(spec).status == INCONCLUSIVE
    rep = check_discriminant_loci(spec, scan_family(spec))
    assert rep.status == INCONCLUSIVE
    assert rep.evidence["members"] == 0


def test_char2_family_with_vanishing_derivative_fails_loci_check():
    # over F_8 with A3 = A1 = 0 every member is T^4 + a2*T^2, whose
    # derivative is identically zero, so every shift has a repeated root
    f8 = field_new(2, 3)
    spec = spec_of(f8, 4, ["A3", "A1"])
    rep = check_discriminant_loci(spec, scan_family(spec))
    assert rep.status == FAIL
    assert rep.evidence["members"] == 8
    assert rep.evidence["n1"] == 64 == rep.evidence["pairs"]
    assert rep.evidence["n2"] == 64
    assert rep.evidence["derivative_zero_pairs"] == 64
    assert rep.witness is not None


def test_derivative_zero_pairs_not_inferred_from_full_loci():
    # over F_2 with d = 5 the member a = (0, 1, 1, 0), f = T^5 + T^3 + T^2,
    # has f' = T^2 (T + 1)^2 != 0, yet both of its shifts lie in N1 and N2
    f2 = field_new(2)
    spec = spec_of(f2, 5, ["A4", "A3 - 1", "A2 - 1", "A1"])
    scan = scan_family(spec)
    assert scan.member_count == 1
    assert scan.loci == [2, 2, 0]
    assert scan.witnesses == [(0, 1, 1, 0, 0)] * 2
    rep = check_discriminant_loci(spec, scan)
    assert (rep.evidence["n1"], rep.evidence["n2"]) == (2, 2)
    assert rep.evidence["derivative_zero_pairs"] == 0


@pytest.mark.parametrize("q", [11, 13])
@pytest.mark.parametrize("d", [4, 5])
def test_linear_family_loci_pass_and_nonempty(q, d):
    field = field_new(q)
    spec = linear_family(field, d, 1, [constraint(field, d, f"A{d - 1}")])
    rep = check_discriminant_loci(spec, scan_family(spec))
    assert rep.status == PASS
    assert "necessary conditions only" in rep.text
    # the repeated-root locus is nonempty: codimension one, not zero or empty
    assert 0 < rep.evidence["n1"] < rep.evidence["pairs"]


def test_loci_counts_match_resultant_definition():
    # fast gcd-degree path vs the discriminant/subdiscriminant definition,
    # including members whose derivative vanishes identically (T^3 over F_3)
    f3 = field_new(3)
    spec = spec_of(f3, 3, ["A1"])
    rep = check_discriminant_loci(spec, scan_family(spec))
    n1 = n2 = 0
    for member in enumerate_family(spec):
        for a0 in f3.indices():
            f = UniPoly(f3, [a0] + list(reversed(member)) + [1])
            info = disc_info(f)
            if info.derivative_zero or info.disc == 0:
                n1 += 1
            if info.derivative_zero or (info.disc == 0 and info.subdisc == 0):
                n2 += 1
    assert rep.evidence["n1"] == n1
    assert rep.evidence["n2"] == n2


def test_loci_witness_reproduces_a_repeated_root():
    f11 = field_new(11)
    spec = spec_of(f11, 4, ["A3", "A1"])  # T^4 + a2 T^2 + a0
    rep = check_discriminant_loci(spec, scan_family(spec))
    # whatever the status, a recorded witness must name a genuine pair
    if rep.witness is not None:
        *tail, a0 = rep.witness
        f = UniPoly(f11, [a0] + list(reversed(tail)) + [1])
        info = disc_info(f)
        assert info.derivative_zero or info.disc == 0


def test_reports_are_deterministic():
    f5 = field_new(5)
    spec = spec_of(f5, 4, ["A3^2 - A2"])
    assert check_regularity(spec) == check_regularity(spec)
    assert check_discriminant_loci(spec, scan_family(spec)) == check_discriminant_loci(
        spec, scan_family(spec)
    )


def test_run_all_order_and_pass_texts():
    f11 = field_new(11)
    spec = linear_family(f11, 4, 1, [constraint(f11, 4, "A3")])
    reports = run_all(spec, scan_family(spec))
    assert [r.check for r in reports] == [
        "regularity",
        "regularity-at-infinity",
        "discriminant-loci",
    ]
    for rep in reports:
        assert rep.status in (PASS, FAIL, INCONCLUSIVE)
        if rep.status == PASS:
            assert "necessary conditions only" in rep.text
        text = rep.render()
        assert text.startswith(f"[{rep.check}] {rep.status}")
