import itertools
import random

import pytest

from valuesets.errors import ParseError, UnknownVariable, ValidationError
from valuesets.exprs import (
    coeff_variables,
    parse_poly_expr,
    poly_to_expr,
    symmetric_variables,
)
from valuesets.ffield import field_new
from valuesets.multipoly import MultiPoly

F5 = field_new(5)
F7 = field_new(7)

VARS4 = coeff_variables(4)  # A3, A2, A1
NAMES4 = ["A3", "A2", "A1"]  # printer names, index 0 -> A3


def parse4(text, field=F5):
    return parse_poly_expr(text, field, 3, VARS4)


def test_variable_maps():
    assert VARS4 == {"A3": 0, "A2": 1, "A1": 2}
    assert symmetric_variables(2) == {"Y1": 0, "Y2": 1}


def test_parse_quadratic_constraint():
    g = parse4("A3^2 - A2")
    assert g.terms == {(2, 0, 0): 1, (0, 1, 0): 4}


def test_parse_product_expansion():
    g = parse4("(A3+A2)*(A3-A2)")
    assert g == parse4("A3^2 - A2^2")


def test_parse_precedence_and_unary():
    assert parse4("A3 + A2 * A1") == parse4("A3 + (A2 * A1)")
    assert parse4("-A3^2") == -parse4("A3^2")
    assert parse4("2*A3 - -A2") == parse4("2*A3 + A2")
    assert parse4("7") == MultiPoly.constant(F5, 3, 2)


def test_parse_eval_agreement():
    g = parse4("2*A3^2*A1 + 3*A2 + 1")
    for pt in itertools.product(range(5), repeat=3):
        want = (2 * pt[0] ** 2 * pt[2] + 3 * pt[1] + 1) % 5
        assert g.eval(pt) == want


def test_unknown_variable():
    with pytest.raises(UnknownVariable) as exc:
        parse4("A9 + 1")
    assert exc.value.col == 1


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse4("A3 +")
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        parse4("A3 A2")
    with pytest.raises(ParseError):
        parse4("(A3")
    with pytest.raises(ParseError):
        parse4("A3^A2")
    with pytest.raises(ParseError):
        parse4("A3 $ A2")
    with pytest.raises(ParseError) as exc2:
        parse_poly_expr("A3 +\n  *2", F5, 3, VARS4)
    assert exc2.value.line == 2


def test_print_canonical_forms():
    assert poly_to_expr(parse4("A3^2 - A2"), NAMES4) == "A3^2 + 4*A2"
    assert poly_to_expr(MultiPoly.zero(F5, 3), NAMES4) == "0"
    assert poly_to_expr(parse4("1 + A1 + A3"), NAMES4) == "A3 + A1 + 1"
    assert poly_to_expr(parse4("3*A3*A1^2"), NAMES4) == "3*A3*A1^2"


def test_round_trip_random_polys():
    rng = random.Random(20240815)
    for _ in range(60):
        terms = {}
        for _ in range(rng.randrange(0, 6)):
            exps = tuple(rng.randrange(0, 3) for _ in range(3))
            terms[exps] = rng.randrange(0, 7)
        g = MultiPoly(F7, 3, terms)
        text = poly_to_expr(g, NAMES4)
        back = parse_poly_expr(text, F7, 3, VARS4)
        assert back == g, text


def test_round_trip_is_fixed_point():
    g = parse4("(A3 - 1)^2 * A1 + 4")
    text = poly_to_expr(g, NAMES4)
    assert poly_to_expr(parse4(text), NAMES4) == text


def test_printer_rejects_non_prime_subfield_coefficient():
    f9 = field_new(3, 2)
    g = MultiPoly(f9, 1, {(1,): 4})  # index 4 lies outside {0,1,2}
    with pytest.raises(ValidationError):
        poly_to_expr(g, ["A1"])


def test_printer_name_count_checked():
    with pytest.raises(ValidationError):
        poly_to_expr(parse4("A3"), ["A3", "A2"])
