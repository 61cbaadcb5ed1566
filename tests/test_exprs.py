import itertools

import pytest

from valuesets.errors import ParseError, UnknownVariable
from valuesets.exprs import coeff_variables, parse_poly_expr, symmetric_variables
from valuesets.ffield import field_new
from valuesets.multipoly import MultiPoly

F5 = field_new(5)

VARS4 = coeff_variables(4)  # A3, A2, A1


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

