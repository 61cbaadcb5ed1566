import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuesets.errors import ParseError, UnknownVariable
from valuesets.exprs import (
    MAX_DEPTH,
    MAX_TERM_PAIRS,
    coeff_variables,
    parse_poly_expr,
    symmetric_variables,
)
from valuesets.ffield import field_new
from valuesets.multipoly import MultiPoly

F5 = field_new(5)
F101 = field_new(101)

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



def test_minus_negates_the_powered_factor_everywhere():
    # a minus negates the whole factor after it, power included, as in Python
    assert parse4("A2 + -A3^2") == parse4("A2 - A3^2")
    assert parse4("0 + -A3^2") == -parse4("A3^2")
    assert parse4("2*-A3^2") == parse4("-2*A3^2")
    assert parse4("--A3^2") == parse4("A3^2")
    assert parse4("(-A3)^2") == parse4("A3^2")


def test_nesting_limit():
    assert parse4("(" * MAX_DEPTH + "A3" + ")" * MAX_DEPTH) == parse4("A3")
    with pytest.raises(ParseError) as exc:
        parse4("(" * (MAX_DEPTH + 1) + "A3" + ")" * (MAX_DEPTH + 1))
    assert (exc.value.line, exc.value.col) == (1, MAX_DEPTH + 1)
    with pytest.raises(ParseError):
        parse4("(" * 10_000 + "A3" + ")" * 10_000)


def test_a_literal_past_the_digit_limit_is_a_parse_error():
    limit = sys.get_int_max_str_digits()
    nines = "9" * (limit + 700)
    for text, col in ((f"A3 + {nines}", 6), (f"A3^{nines}", 4), (f"A3^\n{nines}", 1)):
        with pytest.raises(ParseError) as exc:
            parse4(text)
        assert exc.value.col == col
        assert str(exc.value).endswith(
            f"an integer has at most {limit} digits, found {limit + 700} starting '999999999999'"
        )


def test_expansion_is_priced_before_multiplying():
    # (A3 + A2 + A1 + 1)^k has up to comb(k + 3, 3) terms, so the squaring
    # up to ^64 alone is priced above the limit, and nothing is multiplied
    with pytest.raises(ParseError) as exc:
        parse4("(A3 + A2 + A1 + 1)^3000")
    assert (exc.value.line, exc.value.col) == (1, 19)
    assert str(exc.value).endswith(f"expansion visits over {MAX_TERM_PAIRS} term pairs at '^'")
    # a product is priced at its '*', and the pairs add up over the expression
    # over F_101 no multinomial coefficient below the power 101 vanishes, so
    # ^20 has all comb(23, 3) = 1 771 terms; it is priced at about 63 000 pairs
    big = "(A3 + A2 + A1 + 1)^20"
    assert len(parse4(big, F101).terms) == 1_771
    with pytest.raises(ParseError) as exc:
        parse4(f"{big} * {big}", F101)
    assert exc.value.col == len(big) + 2
    # the price is a bound: over F_5, ^20 = (A3^5 + A2^5 + A1^5 + 1)^4 has
    # 20 terms and is cheap to expand, yet each copy is priced the same
    parse4(" + ".join([big] * 10))
    with pytest.raises(ParseError):
        parse4(" + ".join([big] * 20))
    # a power of one term visits one pair per step
    assert parse4("A3^100").terms == {(100, 0, 0): 1}
    assert parse4("(2*A3*A1)^1000000").total_degree == 2_000_000
    assert parse4("(A3 + A2 + A1 + 1)^20") == parse4("(A3 + A2 + A1 + 1)^10") ** 2


def test_a_long_run_of_minus_signs_parses():
    assert parse4("-" * 10_000 + "A3") == parse4("A3")
    assert parse4("-" * 10_001 + "A3") == -parse4("A3")


# Round trip: a random expression tree, rendered with the fewest parentheses
# the grammar needs, parses to the tree evaluated through MultiPoly's
# operators.  Binding levels: 1 sum, 2 product, 3 negation and power, 4 atom.
_LEVEL = {"+": 1, "-": 1, "*": 2, "neg": 3, "^": 3}


def _trees(depth):
    leaf = st.integers(0, 12) | st.sampled_from(sorted(VARS4))
    if depth == 0:
        return leaf
    sub = _trees(depth - 1)
    power = st.tuples(st.just("^"), sub, st.integers(0, 2))
    return st.one_of(
        st.tuples(st.sampled_from("+-*"), sub, sub),
        st.tuples(st.just("neg"), sub | power),  # a minus before a power, often
        power,
        leaf,
    )


def _level(tree):
    return _LEVEL[tree[0]] if isinstance(tree, tuple) else 4


def _render(tree, at_least=1):
    """Token list of tree, parenthesised if it binds looser than at_least."""
    if not isinstance(tree, tuple):
        return [str(tree)]
    op = tree[0]
    if op == "neg":
        tokens = ["-"] + _render(tree[1], 3)
    elif op == "^":
        tokens = _render(tree[1], 4) + ["^", str(tree[2])]
    else:  # left-associative: the right operand binds one level tighter
        level = _LEVEL[op]
        tokens = _render(tree[1], level) + [op] + _render(tree[2], level + 1)
    return tokens if _level(tree) >= at_least else ["("] + tokens + [")"]


def _evaluate(tree, field):
    if isinstance(tree, int):
        return MultiPoly.constant(field, 3, field.scalar(tree))
    if isinstance(tree, str):
        return MultiPoly.variable(field, 3, VARS4[tree])
    op, *args = tree
    if op == "neg":
        return -_evaluate(args[0], field)
    if op == "^":
        return _evaluate(args[0], field) ** args[1]
    a, b = (_evaluate(arg, field) for arg in args)
    return a + b if op == "+" else a - b if op == "-" else a * b


@settings(max_examples=200, deadline=None)
@given(tree=_trees(4), field=st.sampled_from([F5, field_new(2, 2)]), data=st.data())
def test_round_trip_through_minimal_parentheses(tree, field, data):
    tokens = _render(tree)
    gaps = data.draw(st.lists(st.sampled_from(["", " ", "  ", "\n"]),
                              min_size=len(tokens), max_size=len(tokens)))
    text = "".join(gap + token for gap, token in zip(gaps, tokens))
    assert parse4(text, field) == _evaluate(tree, field)
