import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuesets.errors import ArityMismatch, ZeroPolynomial
from valuesets.ffield import field_new
from valuesets.multipoly import (
    MultiPoly,
    elementary_symmetric,
    weighted_compose,
)

F2 = field_new(2)
F3 = field_new(3)
F5 = field_new(5)
F7 = field_new(7)


def var(field, nvars, i):
    return MultiPoly.variable(field, nvars, i)


def test_eval_examples():
    # single variable over F_5 at (2, 0, 1)
    g = var(F5, 3, 0)
    assert g.eval((2, 0, 1)) == 2
    # product plus constant over F_3 at (0, 2, 2): 2*2 + 1 = 2
    h = var(F3, 3, 1) * var(F3, 3, 2) + MultiPoly.constant(F3, 3, 1)
    assert h.eval((0, 2, 2)) == 2
    assert MultiPoly.zero(F3, 3).eval((1, 1, 1)) == 0


def test_eval_arity_mismatch():
    g = var(F5, 3, 0)
    with pytest.raises(ArityMismatch):
        g.eval((1, 2))


def test_no_zero_terms_stored():
    g = var(F3, 2, 0) + var(F3, 2, 0) + var(F3, 2, 0)
    assert g.is_zero()
    assert g.terms == {}
    h = MultiPoly(F3, 2, {(1, 0): 1, (0, 1): 0})
    assert (0, 1) not in h.terms


def test_ring_axioms_spot():
    a = var(F5, 2, 0) ** 2 + var(F5, 2, 1).scale(3)
    b = var(F5, 2, 0) * var(F5, 2, 1) + MultiPoly.constant(F5, 2, 4)
    c = var(F5, 2, 1) ** 3
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - a).is_zero()
    for pt in itertools.product(range(5), repeat=2):
        assert (a * b).eval(pt) == F5.mul(a.eval(pt), b.eval(pt))
        assert (a + b).eval(pt) == F5.add(a.eval(pt), b.eval(pt))


def test_pow_matches_repeated_mul():
    g = var(F7, 2, 0) + var(F7, 2, 1) + MultiPoly.constant(F7, 2, 2)
    acc = MultiPoly.constant(F7, 2, 1)
    for n in range(5):
        assert g**n == acc
        acc = acc * g


def test_pow_makes_no_unused_square(monkeypatch):
    # square-and-multiply: one product per bit below the top, plus one per
    # set bit; the square after the top bit is never read, so it is not made
    g = var(F7, 2, 0) + var(F7, 2, 1)
    products = []
    mul = MultiPoly.__mul__

    def counted(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    for n, want in ((1, 1), (2, 2), (3, 3), (32, 6)):
        products.clear()
        g**n
        assert len(products) == want, n


def test_highest_form():
    a3, a2, a1 = (var(F5, 3, i) for i in range(3))
    assert (a3**2 + a2).highest_form() == a3**2
    g = a3 * a2 + a3 + MultiPoly.constant(F5, 3, 1)
    assert g.highest_form() == a3 * a2
    homog = a3 * a2 + a1**2
    assert homog.highest_form() == homog
    with pytest.raises(ZeroPolynomial):
        MultiPoly.zero(F5, 3).highest_form()


def test_highest_form_is_homogeneous_of_top_degree():
    # scaling property: H(lam*x) = lam^deg * H(x), exhaustive over F_5
    a3, a2, a1 = (var(F5, 3, i) for i in range(3))
    g = a3**3 + a3 * a2 + a1 + MultiPoly.constant(F5, 3, 2)
    h = g.highest_form()
    deg = g.total_degree
    for pt in itertools.product(range(5), repeat=3):
        base = h.eval(pt)
        for lam in range(1, 5):
            scaled = tuple(F5.mul(lam, x) for x in pt)
            assert h.eval(scaled) == F5.mul(F5.pow(lam, deg), base)


def test_partial_derivatives_characteristic():
    # d/dx (x^2) = 2x vanishes identically over F_2
    x = var(F2, 1, 0)
    assert (x**2).partial(0).is_zero()
    # over F_3: d/dx (x^3 + x) = 1
    y = var(F3, 1, 0)
    assert (y**3 + y).partial(0) == MultiPoly.constant(F3, 1, 1)
    # product rule spot check over F_5
    a, b = var(F5, 2, 0), var(F5, 2, 1)
    g, h = a**2 + b, a * b
    lhs = (g * h).partial(0)
    rhs = g.partial(0) * h + g * h.partial(0)
    assert lhs == rhs


def test_elementary_symmetric_shapes():
    e1 = elementary_symmetric(F5, 3, 1)
    assert e1 == var(F5, 3, 0) + var(F5, 3, 1) + var(F5, 3, 2)
    e2 = elementary_symmetric(F5, 3, 2)
    a, b, c = (var(F5, 3, i) for i in range(3))
    assert e2 == a * b + a * c + b * c
    e3 = elementary_symmetric(F5, 3, 3)
    assert e3 == a * b * c
    with pytest.raises(ArityMismatch):
        elementary_symmetric(F5, 3, 4)
    with pytest.raises(ArityMismatch):
        elementary_symmetric(F5, 3, 0)


def test_elementary_symmetric_permutation_invariance():
    for k in (1, 2, 3):
        ek = elementary_symmetric(F7, 3, k)
        for pt in itertools.product(range(7), repeat=3):
            base = ek.eval(pt)
            for perm in itertools.permutations(pt):
                assert ek.eval(perm) == base


def test_weighted_compose():
    # g = Y_1 composed with Pi_1 over 4 variables
    pi1 = elementary_symmetric(F5, 4, 1)
    pi2 = elementary_symmetric(F5, 4, 2)
    g = var(F5, 2, 0)
    assert weighted_compose(g, [pi1, pi2]) == pi1
    # g = Y_1^2 + Y_2 evaluates consistently
    g2 = var(F5, 2, 0) ** 2 + var(F5, 2, 1)
    comp = weighted_compose(g2, [pi1, pi2])
    for pt in itertools.islice(itertools.product(range(5), repeat=4), 0, None, 7):
        want = F5.add(F5.pow(pi1.eval(pt), 2), pi2.eval(pt))
        assert comp.eval(pt) == want
    with pytest.raises(ArityMismatch):
        weighted_compose(g2, [pi1])


def test_weighted_compose_degree_bound():
    # deg Pi_k = k, so a monomial of weight w composes to degree <= w
    pis = [elementary_symmetric(F7, 5, k) for k in (1, 2, 3)]
    g = var(F7, 3, 0) ** 2 * var(F7, 3, 2) + var(F7, 3, 1) ** 2
    # weight of Y_1^e1 ... Y_s^es is e1 + 2*e2 + ... + s*es
    top = max(sum((i + 1) * e for i, e in enumerate(exps)) for exps in g.terms)
    comp = weighted_compose(g, pis)
    assert comp.total_degree <= top
    assert comp.total_degree == 5  # 2*wt(Y1) + wt(Y3) with no cancellation


def test_extend_vars():
    g = var(F5, 2, 0) * var(F5, 2, 1)
    h = g.extend_vars(4)
    assert h.nvars == 4
    assert h.eval((2, 3, 4, 4)) == g.eval((2, 3))
    with pytest.raises(ArityMismatch):
        h.extend_vars(2)


def test_map_coefficients_identity():
    g = var(F5, 2, 0).scale(3) + MultiPoly.constant(F5, 2, 2)
    same = g.map_coefficients(F5, list(range(5)))
    assert same == g


def test_sorted_terms_graded_lex():
    """repr lists the terms in descending graded-lex order, whatever order
    they were made in; `_solve`'s residue error shows this text."""
    a, b = var(F5, 2, 0), var(F5, 2, 1)
    g = MultiPoly.constant(F5, 2, 1) + b + a + b**2 + a * b + a**2
    assert repr(g) == (
        "MultiPoly(2 vars; (2, 0): 1, (1, 1): 1, (0, 2): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1)"
    )
    assert repr(MultiPoly.zero(F5, 2)) == "MultiPoly(2 vars; 0)"


# prime and extension fields; F_512 is past the size that gets lookup tables
EVAL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (2, 4), (2, 9)]


@st.composite
def polys_and_points(draw):
    field = field_new(*draw(st.sampled_from(EVAL_FIELDS)))
    nvars = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 5)] * nvars)
    terms = draw(st.dictionaries(exps, st.integers(0, field.q - 1), max_size=5))
    point = draw(st.tuples(*[st.integers(0, field.q - 1)] * nvars))
    return field, MultiPoly(field, nvars, terms), point


@settings(max_examples=200, deadline=None)
@given(polys_and_points())
def test_eval_matches_term_by_term_sum(drawn):
    field, g, point = drawn
    want = 0
    for exps, c in g.terms.items():
        v = c
        for x, e in zip(point, exps):
            v = field.mul(v, field.pow(x, e))
        want = field.add(want, v)
    shipped = pickle.loads(pickle.dumps(g))
    assert g.eval(point) == want
    assert g.eval(point) == want  # second call reads the kept factor lists
    assert shipped.eval(point) == want
    assert pickle.loads(pickle.dumps(g)).eval(point) == want
