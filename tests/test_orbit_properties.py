"""Property tests: the orbit-weighted scan against the plain per-member loop.

`scan_family` scans one member per orbit of the Frobenius and scaling
actions and weights it by the orbit's size; `scan_members` is the plain
loop over every member and the reference here.  Hypothesis draws two kinds
of family, each in a direct (graph c*A_j + h, h reading to the left of j)
and a filter shape:

- F_p-rational families over F_4, F_8, F_9 and F_16, whose constraint
  coefficients lie in F_p, so Frobenius applies; the filter shape is a
  graph whose h reads the square of the coordinate right of its pivot;
- weighted-homogeneous families over F_5 ... F_13 with weight(A_k) = d - k,
  so scaling applies; over F_8 and F_9 their coefficients lie in F_p, so
  Frobenius would apply as well and scaling must be the one taken; the
  filter shape has no clean linear term.

The slices of `partition_ranges` at 1, 2 and 3 parts, each scanned by
orbits and added, must equal the plain scan field for field, witnesses
included.  `_Scaling` is also checked against the orbits listed by brute
force, its orbit sizes and its normal form (the lex-least point) both, and
three families that admit neither action must take the plain path.
"""

from functools import reduce
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from valuesets import engine
from valuesets.engine import _Scaling, orbit_weigher, scan_family, scan_members
from valuesets.exprs import coeff_variables, parse_poly_expr
from valuesets.families import FamilySpec, linear_family, partition_ranges
from valuesets.ffield import field_new
from valuesets.multipoly import MultiPoly

MAX_CANDIDATES = 2500  # q^(d-1) ceiling that keeps the plain loop cheap


def _degree(draw, q):
    d_max = 3
    while q ** d_max <= MAX_CANDIDATES:
        d_max += 1
    return draw(st.integers(3, d_max))


def _term(n, exps, c):
    out = [0] * n
    for k in exps:
        out[k] += 1
    return tuple(out), c


@st.composite
def rational_families(draw):
    p, s = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4)]))
    field = field_new(p, s)
    d = _degree(draw, field.q)
    n = d - 1
    scalar = st.integers(1, p - 1)  # an index below p is an element of F_p
    j = draw(st.integers(0, n - 2))
    terms = dict([_term(n, [j], draw(scalar))])
    for _ in range(draw(st.integers(0, 3))):
        exps = draw(st.lists(st.integers(0, j - 1), max_size=3)) if j else []
        terms.update([_term(n, exps, draw(scalar))])
    if draw(st.booleans()):  # reads A_{j+1}, to the right: the filter
        terms.update([_term(n, [j + 1, j + 1], draw(scalar))])
    return FamilySpec(field, d, 1, [MultiPoly(field, n, terms)])


def _weighted_monomial(draw, n, weight, slots):
    """Exponents of a monomial of the given weight, variable k of weight k+1,
    in the variables `slots`; None when the draw finds none."""
    exps = []
    left = weight
    while left:
        fits = [k for k in slots if k + 1 <= left]
        if not fits:
            return None
        k = draw(st.sampled_from(fits))
        exps.append(k)
        left -= k + 1
    return exps


@st.composite
def homogeneous_families(draw):
    p, s = draw(st.sampled_from([(5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1)]))
    field = field_new(p, s)
    d = _degree(draw, field.q)
    n = d - 1
    # F_p coefficients over F_8 and F_9, so Frobenius applies as well
    coeff = st.integers(1, (p if s > 1 else field.q) - 1)
    if draw(st.booleans()):
        # c*A_j + h, h of weight j+1 in the variables left of j
        j = draw(st.integers(0, n - 1))
        terms = dict([_term(n, [j], draw(coeff))])
        for _ in range(draw(st.integers(0, 3))):
            exps = _weighted_monomial(draw, n, j + 1, range(j))
            if exps is not None:
                terms.update([_term(n, exps, draw(coeff))])
    else:
        # monomials of degree 2 or more only, so no term is clean
        weight = draw(st.integers(2, 2 * n))
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            exps = _weighted_monomial(draw, n, weight, range(n))
            if exps is not None and len(exps) >= 2:
                terms.update([_term(n, exps, draw(coeff))])
        assume(terms)
    return FamilySpec(field, d, 1, [MultiPoly(field, n, terms)])


def _added_slices(spec, parts):
    slices = [scan_family(spec, rng) for rng in partition_ranges(spec.space_size(), parts)]
    return reduce(lambda a, b: a.add(b), slices)


def _check_against_plain_loop(spec):
    assert orbit_weigher(spec) is not None
    plain = scan_members(spec)
    for parts in (1, 2, 3):
        total = _added_slices(spec, parts)
        assert total.patterns == plain.patterns
        assert total.witnesses == plain.witnesses
        assert total == plain


@settings(max_examples=80, deadline=None)
@given(rational_families())
def test_frobenius_weighted_scan_matches_plain_loop(spec):
    _check_against_plain_loop(spec)


@settings(max_examples=80, deadline=None)
@given(homogeneous_families())
def test_scaling_weighted_scan_matches_plain_loop(spec):
    # scaling is taken even where Frobenius applies too
    assert isinstance(orbit_weigher(spec).__self__, _Scaling)
    _check_against_plain_loop(spec)


@pytest.mark.parametrize("p, s", [(5, 1), (7, 1), (3, 2), (2, 3), (13, 1)])
def test_scaling_representatives_match_brute_force_orbits(p, s):
    field = field_new(p, s)
    q = field.q
    for weights in ([1, 2], [1, 3], [2, 4], [3, 1, 2]):
        scaling = _Scaling(field, weights)
        for a in product(range(q), repeat=len(weights)):
            orbit = {
                tuple(field.mul(field.pow(c, w), x) for w, x in zip(weights, a))
                for c in range(1, q)
            }
            assert scaling.size(a) == (len(orbit) if a == min(orbit) else 0)
            assert scaling.least_point(a) == min(orbit)


def _spec(field, d, text):
    return FamilySpec(field, d, 1, [parse_poly_expr(text, field, d - 1, coeff_variables(d))])


def _plain_path_cases():
    f16 = field_new(2, 4)
    # A2 + w*A4^3 + A3 + 1 with w = 2, the class of x, outside F_2
    nvars = 4
    outside = MultiPoly(f16, nvars, {(0, 0, 1, 0): 1, (3, 0, 0, 0): 2,
                                     (0, 1, 0, 0): 1, (0, 0, 0, 0): 1})
    f13 = field_new(13)
    sieve = linear_family(f13, 6, 2, [
        parse_poly_expr(text, f13, 5, coeff_variables(6))
        for text in ("3*A5 + 7*A3 + 5", "2*A4 + 11*A2 + 9")
    ])
    return [
        pytest.param(FamilySpec(f16, 5, 1, [outside]), id="coefficient-outside-F2"),
        pytest.param(sieve, id="constant-term"),
        pytest.param(_spec(field_new(7), 4, "A3 + A2"), id="mixed-weight"),
    ]


@pytest.mark.parametrize("spec", _plain_path_cases())
def test_families_without_a_symmetry_take_the_plain_path(spec, monkeypatch):
    assert orbit_weigher(spec) is None
    plain = scan_members(spec)
    walks = []
    true_enumerate = engine.enumerate_family

    def recorded(spec, *args):
        walks.append(args)
        return true_enumerate(spec, *args)

    monkeypatch.setattr(engine, "enumerate_family", recorded)
    assert scan_family(spec) == plain
    # the plain loop walks without a weigher
    assert walks == [(None,)]
