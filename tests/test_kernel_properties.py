"""Property tests: the table-driven kernels against their independent oracles.

Hypothesis draws a small field F_q with q in {2, 3, 4, 5, 7, 8, 9} and a
random family of monic degree-d polynomials cut out by up to two random
constraints of degree at most two.  Each kernel, which reads the field's
lookup rows, is compared with an oracle that goes through the `Field`
methods and `UniPoly`:

- the histogram scan against value sets and root counts of each f + a_0;
- the prefix DFS (`hermite_profile`) against the division oracle for
  r <= 3, wherever the oracle's cost fits its budget;
- the per-member repeated-root counts against `poly_gcd(f + a_0, f')`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from valuesets.diagnostics import _repeated_root_profile
from valuesets.engine import scan_family, value_set_size
from valuesets.families import FamilySpec, filter_family
from valuesets.ffield import field_new
from valuesets.incidence import count_hermite_tuples_oracle, hermite_profile
from valuesets.multipoly import MultiPoly
from valuesets.unipoly import UniPoly, poly_gcd

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
MAX_CANDIDATES = 100  # q^(d-1) ceiling
MAX_DEGREE = 6
ORACLE_BUDGET = 8000  # q^(r+1) * |A| divisibility tests per oracle call


@st.composite
def families(draw):
    p, s = draw(st.sampled_from(FIELDS))
    field = field_new(p, s)
    q = field.q
    d_max = 2
    while d_max < MAX_DEGREE and q ** d_max <= MAX_CANDIDATES:
        d_max += 1
    d = d_max - draw(st.integers(0, d_max - 2))  # lean towards the largest d
    nvars = d - 1
    exps = st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars).filter(
        lambda e: sum(e) <= 2
    )
    term = st.tuples(exps.map(tuple), st.integers(1, q - 1))
    constraints = []
    for _ in range(draw(st.integers(0, 2))):
        g = MultiPoly(field, nvars, dict(draw(st.lists(term, min_size=1, max_size=3))))
        if not g.is_zero():
            constraints.append(g)
    return FamilySpec(field, d, len(constraints), constraints)


def _member_poly(field, member, a0=0):
    return UniPoly(field, [a0] + list(reversed(member.a)) + [1])


@settings(max_examples=60, deadline=None)
@given(families())
def test_histogram_scan_matches_value_sets(spec):
    field = spec.field
    members = list(filter_family(spec))
    scan = scan_family(spec)
    assert scan.member_count == len(members)
    assert scan.sum_values == sum(
        value_set_size(_member_poly(field, member)) for member in members
    )
    profile = [0] * (spec.d + 1)
    for member in members:
        for a0 in field.indices():
            profile[len(_member_poly(field, member, a0).roots())] += 1
    assert scan.profile == profile


@settings(max_examples=60, deadline=None)
@given(families())
def test_prefix_dfs_matches_division_oracle(spec):
    q = spec.field.q
    members = scan_family(spec).member_count
    star, _ = hermite_profile(spec, 3)
    for r in range(1, 4):
        if q ** (r + 1) * members <= ORACLE_BUDGET:
            assert star[r - 1] == count_hermite_tuples_oracle(
                spec, r, ORACLE_BUDGET, members
            ), (spec, r)


@settings(max_examples=60, deadline=None)
@given(families())
def test_repeated_root_counts_match_gcd(spec):
    field, d = spec.field, spec.d
    for member in filter_family(spec):
        deriv = _member_poly(field, member).derivative()
        n1 = n2 = 0
        first1 = first2 = None
        for a0 in field.indices():
            g = poly_gcd(_member_poly(field, member, a0), deriv).degree
            if g >= 1:
                n1 += 1
                first1 = a0 if first1 is None else first1
            if g >= 2:
                n2 += 1
                first2 = a0 if first2 is None else first2
        assert _repeated_root_profile(field, member.a, d) == (n1, n2, first1, first2)
