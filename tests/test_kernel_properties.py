"""Property tests: the table-driven kernels against their independent oracles.

Hypothesis draws a small field F_q with q in {2, 3, 4, 5, 7, 8, 9} and a
random family of monic degree-d polynomials cut out by up to two random
constraints of degree at most two.  Each kernel, which reads the field's
lookup rows, is compared with an oracle that goes through the `Field`
methods and `UniPoly`:

- the histogram scan against value sets and root counts of each f + a_0,
  and its multiplicity patterns against repeated division by (T - c);
- the scan's hermite and coincident counts against the prefix DFS
  (`hermite_profile`) for r <= d, and slice scans merged against the full
  scan, and worker-pool scans at 2 and 3 workers against the serial scan;
- the prefix DFS against the division oracle, which run one kernel over
  `enumerate_family` and over the candidate filter (so this checks that
  the two enumerators agree), and the division oracle's quotient chains
  against reducing f + a_0 modulo the node product and against the scan's
  hermite counts, for r <= 3 wherever the oracle's cost fits its budget;
- the literal S_r and distinct-tuple oracles against per-tuple Horner
  loops and against the scan's S_r and distinct counts, for r <= 3
  wherever the oracle's price fits the budget;
- the per-member repeated-root counts, and the scan's loci counts and
  first witnesses, against `poly_gcd(f + a_0, f')`.

Some draws take d divisible by p and may add the constraints a_k = 0 for
every k prime to p, so that f' vanishes identically on the whole family.

The charpoly sieve behind the repeated-root counts is also checked on raw
coefficient tuples over F_2 ... F_16 with d <= 8, weighted towards its edge
cases: p | d, f' = 0, deg f' = 0 and q <= deg f'.  There the counts must
equal the per-shift `poly_gcd` loop, the charpoly helper must equal
`linalg.det(xI - M)` at every x, and chi(-a_0) must vanish exactly where
`resultant(f + a_0, f')` does.
"""

from collections import Counter
from functools import reduce
from itertools import product
from math import comb, perm

from hypothesis import given, settings
from hypothesis import strategies as st

from valuesets import cli
from valuesets.engine import (
    _charpoly,
    _repeated_root_profile,
    scan_family,
    value_set_size,
)
from valuesets.families import FamilySpec, filter_family, partition_ranges
from valuesets.ffield import field_new
from valuesets.incidence import (
    check_pattern_counts,
    count_distinct_tuples_oracle,
    count_hermite_tuples_oracle,
    count_interpolating_sets_direct,
    hermite_profile,
)
from valuesets.linalg import det
from valuesets.multipoly import MultiPoly
from valuesets.unipoly import UniPoly, poly_gcd, resultant

from poly_reference import (
    from_roots,
    hermite_divides,
    literal_distinct_tuple_count,
    literal_interpolating_count,
)

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
MAX_CANDIDATES = 100  # q^(d-1) ceiling
MAX_DEGREE = 6
ORACLE_BUDGET = 8000  # oracle price ceiling, e.g. q^(r+1) * |A| divisibility tests


def _d_max(q):
    d_max = 2
    while d_max < MAX_DEGREE and q ** d_max <= MAX_CANDIDATES:
        d_max += 1
    return d_max


# fields with a multiple of p in [2, d_max]
WILD_FIELDS = [(p, s) for p, s in FIELDS if p <= _d_max(p**s)]


@st.composite
def families(draw, p_divides_d=False):
    p, s = draw(st.sampled_from(WILD_FIELDS if p_divides_d else FIELDS))
    field = field_new(p, s)
    q = field.q
    d_max = _d_max(q)
    if p_divides_d:
        d = draw(st.sampled_from(range(p, d_max + 1, p)))
    else:
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
    if p_divides_d and draw(st.booleans()):
        # a_k = 0 for p not dividing k (variable d-1-k): f' = 0 on every member
        for k in range(1, d):
            if k % p:
                exp = [0] * nvars
                exp[d - 1 - k] = 1
                constraints.append(MultiPoly(field, nvars, {tuple(exp): 1}))
    return FamilySpec(field, d, len(constraints), constraints)


any_families = st.booleans().flatmap(families)


def _member_poly(field, member, a0=0):
    return UniPoly(field, [a0] + list(reversed(member)) + [1])


def _multiplicity(f, c):
    linear = from_roots(f.field, [c])
    e = 0
    while True:
        quo, rem = f.divmod(linear)
        if not rem.is_zero():
            return e
        f, e = quo, e + 1


@settings(max_examples=60, deadline=None)
@given(any_families)
def test_histogram_scan_matches_value_sets(spec):
    field = spec.field
    members = list(filter_family(spec))
    scan = scan_family(spec)
    assert scan.member_count == len(members)
    assert scan.sum_values == sum(
        value_set_size(_member_poly(field, member)) for member in members
    )
    profile = [0] * (spec.d + 1)
    patterns = Counter()
    for member in members:
        for a0 in field.indices():
            f = _member_poly(field, member, a0)
            roots = f.roots()
            profile[len(roots)] += 1
            mults = sorted(_multiplicity(f, c) for c in roots)
            if any(e > 1 for e in mults):
                patterns[tuple(mults)] += 1
    assert scan.profile == profile
    assert scan.patterns == patterns


@settings(max_examples=60, deadline=None)
@given(any_families)
def test_pattern_counts_match_prefix_dfs(spec):
    scan = scan_family(spec)
    star, coinc = hermite_profile(spec, spec.d)
    check_pattern_counts(scan, star, coinc)
    for r in range(1, spec.d + 1):
        assert scan.hermite_count(r) == star[r - 1]
        assert scan.coincident_count(r) == coinc[r - 1]


@settings(max_examples=60, deadline=None)
@given(any_families, st.integers(2, 4))
def test_slice_scans_merge_to_full_scan(spec, parts):
    full = scan_family(spec)
    slices = [
        scan_family(spec, rng) for rng in partition_ranges(spec.space_size(), parts)
    ]
    merged = reduce(lambda a, b: a.merge(b), slices)
    assert merged.patterns == full.patterns
    assert merged == full


@settings(max_examples=20, deadline=None)
@given(any_families)
def test_worker_scans_equal_serial_scan(spec):
    # the scan is the only part of a run that depends on the worker count
    serial = cli._gather(spec, 1)
    for workers in (2, 3):
        assert cli._gather(spec, workers) == serial


@settings(max_examples=60, deadline=None)
@given(any_families)
def test_prefix_dfs_matches_division_oracle(spec):
    # one kernel over both enumerators: the direct walk and the filter agree
    q = spec.field.q
    members = scan_family(spec).member_count
    star, _ = hermite_profile(spec, 3)
    for r in range(1, 4):
        if q ** (r + 1) * members <= ORACLE_BUDGET:
            assert star[r - 1] == count_hermite_tuples_oracle(
                spec, r, ORACLE_BUDGET, members
            ), (spec, r)


@settings(max_examples=60, deadline=None)
@given(any_families)
def test_division_oracle_matches_product_and_mod(spec):
    # the quotient chain against the node product reduced modulo, and
    # against the scan's hermite counts
    field = spec.field
    q = field.q
    members = list(filter_family(spec))
    scan = scan_family(spec)
    for r in range(1, 4):
        if q ** (r + 1) * len(members) > ORACLE_BUDGET:
            continue
        reference = sum(
            hermite_divides(_member_poly(field, member, a0), nodes)
            for member in members
            for a0 in field.indices()
            for nodes in product(range(q), repeat=r)
        )
        got = count_hermite_tuples_oracle(spec, r, ORACLE_BUDGET, len(members))
        assert got == reference == scan.hermite_count(r), (spec, r)


@settings(max_examples=60, deadline=None)
@given(any_families)
def test_literal_oracles_match_reference_loops(spec):
    # the shared kernel against the per-tuple Horner loops, and against the scan
    field = spec.field
    q = field.q
    members = list(filter_family(spec))
    n = len(members)
    scan = scan_family(spec)
    for r in range(1, 4):
        if comb(q, r) * n <= ORACLE_BUDGET:
            got = count_interpolating_sets_direct(spec, r, ORACLE_BUDGET, n)
            reference = literal_interpolating_count(field, members, r)
            assert got == reference == scan.interpolating_count(r), (spec, r)
        if q * perm(q, r) * n <= ORACLE_BUDGET:
            got = count_distinct_tuples_oracle(spec, r, ORACLE_BUDGET, n)
            reference = literal_distinct_tuple_count(field, members, r)
            assert got == reference == scan.distinct_tuple_count(r), (spec, r)


def _gcd_loci(field, member):
    """One member's [n1, n2, zero] loci counts and first witnesses by
    `poly_gcd`, in the shape `_repeated_root_profile` accumulates."""
    deriv = _member_poly(field, member).derivative()
    loci = [0, 0, field.q if deriv.is_zero() else 0]
    witnesses = [None, None]
    for a0 in field.indices():
        g = poly_gcd(_member_poly(field, member, a0), deriv).degree
        for i in range(2):
            if g > i:
                loci[i] += 1
                if witnesses[i] is None:
                    witnesses[i] = (*member, a0)
    return loci, witnesses


@settings(max_examples=60, deadline=None)
@given(any_families)
def test_repeated_root_counts_match_gcd(spec):
    field = spec.field
    for member in filter_family(spec):
        loci, witnesses = [0, 0, 0], [None, None]
        _repeated_root_profile(field, member, loci, witnesses)
        assert (loci, witnesses) == _gcd_loci(field, member)


@settings(max_examples=60, deadline=None)
@given(any_families)
def test_scan_loci_match_gcd(spec):
    # per-member references summed in filter order, earliest witness kept
    loci, witnesses = [0, 0, 0], [None, None]
    for member in filter_family(spec):
        counts, firsts = _gcd_loci(spec.field, member)
        loci = [a + b for a, b in zip(loci, counts)]
        witnesses = [w if w is not None else f for w, f in zip(witnesses, firsts)]
    scan = scan_family(spec)
    assert scan.loci == loci
    assert scan.witnesses == witnesses


# F_2 ... F_16, with F_13 and F_16 beyond the family draws above
SIEVE_FIELDS = FIELDS + [(13, 1), (2, 4)]
SIEVE_MAX_DEGREE = 8
SIEVE_CASES = ["any", "p_divides_d", "zero_derivative", "constant_derivative", "q_le_e"]


@st.composite
def member_tuples(draw):
    """(field, a_desc) for a monic f of degree d <= 8, most draws aimed at
    one of the sieve's edge cases."""
    case = draw(st.sampled_from(SIEVE_CASES))
    if case == "any":
        p, s = draw(st.sampled_from(SIEVE_FIELDS))
        d = draw(st.integers(2, SIEVE_MAX_DEGREE))
    elif case == "q_le_e":  # e = d - 1 >= q unless p | d
        p, s = draw(st.sampled_from([f for f in SIEVE_FIELDS if f[0] ** f[1] < 8]))
        d = draw(st.integers(p**s + 1, SIEVE_MAX_DEGREE))
    else:
        p, s = draw(st.sampled_from([f for f in SIEVE_FIELDS if f[0] <= SIEVE_MAX_DEGREE]))
        d = draw(st.sampled_from(range(p, SIEVE_MAX_DEGREE + 1, p)))
    field = field_new(p, s)
    q = field.q
    a = draw(st.lists(st.integers(0, q - 1), min_size=d - 1, max_size=d - 1))
    if case in ("zero_derivative", "constant_derivative"):
        for k in range(1, d):  # a_k is a[d - 1 - k]; k a_k T^(k-1) drops out
            if k % p:
                a[d - 1 - k] = 0
        if case == "constant_derivative":  # f' = a_1
            a[d - 2] = draw(st.integers(1, q - 1))
    return field, tuple(a)


@settings(max_examples=300, deadline=None)
@given(member_tuples())
def test_sieve_matches_gcd_on_coefficient_tuples(drawn):
    field, a = drawn
    loci, witnesses = [0, 0, 0], [None, None]
    _repeated_root_profile(field, a, loci, witnesses)
    assert (loci, witnesses) == _gcd_loci(field, a)


@st.composite
def square_matrices(draw):
    """(field, m) with m an n x n matrix, n <= 6, zeros weighted up so that
    the Hessenberg reduction must search for pivots and swap them in."""
    field = field_new(*draw(st.sampled_from(SIEVE_FIELDS)))
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(0, field.q - 1))
    row = st.lists(entry, min_size=n, max_size=n)
    return field, draw(st.lists(row, min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_charpoly_matches_determinant(drawn):
    field, m = drawn
    n = len(m)
    chi = UniPoly(field, _charpoly(field.rows(), m))
    assert chi.degree == n and chi.lc == 1
    for x in field.indices():
        shifted = [
            [field.sub(x if i == j else 0, m[i][j]) for j in range(n)] for i in range(n)
        ]
        assert chi.eval(x) == det(field, shifted), (m, x)


def _multiplication_matrix(r, h):
    """Matrix of multiplication by r on F_q[T]/(h): column i is r T^i mod h."""
    field, e = r.field, h.degree
    t = UniPoly(field, [0, 1])
    cols = []
    col = r % h
    for _ in range(e):
        cols.append([col.coefficient(j) for j in range(e)])
        col = (col * t) % h
    return [list(row) for row in zip(*cols)]


@settings(max_examples=200, deadline=None)
@given(member_tuples())
def test_charpoly_roots_are_resultant_zeros(drawn):
    field, a = drawn
    f = _member_poly(field, a)
    deriv = f.derivative()
    if deriv.degree < 1:
        return
    chi = UniPoly(field, _charpoly(field.rows(), _multiplication_matrix(f, deriv)))
    for a0 in field.indices():
        at_shift = chi.eval(field.neg(a0)) == 0
        assert at_shift == (resultant(_member_poly(field, a, a0), deriv) == 0)
