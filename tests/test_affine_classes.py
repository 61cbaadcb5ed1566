"""The scan's affine classes: `engine._affine_key` and the memoized scan.

`scan_family` runs the per-member kernels once per affine class, the
members f and c^(-d) f(c(T + b)) + e (constant term dropped), and counts
its first walked member's one-member scan for every member of it.
Checked here:

- the key: a random affine image of a member has the member's key (b = 0
  when p | d, where the key only scales), and on small spaces each class
  of equal keys is exactly one orbit, listed by brute force;
- the memoized scan against `scan_members`, the plain loop, field for field
  with the witnesses: over F_2, F_3, F_5, F_7, F_4, F_8, F_9 and F_16,
  d = 2..6 with p | d and f' = 0 among the draws, on weighted and
  unweighted walks, whole and in 2 or 3 added slices;
- each witness against the lex-least pair of its locus, by `poly_gcd` over
  every (member, a_0), and slice scans added in shuffled order against the
  whole scan, over F_2 ... F_9 with d = 2..5;
- the witnesses where the first member with a repeated root is not the
  first member walked, and in a slice whose first such member's class was
  first walked in an earlier slice; one kernel run per class, and the
  cache bound.
"""

from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuesets import engine
from valuesets.engine import ScanResult, _affine_key, orbit_weigher, scan_family, scan_members
from valuesets.exprs import coeff_variables, parse_poly_expr
from valuesets.families import FamilySpec, enumerate_family, partition_ranges
from valuesets.ffield import field_new
from valuesets.multipoly import MultiPoly
from valuesets.unipoly import UniPoly, poly_gcd

FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (2, 4)]
MAX_MEMBERS = 400


def _affine_image(field, a, c, b):
    """(a'_{d-1}, ..., a'_1) of c^(-d) f(c(T + b)), f = T^d + ... + a_1 T,
    by expanding the powers of cT + cb with the `Field` methods."""
    add, mul = field.add, field.mul
    d = len(a) + 1
    lin = [mul(c, b), c]
    image = [0] * (d + 1)
    power = [1]
    for coef in [0, *reversed(a), 1]:
        for i, x in enumerate(power):
            image[i] = add(image[i], mul(coef, x))
        nxt = [0] * (len(power) + 1)
        for i, x in enumerate(power):
            for j, y in enumerate(lin):
                nxt[i + j] = add(nxt[i + j], mul(x, y))
        power = nxt
    scale = field.inv(field.pow(c, d))
    image = [mul(scale, x) for x in image]
    assert image[d] == 1
    return tuple(reversed(image[1:d]))


@st.composite
def members(draw):
    field = field_new(*draw(st.sampled_from(FIELDS)))
    d = draw(st.integers(2, 6))
    a = tuple(draw(st.lists(st.integers(0, field.q - 1), min_size=d - 1, max_size=d - 1)))
    c = draw(st.integers(1, field.q - 1))
    b = draw(st.integers(0, field.q - 1)) if d % field.p else 0
    return field, a, c, b


@settings(max_examples=300, deadline=None)
@given(members())
def test_affine_images_share_the_key(drawn):
    field, a, c, b = drawn
    key = _affine_key(field, len(a) + 1)
    assert key(_affine_image(field, a, c, b)) == key(a)


@pytest.mark.parametrize("p, s, d", [
    (2, 1, 3), (2, 1, 4), (3, 1, 3), (3, 1, 4), (5, 1, 3), (5, 1, 4), (7, 1, 3),
    (2, 2, 3), (2, 2, 4), (2, 3, 3), (3, 2, 3),
])
def test_equal_keys_are_exactly_the_orbits(p, s, d):
    # the whole affine group when p does not divide d, the scalings when it does
    field = field_new(p, s)
    q = field.q
    key = _affine_key(field, d)
    classes = {}
    for a in product(range(q), repeat=d - 1):
        classes.setdefault(key(a), set()).add(a)
    shifts = range(q) if d % p else [0]
    for members_of_class in classes.values():
        a = min(members_of_class)
        orbit = {_affine_image(field, a, c, b) for c in range(1, q) for b in shifts}
        assert orbit == members_of_class


def _pivot(field, n, j, coefficient, left, constant=0):
    """c*A_j + c'*m + constant, m a monomial of weight j + 1 (variable k of
    weight k + 1) in the variables `left` of j, or none when m has none."""
    terms = {tuple(int(k == j) for k in range(n)): coefficient}
    exps = [0] * n
    weight = j + 1
    for k in sorted(left, reverse=True):
        while k + 1 <= weight:
            exps[k] += 1
            weight -= k + 1
    if left and weight == 0:
        terms[tuple(exps)] = coefficient
    if constant:
        terms[(0,) * n] = constant
    return MultiPoly(field, n, terms)


@st.composite
def graph_families(draw, p, s, walk, max_d=6):
    """A family walked directly: each coordinate free, pinned to 0, or pinned
    to a weight-homogeneous monomial in the coordinates left of it.

    walk "scaling" keeps every constraint weighted homogeneous; "frobenius"
    (s > 1) adds an F_p constant to one pin, so only Frobenius applies;
    "plain" adds a constant outside F_p (any nonzero one at s = 1), so
    neither does.  With `wild`, d is a multiple of p where one fits, and
    may pin every a_k with p not dividing k to 0, so that f' = 0.
    """
    field = field_new(p, s)
    q = field.q
    degrees = range(2, max_d + 1)
    ds = [d for d in degrees if d % p == 0] if draw(st.booleans()) else []
    d = draw(st.sampled_from(ds or list(degrees)))
    n = d - 1
    derivative_zero = d % p == 0 and draw(st.booleans())
    coefficient = st.integers(1, p - 1) if walk == "frobenius" else st.integers(1, q - 1)
    roles = []
    free = 0
    for j in range(n):
        k = d - 1 - j  # variable j is A_k
        if derivative_zero and k % p:
            roles.append("zero")
            continue
        role = draw(st.sampled_from(["free", "zero", "graph"]))
        if role == "free" and q ** (free + 1) > MAX_MEMBERS:
            role = "graph"
        free += role == "free"
        roles.append(role)
    pinned = [j for j, role in enumerate(roles) if role != "free"]
    if walk != "scaling" and not pinned:
        roles[0] = "graph"
        pinned = [0]
    constant_at = draw(st.sampled_from(pinned)) if walk != "scaling" else None
    constant = 0
    if walk == "frobenius":
        constant = draw(st.integers(1, p - 1))
    elif walk == "plain":
        constant = draw(st.integers(p if s > 1 else 1, q - 1))
    constraints = []
    for j, role in enumerate(roles):
        if role == "free":
            continue
        left = [k for k in range(j) if roles[k] == "free"] if role == "graph" else []
        constraints.append(_pivot(field, n, j, draw(coefficient), left,
                                  constant if j == constant_at else 0))
    return FamilySpec(field, d, len(constraints), constraints)


WALKS = [
    pytest.param(p, s, walk, id=f"F{p ** s}-{walk}")
    for p, s in FIELDS
    for walk in ("plain", "scaling", "frobenius")
    if not (walk == "scaling" and p ** s == 2) and not (walk == "frobenius" and s == 1)
]


@pytest.mark.parametrize("p, s, walk", WALKS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_memoized_scan_equals_plain_loop(p, s, walk, data):
    spec = data.draw(graph_families(p, s, walk))
    assert spec.direct
    weigher = orbit_weigher(spec)
    if walk == "plain":
        assert weigher is None
    elif walk == "scaling":
        assert isinstance(weigher.__self__, engine._Scaling)
    else:
        assert weigher is not None and not hasattr(weigher, "__self__")
    plain = scan_members(spec)
    assert scan_family(spec) == plain
    parts = data.draw(st.integers(2, 3))
    slices = [scan_family(spec, rng) for rng in partition_ranges(spec.space_size(), parts)]
    total = reduce(lambda x, y: x.add(y), slices)
    assert total.witnesses == plain.witnesses
    assert total == plain


def _least_locus_pairs(spec):
    """The lex-least (a_{d-1}, ..., a_1, a_0) with deg gcd(f + a_0, f') >= 1
    resp. >= 2 among every member's pairs, by `poly_gcd`; None for an empty
    locus."""
    field = spec.field
    least = [None, None]
    for member in sorted(enumerate_family(spec)):
        tail = [*reversed(member), 1]
        deriv = UniPoly(field, [0, *tail]).derivative()
        for a0 in field.indices():
            g = poly_gcd(UniPoly(field, [a0, *tail]), deriv).degree
            for i in range(min(g, 2)):
                if least[i] is None:
                    least[i] = (*member, a0)
        if None not in least:
            break
    return least


@pytest.mark.parametrize("p, s, walk", [w for w in WALKS if w.values[:2] != (2, 4)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_witnesses_are_the_lex_least_pairs(p, s, walk, data):
    spec = data.draw(graph_families(p, s, walk, max_d=5))
    whole = scan_family(spec)
    assert whole.witnesses == _least_locus_pairs(spec)
    parts = data.draw(st.integers(2, 4))
    slices = [scan_family(spec, rng) for rng in partition_ranges(spec.space_size(), parts)]
    total = ScanResult.empty(spec.d)
    for part in data.draw(st.permutations(slices)):
        total.add(part)
    assert total == whole


def test_witnesses_come_from_the_first_member_with_a_repeated_root():
    # A1 = 3 over F_7, d = 3: the members (a_2, 3) fall into three classes.
    # (0, 3) and (1, 3) have no repeated root; (2, 3) is the first member
    # with one, and (5, 3) in its class has another least shift.  The second
    # of two slices starts at (4, 3), whose class was first walked at (3, 3)
    # in the first slice.
    field = field_new(7)
    spec = FamilySpec(field, 3, 1, [parse_poly_expr("A1 - 3", field, 2, coeff_variables(3))])
    key = _affine_key(field, 3)
    assert key((0, 3)) == key((1, 3)) != key((2, 3)) == key((5, 3)) != key((3, 3)) == key((4, 3))
    assert scan_members(spec, (5, 6)).witnesses[0] == (5, 3, 1)
    whole = scan_family(spec)
    assert whole.witnesses == [(2, 3, 2), (3, 3, 1)]
    assert whole == scan_members(spec)
    first, second = partition_ranges(spec.space_size(), 2)
    assert second == (4, 7)
    tail = scan_family(spec, second)
    assert tail.witnesses == [(4, 3, 6), (4, 3, 6)]
    assert tail == scan_members(spec, second)
    assert scan_family(spec, first).add(tail) == whole


def test_scan_runs_the_kernels_once_per_class(monkeypatch):
    field = field_new(13)
    spec = FamilySpec(field, 5, 1, [parse_poly_expr("A4 - 3", field, 4, coeff_variables(5))])
    key = _affine_key(field, 5)
    classes = {key(m) for m in enumerate_family(spec)}
    calls = []
    true_scan_member = engine._scan_member

    def counted(*args):
        calls.append(args[2])
        return true_scan_member(*args)

    monkeypatch.setattr(engine, "_scan_member", counted)
    memo = scan_family(spec)
    assert len(calls) == len(classes) < spec.space_size() // 10
    # past the bound every new class is scanned and added, not stored
    monkeypatch.setattr(engine, "CLASS_CACHE_MAX", 3)
    calls.clear()
    assert scan_family(spec) == memo
    stored = {key(m) for m in calls[:3]}
    assert len(calls) == 3 + sum(1 for m in enumerate_family(spec) if key(m) not in stored)
    assert memo == scan_members(spec)
