"""Property tests: the direct enumerator against the candidate filter.

Hypothesis draws a small field F_{p^s}, a degree d and a constraint system.
Linear draws are m random affine forms in A_{d-1}..A_2 built through
`linear_family`: a full-rank draw is solved, has exactly q^(d-1-m) members,
and anything else is refused.  Custom draws mix graph forms
c*A_j + h(coordinates left of j), graph forms whose h also reads
coordinates right of j, linear forms over every slot (A1 included) and
arbitrary quadratics, and may or may not solve.  Either way the enumerated
members must equal the filtered candidates as an ordered list, slices of
the walked index space and slices of the candidate space must each
concatenate to that list, a solved family has exactly q^(free) members,
and a family walked directly walks exactly its members.  The regularity
check reads a solved family's points and Jacobian rank off its solution;
over F_q and F_{q^2} that must equal the Jacobian ranked at every filtered
candidate (`poly_reference.walk_rank`).  So must `_walk_rank`, which walks
an unsolved family only over the coordinates its constraints involve.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from valuesets.diagnostics import _embedded_spec, _walk_rank, check_regularity
from valuesets.errors import ParameterRange, RankDeficient
from valuesets.families import (
    FamilySpec,
    enumerate_family,
    filter_family,
    linear_family,
    partition_ranges,
)
from valuesets.ffield import field_new
from valuesets.linalg import rank
from valuesets.multipoly import MultiPoly

from poly_reference import walk_rank

# (p, s) with q = p^s in {2, 3, 4, 5, 7, 8, 9}; extension fields included
FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)]
MAX_CANDIDATES = 2500  # q^(d-1) ceiling that keeps the filter cheap


def _field_and_degree(draw):
    p, s = draw(st.sampled_from(FIELDS))
    field = field_new(p, s)
    d_max = 3
    while field.q ** d_max <= MAX_CANDIDATES:
        d_max += 1
    return field, draw(st.integers(3, d_max))


@st.composite
def linear_systems(draw):
    field, d = _field_and_degree(draw)
    q = field.q
    m = draw(st.integers(1, d - 2))
    element = st.integers(0, q - 1)
    rows = draw(st.lists(st.lists(element, min_size=d - 1, max_size=d - 1),
                         min_size=m, max_size=m))
    return field, d, m, rows


def _form(field, nvars, row):
    """sum_j row[j] * (variable j), plus row[-1]; variable 0 is A_{d-1}."""
    terms = {(0,) * nvars: row[-1]}
    for j, c in enumerate(row[:-1]):
        exps = [0] * nvars
        exps[j] = 1
        terms[tuple(exps)] = c
    return MultiPoly(field, nvars, terms)


def _concatenated_slices(spec, parts):
    """Each walk's `partition_ranges` slices, concatenated: the direct
    enumerator's over space_size() and the filter's over the q^(d-1)
    candidates."""
    candidates = spec.field.q ** (spec.d - 1)
    return [
        [a for rng in partition_ranges(total, parts) for a in walk(spec, rng)]
        for walk, total in (
            (enumerate_family, spec.space_size()),
            (filter_family, candidates),
        )
    ]


@settings(max_examples=150, deadline=None)
@given(linear_systems(), st.integers(1, 6))
def test_direct_enumeration_matches_filter(system, parts):
    field, d, m, rows = system
    forms = [_form(field, d - 1, row) for row in rows]  # A1 left out
    if any(g.total_degree != 1 for g in forms):
        # a zero linear part leaves a constant, not an affine form
        with pytest.raises(ParameterRange):
            linear_family(field, d, m, forms)
        return
    if rank(field, [row[:-1] for row in rows]) < m:
        with pytest.raises(RankDeficient):
            linear_family(field, d, m, forms)
        return
    spec = linear_family(field, d, m, forms)
    direct = list(enumerate_family(spec))
    assert direct == list(filter_family(spec))
    assert len(direct) == spec.space_size() == field.q ** (d - 1 - m)
    for pieces in _concatenated_slices(spec, parts):
        assert pieces == direct


def _monomials(draw, field, nvars, slots, max_degree, min_terms):
    """Random polynomial in nvars variables that reads only `slots`."""
    terms = {}
    for _ in range(draw(st.integers(min_terms, 3))):
        exps = [0] * nvars
        if slots:
            for k in draw(st.lists(st.sampled_from(slots), max_size=max_degree)):
                exps[k] += 1
        terms[tuple(exps)] = draw(st.integers(1, field.q - 1))
    return MultiPoly(field, nvars, terms)


@st.composite
def custom_systems(draw):
    field, d = _field_and_degree(draw)
    n = d - 1
    element = st.integers(0, field.q - 1)
    constraints = []
    for _ in range(draw(st.integers(1, min(3, n)))):
        shape = draw(st.sampled_from(["graph", "graph_right", "linear", "quadratic"]))
        if shape == "graph":
            j = draw(st.integers(0, n - 1))
            c = draw(st.integers(1, field.q - 1))
            g = MultiPoly.variable(field, n, j).scale(c)
            g = g + _monomials(draw, field, n, list(range(j)), 3, 0)
        elif shape == "graph_right":
            # c*A_j + h, h reading the squares of A_j's neighbours on each side
            j = draw(st.integers(0, n - 2))
            c = draw(st.integers(1, field.q - 1))
            exps = tuple(2 if abs(k - j) == 1 else 0 for k in range(n))
            h = MultiPoly(field, n, {exps: draw(st.integers(1, field.q - 1))})
            h = h + _monomials(draw, field, n, list(range(j)), 2, 0)
            g = MultiPoly.variable(field, n, j).scale(c) + h
        elif shape == "linear":
            row = draw(st.lists(element, min_size=n + 1, max_size=n + 1))
            g = _form(field, n, row)  # every slot, A1 included
        else:
            g = _monomials(draw, field, n, list(range(n)), 2, 1)
        constraints.append(g)
    return field, d, constraints


@settings(max_examples=150, deadline=None)
@given(custom_systems(), st.integers(1, 6))
def test_solved_custom_enumeration_matches_filter(system, parts):
    field, d, constraints = system
    assume(not any(g.is_zero() for g in constraints))
    spec = FamilySpec(field, d, len(constraints), constraints)
    direct = list(enumerate_family(spec))
    assert direct == list(filter_family(spec))
    if spec.solution is not None:
        assert len(direct) == field.q ** len(spec.solution[0])
    if spec.direct:
        assert len(direct) == spec.space_size()
    else:
        assert spec.space_size() == field.q ** (d - 1)
    for pieces in _concatenated_slices(spec, parts):
        assert pieces == direct


@st.composite
def solved_specs(draw):
    if draw(st.booleans()):
        field, d, m, rows = draw(linear_systems())
        forms = [_form(field, d - 1, row) for row in rows]
        assume(all(g.total_degree == 1 for g in forms))
        assume(rank(field, [row[:-1] for row in rows]) == m)
        return linear_family(field, d, m, forms)
    field, d, constraints = draw(custom_systems())
    # the size bracket needs d >= m + 2, as every config does
    assume(len(constraints) <= d - 2 and not any(g.is_zero() for g in constraints))
    spec = FamilySpec(field, d, len(constraints), constraints)
    assume(spec.solution is not None)
    return spec


def _small_degrees(spec):
    """Extension degrees k in (1, 2) whose q^(k(d-1)) candidates the reference walks."""
    return tuple(k for k in (1, 2) if spec.field.q ** (k * (spec.d - 1)) <= 20_000)


@settings(max_examples=150, deadline=None)
@given(solved_specs())
def test_solved_regularity_closed_form_matches_walk(spec):
    ks = _small_degrees(spec)
    rep = check_regularity(spec, ks)
    for k in ks:
        points = spec.field.q ** (k * len(spec.solution[0]))
        assert (rep.evidence[f"k{k}.points"], rep.evidence[f"k{k}.deficient"]) == (points, 0)
        assert walk_rank(_embedded_spec(spec, k)) == (points, 0, None)


@st.composite
def unsolved_specs(draw):
    field, d, constraints = draw(custom_systems())
    assume(not any(g.is_zero() for g in constraints))
    if draw(st.booleans()):
        # the highest forms, as the check at infinity walks them; A3^3 and
        # the like leave coordinates uninvolved
        constraints = [g.highest_form() for g in constraints]
    spec = FamilySpec(field, d, len(constraints), constraints)
    assume(spec.solution is None)
    return spec


@settings(max_examples=150, deadline=None)
@given(unsolved_specs())
def test_walk_over_involved_coordinates_matches_full_walk(spec):
    for k in _small_degrees(spec):
        ext = _embedded_spec(spec, k)
        assert _walk_rank(ext) == walk_rank(ext)
