"""Property tests: the direct linear enumerator against the candidate filter.

Hypothesis draws a small field F_{p^s}, a degree d, a rank m and m random
affine forms in A_{d-1}..A_2.  For a full-rank draw the directly walked
members must equal the filtered candidates as an ordered list, slices of
the member index space must concatenate to that list, and the family has
exactly q^(d-1-m) members.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuesets.errors import ParameterRange, RankDeficient
from valuesets.families import (
    enumerate_family,
    filter_family,
    linear_family,
    partition_ranges,
)
from valuesets.ffield import field_new
from valuesets.linalg import rank
from valuesets.multipoly import MultiPoly

# (p, s) with q = p^s in {2, 3, 4, 5, 7, 8, 9}; extension fields included
FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)]
MAX_CANDIDATES = 2500  # q^(d-1) ceiling that keeps the filter cheap


@st.composite
def linear_systems(draw):
    p, s = draw(st.sampled_from(FIELDS))
    field = field_new(p, s)
    q = field.q
    d_max = 3
    while q ** d_max <= MAX_CANDIDATES:
        d_max += 1
    d = draw(st.integers(3, d_max))
    m = draw(st.integers(1, d - 2))
    element = st.integers(0, q - 1)
    rows = draw(st.lists(st.lists(element, min_size=d - 1, max_size=d - 1),
                         min_size=m, max_size=m))
    return field, d, m, rows


def _form(field, d, row):
    """sum_j row[j] * A_{d-1-j} over the slots A_{d-1}..A_2, plus row[-1]."""
    terms = {(0,) * (d - 1): row[-1]}
    for j, c in enumerate(row[:-1]):
        exps = [0] * (d - 1)
        exps[j] = 1
        terms[tuple(exps)] = c
    return MultiPoly(field, d - 1, terms)


@settings(max_examples=150, deadline=None)
@given(linear_systems(), st.integers(1, 6))
def test_direct_enumeration_matches_filter(system, parts):
    field, d, m, rows = system
    forms = [_form(field, d, row) for row in rows]
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
    pieces = []
    for rng in partition_ranges(spec.space_size(), parts):
        pieces.extend(enumerate_family(spec, partition=rng))
    assert pieces == direct
