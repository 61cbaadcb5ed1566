"""Property tests: `linalg` against the textbook definitions.

`det` is the reference for `engine._charpoly` and `rank` ranks every
Jacobian of the regularity walk, so both are checked here against sums
that share nothing with Gaussian elimination: `det` against the Leibniz
sum over permutations, `rank` against the largest k that has a nonzero
k x k minor, each minor a Leibniz sum too.  Matrices are drawn over F_2,
F_3, F_4, F_5 and F_9 with up to 4 rows and columns.
"""

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuesets.ffield import field_new
from valuesets.linalg import det, rank

FIELDS = {p**s: field_new(p, s) for p, s in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2))}


def leibniz(field, rows):
    """sum over permutations s of sign(s) * prod_i rows[i][s(i)]."""
    n = len(rows)
    total = 0
    for sigma in permutations(range(n)):
        term = 1
        for i, j in enumerate(sigma):
            term = field.mul(term, rows[i][j])
        inversions = sum(a > b for a, b in combinations(sigma, 2))
        total = field.add(total, field.neg(term) if inversions % 2 else term)
    return total


def minor_rank(field, rows):
    """The largest k such that some k x k minor is nonzero."""
    ncols = len(rows[0]) if rows else 0
    for k in range(min(len(rows), ncols), 0, -1):
        for rs in combinations(range(len(rows)), k):
            for cs in combinations(range(ncols), k):
                if leibniz(field, [[rows[i][j] for j in cs] for i in rs]):
                    return k
    return 0


@st.composite
def matrices(draw, square):
    q = draw(st.sampled_from(sorted(FIELDS)))
    n = draw(st.integers(0, 4))
    ncols = n if square else draw(st.integers(0, 4))
    entry = st.integers(0, q - 1)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=n, max_size=n))
    return FIELDS[q], rows


@settings(max_examples=300, deadline=None)
@given(matrices(square=True))
def test_det_matches_leibniz(drawn):
    field, rows = drawn
    before = [list(r) for r in rows]
    assert det(field, rows) == leibniz(field, rows), (field.q, rows)
    assert rows == before


@settings(max_examples=300, deadline=None)
@given(matrices(square=False))
def test_rank_is_the_largest_nonzero_minor(drawn):
    field, rows = drawn
    before = [list(r) for r in rows]
    assert rank(field, rows) == minor_rank(field, rows), (field.q, rows)
    assert rows == before


def test_det_worked_examples_and_shape():
    f5 = FIELDS[5]
    assert det(f5, []) == 1
    assert det(f5, [[2, 1], [1, 3]]) == 0  # 6 - 1 = 5
    assert det(f5, [[0, 1], [1, 0]]) == 4  # a row swap: -1
    assert rank(f5, [[1, 2, 3], [2, 4, 1]]) == 1  # row 2 = 2 * row 1
    assert rank(f5, [[1, 2, 3], [2, 4, 2]]) == 2
    with pytest.raises(ValueError):
        det(f5, [[1, 2]])
