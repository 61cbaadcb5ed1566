"""Reference loops for the oracles in `valuesets.incidence` and the Jacobian
walk in `valuesets.diagnostics`, for tests only.

The division oracle counts node tuples by a chain of synthetic divisions;
`from_roots` and `hermite_divides` decide the same question the long way,
by building the node product and reducing f modulo it.  The literal S_r
and distinct-tuple oracles evaluate each member once per node;
`literal_interpolating_count` and `literal_distinct_tuple_count` count the
same tuples by evaluating f + a_0 by Horner afresh at every node of every
tuple.

`walk_rank` ranks the Jacobian of a family's constraints at every candidate
the filter keeps, over all d-1 coordinates; `diagnostics._walk_rank` walks
only the coordinates the constraints involve.
"""

from itertools import combinations, permutations

from valuesets.errors import ZeroPolynomial
from valuesets.families import filter_family
from valuesets.linalg import rank
from valuesets.unipoly import UniPoly


def from_roots(field, roots):
    """Monic product of (T - r) over the given root indices."""
    cs = [1]  # ascending coefficients
    for r in roots:
        nr = field.neg(r)
        new = [0] * (len(cs) + 1)
        for j, c in enumerate(cs):
            if c:
                new[j] = field.add(new[j], field.mul(c, nr))
                new[j + 1] = field.add(new[j + 1], c)
        cs = new
    return UniPoly(field, cs)


def hermite_divides(f, points):
    """True iff the product of (T - x) over the nodes divides f.

    Multiplicities count: the node multiset (b, b) asks for (T - b)^2.
    Equivalent to all prefix divided differences of f vanishing, in any
    node order; `test_hermite_iff_prefix_dd_vanish` checks that
    equivalence exhaustively.
    """
    if f.is_zero():
        raise ZeroPolynomial("divisibility against the zero polynomial")
    prod = from_roots(f.field, points)
    if prod.degree > f.degree:
        return False
    return (f % prod).is_zero()


def _shifted_value(field, member, a0, x):
    """f(x) + a_0 for the member (a_{d-1}, ..., a_1), by Horner."""
    acc = 1
    for coef in member:
        acc = field.add(field.mul(acc, x), coef)
    return field.add(field.mul(acc, x), a0)


def literal_interpolating_count(field, members, r):
    """S_r: r-subsets of nodes that are all roots of f + a_0, summed over
    the members and shifts."""
    return sum(
        all(_shifted_value(field, member, a0, x) == 0 for x in subset)
        for subset in combinations(field.indices(), r)
        for member in members
        for a0 in field.indices()
    )


def literal_distinct_tuple_count(field, members, r):
    """Ordered r-tuples of distinct nodes that are all roots of f + a_0,
    summed over the members and shifts."""
    return sum(
        all(_shifted_value(field, member, a0, x) == 0 for x in nodes)
        for member in members
        for a0 in field.indices()
        for nodes in permutations(field.indices(), r)
    )


def walk_rank(spec):
    """(points, deficient, first_bad): the Jacobian ranked at every point."""
    jac_rows = [[g.partial(i) for i in range(spec.d - 1)] for g in spec.constraints]
    points = 0
    deficient = 0
    first_bad = None
    for member in filter_family(spec):
        points += 1
        rows = [[pg.eval(member) for pg in row] for row in jac_rows]
        if rank(spec.field, rows) < spec.m:
            deficient += 1
            if first_bad is None:
                first_bad = member
    return points, deficient, first_bad
