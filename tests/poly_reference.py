"""Reference loops for the oracles in `valuesets.incidence`, for tests only.

The division oracle counts node tuples by a chain of synthetic divisions;
`from_roots` and `hermite_divides` decide the same question the long way,
by building the node product and reducing f modulo it.  The literal S_r
and distinct-tuple oracles evaluate each member once per node;
`literal_interpolating_count` and `literal_distinct_tuple_count` count the
same tuples by evaluating f + a_0 by Horner afresh at every node of every
tuple.
"""

from itertools import combinations, permutations

from valuesets.errors import ZeroPolynomial
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
