"""Reference divisibility by a node product, for tests only.

The division oracle in `valuesets.incidence` counts node tuples by a chain
of synthetic divisions; these helpers decide the same question the long
way, by building the node product and reducing f modulo it.
"""

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
