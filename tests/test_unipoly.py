import itertools

import pytest

from valuesets.errors import (
    BothZero,
    DegreeTooLow,
    EmptyPoints,
    ZeroPolynomial,
)
from valuesets.ffield import field_new
from valuesets.unipoly import (
    UniPoly,
    disc_info,
    discriminant,
    divided_difference,
    homogeneous_sums,
    poly_gcd,
    principal_subresultant,
    resultant,
    subdiscriminant_first,
)

from poly_reference import from_roots, hermite_divides

F5 = field_new(5)
F7 = field_new(7)

SMALL_FIELDS = [field_new(2), field_new(3), field_new(2, 2), field_new(5), field_new(7)]


# --- independent oracles -----------------------------------------------------

def det_cofactor(field, m):
    """Cofactor-expansion determinant, independent of Gaussian elimination."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            term = field.mul(m[0][j], det_cofactor(field, minor))
            if j % 2:
                term = field.neg(term)
            total = field.add(total, term)
    return total


def sylvester_matrix(f, g):
    """(n+m) x (n+m) coefficient matrix whose determinant is resultant(f, g)."""
    n, m = f.degree, g.degree
    size = n + m
    rows = []
    for k in range(m - 1, -1, -1):  # T^k * f
        rows.append([f.coefficient(size - 1 - col - k) for col in range(size)])
    for k in range(n - 1, -1, -1):  # T^k * g
        rows.append([g.coefficient(size - 1 - col - k) for col in range(size)])
    return rows


def dd_recursive(f, pts):
    """Classical recursive-quotient divided difference; distinct nodes only."""
    if len(pts) == 1:
        return f.eval(pts[0])
    fld = f.field
    left = dd_recursive(f, pts[:-1])
    right = dd_recursive(f, pts[:-2] + (pts[-1],))
    den = fld.sub(pts[-2], pts[-1])
    return fld.mul(fld.sub(left, right), fld.inv(den))


def all_monic(field, d):
    for tail in itertools.product(field.indices(), repeat=d):
        yield UniPoly(field, list(tail) + [1])


# --- basics -------------------------------------------------------------------

def test_eval_and_trim():
    f = UniPoly.of(F5, [-1, 0, 1])  # T^2 - 1
    assert f.degree == 2
    assert f.eval(2) == 3
    assert UniPoly.of(F5, [0, 0]).is_zero()
    assert UniPoly.of(F5, [3, 5, 10]).coeffs == (3,)


def test_roots_sorted():
    f = UniPoly.of(F5, [-1, 0, 1])
    assert f.roots() == [1, 4]
    with pytest.raises(ZeroPolynomial):
        UniPoly.zero(F5).roots()


def test_from_roots_and_divmod():
    f = from_roots(F7, [1, 1, 2])
    assert f.coeffs == UniPoly.of(F7, [-2, 5, -4, 1]).coeffs
    q, r = f.divmod(UniPoly.of(F7, [-1, 1]))
    assert r.is_zero()
    assert q == from_roots(F7, [1, 2])
    g = UniPoly.of(F7, [1, 1])
    q, r = f.divmod(g)
    assert (q * g + r) == f
    assert r.degree < g.degree


def test_arithmetic_ring_axioms_spot():
    a = UniPoly.of(F5, [1, 2, 3])
    b = UniPoly.of(F5, [4, 0, 1, 2])
    c = UniPoly.of(F5, [2, 1])
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - a).is_zero()


def test_derivative_char_p():
    # derivative of T^7 + T over F_7 is the constant 1
    f = UniPoly.of(F7, [0, 1, 0, 0, 0, 0, 0, 1])
    assert f.derivative() == UniPoly.of(F7, [1])
    # T^7 has identically zero derivative
    assert UniPoly.of(F7, [0] * 7 + [1]).derivative().is_zero()


def test_gcd():
    f = from_roots(F7, [1, 1, 2])
    g = from_roots(F7, [1, 3])
    assert poly_gcd(f, g) == UniPoly.of(F7, [-1, 1])
    assert poly_gcd(f, UniPoly.zero(F7)) == f
    with pytest.raises(BothZero):
        poly_gcd(UniPoly.zero(F7), UniPoly.zero(F7))


# --- resultant / discriminant --------------------------------------------------

def test_resultant_frozen_example():
    # Res(T^2+T+1, 2T+1) over F_7: Sylvester determinant and the product
    # formula lc(g)^2 * f(3) (3 is the root of 2T+1) both give 3.
    f = UniPoly.of(F7, [1, 1, 1])
    g = UniPoly.of(F7, [1, 2])
    assert resultant(f, g) == 3
    beta = g.roots()[0]
    assert F7.mul(F7.pow(g.lc, f.degree), f.eval(beta)) == 3


def test_resultant_shared_root_and_distinct_linear():
    assert resultant(UniPoly.of(F5, [-1, 0, 1]), UniPoly.of(F5, [-1, 1])) == 0
    r = resultant(UniPoly.of(F5, [-1, 1]), UniPoly.of(F5, [-2, 1]))
    assert r == 4 != 0  # frozen from the determinant oracle


@pytest.mark.parametrize("field", SMALL_FIELDS)
def test_resultant_matches_sylvester_determinant(field):
    polys = []
    for d in (1, 2, 3):
        for tail in itertools.islice(itertools.product(field.indices(), repeat=d), 0, None, max(1, field.q // 3)):
            polys.append(UniPoly(field, list(tail) + [1]))
        polys.append(UniPoly(field, [0] * d + [1]))
        if field.q > 2:
            polys.append(UniPoly(field, [1] * d + [2 % field.q if field.s == 1 else 1]))
    for f in polys[:20]:
        for g in polys[:20]:
            if f.is_zero() or g.is_zero():
                continue
            expect = det_cofactor(field, sylvester_matrix(f, g)) if f.degree + g.degree > 0 else 1
            assert resultant(f, g) == expect, (f, g)


def test_resultant_multiplicative_in_first_argument():
    for _ in range(1):
        fs = [UniPoly.of(F7, [2, 1]), UniPoly.of(F7, [3, 1, 1]), UniPoly.of(F7, [1, 0, 2, 1])]
        g = UniPoly.of(F7, [5, 1, 3])
        for a in fs:
            for b in fs:
                assert resultant(a * b, g) == F7.mul(resultant(a, g), resultant(b, g))


def test_discriminant_frozen_example():
    # raw Res(f, f') with no sign normalization: 3 for T^2+T+1 over F_7
    assert discriminant(UniPoly.of(F7, [1, 1, 1])) == 3


def test_triple_root_disc_and_subdisc_vanish():
    f = from_roots(F7, [1, 1, 1])
    assert discriminant(f) == 0
    assert subdiscriminant_first(f) == 0


def test_disc_info_flags_zero_derivative():
    info = disc_info(UniPoly.of(F7, [0] * 7 + [1]))
    assert info.derivative_zero
    assert info.disc == 0 and info.subdisc == 0
    info2 = disc_info(UniPoly.of(F7, [1, 1, 1]))
    assert not info2.derivative_zero
    assert info2.disc == 3


def test_degree_too_low():
    with pytest.raises(DegreeTooLow):
        discriminant(UniPoly.of(F5, [1, 1]))
    with pytest.raises(DegreeTooLow):
        subdiscriminant_first(UniPoly.of(F5, [2, 1]))


@pytest.mark.parametrize("field", SMALL_FIELDS)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_disc_iff_repeated_root_exhaustive(field, d):
    """Disc = 0 iff gcd(f, f') nonconstant; Disc = Subdisc = 0 iff deg gcd >= 2."""
    for f in all_monic(field, d):
        fp = f.derivative()
        if fp.is_zero():
            continue
        g = poly_gcd(f, fp)
        disc = discriminant(f)
        assert (disc == 0) == (g.degree >= 1), f
        sub = subdiscriminant_first(f)
        assert ((disc == 0) and (sub == 0)) == (g.degree >= 2), f


@pytest.mark.parametrize("field", [F5, F7])
def test_principal_subresultant_matches_cofactor_oracle(field):
    for d in (3, 4):
        count = 0
        for f in all_monic(field, d):
            fp = f.derivative()
            if fp.degree < 2:
                continue
            count += 1
            if count % 7:  # thin the sweep; the disc test above is exhaustive
                continue
            n, m, j = f.degree, fp.degree, 1
            col_degs = list(range(n + m - j - 1, j, -1)) + [j]
            rows = []
            for k in range(m - j - 1, -1, -1):
                rows.append([f.coefficient(deg - k) for deg in col_degs])
            for k in range(n - j - 1, -1, -1):
                rows.append([fp.coefficient(deg - k) for deg in col_degs])
            assert principal_subresultant(f, fp, 1) == det_cofactor(field, rows)


# --- divided differences --------------------------------------------------------

def test_dd_example_distinct_nodes():
    # T^2 at nodes (1, 2) over F_5: forward difference (f(1)-f(2))/(1-2) = 3
    f = UniPoly.of(F5, [0, 0, 1])
    assert divided_difference(f, [1, 2]) == 3


def test_dd_example_confluent_nodes():
    f = UniPoly.of(F5, [0, 0, 1])
    for x in range(5):
        assert divided_difference(f, [x, x, x]) == 1


def test_dd_empty_points():
    with pytest.raises(EmptyPoints):
        divided_difference(UniPoly.of(F5, [1, 1]), [])


def test_dd_more_nodes_than_degree_plus_one():
    f = UniPoly.of(F5, [1, 2, 1])
    assert divided_difference(f, [0, 1, 2, 3]) == 0


@pytest.mark.parametrize("field", [F5, F7])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_dd_matches_recursive_quotient_on_basis(field, d):
    """Basis check: the symmetric-sum value of T^j equals the recursive
    quotient at every distinct-node tuple; by linearity in the coefficients
    this covers every polynomial of degree <= d."""
    monomials = [UniPoly(field, [0] * j + [1]) for j in range(d + 1)]
    for i in range(1, min(4, field.q) + 1):
        for pts in itertools.permutations(field.indices(), i):
            h = homogeneous_sums(field, pts, d)
            for j, mono in enumerate(monomials):
                want = dd_recursive(mono, pts)
                got = h[j - i + 1] if j - i + 1 >= 0 else 0
                assert got == want, (pts, j)
                assert divided_difference(mono, pts) == want


def test_dd_matches_recursive_quotient_full_polys_f5():
    for f in all_monic(F5, 3):
        for pts in itertools.permutations(range(5), 3):
            assert divided_difference(f, pts) == dd_recursive(f, pts)


@pytest.mark.parametrize("field", [F5, F7])
def test_dd_confluent_pair_equals_derivative(field):
    for d in (2, 3, 4):
        for f in itertools.islice(all_monic(field, d), 0, None, 3):
            fp = f.derivative()
            for t in field.indices():
                assert divided_difference(f, [t, t]) == fp.eval(t)


def test_dd_symmetric_under_permutation():
    f = UniPoly.of(F7, [3, 0, 2, 1, 1])
    pts = (1, 4, 4, 6)
    vals = {divided_difference(f, p) for p in itertools.permutations(pts)}
    assert len(vals) == 1


# --- hermite divisibility --------------------------------------------------------

def test_hermite_examples():
    f = from_roots(F7, [1, 1])
    assert hermite_divides(f, [1, 1])
    assert not hermite_divides(f, [1, 1, 1])
    assert hermite_divides(f, [1])
    assert not hermite_divides(f, [2])


@pytest.mark.parametrize("field", [field_new(3), field_new(5)])
@pytest.mark.parametrize("d", [2, 3])
def test_hermite_iff_prefix_dd_vanish(field, d):
    """Divisibility by the node product is order-independent and equivalent
    to all prefix divided differences vanishing."""
    q = field.q
    for f in all_monic(field, d):
        for r in range(1, d + 1):
            for pts in itertools.product(range(q), repeat=r):
                div = hermite_divides(f, pts)
                prefix_ok = all(
                    divided_difference(f, pts[: i + 1]) == 0 for i in range(r)
                )
                assert div == prefix_ok, (f, pts)
                # order independence of divisibility is trivially true;
                # check the prefix condition matches on a reordering too
                rev = tuple(reversed(pts))
                prefix_rev = all(
                    divided_difference(f, rev[: i + 1]) == 0 for i in range(r)
                )
                assert prefix_rev == prefix_ok, (f, pts)

