import pickle
from itertools import product

import pytest

from valuesets.errors import (
    CompositeP,
    DegreeMismatch,
    FieldMismatch,
    ReducibleModulus,
    ZeroInverse,
)
from valuesets.ffield import _TABLE_MAX, field_new

# fields small enough for exhaustive axiom sweeps
AXIOM_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (5, 2), (2, 4), (7, 2), (2, 6)]


def brute_inverse(field, a):
    for b in field.indices():
        if field.mul(a, b) == 1:
            return b
    raise AssertionError("no inverse found")


def test_inverse_f7_against_brute_force():
    f7 = field_new(7)
    # 3 * 5 = 15 = 1 mod 7
    assert brute_inverse(f7, 3) == 5
    assert f7.inv(3) == 5
    for a in range(1, 7):
        assert f7.inv(a) == brute_inverse(f7, a)


def test_f4_generator_square():
    f4 = field_new(2, 2)
    # modulus search must land on x^2 + x + 1, the only irreducible quadratic
    assert f4.modulus == (1, 1, 1)
    x = 2  # coordinates (0, 1)
    assert f4.coords(x) == (0, 1)
    assert f4.coords(f4.mul(x, x)) == (1, 1)  # x^2 = x + 1


@pytest.mark.parametrize("p,s", AXIOM_FIELDS)
def test_field_axioms(p, s):
    fld = field_new(p, s)
    q = fld.q
    idx = list(fld.indices())
    for a in idx:
        assert fld.add(a, 0) == a
        assert fld.mul(a, 1) == a
        assert fld.add(a, fld.neg(a)) == 0
        assert fld.sub(a, a) == 0
        if a:
            assert fld.mul(a, fld.inv(a)) == 1
        for b in idx:
            assert fld.add(a, b) == fld.add(b, a)
            assert fld.mul(a, b) == fld.mul(b, a)
            assert fld.add(fld.sub(a, b), b) == a
    # associativity and distributivity: full for small q, strided above
    step = 1 if q <= 16 else 5
    for a in idx[::step]:
        for b in idx[::step]:
            for c in idx[::step]:
                assert fld.add(fld.add(a, b), c) == fld.add(a, fld.add(b, c))
                assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
                assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))


@pytest.mark.parametrize("p,s", [(13, 1), (2, 4), (7, 2), (17, 2)])
def test_rows_match_methods(p, s):
    # F_289 is above _TABLE_MAX: its rows are built on first use from the
    # coordinate arithmetic, which its methods keep using
    fld = field_new(p, s)
    assert (fld.q > _TABLE_MAX) == ((p, s) == (17, 2))
    add, mul, neg, inv = fld.rows()
    assert fld.rows() is fld.rows()
    idx = list(fld.indices())
    assert len(add) == len(mul) == len(neg) == len(inv) == fld.q
    for a in idx:
        assert add[a] == [fld.add(a, b) for b in idx]
        assert mul[a] == [fld.mul(a, b) for b in idx]
        assert neg[a] == fld.neg(a)
        assert inv[a] == (fld.inv(a) if a else 0)


@pytest.mark.parametrize("p,s", AXIOM_FIELDS)
def test_fermat_power(p, s):
    fld = field_new(p, s)
    for a in range(1, fld.q):
        assert fld.pow(a, fld.q - 1) == 1
    assert fld.pow(0, 0) == 1
    assert fld.pow(0, 3) == 0


@pytest.mark.parametrize("p,s", AXIOM_FIELDS)
def test_enumerate_order(p, s):
    # indices run 0..q-1 and their coordinates count in base p, constant
    # coordinate fastest, from the zero vector
    fld = field_new(p, s)
    assert fld.indices() == range(fld.q)
    counter = [tuple(reversed(t)) for t in product(range(p), repeat=s)]
    assert [fld.coords(i) for i in fld.indices()] == counter


def test_enumerate_f3_values():
    f3 = field_new(3)
    assert [f3.coords(i) for i in f3.indices()] == [(0,), (1,), (2,)]


def test_coords_roundtrip_f9():
    f9 = field_new(3, 2)
    for i in range(9):
        c0, c1 = f9.coords(i)
        assert c0 + 3 * c1 == i


def test_extension_pow_matches_repeated_mul():
    f8 = field_new(2, 3)
    for a in range(8):
        acc = 1
        for e in range(10):
            assert f8.pow(a, e) == acc
            acc = f8.mul(acc, a)


def test_negative_exponent():
    f7 = field_new(7)
    assert f7.pow(3, -1) == 5
    f9 = field_new(3, 2)
    for a in range(1, 9):
        assert f9.mul(f9.pow(a, -2), f9.pow(a, 2)) == 1


def test_scalar_embedding():
    f9 = field_new(3, 2)
    assert f9.coords(f9.scalar(5)) == (2, 0)
    assert f9.scalar(5) == f9.scalar(2)
    assert f9.add(f9.scalar(1), f9.scalar(2)) == 0
    assert f9.scalar(-1) == f9.neg(1)


def test_errors():
    with pytest.raises(CompositeP):
        field_new(6)
    with pytest.raises(CompositeP):
        field_new(1)
    with pytest.raises(ReducibleModulus):
        field_new(2, 2, modulus=[1, 0, 1])  # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(DegreeMismatch):
        field_new(3, 2, modulus=[1, 1])
    with pytest.raises(DegreeMismatch):
        field_new(3, 0)
    with pytest.raises(ZeroInverse):
        field_new(5).inv(0)
    with pytest.raises(ZeroInverse):
        field_new(2, 2).inv(0)


def test_modulus_ignored_for_prime_field():
    f5 = field_new(5, 1, modulus=[1, 2, 1])
    assert f5.modulus is None
    assert f5.q == 5


def test_supplied_modulus_used():
    f9 = field_new(3, 2, modulus=[2, 2, 1])  # x^2 + 2x + 2, irreducible
    assert f9.modulus == (2, 2, 1)
    x = 3  # coordinates (0, 1)
    assert f9.coords(x) == (0, 1)
    assert f9.coords(f9.mul(x, x)) == (1, 1)  # x^2 = -2x - 2 = x + 1


def test_field_value_equality_and_pickle():
    a = field_new(3, 2)
    b = field_new(3, 2)
    assert a == b and hash(a) == hash(b)
    c = pickle.loads(pickle.dumps(a))
    assert c == a
    for i in range(9):
        for j in range(9):
            assert c.mul(i, j) == a.mul(i, j)
    p = pickle.loads(pickle.dumps(field_new(11)))
    assert p.mul(7, 8) == 56 % 11


def test_embedding_table_prime_into_extension():
    from valuesets.ffield import embedding_table

    f5 = field_new(5)
    f25 = field_new(5, 2)
    t = embedding_table(f5, f25)
    assert t == [f25.scalar(i) for i in range(5)]
    # ring homomorphism on the embedded residues
    for a in range(5):
        for b in range(5):
            assert t[(a + b) % 5] == f25.add(t[a], t[b])
            assert t[(a * b) % 5] == f25.mul(t[a], t[b])


def test_embedding_table_f4_into_f16_is_injective_hom():
    from valuesets.ffield import embedding_table

    f4 = field_new(2, 2)
    f16 = field_new(2, 4)
    t = embedding_table(f4, f16)
    assert len(set(t)) == 4 and t[0] == 0 and t[1] == 1
    for a in range(4):
        for b in range(4):
            assert t[f4.add(a, b)] == f16.add(t[a], t[b])
            assert t[f4.mul(a, b)] == f16.mul(t[a], t[b])


def test_embedding_table_rejects_bad_pairs():
    from valuesets.ffield import embedding_table

    with pytest.raises(FieldMismatch):
        embedding_table(field_new(2, 2), field_new(3, 2))
    with pytest.raises(FieldMismatch):
        embedding_table(field_new(2, 2), field_new(2, 3))
