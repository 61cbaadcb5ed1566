"""Exact arithmetic in small finite fields F_q with q = p^s.

Elements are canonical indices in ``range(q)``.  For a prime field the index
is the residue itself.  For an extension field F_p[x]/(m) the index encodes
the coordinate vector (c_0, ..., c_{s-1}) in base p with c_0 (the constant
coordinate) least significant, so enumeration order starts at 0 and is a
plain base-p counter.  Counting kernels elsewhere in the package work on raw
indices through the lookup rows of `Field.rows()`, the same for every field.

All arithmetic is exact; Python integers never overflow.
"""

from __future__ import annotations

from .errors import (
    CompositeP,
    DegreeMismatch,
    FieldMismatch,
    ReducibleModulus,
    ZeroInverse,
)

# Extension fields at or below this order precompute their rows, and their
# add/mul/neg/inv methods read them.
_TABLE_MAX = 256


def is_prime(n: int) -> bool:
    """Trial-division primality test; fields here are desk scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p, used only for modulus handling

def _fp_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    quo = [0] * max(len(num) - dd, 0)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k] * inv_lead % p
        if c:
            quo[k - dd] = c
            for j, dj in enumerate(den):
                num[k - dd + j] = (num[k - dd + j] - c * dj) % p
    while num and num[-1] == 0:
        num.pop()
    return quo, num


def _fp_is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Monic irreducibility by trial division up to half the degree."""
    s = len(coeffs) - 1
    if s < 1:
        return False
    if coeffs[0] == 0:
        # divisible by x unless the polynomial is x itself
        return s == 1
    for deg in range(1, s // 2 + 1):
        for t in range(p**deg):
            den, n = [], t
            for _ in range(deg):
                den.append(n % p)
                n //= p
            den.append(1)
            _, rem = _fp_divmod(list(coeffs), den, p)
            if not rem:
                return False
    return True


def _search_modulus(p: int, s: int) -> tuple[int, ...]:
    """First monic irreducible of degree s in base-p counter order."""
    for t in range(p**s):
        tail, n = [], t
        for _ in range(s):
            tail.append(n % p)
            n //= p
        cand = tuple(tail) + (1,)
        if _fp_is_irreducible(cand, p):
            return cand
    raise ReducibleModulus(f"no irreducible of degree {s} over F_{p}")  # pragma: no cover


# ---------------------------------------------------------------------------

class Field:
    """Base class; use `field_new` to construct.

    Subclasses implement add/mul/neg/inv on canonical indices and set
    `_rows = None` in `__init__`.  Fields compare by value (p, s, modulus)
    so instances rebuilt in worker processes interoperate.
    """

    p: int
    s: int
    q: int
    modulus: tuple[int, ...] | None

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def rows(self) -> tuple[list, list, list, list]:
        """Lookup rows (add, mul, neg, inv) for the counting kernels.

        add[a][b] and mul[a][b] index lists of q rows; neg[a] and inv[a] are
        flat, with inv[0] = 0.  Built from the methods on first use unless
        the field made them at construction.
        """
        if self._rows is None:
            idx = range(self.q)
            add, mul = self.add, self.mul
            self._rows = (
                [[add(a, b) for b in idx] for a in idx],
                [[mul(a, b) for b in idx] for a in idx],
                [self.neg(a) for a in idx],
                [0] + [self.inv(a) for a in idx[1:]],
            )
        return self._rows

    def add(self, a: int, b: int) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def neg(self, a: int) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def inv(self, a: int) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def pow(self, a: int, e: int) -> int:
        """Square-and-multiply; negative exponents go through the inverse."""
        if e < 0:
            a, e = self.inv(a), -e
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def scalar(self, n: int) -> int:
        """Index of the image of the integer n under Z -> F_q."""
        return n % self.p

    def coords(self, idx: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.s):
            out.append(idx % self.p)
            idx //= self.p
        return tuple(out)

    def indices(self) -> range:
        return range(self.q)

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.s == other.s
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.s, self.modulus))

    def __repr__(self):
        if self.s == 1:
            return f"F_{self.p}"
        return f"F_{self.q} (p={self.p}, modulus={list(self.modulus)})"


class PrimeField(Field):
    def __init__(self, p: int):
        self.p = p
        self.s = 1
        self.q = p
        self.modulus = None
        self._rows = None

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return (self.p - a) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroInverse("0 has no inverse")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, e):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        if a == 0:
            return 1 if e == 0 else 0
        return pow(a, e, self.p)


class ExtensionField(Field):
    """F_p[x]/(modulus); coordinate vectors stored base p in the index."""

    def __init__(self, p: int, s: int, modulus: tuple[int, ...]):
        self.p = p
        self.s = s
        self.q = p**s
        self.modulus = modulus
        self._rows = None
        self._add_t = self._mul_t = self._neg_t = self._inv_t = None
        if self.q <= _TABLE_MAX:
            self._build_tables()

    # pickling for worker processes: ship only the defining data
    def __getstate__(self):
        return (self.p, self.s, self.modulus)

    def __setstate__(self, state):
        self.__init__(*state)

    def _mul_coords(self, a: tuple, b: tuple) -> tuple:
        p, s, m = self.p, self.s, self.modulus
        prod = [0] * (2 * s - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        for k in range(len(prod) - 1, s - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for j in range(s):
                    prod[k - s + j] = (prod[k - s + j] - c * m[j]) % p
        return tuple(prod[:s])

    def _coords_to_idx(self, coords) -> int:
        idx = 0
        for c in reversed(coords):
            idx = idx * self.p + c
        return idx

    def _add_slow(self, a, b):
        ca, cb = self.coords(a), self.coords(b)
        return self._coords_to_idx([(x + y) % self.p for x, y in zip(ca, cb)])

    def _mul_slow(self, a, b):
        return self._coords_to_idx(self._mul_coords(self.coords(a), self.coords(b)))

    def _neg_slow(self, a):
        return self._coords_to_idx([(self.p - c) % self.p for c in self.coords(a)])

    def _build_tables(self):
        q = self.q
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(a, q):
                add[a][b] = add[b][a] = self._add_slow(a, b)
                mul[a][b] = mul[b][a] = self._mul_slow(a, b)
        neg = [self._neg_slow(a) for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            if not inv[a]:
                b = mul[a].index(1)
                inv[a] = b
                inv[b] = a
        self._rows = (add, mul, neg, inv)
        self._add_t, self._mul_t, self._neg_t, self._inv_t = self._rows

    def add(self, a, b):
        if self._add_t is not None:
            return self._add_t[a][b]
        return self._add_slow(a, b)

    def mul(self, a, b):
        if self._mul_t is not None:
            return self._mul_t[a][b]
        return self._mul_slow(a, b)

    def neg(self, a):
        if self._neg_t is not None:
            return self._neg_t[a]
        return self._neg_slow(a)

    def inv(self, a):
        if a == 0:
            raise ZeroInverse("0 has no inverse")
        if self._inv_t is not None:
            return self._inv_t[a]
        return self.pow(a, self.q - 2)


def field_new(p: int, s: int = 1, modulus=None) -> Field:
    """Construct F_{p^s}.

    A modulus (coefficients low to high, monic, length s+1) may be supplied
    for s > 1; otherwise the first irreducible in base-p counter order is
    used, so the same (p, s) always yields the same field.  Any modulus
    passed with s = 1 is ignored.
    """
    if not is_prime(p):
        raise CompositeP(f"p = {p} is not prime")
    if s < 1:
        raise DegreeMismatch(f"extension degree s = {s} must be >= 1")
    if s == 1:
        return PrimeField(p)
    if modulus is None:
        modulus = _search_modulus(p, s)
    else:
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != s + 1:
            raise DegreeMismatch(
                f"modulus has {len(modulus)} coefficients, expected {s + 1}"
            )
        if modulus[-1] != 1:
            raise DegreeMismatch("modulus must be monic")
        if not _fp_is_irreducible(modulus, p):
            raise ReducibleModulus(f"modulus {list(modulus)} factors over F_{p}")
    return ExtensionField(p, s, modulus)


def embedding_table(sub: Field, sup: Field) -> list[int]:
    """Index table for the canonical embedding of `sub` into `sup`.

    Returns a list `t` of length sub.q with t[i] = index in `sup` of the
    image of element i.  The embedding sends the residue class of x in
    F_p[x]/(m) to the first root of m in `sup` (enumeration order), so it is
    deterministic.  Requires same characteristic and sub.s | sup.s.
    """
    if sub.p != sup.p:
        raise FieldMismatch(f"characteristic {sub.p} vs {sup.p}")
    if sup.s % sub.s != 0:
        raise FieldMismatch(f"F_{sub.q} does not embed in F_{sup.q}")
    p = sub.p
    if sub.s == 1:
        # prime subfield: residue i maps to i * 1, and scalar indices in any
        # representation here are just the residues themselves
        return [sup.scalar(i) for i in range(p)]
    root = None
    for beta in sup.indices():
        acc = 0
        for c in reversed(sub.modulus):
            acc = sup.add(sup.mul(acc, beta), sup.scalar(c))
        if acc == 0:
            root = beta
            break
    if root is None:  # cannot happen when sub.s | sup.s
        raise FieldMismatch("no root of subfield modulus found")
    powers = [1]
    for _ in range(sub.s - 1):
        powers.append(sup.mul(powers[-1], root))
    table = []
    for i in range(sub.q):
        acc = 0
        for c, w in zip(sub.coords(i), powers):
            acc = sup.add(acc, sup.mul(sup.scalar(c), w))
        table.append(acc)
    return table
