"""Univariate polynomials over a finite field.

Coefficients are stored ascending (index = power of T) as canonical element
indices and kept trimmed, so `degree` is `len(coeffs) - 1` and the zero
polynomial has degree -1.  The module supplies the exact tools the counting
engine needs: root enumeration, gcd, resultants via a Euclidean remainder
sequence, the first principal subresultant coefficient, and divided
differences evaluated through complete homogeneous symmetric sums so that
coincident nodes are legal inputs.

Resultant convention: `resultant(f, g)` is the determinant of the Sylvester
matrix of (f, g), equivalently lc(f)^deg(g) times the product of g over the
roots of f in a splitting field.  `discriminant(f)` is `resultant(f, f')`
with no leading-coefficient or sign normalization.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from . import linalg
from .errors import (
    BothZero,
    DegreeTooLow,
    EmptyPoints,
    FieldMismatch,
    ZeroPolynomial,
)
from .ffield import Field


class UniPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence[int]):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def of(cls, field: Field, ints: Iterable[int]) -> "UniPoly":
        """Build from plain integers via the embedding Z -> F_q."""
        return cls(field, [field.scalar(n) for n in ints])

    @classmethod
    def zero(cls, field: Field) -> "UniPoly":
        return cls(field, [])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, j: int) -> int:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else 0

    def eval(self, x: int) -> int:
        acc = 0
        fld = self.field
        for c in reversed(self.coeffs):
            acc = fld.add(fld.mul(acc, x), c)
        return acc

    def _check(self, other: "UniPoly"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] = self.field.add(out[j], c)
        return UniPoly(self.field, out)

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.field, [self.field.neg(c) for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.field)
        fld = self.field
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = fld.add(out[i + j], fld.mul(a, b))
        return UniPoly(self.field, out)

    def scale(self, c: int) -> "UniPoly":
        return UniPoly(self.field, [self.field.mul(c, a) for a in self.coeffs])

    def monic(self) -> "UniPoly":
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        if self.lc == 1:
            return self
        return self.scale(self.field.inv(self.lc))

    def divmod(self, den: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        self._check(den)
        if den.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        fld = self.field
        num = list(self.coeffs)
        dd = den.degree
        inv_lead = fld.inv(den.lc)
        quo = [0] * max(len(num) - dd, 0)
        for k in range(len(num) - 1, dd - 1, -1):
            c = fld.mul(num[k], inv_lead)
            if c:
                quo[k - dd] = c
                for j, dj in enumerate(den.coeffs):
                    num[k - dd + j] = fld.sub(num[k - dd + j], fld.mul(c, dj))
        return UniPoly(fld, quo), UniPoly(fld, num[:dd])

    def __mod__(self, den: "UniPoly") -> "UniPoly":
        return self.divmod(den)[1]

    def derivative(self) -> "UniPoly":
        fld = self.field
        return UniPoly(
            fld,
            [fld.mul(c, fld.scalar(j)) for j, c in enumerate(self.coeffs)][1:],
        )

    def roots(self) -> list[int]:
        """Distinct roots in the field, ascending index order."""
        if self.is_zero():
            raise ZeroPolynomial("every point is a root of the zero polynomial")
        return [x for x in self.field.indices() if self.eval(x) == 0]

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        parts = []
        for j in range(self.degree, -1, -1):
            c = self.coefficient(j)
            if c:
                term = "T" if j == 1 else f"T^{j}" if j else str(c)
                if j and c != 1:
                    term = f"{c}*{term}"
                parts.append(term)
        return "UniPoly(" + " + ".join(parts) + ")"


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm."""
    if f.is_zero() and g.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


def resultant(f: UniPoly, g: UniPoly) -> int:
    """Sylvester determinant of (f, g), via the remainder sequence.

    Each reduction uses Res(f, g) = (-1)^(deg f * deg g) * lc(g)^(deg f -
    deg r) * Res(g, r) with r = f mod g, which is exact over a field.
    """
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomial("resultant needs nonzero polynomials")
    fld = f.field
    f._check(g)
    acc = 1
    parity = 0
    while True:
        n, m = f.degree, g.degree
        if n < m:
            f, g = g, f
            parity ^= (n * m) & 1
            n, m = m, n
        if m == 0:
            acc = fld.mul(acc, fld.pow(g.lc, n))
            return fld.neg(acc) if parity else acc
        r = f % g
        if r.is_zero():
            return 0
        parity ^= (n * m) & 1
        acc = fld.mul(acc, fld.pow(g.lc, n - r.degree))
        f, g = g, r


def principal_subresultant(f: UniPoly, g: UniPoly, j: int) -> int:
    """Coefficient of T^j in the j-th subresultant polynomial of (f, g).

    For j < deg g this is the determinant of the classical submatrix of
    shifted coefficient rows; j = deg g uses the convention that the
    sequence continues with lc(g)^(deg f - deg g); larger j give 0.
    """
    n, m = f.degree, g.degree
    if n <= 0 or m < 0:
        raise DegreeTooLow("subresultants need deg f >= 1 and g nonzero")
    if j > m:
        return 0
    if j == m:
        return f.field.pow(g.lc, n - m)
    size = n + m - 2 * j
    col_degs = list(range(n + m - j - 1, j, -1)) + [j]
    rows = []
    for k in range(m - j - 1, -1, -1):  # T^k * f
        rows.append([f.coefficient(deg - k) for deg in col_degs])
    for k in range(n - j - 1, -1, -1):  # T^k * g
        rows.append([g.coefficient(deg - k) for deg in col_degs])
    assert len(rows) == size
    return linalg.det(f.field, rows)


def discriminant(f: UniPoly) -> int:
    """resultant(f, f'); 0 when f' vanishes identically (see disc_info)."""
    if f.degree < 2:
        raise DegreeTooLow("discriminant needs degree >= 2")
    d = f.derivative()
    if d.is_zero():
        return 0
    return resultant(f, d)


def subdiscriminant_first(f: UniPoly) -> int:
    """First principal subresultant coefficient of (f, f').

    Vanishing of both this and the discriminant detects a gcd(f, f') of
    degree >= 2.  When f' is constant the value is 0 by convention; the
    resultant alone already decides that case.
    """
    if f.degree < 2:
        raise DegreeTooLow("subdiscriminant needs degree >= 2")
    d = f.derivative()
    if d.degree < 1:
        return 0
    return principal_subresultant(f, d, 1)


class DiscInfo:
    """Discriminant report: values plus the vanished-derivative flag."""

    __slots__ = ("disc", "subdisc", "derivative_zero")

    def __init__(self, disc: int, subdisc: int, derivative_zero: bool):
        self.disc = disc
        self.subdisc = subdisc
        self.derivative_zero = derivative_zero


def disc_info(f: UniPoly) -> DiscInfo:
    """Discriminant and first subdiscriminant with the f' = 0 case flagged.

    In characteristic p the derivative can vanish identically; every root
    of f is then multiple, both values are reported as 0, and the flag is
    set so callers can label the case instead of guessing a convention.
    """
    if f.degree < 2:
        raise DegreeTooLow("discriminant needs degree >= 2")
    d = f.derivative()
    if d.is_zero():
        return DiscInfo(0, 0, True)
    return DiscInfo(resultant(f, d), subdiscriminant_first(f), False)


# ---------------------------------------------------------------------------
# divided differences

def homogeneous_sums(field: Field, points: Sequence[int], kmax: int) -> list[int]:
    """h_0..h_kmax of the complete homogeneous symmetric sums at the points."""
    h = [1] + [0] * kmax
    for x in points:
        if x:
            for k in range(1, kmax + 1):
                h[k] = field.add(h[k], field.mul(x, h[k - 1]))
    return h


def divided_difference(f: UniPoly, points: Sequence[int]) -> int:
    """Divided difference of f at the given nodes, repeats allowed.

    Uses the symmetric-sum expansion: the divided difference of T^j at i
    nodes equals h_{j-i+1} of the nodes, so the whole value is a dot
    product of the coefficients with one homogeneous-sum table.  This is a
    polynomial formula in the nodes, hence valid at coincident nodes,
    where it reproduces derivative data (two equal nodes give f').
    """
    i = len(points)
    if i == 0:
        raise EmptyPoints("at least one node is required")
    if f.is_zero():
        return 0
    kmax = f.degree - i + 1
    if kmax < 0:
        return 0
    h = homogeneous_sums(f.field, points, kmax)
    fld = f.field
    acc = 0
    for k in range(kmax + 1):
        c = f.coefficient(k + i - 1)
        if c and h[k]:
            acc = fld.add(acc, fld.mul(c, h[k]))
    return acc

