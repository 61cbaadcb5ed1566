"""Explicit constants and error bounds for the point-count estimates.

Arithmetic policy, in order of preference:

* Integer-valued constants and bounds use exact big integers.  Where a
  bound contains a q^(1/2) factor, it is multiplied by isqrt(q) <= sqrt(q),
  so the evaluated bound never exceeds the true one: a count passing the
  evaluated bound certainly satisfies the printed inequality.
* Applicability thresholds of the shape q > 16*(..q^(-1/2)..)^2 are
  overestimated (via 1/isqrt(q) >= q^(-1/2)), so threshold_ok = True
  implies the true threshold holds.
* Only the transcendental d^(d+5) * e^(2*sqrt(d)-d) factors live in
  LogMagnitude, a natural-log float with an explicit 2^-30 relative slack
  budget for comparisons.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, isqrt, log, log1p, sqrt

from .errors import ParameterRange


@dataclass(frozen=True)
class BoundConstants:
    """Degree bookkeeping for a family with constraint degrees `degrees`
    and r divided-difference equations of degrees d, d-1, ..., d-r+1."""

    d: int
    m: int
    degrees: tuple
    r: int
    deg_product: int  # product of constraint degrees
    excess_sum: int  # sum of (degree - 1) over constraints
    dd_deg_product: int  # d! / (d-r)!
    dd_excess_sum: int  # r*d - r*(r+1)/2
    total_deg_product: int
    total_excess_sum: int


def constants(d, degrees, r):
    degrees = tuple(degrees)
    if not degrees:
        raise ParameterRange("need at least one constraint degree")
    if any(e < 1 for e in degrees):
        raise ParameterRange(f"constraint degrees must be >= 1, got {degrees}")
    if not 1 <= r <= d:
        raise ParameterRange(f"need 1 <= r <= d, got r={r}, d={d}")
    deg_product = 1
    excess_sum = 0
    for e in degrees:
        deg_product *= e
        excess_sum += e - 1
    dd_deg_product = 1
    for i in range(1, r + 1):
        dd_deg_product *= d - i + 1
    dd_excess_sum = r * d - r * (r + 1) // 2
    return BoundConstants(
        d,
        len(degrees),
        degrees,
        r,
        deg_product,
        excess_sum,
        dd_deg_product,
        dd_excess_sum,
        deg_product * dd_deg_product,
        excess_sum + dd_excess_sum,
    )


def _pair_constants(multidegree):
    delta = 1
    excess = 0
    for e in multidegree:
        if e < 1:
            raise ParameterRange(f"multidegree entries must be >= 1, got {multidegree}")
        delta *= e
        excess += e - 1
    return delta, excess


def point_count_error_bound(l, multidegree, q):
    """Deviation allowance |count - p_l| for a normal complete intersection
    of dimension l and the given multidegree; exact integer, floor on sqrt(q).
    """
    if l < 2:
        raise ParameterRange(f"need dimension l >= 2, got {l}")
    delta, excess = _pair_constants(multidegree)
    lead = delta * (excess - 2) + 2
    return lead * isqrt(q) * q ** (l - 1) + 14 * excess**2 * delta**2 * q ** (l - 1)


def size_threshold_ok(degrees, q):
    """Conservative check of q > 16*(excess*delta + 14*excess^2*delta^2*q^(-1/2))^2.

    The left side is overestimated through 1/isqrt(q), so True implies the
    true threshold holds.
    """
    delta, excess = _pair_constants(degrees)
    expr = 16 * (Fraction(excess * delta) + Fraction(14 * excess**2 * delta**2, isqrt(q))) ** 2
    return q > expr


@dataclass(frozen=True)
class FamilySizeBracket:
    exponent: int  # main term is q**exponent
    lower: Fraction  # strict lower bound q**exponent / 2
    upper: int  # inclusive upper bound, floored conservatively
    threshold_ok: bool


def family_size_bracket(d, m, degrees, q, inclusive=False):
    """Bracket for the family point count around q^(d-m-1).

    With inclusive=True the bracket is scaled by q (exponent d-m), matching
    the count that keeps the additive shift a_0 as a free coordinate.
    """
    if d < m + 2:
        raise ParameterRange(f"need d >= m+2, got d={d}, m={m}")
    delta, excess = _pair_constants(degrees)
    e = d - m - 1 + (1 if inclusive else 0)
    lead = delta * (excess - 2) + 2
    upper = q**e + 2 * lead * isqrt(q) * q ** (e - 1) + 28 * excess**2 * delta**2 * q ** (e - 1)
    return FamilySizeBracket(
        e, Fraction(q**e, 2), upper, size_threshold_ok(degrees, q)
    )


def interp_count_error_bound(d, m, degrees, r, q):
    """Deviation allowance |S_r - q^(d-m)/r!|; exact Fraction, floor on sqrt(q)."""
    c = constants(d, degrees, r)
    lead = c.total_deg_product * (c.total_excess_sum - 2) + 2
    tail = (
        14 * c.total_excess_sum**2 * c.total_deg_product**2
        + comb(r, 2) * c.total_deg_product
        + 4 * r * c.deg_product
    )
    fact = 1
    for i in range(2, r + 1):
        fact *= i
    return Fraction(lead * isqrt(q) + tail, fact) * q ** (d - m - 1)


# --- log-space magnitudes ----------------------------------------------------

_REL_SLACK = 2.0**-30


class LogMagnitude:
    """A nonnegative magnitude carried as its natural log.

    Comparisons against exact integers allow a 2^-30 relative slack on the
    stored log, in the bound's favor, as documented in the module header.
    """

    __slots__ = ("ln",)

    def __init__(self, ln):
        self.ln = float(ln)

    @classmethod
    def from_int(cls, n):
        if n <= 0:
            raise ParameterRange(f"need a positive magnitude, got {n}")
        return cls(log(n))

    def _slack(self):
        return _REL_SLACK * (1.0 + abs(self.ln))

    def plus(self, other):
        a, b = self.ln, other.ln
        if a < b:
            a, b = b, a
        return LogMagnitude(a + log1p(exp(b - a)))

    def covers(self, count):
        """Conservatively decide count <= magnitude for an exact integer count."""
        if count <= 0:
            return True
        lc = log(count)
        return lc <= self.ln + self._slack() + _REL_SLACK * (1.0 + abs(lc))

    def log10(self):
        return self.ln / log(10)

    def __repr__(self):
        return f"LogMagnitude(ln={self.ln!r})"


def _transcendental_tail_ln(d, scale):
    """ln of scale * d^(d+5) * e^(2*sqrt(d) - d)."""
    return log(scale) + (d + 5) * log(d) + 2.0 * sqrt(d) - d


def average_error_bound(d, m, degrees, q):
    """The headline allowance 2^d*delta*(3*excess+d^2)*sqrt(q) plus the
    transcendental tail 67*delta^2*(excess+2)^2*d^(d+5)*e^(2*sqrt(d)-d)."""
    if d < m + 2:
        raise ParameterRange(f"need d >= m+2, got d={d}, m={m}")
    delta, excess = _pair_constants(degrees)
    term1 = LogMagnitude(log(2**d * delta * (3 * excess + d * d)) + 0.5 * log(q))
    term2 = LogMagnitude(_transcendental_tail_ln(d, 67 * delta**2 * (excess + 2) ** 2))
    return term1.plus(term2)


def average_error_bound_linear(d, q):
    """Allowance for full-rank degree-1 constraints: 2^d*d^2*sqrt(q) + 268*tail.

    Valid when the characteristic does not divide d*(d-1); agrees with
    average_error_bound at all-ones degrees since 268 = 4 * 67.
    """
    if d < 3:
        raise ParameterRange(f"need d >= 3, got {d}")
    term1 = LogMagnitude(log(2**d * d * d) + 0.5 * log(q))
    term2 = LogMagnitude(_transcendental_tail_ln(d, 268))
    return term1.plus(term2)


def average_bound_applicable(d, m, degrees, q):
    """Conservative check of the headline theorem's q threshold."""
    return q > d >= m + 2 and size_threshold_ok(degrees, q)


# --- growth profile of the bound's combinatorial terms ------------------------


@dataclass(frozen=True)
class TermProfile:
    values: tuple  # h(k) = C(d,k)^2 * (d-k)! for k = 0..d-1
    peak_index: int  # floor(-1/2 + sqrt(5+4d)/2)
    unimodal: bool  # nondecreasing then nonincreasing, max at peak_index
    total: int
    chain_bound: int  # d * h(peak_index), an upper bound for total


def value_set_term_profile(d):
    if d < 2:
        raise ParameterRange(f"need d >= 2, got {d}")
    values = []
    fact = 1
    for i in range(1, d + 1):
        fact *= i
    # h(k) = C(d,k)^2 * (d-k)!
    falling = fact
    for k in range(d):
        values.append(comb(d, k) ** 2 * falling)
        falling //= d - k
    peak = (isqrt(5 + 4 * d) - 1) // 2
    rising = True
    unimodal = values[peak] == max(values)
    for a, b in zip(values, values[1:]):
        if rising:
            if b < a:
                rising = False
        elif b > a:
            unimodal = False
            break
    return TermProfile(tuple(values), peak, unimodal, sum(values), d * values[peak])
