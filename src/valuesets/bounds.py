"""Explicit constants and error bounds for the point-count estimates.

One estimate underlies the exact allowances: the F_q-points of a complete
intersection V of dimension l, degree delta and excess sum D satisfy

    |#V - q^l| <= (delta*(D-2)+2)*q^(l-1/2) + 14*D^2*delta^2*q^(l-1),

stated once, in `_deviation`.  `point_count_error_bound` is that estimate,
`family_size_bracket` puts twice it above q^e, and `interp_count_error_bound`
applies it to the family cut with the r divided-difference equations.

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
from math import comb, exp, factorial, isqrt, log, log1p, perm, sqrt

from .errors import ParameterRange


def _pair_constants(multidegree):
    delta = 1
    excess = 0
    for e in multidegree:
        if e < 1:
            raise ParameterRange(f"multidegree entries must be >= 1, got {multidegree}")
        delta *= e
        excess += e - 1
    return delta, excess


def _family_constants(d, m, degrees):
    """_pair_constants of a family of m constraints in d-1 coordinates;
    raises ParameterRange unless there is one degree per constraint and
    d >= m+2, which every family estimate here needs."""
    if len(degrees) != m:
        raise ParameterRange(f"need one degree per constraint, got m={m}, {list(degrees)}")
    if d < m + 2:
        raise ParameterRange(f"need d >= m+2, got d={d}, m={m}")
    return _pair_constants(degrees)


def _deviation(delta, excess, l, q):
    """Right side of the module header's estimate at dimension l, degree
    delta and excess sum D = excess; exact integer, floor on sqrt(q)."""
    return ((delta * (excess - 2) + 2) * isqrt(q) + 14 * excess**2 * delta**2) * q ** (l - 1)


def point_count_error_bound(l, multidegree, q):
    """Deviation allowance |count - p_l| for a normal complete intersection
    of dimension l and the given multidegree; exact integer, floor on sqrt(q).
    """
    if l < 2:
        raise ParameterRange(f"need dimension l >= 2, got {l}")
    return _deviation(*_pair_constants(multidegree), l, q)


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
    constants = _family_constants(d, m, degrees)
    e = d - m - 1 + (1 if inclusive else 0)
    upper = q**e + 2 * _deviation(*constants, e, q)
    return FamilySizeBracket(
        e, Fraction(q**e, 2), upper, size_threshold_ok(degrees, q)
    )


def interp_count_error_bound(d, m, degrees, r, q):
    """Deviation allowance |S_r - q^(d-m)/r!|; exact Fraction, floor on sqrt(q).

    The family's constraints and the r divided-difference equations, of
    degrees d, d-1, ..., d-r+1, cut out a complete intersection of dimension
    d-m, degree delta*d!/(d-r)! and excess sum D + r*d - r(r+1)/2.
    """
    delta, excess = _family_constants(d, m, degrees)
    if not degrees:
        raise ParameterRange("need at least one constraint degree")
    if not 1 <= r <= d:
        raise ParameterRange(f"need 1 <= r <= d, got r={r}, d={d}")
    delta_tot = delta * perm(d, r)
    excess_tot = excess + r * d - comb(r + 1, 2)
    tail = (comb(r, 2) * delta_tot + 4 * r * delta) * q ** (d - m - 1)
    return Fraction(_deviation(delta_tot, excess_tot, d - m, q) + tail, factorial(r))


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
    delta, excess = _family_constants(d, m, degrees)
    term1 = LogMagnitude(log(2**d * delta * (3 * excess + d * d)) + 0.5 * log(q))
    term2 = LogMagnitude(_transcendental_tail_ln(d, 67 * delta**2 * (excess + 2) ** 2))
    return term1.plus(term2)


def average_error_bound_linear(d, q):
    """Allowance for full-rank degree-1 constraints: 2^d*d^2*sqrt(q) + 268*tail.

    Valid when the characteristic does not divide d*(d-1); it is
    average_error_bound at unit degrees (delta 1, excess 0, 268 = 4 * 67).
    """
    if d < 3:
        raise ParameterRange(f"need d >= 3, got {d}")
    return average_error_bound(d, 1, (1,), q)


def average_bound_applicable(d, m, degrees, q):
    """Conservative check of the headline theorem's q threshold; False at
    d < m+2, where the theorem says nothing."""
    if d < m + 2 and len(degrees) == m:
        return False
    _family_constants(d, m, degrees)
    return q > d and size_threshold_ok(degrees, q)


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
    # h(k) = C(d,k)^2 * (d-k)!
    falling = factorial(d)
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
