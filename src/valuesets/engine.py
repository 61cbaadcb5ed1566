"""Value-set statistics for constraint-defined polynomial families.

The central object is the per-member root-count histogram: for a member f
(with a_0 = 0) and each shift a_0 in F_q, n(f, a_0) is the number of c with
f(c) + a_0 = 0, i.e. the multiplicity-free fiber size of -f over a_0.  One
Horner sweep per member yields the whole histogram, and everything downstream
is a linear functional of it:

    V(f)            = #{a_0 : n(f, a_0) > 0}
    S_r (fast path) = sum over (f, a_0) of C(n, r)
    ordered distinct-root tuples = sum of n*(n-1)*...*(n-r+1)

All aggregates are exact big integers; averages are exact Fractions.  The
literal subset-enumeration oracle for S_r survives behind a work budget.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, perm

from .errors import BudgetExceeded, EmptyFamily, ParameterRange
from .families import enumerate_family, family_cardinality, filter_family

DEFAULT_ORACLE_BUDGET = 5_000_000


def generic_density(d):
    """The alternating factorial sum that a generic degree-d value set tracks."""
    if d < 1:
        raise ParameterRange(f"need d >= 1, got {d}")
    total = Fraction(0)
    fact = 1
    for r in range(1, d + 1):
        fact *= r
        total += Fraction((-1) ** (r - 1), fact)
    return total


def value_set_size(f):
    """|{f(c) : c in F_q}| by exhaustive evaluation."""
    field = f.field
    seen = bytearray(field.q)
    count = 0
    for c in field.indices():
        v = f.eval(c)
        if not seen[v]:
            seen[v] = 1
            count += 1
    return count


def _member_histogram(field, a_desc, profile):
    """Accumulate one member's root-count histogram into profile.

    a_desc is (a_{d-1}, ..., a_1).  hist[v] counts c with f(c) = v, which
    is the root count of f + a_0 at a_0 = -v; adds the histogram's
    n-distribution into profile[n] and returns V(f) = #nonzero entries.
    """
    add, mul, _, _ = field.rows()
    hist = [0] * field.q
    for mc in mul:
        # Horner over (1, a_{d-1}, ..., a_1, 0) at the row's point c
        acc = 1
        for coef in a_desc:
            acc = add[mc[acc]][coef]
        hist[mc[acc]] += 1  # constant coefficient of the member is 0
    vf = 0
    for n in hist:
        profile[n] += 1
        if n:
            vf += 1
    return vf


@dataclass
class ScanResult:
    """Additive partial result of a family scan over one index slice."""

    d: int
    member_count: int
    sum_values: int
    profile: list  # profile[n] = #(member, a_0) pairs with n roots, n = 0..d

    @classmethod
    def empty(cls, d):
        return cls(d, 0, 0, [0] * (d + 1))

    def merge(self, other):
        if self.d != other.d:
            raise ParameterRange("merging scans of different degree")
        return ScanResult(
            self.d,
            self.member_count + other.member_count,
            self.sum_values + other.sum_values,
            [a + b for a, b in zip(self.profile, other.profile)],
        )

    def interpolating_count(self, r):
        """S_r from the aggregated histogram."""
        if r < 1:
            raise ParameterRange(f"need r >= 1, got {r}")
        return sum(cnt * comb(n, r) for n, cnt in enumerate(self.profile))

    def distinct_tuple_count(self, r):
        """Ordered r-tuples of pairwise distinct roots, summed over (f, a_0)."""
        if r < 1:
            raise ParameterRange(f"need r >= 1, got {r}")
        return sum(cnt * perm(n, r) for n, cnt in enumerate(self.profile))


def scan_family(spec, partition=None):
    """One pass over (a slice of) the family collecting all histogram sums."""
    result = ScanResult.empty(spec.d)
    field = spec.field
    for member in enumerate_family(spec, partition):
        result.member_count += 1
        result.sum_values += _member_histogram(field, member.a, result.profile)
    return result


@dataclass
class ValueSetSummary:
    member_count: int
    sum_values: int
    average: Fraction
    interpolating_counts: dict  # r -> S_r for r = 1..r_max


def summarize(spec, r_max=None, scan=None):
    """Full family summary; r_max defaults to the degree."""
    if r_max is None:
        r_max = spec.d
    if not 1 <= r_max:
        raise ParameterRange(f"need r_max >= 1, got {r_max}")
    if scan is None:
        scan = scan_family(spec)
    if scan.member_count == 0:
        raise EmptyFamily(f"no members: {spec!r}")
    return ValueSetSummary(
        scan.member_count,
        scan.sum_values,
        Fraction(scan.sum_values, scan.member_count),
        {r: scan.interpolating_count(r) for r in range(1, r_max + 1)},
    )


def average_value_set(spec):
    """Exact rational mean of V(f) over the family."""
    scan = scan_family(spec)
    if scan.member_count == 0:
        raise EmptyFamily(f"no members: {spec!r}")
    return Fraction(scan.sum_values, scan.member_count)


def count_interpolating_sets(spec, r):
    """S_r by the histogram fast path."""
    if r < 1:
        raise ParameterRange(f"need r >= 1, got {r}")
    return scan_family(spec).interpolating_count(r)


def oracle_members(spec, cost_per_member, budget, label, member_count=None):
    """Members for a brute-force oracle, listed only after its budget check.

    The cost is cost_per_member * |A|, with |A| taken from member_count (the
    scan's count) when given, so a refusal enumerates nothing.  The members
    come from the candidate filter, independent of `enumerate_family`, so an
    oracle that runs also cross-checks the direct enumerator.
    """
    if member_count is None:
        member_count = family_cardinality(spec)
    cost = cost_per_member * member_count
    if cost > budget:
        raise BudgetExceeded(f"{label} cost {cost} exceeds budget {budget}")
    return list(filter_family(spec))


def count_interpolating_sets_direct(
    spec, r, budget=DEFAULT_ORACLE_BUDGET, member_count=None
):
    """S_r by literal enumeration of r-subsets and (member, a_0) pairs.

    Test oracle only; refuses work beyond C(q, r) * |A| candidate pairs.
    """
    if r < 1:
        raise ParameterRange(f"need r >= 1, got {r}")
    field = spec.field
    q = field.q
    if r > q:
        return 0
    members = oracle_members(spec, comb(q, r), budget, "direct S_r", member_count)
    add, mul = field.add, field.mul
    total = 0
    for subset in combinations(field.indices(), r):
        for member in members:
            for a0 in field.indices():
                ok = True
                for x in subset:
                    acc = 1
                    for coef in member.a:
                        acc = add(mul(acc, x), coef)
                    acc = add(mul(acc, x), a0)
                    if acc:
                        ok = False
                        break
                if ok:
                    total += 1
    return total
