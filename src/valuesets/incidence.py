"""Exact counts of root-incidence tuples attached to a family.

Three counts per tuple length r, each over all (member, shift a_0) pairs:

* distinct:   ordered r-tuples of pairwise distinct roots of f + a_0.
* hermite:    r-tuples (roots with multiplicity, in the divided-difference
              sense) where every prefix equation vanishes; the length-1
              equation f(t) + a_0 = 0 pins a_0, so each start node t
              belongs to exactly one shift.
* coincident: hermite tuples with at least one repeated node.

distinct = hermite - coincident is a theorem; collect() re-checks it on
every run and aborts on violation.

The hermite count walks a DFS over node prefixes.  The state per prefix is
the vector of complete homogeneous sums h_k(nodes); appending a node t
updates it by h'_k = h_k + t*h'_{k-1}, and the depth-i equation is
sum_j c_j * h'_{j-i+1} over the coefficients c of the member (monic, so
c_d = 1; the constant slot cancels out of every depth >= 2 equation).
Failing prefixes cut their whole subtree.  The production path for prime
fields works on raw residues; extension fields go through field ops.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import perm

from .bounds import coincident_count_bound, hermite_count_error_bound
from .engine import DEFAULT_ORACLE_BUDGET, oracle_members, scan_family
from .errors import IdentityViolation, ParameterRange
from .families import enumerate_family
from .unipoly import UniPoly, hermite_divides

@dataclass(frozen=True)
class IncidenceCounts:
    r: int
    distinct: int
    hermite: int
    coincident: int


def count_distinct_tuples(spec, r, scan=None):
    """Ordered pairwise-distinct root tuples, by falling factorials of the
    per-(member, shift) root counts."""
    if r < 1:
        raise ParameterRange(f"need r >= 1, got {r}")
    if scan is None:
        scan = scan_family(spec)
    return scan.distinct_tuple_count(r)


def _profile_member_prime(p, coeffs, r_max, star, coinc, order):
    d = len(coeffs) - 1

    def descend(h, prefix, has_dup, depth):
        star[depth] += 1
        if has_dup:
            coinc[depth] += 1
        if depth == r_max:
            return
        nd = depth + 1
        kmax = d - nd + 1
        cs = coeffs[nd - 1 :]
        for t in order:
            prev = 1
            dd = cs[0]
            hp = [1]
            for k in range(1, kmax + 1):
                prev = (h[k] + t * prev) % p
                hp.append(prev)
                dd += cs[k] * prev
            if dd % p == 0:
                descend(hp, prefix + (t,), has_dup or t in prefix, nd)

    for t in order:
        h1 = [1]
        acc = 1
        for _ in range(d):
            acc = acc * t % p
            h1.append(acc)
        descend(h1, (t,), False, 1)


def _profile_member_generic(field, coeffs, r_max, star, coinc, order):
    add, mul = field.add, field.mul
    d = len(coeffs) - 1

    def descend(h, prefix, has_dup, depth):
        star[depth] += 1
        if has_dup:
            coinc[depth] += 1
        if depth == r_max:
            return
        nd = depth + 1
        kmax = d - nd + 1
        cs = coeffs[nd - 1 :]
        for t in order:
            prev = 1
            dd = cs[0]
            hp = [1]
            for k in range(1, kmax + 1):
                prev = add(h[k], mul(t, prev))
                hp.append(prev)
                dd = add(dd, mul(cs[k], prev))
            if dd == 0:
                descend(hp, prefix + (t,), has_dup or t in prefix, nd)

    for t in order:
        h1 = [1]
        acc = 1
        for _ in range(d):
            acc = mul(acc, t)
            h1.append(acc)
        descend(h1, (t,), False, 1)


def hermite_profile(spec, r_max, partition=None, order=None):
    """(hermite, coincident) count lists for tuple lengths 1..r_max.

    `order` overrides the node candidate sequence; any permutation of the
    field elements yields identical counts (the equations are symmetric in
    the prefix), which tests exercise directly.
    """
    if r_max < 1:
        raise ParameterRange(f"need r_max >= 1, got {r_max}")
    field = spec.field
    if order is None:
        order = list(field.indices())
    star = [0] * (r_max + 1)
    coinc = [0] * (r_max + 1)
    prime = field.s == 1
    for member in enumerate_family(spec, partition):
        coeffs = [0] + list(reversed(member.a)) + [1]
        if prime:
            _profile_member_prime(field.p, coeffs, r_max, star, coinc, order)
        else:
            _profile_member_generic(field, coeffs, r_max, star, coinc, order)
    return star[1:], coinc[1:]


def count_hermite_tuples(spec, r, **kw):
    return hermite_profile(spec, r, **kw)[0][r - 1]


def count_coincident_tuples(spec, r, **kw):
    return hermite_profile(spec, r, **kw)[1][r - 1]


def collect(spec, r_max, scan=None, partition=None):
    """IncidenceCounts for r = 1..r_max with the subtraction identity enforced."""
    if scan is None:
        scan = scan_family(spec, partition)
    star, coinc = hermite_profile(spec, r_max, partition=partition)
    out = []
    for r in range(1, r_max + 1):
        distinct = scan.distinct_tuple_count(r)
        if distinct != star[r - 1] - coinc[r - 1]:
            raise IdentityViolation(
                f"r={r}: distinct={distinct} but hermite-coincident="
                f"{star[r - 1]}-{coinc[r - 1]}={star[r - 1] - coinc[r - 1]} ({spec!r})"
            )
        out.append(IncidenceCounts(r, distinct, star[r - 1], coinc[r - 1]))
    return out


# --- budget-guarded enumeration oracles ---------------------------------------

def count_distinct_tuples_oracle(
    spec, r, budget=DEFAULT_ORACLE_BUDGET, member_count=None
):
    """Literal enumeration over (member, shift, ordered distinct tuple)."""
    if r < 1:
        raise ParameterRange(f"need r >= 1, got {r}")
    field = spec.field
    q = field.q
    if r > q:
        return 0
    members = oracle_members(
        spec, q * perm(q, r), budget, "raw tuple enumeration", member_count
    )
    add, mul = field.add, field.mul
    total = 0
    for member in members:
        for a0 in field.indices():
            for nodes in permutations(field.indices(), r):
                ok = True
                for x in nodes:
                    acc = 1
                    for coef in member.a:
                        acc = add(mul(acc, x), coef)
                    if add(mul(acc, x), a0):
                        ok = False
                        break
                if ok:
                    total += 1
    return total


def count_hermite_tuples_oracle(
    spec, r, budget=DEFAULT_ORACLE_BUDGET, member_count=None
):
    """Division oracle: tuples whose node product divides f + a_0."""
    if r < 1:
        raise ParameterRange(f"need r >= 1, got {r}")
    field = spec.field
    q = field.q
    members = oracle_members(spec, q ** (r + 1), budget, "division oracle", member_count)
    total = 0
    for member in members:
        base = [0] + list(reversed(member.a)) + [1]
        for a0 in field.indices():
            base[0] = a0
            f = UniPoly(field, base)
            for nodes in product(field.indices(), repeat=r):
                if hermite_divides(f, nodes):
                    total += 1
    return total


# --- estimate reports ----------------------------------------------------------

@dataclass(frozen=True)
class HermiteEstimateReport:
    r: int
    count: int
    main_term: int  # q^(d-m), the full-dimension heuristic
    bound: int
    within: bool


def hermite_estimate_report(spec, r, count=None):
    """Compare the hermite tuple count against its main term and allowance.

    Meaningful when the diagnostics module vouches for the family; otherwise
    `within` simply records the deviation's size.
    """
    if count is None:
        count = count_hermite_tuples(spec, r)
    q = spec.field.q
    main = q ** (spec.d - spec.m)
    bound = hermite_count_error_bound(spec.d, spec.m, spec.degrees, r, q)
    return HermiteEstimateReport(r, count, main, bound, abs(count - main) <= bound)


@dataclass(frozen=True)
class CoincidentBoundReport:
    r: int
    count: int
    bound: int
    ok: bool
    ratio: Fraction  # count / bound, or None when the bound is 0


def coincident_bound_check(spec, r, count=None):
    if count is None:
        count = count_coincident_tuples(spec, r)
    bound = coincident_count_bound(spec.d, spec.m, spec.degrees, r, spec.field.q)
    ratio = Fraction(count, bound) if bound else None
    return CoincidentBoundReport(r, count, bound, count <= bound, ratio)
