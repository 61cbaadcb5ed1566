"""Exact counts of root-incidence tuples attached to a family.

Three counts per tuple length r, each over all (member, shift a_0) pairs:

* distinct:   ordered r-tuples of pairwise distinct roots of f + a_0.
* hermite:    r-tuples (roots with multiplicity, in the divided-difference
              sense) where every prefix equation vanishes; the length-1
              equation f(t) + a_0 = 0 pins a_0, so each start node t
              belongs to exactly one shift.
* coincident: hermite tuples with at least one repeated node.

distinct = hermite - coincident is a theorem.  `check_identities` re-checks
it, together with the inclusion-exclusion and orbit identities of the
histogram, on every run and raises `IdentityViolation` on a mismatch; the
CLI, its seed check and `collect` all go through it.

The hermite and coincident counts of a pair (f, a_0) depend only on the
multiplicities of the F_q-roots of f + a_0, so the CLI takes them from the
family scan (`ScanResult.tuple_profile`, fed by the multiplicity patterns
of the Horner sweep).  `hermite_profile` computes them independently and
serves as an oracle: the CLI runs it when its cost fits the oracle
budget, and the seed check and `collect` always run it.
`check_pattern_counts` compares the two.  Being an oracle, the DFS is the
one per-member pass over a family outside `engine.scan_family`.

`hermite_profile` walks a DFS over node prefixes.  The state per prefix is
the vector of complete homogeneous sums h_k(nodes); appending a node t
updates it by h'_k = h_k + t*h'_{k-1}, and the depth-i equation is
sum_j c_j * h'_{j-i+1} over the coefficients c of the member (monic, so
c_d = 1; the constant slot cancels out of every depth >= 2 equation).
Failing prefixes cut their whole subtree.  One kernel serves every field:
it works on raw indices through the lookup rows of `Field.rows()`.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import factorial, perm

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


def _profile_member(add, mul, coeffs, r_max, star, coinc, order):
    d = len(coeffs) - 1

    def descend(h, prefix, has_dup, depth):
        star[depth] += 1
        if has_dup:
            coinc[depth] += 1
        if depth == r_max:
            return
        nd = depth + 1
        kmax = d - nd + 1
        c0 = coeffs[nd - 1]
        # per k: the add row of h_k and the mul row of the coefficient c_k
        steps = [
            (add[h[k]], mul[coeffs[nd - 1 + k]]) for k in range(1, kmax + 1)
        ]
        for t in order:
            mt = mul[t]
            prev = 1
            dd = c0
            hp = [1]
            for add_h, mul_c in steps:
                prev = add_h[mt[prev]]
                hp.append(prev)
                dd = add[dd][mul_c[prev]]
            if dd == 0:
                descend(hp, prefix + (t,), has_dup or t in prefix, nd)

    for t in order:
        mt = mul[t]
        h1 = [1]
        acc = 1
        for _ in range(d):
            acc = mt[acc]
            h1.append(acc)
        descend(h1, (t,), False, 1)


def hermite_profile(spec, r_max, order=None):
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
    add, mul, _, _ = field.rows()
    star = [0] * (r_max + 1)
    coinc = [0] * (r_max + 1)
    for member in enumerate_family(spec):
        coeffs = [0] + list(reversed(member)) + [1]
        _profile_member(add, mul, coeffs, r_max, star, coinc, order)
    return star[1:], coinc[1:]


def check_identities(scan, star, coinc, r_max, label):
    """Check the exact Lemma equalities; a failure is an implementation bug.

    On the histogram of `scan`: the mean equals the alternating sum of
    the S_r over r = 1..d (inclusion-exclusion), and r! * S_r equals the
    distinct-tuple count (orbit identity).  Against the DFS counts `star`
    and `coinc`: distinct = hermite - coincident for r = 1..r_max.  Raises
    `IdentityViolation` naming `label` and the histogram.
    """
    dump = f"family {label}, histogram {scan.profile}"
    alternating = sum(
        scan.interpolating_count(r) * (1 if r % 2 else -1)
        for r in range(1, scan.d + 1)
    )
    if scan.sum_values != alternating:
        members = scan.member_count
        raise IdentityViolation(
            f"inclusion-exclusion mismatch: mean "
            f"{Fraction(scan.sum_values, members)} != alternating sum "
            f"{Fraction(alternating, members)} ({dump})"
        )
    for r in range(1, r_max + 1):
        s_r = scan.interpolating_count(r)
        distinct = scan.distinct_tuple_count(r)
        if factorial(r) * s_r != distinct:
            raise IdentityViolation(
                f"orbit identity mismatch at r={r}: r!*S_r = "
                f"{factorial(r) * s_r} != distinct tuples {distinct} ({dump})"
            )
        if distinct != star[r - 1] - coinc[r - 1]:
            raise IdentityViolation(
                f"tuple subtraction mismatch at r={r}: distinct {distinct} != "
                f"prefix-count {star[r - 1]} - coincident {coinc[r - 1]} ({dump})"
            )


def check_pattern_counts(star, coinc, dfs_star, dfs_coinc):
    """Compare the scan's hermite/coincident count lists with the DFS's.

    The lists hold the counts for r = 1, 2, ...; raises `IdentityViolation`
    naming the first r where they differ.
    """
    for r, pair in enumerate(zip(star, coinc, dfs_star, dfs_coinc), 1):
        herm, co, dfs_herm, dfs_co = pair
        if (herm, co) != (dfs_herm, dfs_co):
            raise IdentityViolation(
                f"prefix DFS oracle disagrees at r={r}: hermite {dfs_herm}, "
                f"coincident {dfs_co} != {herm}, {co} from the multiplicity "
                f"patterns"
            )


def collect(spec, r_max, scan=None):
    """IncidenceCounts for r = 1..r_max, every identity checked first.

    The tuple counts come from the prefix DFS and are checked against the
    scan's multiplicity patterns as well as the subtraction identity.
    """
    if scan is None:
        scan = scan_family(spec)
    star, coinc = hermite_profile(spec, r_max)
    check_identities(scan, star, coinc, r_max, repr(spec))
    check_pattern_counts(*scan.tuple_profile(r_max), star, coinc)
    return [
        IncidenceCounts(r, scan.distinct_tuple_count(r), star[r - 1], coinc[r - 1])
        for r in range(1, r_max + 1)
    ]


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
                    for coef in member:
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
        base = [0] + list(reversed(member)) + [1]
        for a0 in field.indices():
            base[0] = a0
            f = UniPoly(field, base)
            for nodes in product(field.indices(), repeat=r):
                if hermite_divides(f, nodes):
                    total += 1
    return total
