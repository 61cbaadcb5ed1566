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
CLI (its seed check is a run too) and `collect` both go through it.

The hermite and coincident counts of a pair (f, a_0) depend only on the
multiplicities of the F_q-roots of f + a_0, so they are read off the
family scan (`ScanResult.hermite_count` and `coincident_count`, fed by the
multiplicity patterns of the Horner sweep); the checks below take the scan
itself.  `hermite_profile` computes them independently and serves as an
oracle: the CLI runs it when its cost fits the oracle budget, and
`collect` always runs it.  `check_pattern_counts` compares the two.  Being
an oracle, the DFS is the one per-member pass over a family outside
`engine.scan_family`.

`hermite_profile` walks a DFS over node prefixes.  The state per prefix is
the vector of complete homogeneous sums h_k(nodes); appending a node t
updates it by h'_k = h_k + t*h'_{k-1}, and the depth-i equation is
sum_j c_j * h'_{j-i+1} over the coefficients c of the member (monic, so
c_d = 1; the constant slot cancels out of every depth >= 2 equation).
Failing prefixes cut their whole subtree.  One kernel serves every field:
it works on raw indices through the lookup rows of `Field.rows()`.

Every brute-force recount of the scan lives in this module; `engine` is
only the scan.  The budget-guarded oracles at the end of the module price
their work before they list a member (`oracle_members`).  The literal
S_r and distinct-tuple oracles share one kernel, `_literal_tuple_count`:
it evaluates each member once per node through the `Field` methods, finds
the roots of each f + a_0 by testing every node, and counts the r-subsets
resp. ordered r-tuples of distinct nodes that are all roots.

The division oracle `count_hermite_tuples_oracle` walks node
prefixes too, but its state is the exact quotient of f + a_0 by the node
product so far, one synthetic division by (T - t) per node; a tuple is
counted when every division in its chain leaves remainder 0.  It stays
independent of the scan and of `hermite_profile`: it keeps quotients, not
complete homogeneous sums, calls the `Field` methods, not `Field.rows()`,
takes its members from the candidate filter (`oracle_members`) and reads
nothing from the scan.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial, perm

from .errors import BudgetExceeded, IdentityViolation, ParameterRange
from .families import enumerate_family, family_cardinality, filter_family

DEFAULT_ORACLE_BUDGET = 5_000_000


@dataclass(frozen=True)
class IncidenceCounts:
    r: int
    distinct: int
    hermite: int
    coincident: int


def _profile_member(add, mul, coeffs, r_max, star, coinc, nodes):
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
        for t in nodes:
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

    for t in nodes:
        mt = mul[t]
        h1 = [1]
        acc = 1
        for _ in range(d):
            acc = mt[acc]
            h1.append(acc)
        descend(h1, (t,), False, 1)


def hermite_profile(spec, r_max):
    """(hermite, coincident) count lists for tuple lengths 1..r_max."""
    if r_max < 1:
        raise ParameterRange(f"need r_max >= 1, got {r_max}")
    field = spec.field
    nodes = list(field.indices())
    add, mul, _, _ = field.rows()
    star = [0] * (r_max + 1)
    coinc = [0] * (r_max + 1)
    for member in enumerate_family(spec):
        coeffs = [0] + list(reversed(member)) + [1]
        _profile_member(add, mul, coeffs, r_max, star, coinc, nodes)
    return star[1:], coinc[1:]


def check_identities(scan, r_max, label):
    """Check the exact Lemma equalities; a failure is an implementation bug.

    On the histogram of `scan`: the mean equals the alternating sum of
    the S_r over r = 1..d (inclusion-exclusion), and r! * S_r equals the
    distinct-tuple count (orbit identity).  Against the scan's hermite and
    coincident counts: distinct = hermite - coincident for r = 1..r_max.
    Raises `IdentityViolation` naming `label` and the histogram.
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
        herm, co = scan.hermite_count(r), scan.coincident_count(r)
        if distinct != herm - co:
            raise IdentityViolation(
                f"tuple subtraction mismatch at r={r}: distinct {distinct} != "
                f"prefix-count {herm} - coincident {co} ({dump})"
            )


def check_pattern_counts(scan, dfs_star, dfs_coinc):
    """Compare the scan's hermite and coincident counts with the DFS's.

    The DFS lists hold the counts for r = 1, 2, ...; raises
    `IdentityViolation` naming the first r where they differ.
    """
    for r, (dfs_herm, dfs_co) in enumerate(zip(dfs_star, dfs_coinc), 1):
        herm, co = scan.hermite_count(r), scan.coincident_count(r)
        if (herm, co) != (dfs_herm, dfs_co):
            raise IdentityViolation(
                f"prefix DFS oracle disagrees at r={r}: hermite {dfs_herm}, "
                f"coincident {dfs_co} != {herm}, {co} from the multiplicity "
                f"patterns"
            )


def collect(spec, r_max, scan):
    """IncidenceCounts for r = 1..r_max, every identity checked first.

    The tuple counts come from the prefix DFS and are checked against the
    family's scan: its multiplicity patterns and the subtraction identity.
    """
    star, coinc = hermite_profile(spec, r_max)
    check_identities(scan, r_max, repr(spec))
    check_pattern_counts(scan, star, coinc)
    return [
        IncidenceCounts(r, scan.distinct_tuple_count(r), star[r - 1], coinc[r - 1])
        for r in range(1, r_max + 1)
    ]


# --- budget-guarded enumeration oracles ---------------------------------------

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


def _literal_tuple_count(field, members, tuples, r):
    """Node tuples whose nodes are all roots of f + a_0, summed over the
    members f and the shifts a_0; tuples is `combinations` or
    `permutations`, applied to the field's indices.

    Each member is evaluated once per node by Horner through the `Field`
    methods, and the roots of each f + a_0 are found by testing every node.
    Nodes are not bucketed by value, which is the scan's histogram, so the
    count stays independent of the scan.
    """
    add, mul = field.add, field.mul
    nodes = list(field.indices())
    total = 0
    for member in members:
        values = []
        for x in nodes:
            acc = 1
            for coef in member:
                acc = add(mul(acc, x), coef)
            values.append(mul(acc, x))
        for a0 in nodes:
            roots = {x for x, v in zip(nodes, values) if add(v, a0) == 0}
            total += sum(map(roots.issuperset, tuples(nodes, r)))
    return total


def count_interpolating_sets_direct(
    spec, r, budget=DEFAULT_ORACLE_BUDGET, member_count=None
):
    """S_r by literal enumeration of r-subsets and (member, a_0) pairs.

    Test oracle only; refuses work beyond C(q, r) * |A| candidate pairs.
    """
    if r < 1:
        raise ParameterRange(f"need r >= 1, got {r}")
    q = spec.field.q
    if r > q:
        return 0
    members = oracle_members(spec, comb(q, r), budget, "direct S_r", member_count)
    return _literal_tuple_count(spec.field, members, combinations, r)


def count_distinct_tuples_oracle(
    spec, r, budget=DEFAULT_ORACLE_BUDGET, member_count=None
):
    """Literal enumeration over (member, shift, ordered distinct tuple)."""
    if r < 1:
        raise ParameterRange(f"need r >= 1, got {r}")
    q = spec.field.q
    if r > q:
        return 0
    members = oracle_members(
        spec, q * perm(q, r), budget, "raw tuple enumeration", member_count
    )
    return _literal_tuple_count(spec.field, members, permutations, r)


def count_hermite_tuples_oracle(
    spec, r, budget=DEFAULT_ORACLE_BUDGET, member_count=None
):
    """Division oracle: tuples whose node product divides f + a_0.

    For each member and shift a_0, a DFS over node prefixes divides the
    current dividend, f + a_0 at the root, synthetically by (T - t) and
    descends with the quotient only when the remainder is 0.  The node
    product divides f + a_0 exactly when each division of the chain is
    exact, taken in any order, with repeated nodes counted by multiplicity,
    so the exact chains of depth r are the hermite r-tuples.  The price is
    q^(r+1) * |A|, one test per node tuple of every (member, a_0) pair,
    checked against `budget` before any member is listed.
    """
    if r < 1:
        raise ParameterRange(f"need r >= 1, got {r}")
    field = spec.field
    q = field.q
    members = oracle_members(spec, q ** (r + 1), budget, "division oracle", member_count)
    add, mul = field.add, field.mul

    def exact_chains(coeffs, depth):
        # exact chains of `depth` more nodes under the dividend `coeffs`,
        # whose coefficients are listed from the leading one down
        found = 0
        for t in field.indices():
            quotient = [coeffs[0]]
            for c in coeffs[1:]:
                quotient.append(add(mul(quotient[-1], t), c))
            if quotient.pop() == 0:
                found += 1 if depth == 1 else exact_chains(quotient, depth - 1)
        return found

    return sum(
        exact_chains([1, *member, a0], r)
        for member in members
        for a0 in field.indices()
    )
