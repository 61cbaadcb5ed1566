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
CLI (its seed check is a run too) and `collect` both go through it.  The
orbit identity r!*S_r = distinct and the subtraction distinct = hermite -
coincident hold by construction of the `ScanResult` counts, which read
both sides off one histogram and one set of multiplicity patterns; so the
patterns are checked independently only by the prefix DFS, and only
within its price (`test_dfs_oracle_catches_tampered_patterns`).  The
ROADMAP direction "Keep an independent check at every budget" plans one.

The hermite and coincident counts of a pair (f, a_0) depend only on the
multiplicities of the F_q-roots of f + a_0, so they are read off the
family scan (`ScanResult.hermite_count` and `coincident_count`, fed by the
multiplicity patterns of the Horner sweep); the checks below take the scan
itself.  `hermite_profile` computes them independently and serves as an
oracle: the CLI runs it when its cost fits the oracle budget, and
`collect` always runs it.  `check_pattern_counts` compares the two.

Both hermite oracles run one kernel, `_chains`: a DFS over node prefixes
whose state is the exact quotient of f + a_0 by the node product so far.
A child t is kept when synthetic division by (T - t) leaves remainder 0;
the node product divides f + a_0 exactly when every division of the chain
is exact, repeated nodes counted by multiplicity, so the chains of depth r
are the hermite r-tuples, and those with a repeated node the coincident
ones.  The root pins a_0 = -f(t), so a start node costs one Horner pass.
Below depth 1 a node tries only the children its parent kept, since its
quotient divides the parent's, so the price `cli._oracle_stages` checks,
q children per node, bounds the work from above.  `hermite_profile` walks
`enumerate_family`, the division oracle the candidate filter's members.

Every brute-force recount of the scan lives in this module; `engine` is
only the scan.  No oracle reads `Field.rows()`, the scan's lookup table, or
anything of the scan but its member count: they call the `Field` methods.
The budget-guarded oracles price their work before they list a member
(`oracle_members`), and the oracles of one run list the candidate filter
once between them.  The literal S_r and distinct-tuple oracles share one
kernel, `_literal_tuple_count`: it evaluates each member once per node and
counts the r-subsets resp. ordered r-tuples of distinct nodes whose values
all agree.  Such a tuple is a root tuple of f + a_0 at one shift, the pin
a_0 = -f(x_1) of its first node, and any other tuple is one at no shift.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial, perm

from .config import DEFAULT_ORACLE_BUDGET
from .errors import BudgetExceeded, IdentityViolation, ParameterRange
from .families import enumerate_family, family_cardinality, filter_family


IncidenceCounts = namedtuple("IncidenceCounts", "r distinct hermite coincident")


def _chains(field, members, r_max):
    """(hermite, coincident) count lists for tuple lengths 1..r_max, by the
    exact-quotient DFS on the `Field` methods.

    Depth 0 holds f without its constant slot, so a start node t takes one
    Horner pass, the quotient of f + a_0 by (T - t) at a_0 = -f(t); at
    r_max = 1 every start node is a chain, and none is computed.  A node of
    depth 1 tries every node as a child.  Below that, a node tries only the
    children its parent kept: its quotient is the parent's divided by
    (T - t), so each of its roots is a root of the parent's.  At depth
    r_max - 1 the exact divisions are counted without building quotients.
    """
    add, mul = field.add, field.mul
    nodes = list(field.indices())
    if r_max == 1:
        return [len(nodes) * sum(1 for _ in members)], [0]
    star = [0] * (r_max + 1)
    coinc = [0] * (r_max + 1)

    def descend(quotient, prefix, has_dup, tried):
        depth = len(prefix) + 1  # the depth of the children
        lead, rest = quotient[0], quotient[1:]
        if depth == r_max:
            for t in tried:
                acc = lead
                for c in rest:
                    acc = add(mul(acc, t), c)
                if acc == 0:
                    star[depth] += 1
                    coinc[depth] += has_dup or t in prefix
            return
        kept = {}
        for t in tried:
            acc = lead
            child = [acc]
            for c in rest:
                acc = add(mul(acc, t), c)
                child.append(acc)
            if depth == 1 or child.pop() == 0:
                kept[t] = child
        star[depth] += len(kept)
        for t, child in kept.items():
            dup = has_dup or t in prefix
            coinc[depth] += dup
            descend(child, prefix + (t,), dup, nodes if depth == 1 else kept)

    for member in members:
        descend([1, *member], (), False, nodes)
    return star[1:], coinc[1:]


def hermite_profile(spec, r_max):
    """(hermite, coincident) count lists for tuple lengths 1..r_max."""
    if r_max < 1:
        raise ParameterRange(f"need r_max >= 1, got {r_max}")
    return _chains(spec.field, enumerate_family(spec), r_max)


def check_identities(scan, r_max, label):
    """Check the exact Lemma equalities; a failure is an implementation bug.

    On the histogram of `scan`: the mean equals the alternating sum of
    the S_r over r = 1..d (inclusion-exclusion), and r! * S_r equals the
    distinct-tuple count (orbit identity).  Against the scan's hermite and
    coincident counts: distinct = hermite - coincident for r = 1..r_max.
    Raises `IdentityViolation` naming `label` and the histogram.

    The orbit and subtraction identities hold by construction of the
    `ScanResult` counts, so they catch a fault in how the counts are read
    off the scan, not in the scan's patterns; only `check_pattern_counts`
    against the prefix DFS checks those, when the DFS fits the budget.
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
                f"hermite {herm} - coincident {co} ({dump})"
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

@lru_cache(maxsize=1)
def _filter_listing(spec):
    """The candidate filter's members of the last spec object listed, so
    the oracles of one run walk the filter once between them."""
    return tuple(filter_family(spec))


def oracle_members(spec, cost_per_member, budget, label, member_count=None):
    """Members for a brute-force oracle, listed only after its budget check.

    The cost is cost_per_member * |A|, with |A| taken from member_count (the
    scan's count) when given, so a refusal enumerates nothing.  The members
    come from the candidate filter, independent of `enumerate_family`, so an
    oracle that runs also cross-checks the direct enumerator; a filter of
    more than `budget` candidates, q^(d-1), is refused after the price, the
    bit lengths deciding before the power is formed.
    """
    if member_count is None:
        member_count = family_cardinality(spec)
    cost = cost_per_member * member_count
    if cost > budget:
        raise BudgetExceeded(f"{label} cost {cost} exceeds budget {budget}")
    q, width = spec.field.q, spec.d - 1
    if (q.bit_length() - 1) * width >= budget.bit_length() or q**width > budget:
        raise BudgetExceeded(
            f"{label} lists {q}^{width} filter candidates, over budget {budget}"
        )
    return _filter_listing(spec)


def _literal_tuple_count(field, members, tuples, r):
    """Node tuples whose nodes are all roots of f + a_0, summed over the
    members f and the shifts a_0; tuples is `combinations` or
    `permutations`, applied to the nodes' values.

    Each member is evaluated once per node by Horner through the `Field`
    methods, constant slot 0.  A node tuple can be a root tuple of f + a_0
    only at a_0 = -f(x_1), its first node's pin, and it is one there
    exactly when every node of it has the value f(x_1); so each tuple
    takes one test, and no shift is walked.  Nodes are not bucketed by
    value, which is the scan's histogram, so the count stays independent
    of the scan.
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
        total += sum(t.count(t[0]) == r for t in tuples(values, r))
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

    The exact-quotient DFS `_chains` over the candidate filter's members;
    its root pins a_0 = -f(t), one Horner pass per start node.  The price
    checked against `budget` before any member is listed stays q^(r+1)*|A|,
    one test per node tuple of every (member, a_0) pair: it overstates the
    pinned walk, but it is the price the skip notes print.
    """
    if r < 1:
        raise ParameterRange(f"need r >= 1, got {r}")
    q = spec.field.q
    members = oracle_members(spec, q ** (r + 1), budget, "division oracle", member_count)
    return _chains(spec.field, members, r)[0][r - 1]
