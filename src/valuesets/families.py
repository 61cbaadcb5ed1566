"""Families of monic degree-d polynomials cut out by coefficient constraints.

A family member is the plain tuple (a_{d-1}, ..., a_1) of field indices,
descending, with the constant coefficient normalized to 0.  Constraint
polynomials live in d-1 variables where variable index 0 is the a_{d-1}
slot.

Members are listed in one fixed order on either of two paths: ascending
lexicographic order of the coefficient vector, a_1 moving fastest and each
coordinate in field index order.  Both paths walk one odometer,
`islice(product(range(q), repeat=width), lo, hi)`, whose last coordinate
moves fastest, and evaluate polynomials only through `MultiPoly.eval`.

- The candidate filter (`filter_family`) walks all q^(d-1) candidate
  vectors and keeps those on which every constraint vanishes.  It serves
  any family, and the oracles use it as the independent reference for the
  direct path.
- Every `FamilySpec` tries, once at build time, to solve its constraints
  by substitution: the rightmost coordinate A_j that some remaining
  constraint holds in one clean term is solved from that constraint
  c*A_j + h, with c a nonzero constant and A_j absent from h, and the rule
  A_j = -h/c, a `MultiPoly`, is substituted into the other constraints.  A
  linear system of full rank always solves this way; so do graph forms
  such as A2 + g(A4, A3), A2 - A3^2, or A2 + A3^2 + A1^2, whose rule reads
  A1 to its right.  A solved family is the graph of its rules over its
  free coordinates.  When every rule reads only coordinates to its left
  (`FamilySpec.direct`), it is walked directly over the q^(free)
  assignments of its free coordinates, each pivot set to its rule's value
  in fill order.  Two members first differ at a free coordinate (each
  pivot is determined by the free coordinates before it), so this is the
  filter's order.  Anything else stays on the filter: a rule that reads to
  its right, a constraint that reduces to a constant, or a step where no
  coordinate is held in one clean term.

`FamilySpec.walked` names the coordinates `enumerate_family` walks, and
`FamilySpec.space_size()` is the size of that index space; a (lo, hi) slice
of it is a clean unit of parallel work.  Given a `weigh` function of the
walked coordinates, `enumerate_family` yields only the members it weighs
nonzero, with their weights; the engine's scan passes its orbit weights
this way, so on the direct walk a member it skips costs no rule
evaluation.
"""

import sys
from itertools import islice, product

from .errors import (
    ArityMismatch,
    IdentityViolation,
    ParameterRange,
    RankDeficient,
    ZeroPolynomial,
)
from .multipoly import MultiPoly, elementary_symmetric, weighted_compose


class FamilySpec:
    __slots__ = (
        "field", "d", "m", "constraints", "degrees", "solution", "direct", "walked"
    )

    def __init__(self, field, d, m, constraints):
        if d < 1:
            raise ParameterRange(f"degree d={d} must be positive")
        if m != len(constraints):
            raise ArityMismatch(f"m={m} but {len(constraints)} constraints given")
        for g in constraints:
            if g.field != field:
                raise ArityMismatch("constraint field differs from family field")
            if g.nvars != d - 1:
                raise ArityMismatch(
                    f"constraint has {g.nvars} variables, expected {d - 1}"
                )
            if g.is_zero():
                raise ZeroPolynomial("zero constraint is vacuous; drop it instead")
        self.field = field
        self.d = d
        self.m = m
        self.constraints = tuple(constraints)
        self.degrees = tuple(g.total_degree for g in constraints)
        # (free, rules) when the constraints solve, else None
        self.solution = _solve(field, d - 1, self.constraints)
        # walked over the free coordinates only when every rule reads left
        self.direct = self.solution is not None and all(
            not any(exps[j:]) for j, rule in self.solution[1] for exps in rule.terms
        )
        # the coordinates `enumerate_family` walks: the free ones, or all
        self.walked = self.solution[0] if self.direct else tuple(range(d - 1))
        if self.space_size() > sys.maxsize:
            raise ParameterRange(
                f"the walk over q^{len(self.walked)} indices exceeds sys.maxsize = "
                f"{sys.maxsize} (q={field.q})"
            )

    def space_size(self):
        """Size of the index space `enumerate_family` walks.

        q^(free coordinates), the member count, for a family walked
        directly; otherwise q^(d-1), the candidate count.
        """
        return self.field.q ** len(self.walked)

    def __repr__(self):
        return (
            f"FamilySpec(q={self.field.q}, d={self.d}, m={self.m}, "
            f"degrees={list(self.degrees)})"
        )


def partition_ranges(total, parts):
    """Split [0, total) into `parts` disjoint covering (lo, hi) ranges."""
    if parts < 1:
        raise ParameterRange(f"need at least one partition, got {parts}")
    step, extra = divmod(total, parts)
    out = []
    lo = 0
    for i in range(parts):
        hi = lo + step + (1 if i < extra else 0)
        out.append((lo, hi))
        lo = hi
    return out


def _check_partition(partition, total):
    lo, hi = partition if partition is not None else (0, total)
    if not 0 <= lo <= hi <= total:
        raise ParameterRange(f"partition ({lo}, {hi}) outside [0, {total})")
    return lo, hi


def filter_family(spec, partition=None):
    """Yield the members by testing every candidate vector against the
    constraints, in enumeration order.

    `partition` restricts to a (lo, hi) slice of the q^(d-1) candidate
    indices.  This is the reference enumerator for every family kind.
    """
    constraints = spec.constraints
    q, width = spec.field.q, spec.d - 1
    lo, hi = _check_partition(partition, q**width)
    for a in islice(product(range(q), repeat=width), lo, hi):
        if not any(g.eval(a) for g in constraints):
            yield a


def enumerate_family(spec, partition=None, weigh=None):
    """Yield the members of the family in enumeration order.

    `partition` restricts to a (lo, hi) slice of [0, spec.space_size());
    slices from partition_ranges are disjoint and covering, so parallel
    scans see each member exactly once.  A solved family whose rules read
    only to their left is walked directly over its free coordinates,
    anything else through the filter.

    With `weigh`, yield (member, weight) pairs instead, for the members
    whose walked coordinates weigh nonzero: weigh(values) is called on the
    free coordinates on the direct walk, before any rule is evaluated, and
    on the whole member on the filter.
    """
    if not spec.direct:
        members = filter_family(spec, partition)
        if weigh is None:
            yield from members
            return
        for a in members:
            weight = weigh(a)
            if weight:
                yield a, weight
        return
    free, rules = spec.walked, spec.solution[1]
    lo, hi = _check_partition(partition, spec.space_size())
    a = [0] * (spec.d - 1)
    for values in islice(product(range(spec.field.q), repeat=len(free)), lo, hi):
        if weigh is not None:
            weight = weigh(values)
            if not weight:
                continue
        for k, x in zip(free, values):
            a[k] = x
        for j, rule in rules:
            a[j] = rule.eval(a)
        yield tuple(a) if weigh is None else (tuple(a), weight)


def family_cardinality(spec):
    """|A| by exact enumeration."""
    return sum(1 for _ in enumerate_family(spec))


def linear_family(field, d, m, forms):
    """Family cut out by affine forms of degree 1 in A_{d-1}..A_2.

    Only validates: the forms must be affine, leave the a_1 slot free, and
    have linear parts of rank m over F_q, which is exactly when `FamilySpec`
    solves them, so the q^(d-1-m) members are walked directly.
    """
    if not 1 <= m <= d - 2:
        raise ParameterRange(f"need 1 <= m <= d-2, got m={m}, d={d}")
    if len(forms) != m:
        raise ArityMismatch(f"m={m} but {len(forms)} forms given")
    for g in forms:
        if g.nvars != d - 1 or g.field != field:
            raise ArityMismatch("form has wrong variable count or field")
        if g.total_degree != 1:
            raise ParameterRange(f"form of degree {g.total_degree} is not linear")
        if any(exps[d - 2] for exps in g.terms):
            raise ParameterRange("linear constraints may not involve A1")
    spec = FamilySpec(field, d, m, forms)
    if spec.solution is None:
        raise RankDeficient(f"linear forms have rank < m={m}")
    return spec


def _substitute(g, j, rule):
    """g with the polynomial `rule` put in for variable j."""
    pis = [MultiPoly.variable(g.field, g.nvars, k) for k in range(g.nvars)]
    pis[j] = rule
    return weighted_compose(g, pis)


def _solve(field, n, constraints):
    """(free, rules) solving the constraints by substitution, or None.

    While constraints remain, take the rightmost coordinate A_j that some
    remaining constraint holds in one clean term: c*A_j + h with c a
    nonzero constant and A_j absent from h.  Its rule (j, -h/c) is
    substituted into the other constraints, so no later rule reads A_j.
    None when a remaining constraint is constant (or zero) or no coordinate
    is held cleanly.  Every constraint must reduce to the zero polynomial
    once the rules are substituted in the order they were taken; they are
    returned in the reverse order, the order they are filled.
    """
    remaining = list(constraints)
    rules = []
    while remaining:
        if any(g.total_degree < 1 for g in remaining):
            return None
        for j in reversed(range(n)):
            unit = tuple(int(k == j) for k in range(n))
            i = next((i for i, g in enumerate(remaining) if unit in g.terms
                      and all(e == unit or not e[j] for e in g.terms)), None)
            if i is not None:
                break
        else:
            return None
        g = remaining.pop(i)
        h = MultiPoly(field, n, {e: v for e, v in g.terms.items() if e != unit})
        rule = h.scale(field.neg(field.inv(g.terms[unit])))
        rules.append((j, rule))
        remaining = [_substitute(g, j, rule) for g in remaining]
    for g in constraints:
        for j, rule in rules:
            g = _substitute(g, j, rule)
        if not g.is_zero():
            raise IdentityViolation(f"solved rules leave the constraint residue {g}")
    pivots = {j for j, _ in rules}
    free = tuple(k for k in range(n) if k not in pivots)
    return free, tuple(reversed(rules))


def symmetric_family(field, d, m, s, shapes):
    """Family with constraints S_i(Pi_1, ..., Pi_s), Pi_k the k-th elementary
    symmetric polynomial in the slots A_{d-1}..A_2."""
    if not m <= s <= d - m - 4:
        raise ParameterRange(f"need m <= s <= d-m-4, got m={m}, s={s}, d={d}")
    if len(shapes) != m:
        raise ArityMismatch(f"m={m} but {len(shapes)} shape polynomials given")
    pis = [
        elementary_symmetric(field, d - 2, k).extend_vars(d - 1) for k in range(1, s + 1)
    ]
    constraints = []
    for S in shapes:
        if S.nvars != s:
            raise ArityMismatch(f"shape polynomial has {S.nvars} variables, expected {s}")
        constraints.append(weighted_compose(S, pis))
    return FamilySpec(field, d, m, constraints)
