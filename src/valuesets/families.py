"""Families of monic degree-d polynomials cut out by coefficient constraints.

A family member is the coefficient vector (a_{d-1}, ..., a_1), descending,
with the constant coefficient normalized to 0.  Constraint polynomials live
in d-1 variables where variable index 0 is the a_{d-1} slot.

Members are listed in one fixed order on either of two paths: ascending
lexicographic order of the coefficient vector, a_1 moving fastest and each
coordinate in field index order.

- The candidate filter (`filter_family`) walks all q^(d-1) candidate
  vectors as an odometer and keeps those on which every constraint
  vanishes.  It serves any family, and the oracles use it as the
  independent reference for the direct path.
- Every `FamilySpec` tries, once at build time, to solve its constraints
  from the right: the rightmost coordinate A_j that a remaining constraint
  involves is solved from a constraint c*A_j + h with c a nonzero constant
  and A_j absent from h, and the rule A_j = -h/c is substituted into the
  other constraints.  Each rule then reads only coordinates to its left.
  A linear system of full rank always solves this way; so do graph forms
  such as A2 + g(A4, A3) or A2 - A3^2.  A solved family is walked directly
  over the q^(free) assignments of its free coordinates, as an odometer
  with a_1 fastest, and the pivots are filled in ascending order.  Two
  members first differ at a free coordinate (each pivot is determined by
  the coordinates before it), so this is the filter's order.  Anything else
  stays on the filter: a constraint that reduces to a constant, or a step
  where no constraint holds its rightmost coordinate in one clean term (a
  rule would have to read a coordinate to its right).

`FamilySpec.space_size()` is the size of the index space `enumerate_family`
walks, and a (lo, hi) slice of it is a clean unit of parallel work.
"""

from typing import NamedTuple

from .errors import (
    ArityMismatch,
    IdentityViolation,
    ParameterRange,
    RankDeficient,
    ZeroPolynomial,
)
from .multipoly import MultiPoly, elementary_symmetric, weighted_compose


class FamilyMember(NamedTuple):
    a: tuple  # (a_{d-1}, ..., a_1)


class FamilySpec:
    __slots__ = ("field", "d", "m", "constraints", "degrees", "kind", "solution")

    def __init__(self, field, d, m, constraints, kind="custom"):
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
        self.kind = kind
        # (free, rules) when the constraints solve from the right, else None
        self.solution = _solve(field, d - 1, self.constraints)

    def space_size(self):
        """Size of the index space `enumerate_family` walks.

        q^(free coordinates), the member count, for a solved family;
        otherwise q^(d-1), the candidate count.
        """
        free = self.d - 1 if self.solution is None else len(self.solution[0])
        return self.field.q**free

    def __repr__(self):
        return (
            f"FamilySpec(kind={self.kind!r}, q={self.field.q}, d={self.d}, "
            f"m={self.m}, degrees={list(self.degrees)})"
        )


def _digits(index, q, width):
    """Base-q digits of index, most significant first."""
    digits = [0] * width
    for i in range(width - 1, -1, -1):
        index, digits[i] = divmod(index, q)
    return digits


def candidate_at(spec, index):
    """Decode a linear index into (a_{d-1}, ..., a_1); a_1 is the fast digit."""
    return tuple(_digits(index, spec.field.q, spec.d - 1))


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
    lo, hi = _check_partition(partition, spec.field.q ** (spec.d - 1))
    for index in range(lo, hi):
        a = candidate_at(spec, index)
        ok = True
        for g in constraints:
            if g.eval(a):
                ok = False
                break
        if ok:
            yield FamilyMember(a)


def enumerate_family(spec, partition=None):
    """Yield the members of the family in enumeration order.

    `partition` restricts to a (lo, hi) slice of [0, spec.space_size());
    slices from partition_ranges are disjoint and covering, so parallel
    scans see each member exactly once.  A solved family is walked directly
    over its free coordinates, anything else through the filter.
    """
    if spec.solution is None:
        yield from filter_family(spec, partition)
        return
    field = spec.field
    rows = field.rows()
    free, rules = spec.solution
    lo, hi = _check_partition(partition, spec.space_size())
    a = [0] * (spec.d - 1)
    for index in range(lo, hi):
        for k, x in zip(free, _digits(index, field.q, len(free))):
            a[k] = x
        _fill_pivots(rows, rules, a)
        yield FamilyMember(tuple(a))


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
    spec = FamilySpec(field, d, m, forms, kind="linear")
    if spec.solution is None:
        raise RankDeficient(f"linear forms have rank < m={m}")
    return spec


def _substitute(g, j, rule):
    """g with the polynomial `rule` put in for variable j."""
    pis = [MultiPoly.variable(g.field, g.nvars, k) for k in range(g.nvars)]
    pis[j] = rule
    return weighted_compose(g, pis)


def _solve(field, n, constraints):
    """(free, rules) solving the constraints from the right, or None.

    While constraints remain, take A_j, the rightmost coordinate any of them
    involves, and a constraint c*A_j + h in which A_j occurs only in that
    one term with c a nonzero constant; its rule (j, -h/c) reads only
    coordinates left of j, and is substituted into the other constraints.
    None when a remaining constraint is constant (or zero) or no constraint
    holds A_j cleanly.  The rules come out in descending j; every constraint
    must reduce to the zero polynomial once they are substituted in that
    order, and they are returned in ascending j, the order they are filled,
    each compiled by `_compile_rule` for `_fill_pivots`.
    """
    remaining = list(constraints)
    rules = []
    while remaining:
        if any(g.total_degree < 1 for g in remaining):
            return None
        j = max(k for g in remaining for exps in g.terms for k in range(n) if exps[k])
        unit = tuple(int(k == j) for k in range(n))
        for i, g in enumerate(remaining):
            c = g.terms.get(unit)
            if c and all(exps == unit or not exps[j] for exps in g.terms):
                break
        else:
            return None
        h = MultiPoly(field, n, {e: v for e, v in g.terms.items() if e != unit})
        rule = h.scale(field.neg(field.inv(c)))
        rules.append((j, rule))
        del remaining[i]
        remaining = [_substitute(g, j, rule) for g in remaining]
    for g in constraints:
        for j, rule in rules:
            g = _substitute(g, j, rule)
        if not g.is_zero():
            raise IdentityViolation(f"solved rules leave the constraint residue {g}")
    pivots = {j for j, _ in rules}
    free = tuple(k for k in range(n) if k not in pivots)
    return free, tuple((j, _compile_rule(rule)) for j, rule in reversed(rules))


def _compile_rule(rule):
    """The terms of a rule as (coefficient, ((coordinate, exponent), ...))."""
    return tuple(
        (c, tuple((k, e) for k, e in enumerate(exps) if e))
        for exps, c in rule.terms.items()
    )


def _fill_pivots(rows, rules, a):
    """Set each pivot coordinate of a from the coordinates to its left, in
    place, evaluating the compiled rules through the field's lookup rows."""
    add, mul = rows[0], rows[1]
    for j, terms in rules:
        total = 0
        for v, factors in terms:
            for k, e in factors:
                row = mul[a[k]]
                for _ in range(e):
                    v = row[v]
            total = add[total][v]
        a[j] = total


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
    return FamilySpec(field, d, m, constraints, kind="symmetric")
