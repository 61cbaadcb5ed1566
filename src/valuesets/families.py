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
- A linear family built by `linear_family` carries the solution of its
  rank-m system, reduced with pivots taken from the right: each pivot
  coordinate is an affine function of free coordinates to its left.
  `enumerate_family` then walks only the q^(d-1-m) assignments of the free
  coordinates, as an odometer with a_1 fastest, and fills in the pivots.
  Two members first differ at a free coordinate (the pivots are determined
  by the free coordinates before them), so this is the filter's order.

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
from .linalg import echelon_from_right
from .multipoly import elementary_symmetric, weighted_compose


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
        # (free, rules) from linear_family; only a solved spec is walked directly.
        self.solution = None

    def space_size(self):
        """Size of the index space `enumerate_family` walks.

        q^(d-1-m), the member count, for a linear family solved by
        `linear_family`; otherwise q^(d-1), the candidate count.
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
    scans see each member exactly once.  A solved linear family is walked
    directly over its free coordinates, anything else through the filter.
    """
    if spec.solution is None:
        yield from filter_family(spec, partition)
        return
    field = spec.field
    free, rules = spec.solution
    lo, hi = _check_partition(partition, spec.space_size())
    a = [0] * (spec.d - 1)
    for index in range(lo, hi):
        for k, x in zip(free, _digits(index, field.q, len(free))):
            a[k] = x
        _fill_pivots(field, rules, a)
        yield FamilyMember(tuple(a))


def family_cardinality(spec):
    """|A| by exact enumeration."""
    return sum(1 for _ in enumerate_family(spec))


def linear_family(field, d, m, forms):
    """Family cut out by affine forms of degree 1 in A_{d-1}..A_2.

    The linear parts must have rank m over F_q; the a_1 slot stays free.
    The system is solved once, pivots taken from the right, and the
    solution is attached to the spec so `enumerate_family` walks the
    q^(d-1-m) members directly.
    """
    if not 1 <= m <= d - 2:
        raise ParameterRange(f"need 1 <= m <= d-2, got m={m}, d={d}")
    if len(forms) != m:
        raise ArityMismatch(f"m={m} but {len(forms)} forms given")
    a1_slot = d - 2
    matrix = []
    for g in forms:
        if g.nvars != d - 1 or g.field != field:
            raise ArityMismatch("form has wrong variable count or field")
        if g.total_degree != 1:
            raise ParameterRange(f"form of degree {g.total_degree} is not linear")
        row = [0] * (d - 1)  # coefficients of A_{d-1}..A_2, then the constant
        for exps, c in g.terms.items():
            if sum(exps) == 0:
                row[-1] = c
                continue
            j = exps.index(1)
            if j == a1_slot:
                raise ParameterRange("linear constraints may not involve A1")
            row[j] = c
        matrix.append(row)
    pivots, reduced = echelon_from_right(field, matrix, d - 2)
    if len(pivots) < m:
        raise RankDeficient(f"linear forms have rank < m={m}")
    spec = FamilySpec(field, d, m, forms, kind="linear")
    spec.solution = _solve(field, d, forms, pivots, reduced)
    return spec


def _solve(field, d, forms, pivots, reduced):
    """(free, rules) for the reduced system: pivot j of each rule
    (j, const, ((k, c), ...)) equals const + sum of c * a[k] over free k < j.

    Every form composed with the rules is affine in the free coordinates,
    so it vanishes identically once it vanishes at the origin and at each
    free unit vector; that is checked before the solution is used.
    """
    neg = field.neg
    free = tuple(k for k in range(d - 1) if k not in pivots)
    rules = tuple(
        (j, neg(row[-1]), tuple((k, neg(row[k])) for k in range(j) if row[k]))
        for j, row in zip(pivots, reduced)
    )
    for unit in (None,) + free:
        a = [1 if k == unit else 0 for k in range(d - 1)]
        _fill_pivots(field, rules, a)
        if any(g.eval(tuple(a)) for g in forms):
            raise IdentityViolation(f"linear solve does not satisfy the forms at {a}")
    return free, rules


def _fill_pivots(field, rules, a):
    """Set each pivot coordinate of a from the free coordinates, in place."""
    add, mul = field.add, field.mul
    for j, const, terms in rules:
        acc = const
        for k, c in terms:
            acc = add(acc, mul(c, a[k]))
        a[j] = acc


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
