"""Desk-scale sanity checks on constraint families, honestly labeled.

The counting estimates elsewhere in the package are only advertised for
families whose constraint variety is well behaved (cut out cleanly, regular
in codimension two, with small discriminant loci).  Certifying those
properties symbolically needs Groebner machinery and is out of scope.  What
this module offers instead are *necessary conditions* checked on rational
points over small extensions:

- `check_regularity`: (a) the Jacobian of the constraints has full rank m at
  every F_{Q}-point of the variety, outside an allowance of c * Q^(dim-2)
  points (a regular-in-codimension-two proxy), and (b) the number of points
  sits inside the complete-intersection size bracket whenever that bracket's
  q-threshold holds.
- `check_regularity_at_infinity`: the same checks applied to the highest
  homogeneous parts of the constraints, probing behaviour at infinity.
- `check_discriminant_loci`: the loci where the shifted polynomial f has
  deg gcd(f, f') >= 1 (a repeated root) resp. >= 2 (two repeated roots, a
  triple root, or a root whose multiplicity the characteristic divides)
  should have codimension one resp. two inside the family; counts N1, N2 are
  compared against Bezout-style allowances.  The counts come from the family
  scan (`engine.scan_family`), which the caller hands in.

Only the regularity checks enumerate here, and only over a family that
`FamilySpec` could not solve, such as the top form A3^3.  A solved family
is the graph of its pivot rules over the free coordinates, whichever way
it is enumerated: it has Q^(free) points over F_Q and Jacobian rank m at
each, which both checks read off `spec.solution`.  An unsolved family is
walked only over the coordinates its constraints involve; each uninvolved
coordinate multiplies the counts by Q and takes 0 in the witness.

A report status is one of `pass-necessary-conditions`, `fail`, or
`inconclusive`; a pass never claims more than the phrase says, and the
report text always carries the words "necessary conditions only".  Every
failure includes a concrete witness (a point or a count) that can be
re-checked from the report alone.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import prod

from .bounds import family_size_bracket
from .config import DEFAULT_EXTENSION_DEGREES, POINT_BUDGET
from .families import FamilySpec, enumerate_family
from .ffield import embedding_table, field_new
from .linalg import rank
from .multipoly import MultiPoly
from .report import format_count

PASS = "pass-necessary-conditions"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


class DiagnosticReport(
    namedtuple("DiagnosticReport", "check status text evidence witness", defaults=(None,))
):
    """One check's verdict: its status, the text, the evidence and the
    first witness, if any."""

    __slots__ = ()

    def render(self) -> str:
        """The verdict line, then one line per evidence key; an int or
        Fraction past 10^15 prints in `report.format_count`'s log10 form."""
        lines = [f"[{self.check}] {self.status}: {self.text}"]
        for key in sorted(self.evidence):
            value = self.evidence[key]
            if isinstance(value, (int, Fraction)):
                value = format_count(value)
            lines.append(f"    {key} = {value}")
        if self.witness is not None:
            lines.append(f"    witness = {self.witness}")
        return "\n".join(lines)


def _embedded_spec(spec: FamilySpec, k: int) -> FamilySpec:
    """The same family read over the degree-k extension of its field."""
    base = spec.field
    if k == 1:
        return spec
    ext = field_new(base.p, base.s * k)
    table = embedding_table(base, ext)
    gs = [g.map_coefficients(ext, table) for g in spec.constraints]
    return FamilySpec(ext, spec.d, spec.m, gs)


def _walk_rank(spec: FamilySpec):
    """(points, deficient, first_bad): the Jacobian ranked at every point.

    A coordinate that no constraint involves splits off a factor F_Q of the
    variety, and the rank does not depend on it.  So only the projection
    onto the involved coordinates is walked; its counts are scaled by
    Q^(uninvolved), and its lex-least bad point takes index 0 in every
    uninvolved coordinate, which is the lex-least bad point of the product.
    """
    n = spec.d - 1
    exps = [e for g in spec.constraints for e in g.terms]
    involved = [k for k in range(n) if any(e[k] for e in exps)]
    projected = [
        MultiPoly(spec.field, len(involved),
                  {tuple(e[k] for k in involved): c for e, c in g.terms.items()})
        for g in spec.constraints
    ]
    projection = FamilySpec(spec.field, len(involved) + 1, spec.m, projected)
    jac_rows = [[g.partial(i) for i in range(len(involved))] for g in projected]
    points = 0
    deficient = 0
    first_bad = None
    for member in enumerate_family(projection):
        points += 1
        rows = [[pg.eval(member) for pg in row] for row in jac_rows]
        if rank(spec.field, rows) < spec.m:
            deficient += 1
            if first_bad is None:
                first_bad = member
    if first_bad is not None:
        a = [0] * n
        for k, x in zip(involved, first_bad):
            a[k] = x
        first_bad = tuple(a)
    scale = spec.field.q ** (n - len(involved))
    return points * scale, deficient * scale, first_bad


def _regularity_report(label, spec, extension_degrees):
    """Rank and size checks at each k; walks only families `_solve` left unsolved.

    Each k is decided once, at its first place in `extension_degrees`, and
    its evidence and verdict are written where they are found.
    """
    d, m = spec.d, spec.m
    dim = d - 1 - m
    c = prod(spec.degrees) ** 2
    evidence = {"constant": c, "dimension": dim}
    if d < m + 2:
        text = f"size bracket needs d >= m+2, got d={d}, m={m}"
        return DiagnosticReport(label, INCONCLUSIVE, text, evidence)
    full_pass = []
    reasons = []
    fail_reason = None
    witness = None
    for k in dict.fromkeys(extension_degrees):  # a repeated k adds nothing
        big_q = spec.field.q**k
        if big_q ** (d - 1) > POINT_BUDGET:
            skipped = f"{big_q}^{d - 1} candidates exceed budget {POINT_BUDGET}"
            evidence[f"k{k}.skipped"] = skipped
            reasons.append(f"k={k} skipped ({skipped})")
            continue
        if spec.solution is not None:
            # _solve keeps the ideal: (g) = (A_j - r_j), unit triangular on the pivots,
            # so V(F_Q) is the graph over the free coordinates, of rank m everywhere.
            points, deficient, first_bad = big_q ** len(spec.solution[0]), 0, None
        else:
            points, deficient, first_bad = _walk_rank(_embedded_spec(spec, k))
        allowed = Fraction(c) * Fraction(big_q) ** (dim - 2)
        evidence.update({f"k{k}.Q": big_q, f"k{k}.points": points,
                         f"k{k}.deficient": deficient, f"k{k}.allowed": allowed})
        if points == 0:
            evidence[f"k{k}.empty"] = True
            reasons.append(f"k={k} found no points (empty family)")
            continue
        rank_ok = Fraction(deficient) <= allowed
        evidence[f"k{k}.rank_ok"] = rank_ok
        if not rank_ok and fail_reason is None:
            fail_reason = (
                f"{deficient} of {points} points at Q={big_q} have Jacobian rank "
                f"< {m}, above the allowance {format_count(allowed)}"
            )
            witness = first_bad
        bracket = family_size_bracket(d, m, spec.degrees, big_q)
        if not bracket.threshold_ok:
            evidence[f"k{k}.bracket"] = "threshold unmet"
            reasons.append(
                f"k={k} rank check passed but the size-bracket threshold is unmet at Q={big_q}"
            )
            continue
        in_bracket = bracket.lower < points <= bracket.upper
        shown_bracket = f"({format_count(bracket.lower)}, {format_count(bracket.upper)}]"
        evidence[f"k{k}.bracket"] = shown_bracket
        evidence[f"k{k}.bracket_ok"] = in_bracket
        if not in_bracket and fail_reason is None:
            fail_reason = (
                f"point count {points} at Q={big_q} falls outside the size "
                f"bracket {shown_bracket}"
            )
            witness = (points,)
        if rank_ok and in_bracket:
            full_pass.append(k)
    if fail_reason is not None:
        return DiagnosticReport(label, FAIL, fail_reason, evidence, witness)
    if full_pass:
        text = (
            f"Jacobian rank {spec.m} holds outside the allowance and the point "
            f"count sits in the size bracket at k={full_pass}; "
            "necessary conditions only, no radical or normality certificate."
        )
        return DiagnosticReport(label, PASS, text, evidence)
    text = "no extension gave a conclusive verdict: " + "; ".join(reasons)
    return DiagnosticReport(label, INCONCLUSIVE, text, evidence)


def check_regularity(
    spec: FamilySpec, extension_degrees=DEFAULT_EXTENSION_DEGREES
) -> DiagnosticReport:
    """Rank and size checks on the constraint variety over small extensions.

    The allowance constant c is the squared product of constraint degrees,
    a Bezout-style heuristic for the degree of the locus where the Jacobian
    drops rank.  A degree k whose Q^(d-1) candidates exceed `POINT_BUDGET`
    is skipped.
    """
    return _regularity_report("regularity", spec, extension_degrees)


def check_regularity_at_infinity(
    spec: FamilySpec, extension_degrees=DEFAULT_EXTENSION_DEGREES
) -> DiagnosticReport:
    """Same checks on the highest homogeneous parts of the constraints.

    For homogeneous constraints this reproduces `check_regularity` verbatim
    apart from the label.
    """
    top = FamilySpec(
        spec.field, spec.d, spec.m, [g.highest_form() for g in spec.constraints]
    )
    return _regularity_report("regularity-at-infinity", top, extension_degrees)


def check_discriminant_loci(spec: FamilySpec, scan) -> DiagnosticReport:
    """Count members-with-shift whose polynomial has a repeated root.

    N1 counts pairs (member, a_0) with deg gcd(f, f') >= 1, where f is the
    shifted polynomial: f has a root of multiplicity >= 2 in the algebraic
    closure (the discriminant vanishes).  N2 counts pairs with
    deg gcd(f, f') >= 2 (the first subresultant vanishes too).  A root of
    multiplicity e adds e - 1 to that degree, or e when the characteristic
    p divides e, so N2 holds the pairs with two multiple roots or a triple
    root, and in characteristic p also those with any root whose
    multiplicity p divides, a double root in characteristic 2 among them.
    A vanishing derivative lands the pair in both loci.  Necessary
    condition: N1 is at most c1 * q^(dimV-1) and N2 at most c2 * q^(dimV-2)
    where dimV = d - m counts the shift as a free coordinate; the constants
    are Bezout-style, c1 = delta * d(d-1) and c2 = delta * (d(d-1))^2 with
    delta the product of constraint degrees.  Counts on the order of the
    next-higher power of q are an outright fail.
    The counts and witnesses are read from `scan`, the family's scan.
    """
    d, m, q = spec.d, spec.m, spec.field.q
    dim_v = d - m
    delta = prod(spec.degrees)
    disc_deg = d * (d - 1)
    c1 = delta * disc_deg
    c2 = delta * disc_deg**2
    members = scan.member_count
    n1, n2, deriv_zero_pairs = scan.loci
    witness1, witness2 = scan.witnesses
    evidence = {
        "q": q,
        "members": members,
        "pairs": members * q,
        "n1": n1,
        "n2": n2,
        "derivative_zero_pairs": deriv_zero_pairs,
        "c1": c1,
        "c2": c2,
        "dimension": dim_v,
    }
    fail_n1 = Fraction(q**dim_v, 2)
    fail_n2 = 2 * c1 * Fraction(q) ** (dim_v - 1)
    pass_n1 = Fraction(c1) * Fraction(q) ** (dim_v - 1)
    pass_n2 = Fraction(c2) * Fraction(q) ** (dim_v - 2)
    witness = None
    if members == 0:
        status, text = INCONCLUSIVE, "the family has no members, nothing to count"
    elif n1 >= fail_n1:
        status, witness = FAIL, witness1
        text = (
            f"repeated-root pairs N1={n1} reach full dimension "
            f"(threshold {format_count(fail_n1)} out of {members * q} pairs)"
        )
    elif n2 >= fail_n2:
        status, witness = FAIL, witness2
        text = (
            f"higher-multiplicity pairs N2={n2} reach codimension one "
            f"(threshold {format_count(fail_n2)})"
        )
    elif n1 <= pass_n1 and n2 <= pass_n2:
        status = PASS
        text = (
            f"N1={n1} and N2={n2} stay within the codimension-one and -two "
            "allowances; necessary conditions only, no codimension certificate."
        )
    else:
        status = INCONCLUSIVE
        text = (
            f"N1={n1}, N2={n2} sit between the pass allowances "
            f"({format_count(pass_n1)}, {format_count(pass_n2)}) and the fail thresholds"
        )
    # the fail thresholds are evidence for a nonempty family, the pass ones unless it fails
    if members:
        evidence.update(fail_threshold_n1=fail_n1, fail_threshold_n2=fail_n2)
    if members and status != FAIL:
        evidence.update(pass_threshold_n1=pass_n1, pass_threshold_n2=pass_n2)
    return DiagnosticReport("discriminant-loci", status, text, evidence, witness)


def run_all(spec: FamilySpec, scan, extension_degrees) -> list[DiagnosticReport]:
    """The three checks in a fixed order, as consumed by the CLI; the family
    scan goes on to `check_discriminant_loci`."""
    return [
        check_regularity(spec, extension_degrees),
        check_regularity_at_infinity(spec, extension_degrees),
        check_discriminant_loci(spec, scan),
    ]
