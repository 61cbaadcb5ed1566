"""Sparse multivariate polynomials over a finite field.

A MultiPoly stores a map from exponent vectors (tuples of length nvars) to
nonzero coefficient indices of its field.  Values are immutable by
convention: every operation returns a new instance.  Terms are kept in a
plain dict; canonical (graded lexicographic, descending) order is produced
on demand by sorted_terms, so printing and highest_form are deterministic.

Variables are anonymous indices 0..nvars-1 here.  Callers that care about
coefficient-slot names (A_{d-1}, ..., A_1 descending, or Y_1..Y_s for the
symmetric constructors) attach them at the parsing/printing layer.
"""

from itertools import combinations

from .errors import ArityMismatch, ZeroPolynomial


def _grlex_key(exps):
    return (sum(exps), exps)


class MultiPoly:
    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms=None):
        self.field = field
        self.nvars = nvars
        clean = {}
        for exps, c in (terms or {}).items():
            if c:
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ArityMismatch(
                        f"exponent vector {exps} has length {len(exps)}, expected {nvars}"
                    )
                clean[exps] = c
        self.terms = clean

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars, c):
        return cls(field, nvars, {(0,) * nvars: c % field.q})

    @classmethod
    def variable(cls, field, nvars, i):
        if not 0 <= i < nvars:
            raise ArityMismatch(f"variable index {i} out of range for {nvars} variables")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(field, nvars, {exps: 1})

    def is_zero(self):
        return not self.terms

    @property
    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def sorted_terms(self):
        """Terms in descending graded-lex order (canonical)."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def _check(self, other):
        if self.field != other.field:
            raise ArityMismatch("mixed fields")
        if self.nvars != other.nvars:
            raise ArityMismatch(f"mixed arities {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        self._check(other)
        add = self.field.add
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = add(terms.get(exps, 0), c)
        return MultiPoly(self.field, self.nvars, terms)

    def __neg__(self):
        neg = self.field.neg
        return MultiPoly(self.field, self.nvars, {e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        fld = self.field
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prev = terms.get(e, 0)
                terms[e] = fld.add(prev, fld.mul(c1, c2))
        return MultiPoly(fld, self.nvars, terms)

    def scale(self, c):
        mul = self.field.mul
        return MultiPoly(self.field, self.nvars, {e: mul(c, v) for e, v in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(self.field, self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def eval(self, point):
        """Exact evaluation at a tuple of field element indices."""
        if len(point) != self.nvars:
            raise ArityMismatch(f"point length {len(point)}, expected {self.nvars}")
        fld = self.field
        total = 0
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    v = fld.mul(v, fld.pow(x, e))
                    if not v:
                        break
            total = fld.add(total, v)
        return total

    def highest_form(self):
        """Sum of the terms of maximal total degree."""
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no highest form")
        deg = self.total_degree
        return MultiPoly(
            self.field, self.nvars, {e: c for e, c in self.terms.items() if sum(e) == deg}
        )

    def partial(self, i):
        """Formal partial derivative; exponents reduce through the characteristic."""
        fld = self.field
        terms = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if not e:
                continue
            coef = fld.mul(c, fld.scalar(e))
            if not coef:
                continue
            new = exps[:i] + (e - 1,) + exps[i + 1 :]
            terms[new] = fld.add(terms.get(new, 0), coef)
        return MultiPoly(fld, self.nvars, terms)

    def extend_vars(self, nvars):
        """Reinterpret in a larger variable set; new trailing slots get exponent 0."""
        if nvars < self.nvars:
            raise ArityMismatch(f"cannot shrink {self.nvars} variables to {nvars}")
        pad = (0,) * (nvars - self.nvars)
        return MultiPoly(self.field, nvars, {e + pad: c for e, c in self.terms.items()})

    def map_coefficients(self, new_field, table):
        """Push coefficients through an index table (e.g. a subfield embedding)."""
        return MultiPoly(new_field, self.nvars, {e: table[c] for e, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        body = ", ".join(f"{e}: {c}" for e, c in self.sorted_terms()) or "0"
        return f"MultiPoly({self.nvars} vars; {body})"


def elementary_symmetric(field, nvars, k):
    """The k-th elementary symmetric polynomial in nvars variables."""
    if not 1 <= k <= nvars:
        raise ArityMismatch(f"need 1 <= k <= nvars, got k={k}, nvars={nvars}")
    terms = {}
    for subset in combinations(range(nvars), k):
        exps = tuple(1 if j in subset else 0 for j in range(nvars))
        terms[exps] = 1
    return MultiPoly(field, nvars, terms)


def weighted_compose(g, pis):
    """Substitute pis[i] for variable i of g and expand.

    Intended use: g in Y_1..Y_s, pis the elementary symmetric polynomials,
    giving constraints G = g(Pi_1, ..., Pi_s).
    """
    if len(pis) != g.nvars:
        raise ArityMismatch(f"{g.nvars} variables but {len(pis)} substitutions")
    if not pis:
        raise ArityMismatch("empty substitution list")
    field = pis[0].field
    nvars = pis[0].nvars
    for p in pis:
        if p.nvars != nvars or p.field != field:
            raise ArityMismatch("substitutions disagree on field or arity")
    if g.field != field:
        raise ArityMismatch("mixed fields")
    out = MultiPoly.zero(field, nvars)
    for exps, c in g.terms.items():
        term = MultiPoly.constant(field, nvars, c)
        for p, e in zip(pis, exps):
            if e:
                term = term * (p**e)
        out = out + term
    return out
