"""Polynomial expression text: a recursive-descent parser.

Grammar (whitespace separates nothing; '#' is not a comment here):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | primary ['^' uint]
    primary := uint | name | '(' expr ')'

A minus negates the whole factor after it, power included, wherever it
stands, as in Python: `-A3^2`, `0 + -A3^2` and `2*-A3^2` all negate A3^2,
while `(-A3)^2` is A3^2.  Parentheses nest at most MAX_DEPTH deep; a deeper
'(' is a ParseError at its position, so the answer does not depend on the
caller's stack depth.  Integer literals are reduced into the field through
the canonical map n -> n * 1 (so they always land in the prime subfield).
A literal or exponent past Python's int-string limit is a ParseError, and
so is a '*' or '^' whose term pairs, priced before it multiplies, take the
expression past MAX_TERM_PAIRS: `A3^100` is cheap, `(A3+A2+A1+1)^3000` not.
"""

import re
import sys
from math import comb

from .errors import ParseError, UnknownVariable, shown
from .multipoly import MultiPoly

MAX_DEPTH = 100
MAX_TERM_PAIRS = 1_000_000

# whitespace, an integer, a name, a symbol, or any other character (an error)
_TOKEN = re.compile(
    r"(?P<space>[ \t\r\n]+)|(?P<int>\d+)|(?P<name>[^\W\d]\w*)|(?P<sym>[-+*^()])|(?P<bad>.)",
    re.DOTALL,
)


class _Parser:
    def __init__(self, text, field, nvars, variables):
        self.text = text
        self.field = field
        self.nvars = nvars
        self.variables = variables
        self.depth = 0
        self.pairs = 0  # term pairs the products so far visit, at most
        self.pos = 0
        # (kind, text, offset); kind is 'int', 'name', the symbol itself or 'end'
        self.tokens = []
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise self.error("unexpected character", (kind, m[0], m.start()))
            if kind != "space":
                self.tokens.append((m[0] if kind == "sym" else kind, m[0], m.start()))
        self.tokens.append(("end", "", len(text)))

    def where(self, offset):
        """(line, col) of a text offset, both counted from 1."""
        return self.text.count("\n", 0, offset) + 1, offset - self.text.rfind("\n", 0, offset)

    def error(self, message, tok, offset=None, cls=ParseError):
        """cls(message + the token quoted) at offset, by default the token's."""
        where = self.where(tok[2] if offset is None else offset)
        return cls(f"{message} {shown(tok[1] or 'end of input')!r}", *where)

    def integer(self, tok):
        try:
            return int(tok[1])
        except ValueError:  # past Python's digit limit; quote the first 12 digits
            limit = sys.get_int_max_str_digits()
            message = f"an integer has at most {limit} digits, found {len(tok[1])} starting"
            raise self.error(message, (tok[0], tok[1][:12], tok[2])) from None

    def charge(self, pairs, tok):
        self.pairs += pairs
        if self.pairs > MAX_TERM_PAIRS:
            raise self.error(f"expansion visits over {MAX_TERM_PAIRS} term pairs at", tok)

    def peek(self):
        return self.tokens[self.pos][0]

    def take(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def parse(self):
        g = self.expr()
        if self.peek() != "end":
            raise self.error("unexpected trailing", self.take())
        return g

    def expr(self):
        g = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            g = g + rhs if op == "+" else g - rhs
        return g

    def term(self):
        g = self.factor()
        while self.peek() == "*":
            star = self.take()
            h = self.factor()
            self.charge(len(g.terms) * len(h.terms), star)
            g = g * h
        return g

    def factor(self):
        negate = False
        while self.peek() == "-":  # a run of minus signs, read in a loop
            self.take()
            negate = not negate
        g = self.primary()
        if self.peek() == "^":
            caret = self.take()
            tok = self.take()
            if tok[0] != "int":
                raise self.error("expected integer exponent, found", tok, caret[2])
            n = self.integer(tok)
            self.charge(_power_pairs(len(g.terms) or 1, n), caret)
            g = g ** n
        return -g if negate else g

    def primary(self):
        tok = self.take()
        kind, text, offset = tok
        if kind == "int":
            return MultiPoly.constant(self.field, self.nvars, self.field.scalar(self.integer(tok)))
        if kind == "name":
            idx = self.variables.get(text)
            if idx is None:
                raise self.error("unknown variable", tok, cls=UnknownVariable)
            return MultiPoly.variable(self.field, self.nvars, idx)
        if kind == "(":
            if self.depth == MAX_DEPTH:
                where = self.where(offset)
                raise ParseError(f"parentheses nest more than {MAX_DEPTH} deep", *where)
            self.depth += 1
            g = self.expr()
            self.depth -= 1
            close = self.take()
            if close[0] != ")":
                raise self.error("expected ')', found", close)
            return g
        raise self.error("expected a value, found", tok)


def _power_pairs(t, n):
    """Term pairs `MultiPoly.__pow__` visits raising a t-term polynomial to
    the n, at most (g^k has at most comb(k + t - 1, k) terms); the count
    stops once it passes MAX_TERM_PAIRS."""
    pairs, have, base = 0, 0, 1  # the loop holds g^have and g^base
    while n and pairs <= MAX_TERM_PAIRS:
        terms = comb(base + t - 1, base)
        if n & 1:
            pairs += comb(have + t - 1, have) * terms
            have += base
        n >>= 1
        pairs += terms * terms if n else 0
        base *= 2
    return pairs


def coeff_variables(d):
    """Name map for degree-d constraint space: A{d-1}..A1, index 0 = A{d-1}."""
    return {f"A{j}": d - 1 - j for j in range(d - 1, 0, -1)}


def symmetric_variables(s):
    """Name map Y1..Ys with index i-1 for Yi."""
    return {f"Y{i}": i - 1 for i in range(1, s + 1)}


def parse_poly_expr(text, field, nvars, variables):
    """Parse an expression into a MultiPoly over the given variable set."""
    return _Parser(text, field, nvars, variables).parse()
