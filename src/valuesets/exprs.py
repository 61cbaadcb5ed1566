"""Polynomial expression text: a recursive-descent parser.

Grammar (whitespace separates nothing; '#' is not a comment here):

    expr    := ['-'] term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := primary ['^' uint]
    primary := uint | name | '(' expr ')' | '-' primary

Integer literals are reduced into the field through the canonical map
n -> n * 1 (so they always land in the prime subfield).
"""

from .errors import ParseError, UnknownVariable
from .multipoly import MultiPoly

_SYMBOLS = "+-*^()"


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind  # 'int' | 'name' | one of _SYMBOLS | 'end'
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text, field, nvars, variables):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.field = field
        self.nvars = nvars
        self.variables = variables

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok.kind != kind:
            what = tok.text or "end of input"
            raise ParseError(f"expected {kind!r}, found {what!r}", tok.line, tok.col)
        return tok

    def parse(self):
        g = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing {tok.text!r}", tok.line, tok.col)
        return g

    def expr(self):
        if self.peek().kind == "-":
            self.take()
            g = -self.term()
        else:
            g = self.term()
        while self.peek().kind in "+-":
            op = self.take()
            rhs = self.term()
            g = g + rhs if op.kind == "+" else g - rhs
        return g

    def term(self):
        g = self.factor()
        while self.peek().kind == "*":
            self.take()
            g = g * self.factor()
        return g

    def factor(self):
        g = self.primary()
        if self.peek().kind == "^":
            caret = self.take()
            tok = self.take()
            if tok.kind != "int":
                what = tok.text or "end of input"
                raise ParseError(f"expected integer exponent, found {what!r}", caret.line, caret.col)
            g = g ** int(tok.text)
        return g

    def primary(self):
        tok = self.take()
        if tok.kind == "int":
            return MultiPoly.constant(self.field, self.nvars, self.field.scalar(int(tok.text)))
        if tok.kind == "name":
            idx = self.variables.get(tok.text)
            if idx is None:
                raise UnknownVariable(f"unknown variable {tok.text!r}", tok.line, tok.col)
            return MultiPoly.variable(self.field, self.nvars, idx)
        if tok.kind == "(":
            g = self.expr()
            self.expect(")")
            return g
        if tok.kind == "-":
            return -self.primary()
        what = tok.text or "end of input"
        raise ParseError(f"expected a value, found {what!r}", tok.line, tok.col)


def coeff_variables(d):
    """Name map for degree-d constraint space: A{d-1}..A1, index 0 = A{d-1}."""
    return {f"A{j}": d - 1 - j for j in range(d - 1, 0, -1)}


def symmetric_variables(s):
    """Name map Y1..Ys with index i-1 for Yi."""
    return {f"Y{i}": i - 1 for i in range(1, s + 1)}


def parse_poly_expr(text, field, nvars, variables):
    """Parse an expression into a MultiPoly over the given variable set."""
    return _Parser(text, field, nvars, variables).parse()

