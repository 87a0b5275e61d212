"""Polynomial text grammar: parser and canonical printer.

Grammar: variables from {x, y, z, x1..x9}; integer and rational literals
a/b; imaginary unit token i; operators + - * ^ with integer exponents;
parentheses; whitespace insignificant.  The canonical printer emits the same
grammar in graded-lexicographic term order with z last, so parse(format(p))
is the identity.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ParseError
from .gaussian import GaussianRational
from .poly import MultiPoly

# z is always last; x-variables keep this fixed priority.  z1..z9 are
# accepted for polydisk-side inputs (the `transform` command).
VAR_PRIORITY = (
    ("x", "y")
    + tuple(f"x{k}" for k in range(1, 10))
    + tuple(f"z{k}" for k in range(1, 10))
    + ("z",)
)

_KNOWN_VARS = set(VAR_PRIORITY)


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            num = int(text[start:pos])
            # rational literal a/b is one token
            if pos < n and text[pos] == "/":
                after = pos + 1
                if after < n and text[after].isdigit():
                    pos = after
                    dstart = pos
                    while pos < n and text[pos].isdigit():
                        pos += 1
                    den = int(text[dstart:pos])
                    if den == 0:
                        raise ParseError("zero denominator", start)
                    tokens.append(("num", Fraction(num, den), start))
                    continue
                raise ParseError("expected digits after '/'", after)
            tokens.append(("num", Fraction(num), start))
            continue
        if ch.isalpha():
            start = pos
            pos += 1
            while pos < n and text[pos].isdigit():
                pos += 1
            name = text[start:pos]
            if name == "i":
                tokens.append(("i", name, start))
            elif name in _KNOWN_VARS:
                tokens.append(("var", name, start))
            else:
                raise ParseError(f"unknown variable {name!r}", start)
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", None, n))
    return tokens


def _shown(kind, value) -> str:
    """A token as a parse error names it."""
    return "end of input" if kind == "end" else repr(str(value))


class _Parser:
    def __init__(self, tokens, vars):
        self.tokens = tokens
        self.k = 0
        self.vars = vars

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind=None, expected=None):
        """The next token, which must be of `kind` when one is given;
        `expected` names it in the error, in place of the kind."""
        tok = self.tokens[self.k]
        if kind is not None and tok[0] != kind:
            found = _shown(tok[0], tok[1])
            raise ParseError(f"expected {expected or kind}, found {found}", tok[2])
        self.k += 1
        return tok

    def parse_expr(self) -> MultiPoly:
        sign = 1
        if self.peek()[0] in "+-":
            if self.take()[0] == "-":
                sign = -1
        total = self.parse_term().scale(sign)
        while self.peek()[0] in "+-":
            op = self.take()[0]
            term = self.parse_term()
            total = total + (term if op == "+" else -term)
        return total

    def parse_term(self) -> MultiPoly:
        total = self.parse_factor()
        while self.peek()[0] == "*":
            self.take()
            total = total * self.parse_factor()
        return total

    def parse_factor(self) -> MultiPoly:
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take("num", "a non-negative integer exponent")
            exp = tok[1]
            if exp.denominator != 1 or exp < 0:
                raise ParseError("exponent must be a non-negative integer", tok[2])
            return base ** int(exp)
        return base

    def parse_atom(self) -> MultiPoly:
        kind, value, pos = self.peek()
        if kind == "num":
            self.take()
            return MultiPoly.constant(self.vars, GaussianRational(value))
        if kind == "i":
            self.take()
            return MultiPoly.constant(self.vars, GaussianRational(0, 1))
        if kind == "var":
            self.take()
            if value not in self.vars:
                raise ParseError(f"variable {value!r} is not one of {self.vars}", pos)
            return MultiPoly.variable(self.vars, value)
        if kind == "(":
            self.take()
            inner = self.parse_expr()
            self.take(")", "')'")
            return inner
        if kind == "-":
            self.take()
            return -self.parse_atom()
        raise ParseError(f"unexpected token {_shown(kind, value)}", pos)


def parse(text: str, vars=None) -> MultiPoly:
    """Parse a polynomial expression into canonical MultiPoly form.

    When `vars` is omitted, the variable tuple is the set of variables that
    appear, ordered by the fixed priority x, y, x1..x9, z.
    """
    tokens = _tokenize(text)
    if vars is None:
        seen = {t[1] for t in tokens if t[0] == "var"}
        vars = tuple(v for v in VAR_PRIORITY if v in seen)
    parser = _Parser(tokens, tuple(vars))
    poly = parser.parse_expr()
    parser.take("end", "end of input")
    return poly


# -- canonical printing ---------------------------------------------------


def _ratio(n: int, d: int) -> str:
    """n/d in lowest terms, for n >= 0 and d > 0: one gcd."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _signed_body(a: int, b: int, den: int):
    """The print sign of (a + b i)/den, taken from the real part, else the
    imaginary one, and the unsigned remainder as text; mixed values are
    parenthesized."""
    sign = 1
    if a < 0 or (not a and b < 0):
        sign, a, b = -1, -a, -b
    if not b:
        return sign, _ratio(a, den)
    im = "i" if abs(b) == den else f"{_ratio(abs(b), den)}*i"
    if not a:
        return sign, im
    return sign, f"({_ratio(a, den)} {'+' if b > 0 else '-'} {im})"


def format_coefficient(c: GaussianRational) -> str:
    """Standalone canonical rendering of one Gaussian rational."""
    re, im = c.re, c.im
    den = lcm(re.denominator, im.denominator)
    sign, body = _signed_body(
        re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den
    )
    return f"-{body}" if sign < 0 else body


def _monomial_str(vars, exps) -> str:
    parts = []
    for name, k in zip(vars, exps):
        if k == 0:
            continue
        parts.append(name if k == 1 else f"{name}^{k}")
    return "*".join(parts)


def _term_sort_key(exps):
    # ascending total degree; descending lexicographic within a degree
    return (sum(exps), tuple(-e for e in exps))


def format_poly(p: MultiPoly) -> str:
    """Canonical text: graded-lex term order, lowercase i, '*' products.
    Each coefficient is rendered from its integer row over p.den."""
    if p.is_zero():
        return "0"
    pieces = []
    den, rows = p.den, p.rows
    for exps in sorted(rows, key=_term_sort_key):
        a, b = rows[exps]
        mono = _monomial_str(p.vars, exps)
        if mono and not b and abs(a) == den:
            sign, body = (1 if a > 0 else -1), mono
        else:
            sign, body = _signed_body(a, b, den)
            if mono:
                body = f"{body}*{mono}"
        if not pieces:
            pieces.append(body if sign > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if sign > 0 else f"- {body}")
    return " ".join(pieces)
