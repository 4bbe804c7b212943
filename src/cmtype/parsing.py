"""Parser for presentation files and polynomial expressions.

File grammar (authoritative, shared with the command-line front end)::

    line 1:  ring: v1, v2, ...      -- variable declaration, order significant
    line 2+: ideal: p1, p2, ...     -- comma-separated polynomials

Polynomial syntax: rational coefficients (``3``, ``-1/2``), the operators
``+ - * ^``, and parentheses.  ``#`` begins a comment that runs to the end
of the line; blank lines are ignored; input is UTF-8 with LF line endings
(CRLF is normalized).  The one-line form ``ring: x, y ; ideal: x*y`` is
accepted as well: a ``;`` may stand in for the line break.

Products and powers are expanded as they are read, within the caps
``MAX_NESTING``, ``MAX_TERM_PRODUCTS`` and ``MAX_DIGITS``; going over any of
them raises ``ParseError``.  Zero generators are dropped with a warning
recorded on the returned presentation.  With ``require_homogeneous=True``
any inhomogeneous generator is rejected outright.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .errors import InhomogeneousError, ParseError
from .poly import Polynomial, VariableSet, add_scaled, unit_monomial
from .presentation import RingPresentation

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t]+)
      | (?P<comment>\#[^\n]*)
      | (?P<newline>\n)
      | (?P<number>\d+)
      | (?P<ident>[a-zA-Z][a-zA-Z0-9_]*)
      | (?P<op>[-+*^(),:;/])
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "number" | "ident" | "op" | "end"
    value: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind == "newline":
            line += 1
            col = 1
        else:
            if kind == "number" and len(value) > MAX_DIGITS:
                raise ParseError(f"an integer literal has more than {MAX_DIGITS} digits", line, col)
            if kind in ("number", "ident", "op"):
                tokens.append(Token(kind, value, line, col))
            col += len(value)
        pos = m.end()
    tokens.append(Token("end", "", line, col))
    return tokens


class _Stream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def expect_op(self, op: str) -> Token:
        tok = self.peek()
        if tok.kind != "op" or tok.value != op:
            raise ParseError(f"expected {op!r}", tok.line, tok.column)
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.value != word:
            raise ParseError(f"expected keyword {word!r}", tok.line, tok.column)
        return self.next()

    def at_op(self, op: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.value == op


# ---------------------------------------------------------------------------
# expression grammar:
#   expr   := ['+'|'-'] term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := atom ['^' number]
#   atom   := number ['/' number] | ident | '(' expr ')'


# Parenthesis nesting allowed in one expression.  Each level costs four
# recursive calls, so this stays well inside the interpreter's recursion limit.
MAX_NESTING = 100
# Term products spent expanding one input, counted before each product or
# squaring (polynomials with a and b terms cost a*b): (x+y+z)^100 needs 1.9
# million.  Digits of an integer literal, of the numerator and denominator of
# every coefficient built and of every term's degree: 3^200000 has 95,425,
# beyond what int() and str() convert by default.
MAX_TERM_PRODUCTS = 50_000
MAX_DIGITS = 1_000
_DIGIT_LIMIT = 10**MAX_DIGITS


class _PolyParser:
    """Reads expressions into term maps ``{monomial: int | Fraction}``:
    products add exponents and sums accumulate in place."""

    def __init__(self, stream: _Stream, variables: VariableSet):
        self.stream = stream
        self.variables = variables
        self.nvars = len(variables)
        self.depth = 0
        self.products = 0

    def parse_expr(self) -> dict:
        sign = 1
        while self.stream.at_op("+") or self.stream.at_op("-"):
            if self.stream.next().value == "-":
                sign = -sign
        result = self.parse_term()
        if sign < 0:
            result = {m: -c for m, c in result.items()}
        while self.stream.at_op("+") or self.stream.at_op("-"):
            tok = self.stream.next()
            term = self.parse_term()
            add_scaled(result, term, 1 if tok.value == "+" else -1)
            self.checked(result, term, tok)
        return result

    def parse_term(self) -> dict:
        result = self.parse_factor()
        while self.stream.at_op("*"):
            tok = self.stream.next()
            result = self.product(result, self.parse_factor(), tok)
        return result

    def parse_factor(self) -> dict:
        base = self.parse_atom()
        if self.stream.at_op("^"):
            op = self.stream.next()
            tok = self.stream.peek()
            if tok.kind != "number":
                raise ParseError("expected integer exponent after '^'", tok.line, tok.column)
            self.stream.next()
            result = {unit_monomial(self.nvars): 1}
            for bit in bin(int(tok.value))[2:]:  # square and multiply, high bit first
                result = self.product(result, result, op)
                if bit == "1":
                    result = self.product(result, base, op)
            return result
        return base

    def product(self, a: dict, b: dict, tok: Token) -> dict:
        self.products += len(a) * len(b)
        if self.products > MAX_TERM_PRODUCTS:
            message = f"expanding the input needs more than {MAX_TERM_PRODUCTS} term products"
            raise ParseError(message, tok.line, tok.column)
        out: dict = {}
        for m, c in a.items():
            add_scaled(out, b, c, m)
        return self.checked(out, out, tok)

    def checked(self, terms: dict, monomials, tok: Token) -> dict:
        """terms, once its coefficients and degrees at `monomials` are within MAX_DIGITS."""
        for m in monomials:
            c = terms.get(m)
            if c and max(abs(c.numerator), c.denominator) >= _DIGIT_LIMIT:
                message = f"a coefficient has more than {MAX_DIGITS} digits"
                raise ParseError(message, tok.line, tok.column)
            if c and sum(m) >= _DIGIT_LIMIT:
                message = f"a term has a degree of more than {MAX_DIGITS} digits"
                raise ParseError(message, tok.line, tok.column)
        return terms

    def parse_atom(self) -> dict:
        tok = self.stream.peek()
        if tok.kind == "number":
            self.stream.next()
            value = int(tok.value)
            if self.stream.at_op("/"):
                self.stream.next()
                den = self.stream.peek()
                if den.kind != "number" or int(den.value) == 0:
                    raise ParseError("expected nonzero integer denominator", den.line, den.column)
                self.stream.next()
                value = Fraction(value, int(den.value))
            return {unit_monomial(self.nvars): value} if value else {}
        if tok.kind == "ident":
            self.stream.next()
            if tok.value not in self.variables.names:
                raise ParseError(f"unknown variable {tok.value!r}", tok.line, tok.column)
            i = self.variables.index(tok.value)
            return {tuple(int(j == i) for j in range(self.nvars)): 1}
        if tok.kind == "op" and tok.value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", tok.line, tok.column
                )
            self.stream.next()
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.stream.expect_op(")")
            return inner
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.line, tok.column)
        raise ParseError(f"unexpected token {tok.value!r}", tok.line, tok.column)


def parse_polynomial(text: str, variables: VariableSet) -> Polynomial:
    """Parse a single polynomial expression over known variables."""
    stream = _Stream(_tokenize(text))
    poly = Polynomial(len(variables), _PolyParser(stream, variables).parse_expr())
    tok = stream.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.value!r}", tok.line, tok.column)
    return poly


def parse_presentation(text: str, require_homogeneous: bool = False) -> RingPresentation:
    """Parse a presentation file into a canonical :class:`RingPresentation`."""
    stream = _Stream(_tokenize(text))

    stream.expect_keyword("ring")
    stream.expect_op(":")
    names = []
    while True:
        tok = stream.peek()
        if tok.kind != "ident":
            raise ParseError("expected a variable name", tok.line, tok.column)
        if tok.value in names:
            raise ParseError(f"duplicate variable name {tok.value!r}", tok.line, tok.column)
        stream.next()
        names.append(tok.value)
        if stream.at_op(","):
            stream.next()
            continue
        break
    variables = VariableSet(tuple(names))

    if stream.at_op(";"):
        stream.next()
    stream.expect_keyword("ideal")
    stream.expect_op(":")

    parser = _PolyParser(stream, variables)
    generators: list[Polynomial] = []
    warnings: list[str] = []
    position = 0
    if stream.peek().kind != "end":
        while True:
            position += 1
            tok = stream.peek()
            poly = Polynomial(len(variables), parser.parse_expr())
            if poly.is_zero:
                warnings.append(f"generator {position} is zero and was dropped")
            else:
                generators.append(poly)
            if stream.at_op(","):
                stream.next()
                continue
            break
    tok = stream.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.value!r}", tok.line, tok.column)

    if require_homogeneous:
        for k, g in enumerate(generators, 1):
            if not g.is_homogeneous():
                raise InhomogeneousError(f"generator {k} is not homogeneous")

    return RingPresentation(variables, tuple(generators), warnings=tuple(warnings))
