"""Parser for presentation files and polynomial expressions.  The grammar,
authoritative and shared with the command-line front end, and the caps on
expansion are stated in the docstring of :class:`_Reader`.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InhomogeneousError, ParseError
from .poly import Polynomial, add_scaled, unit_monomial, unit_vectors
from .presentation import KEYWORDS, RingPresentation

_TOKEN_RE = re.compile(
    r"""[ \t\n]+ | \#[^\n]*
      | (?P<number>[0-9]+)
      | (?P<ident>[a-zA-Z][a-zA-Z0-9_]*)
      | (?P<op>[-+*^(),:;/])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)

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


class _Reader:
    """A cursor over the tokens of one text, and the expression reader.

    File grammar::

        line 1:  ring: v1, v2, ...      -- variable declaration, order significant
        line 2+: ideal: p1, p2, ...     -- comma-separated polynomials

    The one-line form ``ring: x, y ; ideal: x*y`` is accepted as well: a
    ``;`` may stand in for the line break.  ``#`` begins a comment that runs
    to the end of the line; blank lines are ignored; input is UTF-8 with LF
    line endings (CR and CRLF are normalized).  Expressions::

        expr   := ['+'|'-']* term (('+'|'-') term)*
        term   := factor ('*' factor)*
        factor := atom ['^' number]
        atom   := number ['/' number] | ident | '(' expr ')'

    A number is a run of ASCII digits (a nonzero denominator), an identifier
    an ASCII letter followed by letters, digits and ``_``; the variable names
    exclude the keywords ``ring`` and ``ideal``.  Expressions are read into
    term maps ``{monomial: int | Fraction}``: products add exponents and sums
    accumulate in place.  Products and powers are expanded as they are read,
    within the caps ``MAX_NESTING``, ``MAX_TERM_PRODUCTS`` and ``MAX_DIGITS``;
    going over any of them raises ``ParseError``.  A token is ``(kind, value,
    offset)``, with its offset into the normalized text, and an error's line
    and column are those of the offending token.
    """

    def __init__(self, text: str, variables: tuple[str, ...] = ()):
        self.text = text.replace("\r\n", "\n").replace("\r", "\n")
        self.tokens: list[tuple[str, str, int]] = []
        for m in _TOKEN_RE.finditer(self.text):
            kind, value = m.lastgroup, m.group()
            if kind == "bad":
                raise self.error(f"unexpected character {value!r}", m.start())
            if kind == "number" and len(value) > MAX_DIGITS:
                raise self.error(f"an integer literal has more than {MAX_DIGITS} digits", m.start())
            if kind:
                self.tokens.append((kind, value, m.start()))
        self.tokens.append(("end", "", len(self.text)))
        self.i = 0
        self.variables = dict(zip(variables, unit_vectors(len(variables))))  # name -> its monomial
        self.depth = 0
        self.products = 0

    def error(self, message: str, offset: int) -> ParseError:
        line = self.text.count("\n", 0, offset) + 1
        return ParseError(message, line, offset - self.text.rfind("\n", 0, offset))

    def peek(self) -> tuple:
        return self.tokens[self.i]

    def take(self) -> tuple:
        tok = self.tokens[self.i]
        if tok[0] != "end":
            self.i += 1
        return tok

    def at(self, *ops: str) -> bool:
        return self.tokens[self.i][1] in ops  # only an "op" token's value is punctuation

    def expect(self, value: str, kind: str = "op") -> None:
        tok = self.peek()
        if tok[:2] != (kind, value):
            what = "keyword " if kind == "ident" else ""
            raise self.error(f"expected {what}{value!r}", tok[2])
        self.take()

    def listed(self):
        """Yields once for each item of a comma-separated list, read by the caller."""
        yield
        while self.at(","):
            self.take()
            yield

    def finish(self) -> None:
        kind, value, offset = self.peek()
        if kind != "end":
            raise self.error(f"unexpected trailing input {value!r}", offset)

    def expr(self) -> dict:
        sign = 1
        while self.at("+", "-"):
            if self.take()[1] == "-":
                sign = -sign
        result = self.term()
        if sign < 0:
            result = {m: -c for m, c in result.items()}
        while self.at("+", "-"):
            _, op, offset = self.take()
            term = self.term()
            add_scaled(result, term, 1 if op == "+" else -1)
            self.checked(result, term, offset)
        return result

    def term(self) -> dict:
        result = self.factor()
        while self.at("*"):
            offset = self.take()[2]
            result = self.product(result, self.factor(), offset)
        return result

    def factor(self) -> dict:
        base = self.atom()
        if not self.at("^"):
            return base
        offset = self.take()[2]
        kind, exponent, at = self.take()
        if kind != "number":
            raise self.error("expected integer exponent after '^'", at)
        result = {unit_monomial(len(self.variables)): 1}
        for bit in bin(int(exponent))[2:]:  # square and multiply, high bit first
            result = self.product(result, result, offset)
            if bit == "1":
                result = self.product(result, base, offset)
        return result

    def product(self, a: dict, b: dict, offset: int) -> dict:
        self.products += len(a) * len(b)
        if self.products > MAX_TERM_PRODUCTS:
            message = f"expanding the input needs more than {MAX_TERM_PRODUCTS} term products"
            raise self.error(message, offset)
        out: dict = {}
        for m, c in a.items():
            add_scaled(out, b, c, m)
        return self.checked(out, out, offset)

    def checked(self, terms: dict, monomials, offset: int) -> dict:
        """terms, once its coefficients and degrees at `monomials` are within MAX_DIGITS."""
        for m in monomials:
            c = terms.get(m)
            if c and max(abs(c.numerator), c.denominator) >= _DIGIT_LIMIT:
                raise self.error(f"a coefficient has more than {MAX_DIGITS} digits", offset)
            if c and sum(m) >= _DIGIT_LIMIT:
                raise self.error(f"a term has a degree of more than {MAX_DIGITS} digits", offset)
        return terms

    def atom(self) -> dict:
        kind, value, offset = self.take()  # a token that starts no atom is an error
        if kind == "number":
            value = int(value)
            if self.at("/"):
                self.take()
                kind, den, at = self.take()
                if kind != "number" or int(den) == 0:
                    raise self.error("expected nonzero integer denominator", at)
                value = Fraction(value, int(den))
            return {unit_monomial(len(self.variables)): value} if value else {}
        if kind == "ident":
            if value not in self.variables:
                raise self.error(f"unknown variable {value!r}", offset)
            return {self.variables[value]: 1}
        if value == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nested deeper than {MAX_NESTING}", offset)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect(")")
            return inner
        message = "unexpected end of input" if kind == "end" else f"unexpected token {value!r}"
        raise self.error(message, offset)


def parse_polynomial(text: str, variables: tuple[str, ...]) -> Polynomial:
    """Parse a single polynomial expression over the given variable names."""
    reader = _Reader(text, variables)
    poly = Polynomial(len(variables), reader.expr())
    reader.finish()
    return poly


def parse_presentation(text: str, require_homogeneous: bool = False) -> RingPresentation:
    """Parse a presentation file into a canonical :class:`RingPresentation`.
    Zero generators are dropped with a warning recorded on the result; with
    ``require_homogeneous=True`` an inhomogeneous generator is rejected."""
    reader = _Reader(text)
    reader.expect("ring", "ident")
    reader.expect(":")
    names: list[str] = []
    for _ in reader.listed():
        kind, name, offset = reader.peek()
        if kind != "ident" or name in KEYWORDS:
            raise reader.error("expected a variable name", offset)
        if name in names:
            raise reader.error(f"duplicate variable name {name!r}", offset)
        names.append(reader.take()[1])
    variables = tuple(names)
    reader.variables = dict(zip(variables, unit_vectors(len(variables))))

    if reader.at(";"):
        reader.take()
    reader.expect("ideal", "ident")
    reader.expect(":")
    polys: list[Polynomial] = []
    if reader.peek()[0] != "end":
        polys = [Polynomial(len(variables), reader.expr()) for _ in reader.listed()]
    reader.finish()

    # a generator is numbered by its position in the file, zero ones included
    if require_homogeneous:
        for k, g in enumerate(polys, 1):
            if not g.is_homogeneous():
                raise InhomogeneousError(f"generator {k} is not homogeneous")
    warnings = tuple(f"generator {k} is zero and was dropped" for k, g in enumerate(polys, 1) if not g)
    return RingPresentation(variables, tuple(g for g in polys if g), warnings=warnings)
