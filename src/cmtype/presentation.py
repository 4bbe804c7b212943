"""Ring presentations R = k[x_1..x_n]/I and their canonical rendering."""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import BudgetError, InputError
from .poly import Polynomial

_IDENT_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*\Z")
# The words of the file format, never variable names, so that every rendered
# presentation parses back.
KEYWORDS = ("ring", "ideal")


class _PresentationFields(NamedTuple):
    variables: tuple[str, ...]
    generators: tuple[Polynomial, ...]
    warnings: tuple[str, ...] = ()


class RingPresentation(_PresentationFields):
    """R = S/I for S = k[variables] and I generated by nonzero `generators`.
    Ideals without a ring in view, such as a Jacobian ideal, use the same
    type.  Equality and the hash ignore `warnings`.

    `variables` is a tuple of distinct names, each a letter followed by
    letters, digits and ``_``, none of them a keyword of the file format.
    Its order fixes degrevlex significance and the rendering order.  It is
    empty only when minimalization eliminates every variable (the residue
    field)."""

    __slots__ = ()
    __ne__ = object.__ne__  # the negation of __eq__; tuple's own compares every field
    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` validates too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        names = self.variables
        if len(set(names)) != len(names):
            raise InputError("variable names must be distinct")
        for name in names:
            if not _IDENT_RE.match(name) or name in KEYWORDS:
                raise InputError(f"invalid variable name {name!r}")
        for g in self.generators:
            if g.nvars != len(names):
                raise InputError("generator over the wrong variable set")
            if g.is_zero:
                raise InputError("zero generator in ideal presentation")
        return self

    def __eq__(self, other):
        return self[:2] == other[:2] if isinstance(other, RingPresentation) else NotImplemented

    def __hash__(self):
        return hash(self[:2])

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)


def make_presentation(names, generators) -> RingPresentation:
    """Convenience constructor used throughout the library and tests."""
    return RingPresentation(tuple(names), tuple(generators))


# ---------------------------------------------------------------------------
# rendering (the inverse of the parser, on canonical forms)


def _format_monomial(m, names) -> str:
    parts = []
    for name, e in zip(names, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


# Cap on the decimal digits of a rendered numerator or denominator: Python's
# default int-to-str limit, past which str() raises ValueError.  A reduced
# basis can grow such coefficients from inputs within parsing.MAX_DIGITS.
MAX_RENDERED_DIGITS = 4_300
# An int of at most this many bits is below 8^4300 < 10^4300, so it has at
# most MAX_RENDERED_DIGITS digits and its digits need no count.
_UNCOUNTED_BITS = 3 * MAX_RENDERED_DIGITS


def _check_digits(n: int) -> None:
    """Raise before str() would: digits are counted from the bit length."""
    # integer arithmetic only (0.30103 > log10 2): at least the digit count
    # of |n|, at most two more, and exact once the loop has run
    digits = n.bit_length() * 30103 // 100_000 + 1
    while digits > MAX_RENDERED_DIGITS and abs(n) < 10 ** (digits - 1):
        digits -= 1
    if digits > MAX_RENDERED_DIGITS:
        raise BudgetError(
            f"render_polynomial: coefficient has {digits} digits (cap {MAX_RENDERED_DIGITS})"
        )


def render_polynomial(p: Polynomial, names) -> str:
    """Canonical text form: terms in descending degrevlex order, each
    coefficient n / d read off the integer map, written n when d is 1."""
    if p.is_zero:
        return "0"
    pieces = []
    for i, (m, n, d) in enumerate(p.descending_terms()):
        if n.bit_length() > _UNCOUNTED_BITS or d.bit_length() > _UNCOUNTED_BITS:
            _check_digits(n)
            _check_digits(d)
        mono = _format_monomial(m, names)
        mag = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
        if mono and mag == "1":
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = mag
        if i == 0:
            pieces.append(body if n > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if n > 0 else f"- {body}")
    return " ".join(pieces)


def render_presentation(pres: RingPresentation) -> str:
    """Canonical presentation file text (parses back to an equal presentation)."""
    lines = ["ring: " + ", ".join(pres.variables)]
    gens = ", ".join(render_polynomial(g, pres.variables) for g in pres.generators)
    lines.append(f"ideal: {gens}" if gens else "ideal:")
    return "\n".join(lines) + "\n"
