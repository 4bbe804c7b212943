"""Ring presentations R = k[x_1..x_n]/I and their canonical rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError
from .poly import Polynomial, VariableSet


@dataclass(frozen=True)
class IdealPresentation:
    """A variable set together with nonzero generators over it."""

    variables: VariableSet
    generators: tuple[Polynomial, ...]

    def __post_init__(self):
        n = len(self.variables)
        for g in self.generators:
            if g.nvars != n:
                raise InputError("generator over the wrong variable set")
            if g.is_zero:
                raise InputError("zero generator in ideal presentation")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)


@dataclass(frozen=True)
class RingPresentation:
    """R = S/I for a polynomial ring S; `minimalized` marks a minimal presentation."""

    ideal: IdealPresentation
    minimalized: bool = False
    warnings: tuple[str, ...] = field(default=(), compare=False)

    @property
    def variables(self) -> VariableSet:
        return self.ideal.variables

    @property
    def generators(self) -> tuple[Polynomial, ...]:
        return self.ideal.generators

    @property
    def nvars(self) -> int:
        return self.ideal.nvars


def make_presentation(names, generators, minimalized: bool = False) -> RingPresentation:
    """Convenience constructor used throughout the library and tests."""
    variables = names if isinstance(names, VariableSet) else VariableSet(tuple(names))
    return RingPresentation(
        IdealPresentation(variables, tuple(generators)), minimalized=minimalized
    )


# ---------------------------------------------------------------------------
# rendering (the inverse of the parser, on canonical forms)


def _format_coefficient(c: Fraction) -> str:
    return str(c)


def _format_monomial(m, names) -> str:
    parts = []
    for name, e in zip(names, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def render_polynomial(p: Polynomial, names) -> str:
    """Canonical text form: terms in descending degrevlex order."""
    if p.is_zero:
        return "0"
    pieces = []
    for i, (m, c) in enumerate(p.sorted_terms()):
        mono = _format_monomial(m, names)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{_format_coefficient(mag)}*{mono}"
        else:
            body = _format_coefficient(mag)
        if i == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def render_presentation(pres: RingPresentation) -> str:
    """Canonical presentation file text (parses back to an equal presentation)."""
    names = tuple(pres.variables)
    lines = ["ring: " + ", ".join(names)]
    gens = ", ".join(render_polynomial(g, names) for g in pres.generators)
    lines.append(f"ideal: {gens}" if gens else "ideal:")
    return "\n".join(lines) + "\n"
