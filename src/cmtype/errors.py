"""Exception types and computation budgets shared across the library."""

from __future__ import annotations

from typing import NamedTuple


class CmtypeError(Exception):
    """Base class for all library errors."""


class InputError(CmtypeError):
    """Invalid input: bad syntax, unknown variables, violated preconditions."""


class ParseError(InputError):
    """Syntax error in a presentation file, with source location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class InhomogeneousError(InputError):
    """The operation requires a homogeneous ideal."""


class BudgetError(CmtypeError):
    """A computation budget was exceeded.  Results are never silently truncated."""


class LsopSearchError(BudgetError):
    """No linear system of parameters was found within the retry schedule:
    some step of ``artinian_reduction`` spent its 20 candidate forms, and the
    message names that stage, the attempts and the dimension left."""


class Budgets(NamedTuple):
    """Caps for the potentially explosive computations.

    pairs:  maximum number of S-pairs processed in one Buchberger run
    degree: maximum lcm degree of an S-pair before the run aborts
    minors: maximum number of Jacobian minors expanded for a singular locus
    """

    pairs: int = 50_000
    degree: int = 40
    minors: int = 20_000


DEFAULT_BUDGETS = Budgets()
