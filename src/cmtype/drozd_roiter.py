"""Drozd-Roiter length conditions for the two combinatorially explicit classes.

Finite Cohen-Macaulay type of a one-dimensional reduced ring with finite
normalization is decided by two bounds: multiplicity at most 3, and
lambda(integral closure of m^2 / x*m) at most 1 for a minimal reduction x.
This module evaluates both lengths exactly for

* numerical semigroup rings, where the normalization is a univariate
  polynomial ring and everything reduces to semigroup membership, and
* reduced line arrangements in two variables, where the normalization is a
  product of branches and the lengths have a closed form in the number of
  lines, from the ranks of evaluation vectors at the branch points.

All other rings are out of scope here; the classifier reports them as
undecided rather than guessing.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import BudgetError, InputError
from .poly import Polynomial


# ---------------------------------------------------------------------------
# numerical semigroups


class NumericalSemigroup(NamedTuple):
    """Additively closed subset of the naturals with finite complement.

    The membership table covers 0 .. a1*amax + 1 (least and greatest
    generators), past Schur's bound (a1 - 1)(amax - 1) - 1 on the Frobenius
    number; every larger integer is a member, so the window loses nothing.
    """

    generators: tuple[int, ...]
    membership: tuple[bool, ...]
    frobenius: int
    multiplicity: int

    def contains(self, s: int) -> bool:
        if s < 0:
            return False
        if s < len(self.membership):
            return self.membership[s]
        return s > self.frobenius


# Cap on the membership sieve, sized a1*amax + 1: 1000000,1000001 would need
# 10^12 entries.
MAX_SIEVE_ENTRIES = 1_000_000


def semigroup_closure(gens: Sequence[int]) -> NumericalSemigroup:
    """Close the generators under addition; sieve membership and Frobenius.

    Zero generators are dropped; a negative one raises InputError.  Raises
    BudgetError when the sieve would exceed MAX_SIEVE_ENTRIES.
    """
    for g in gens:
        if int(g) < 0:
            raise InputError(f"semigroup generator {g} is negative")
    cleaned = sorted({int(g) for g in gens if int(g) > 0})
    if not cleaned:
        raise InputError("at least one positive generator is required")
    g = 0
    for a in cleaned:
        g = math.gcd(g, a)
    if g != 1:
        raise InputError(f"generators have gcd {g}; the semigroup ring is not of the supported form")

    a1, amax = cleaned[0], cleaned[-1]
    limit = a1 * amax + 1
    if limit > MAX_SIEVE_ENTRIES:
        raise BudgetError(
            f"semigroup_closure: the sieve needs {limit} entries (cap {MAX_SIEVE_ENTRIES})"
        )
    table = [False] * (limit + 1)
    table[0] = True
    for s in range(1, limit + 1):
        for a in cleaned:
            if s >= a and table[s - a]:
                table[s] = True
                break
    non_members = [s for s, ok in enumerate(table) if not ok]
    return NumericalSemigroup(
        generators=tuple(cleaned),
        membership=tuple(table),
        frobenius=max(non_members, default=-1),
        multiplicity=a1,
    )


class DrozdRoiterReport(NamedTuple):
    """e(R), lambda(closure of m^2 / x m), and the two bounds they must obey."""

    e: int
    lam: int
    dr1: bool  # e <= 3
    dr2: bool  # lam <= 1
    finite_type: bool
    witnesses: tuple[int, ...] = ()


def _make_report(e: int, lam: int, witnesses: tuple[int, ...] = ()) -> DrozdRoiterReport:
    dr1 = e <= 3
    dr2 = lam <= 1
    return DrozdRoiterReport(e=e, lam=lam, dr1=dr1, dr2=dr2, finite_type=dr1 and dr2, witnesses=witnesses)


def semigroup_dr(sg: NumericalSemigroup) -> DrozdRoiterReport:
    """Lengths for the semigroup ring k[[t^a : a in S]] with reduction t^a1.

    lambda counts members s >= 2*a1 with s - a1 not a nonzero member.  The
    search window stops at frobenius + a1: beyond it s - a1 exceeds the
    Frobenius number and is automatically a member.
    """
    a1 = sg.multiplicity
    witnesses = tuple(
        s
        for s in range(2 * a1, sg.frobenius + a1 + 1)
        if sg.contains(s) and not sg.contains(s - a1)
    )
    return _make_report(e=a1, lam=len(witnesses), witnesses=witnesses)


# ---------------------------------------------------------------------------
# line arrangements in two variables


class LineArrangement(NamedTuple):
    """Pairwise non-proportional linear forms plus a verified minimal reduction.

    Each line a*x + b*y is parametrized by t -> (b*t, -a*t); the arrangement
    ring embeds into the product of the branch coordinate rings, and the
    reduction must be nonvanishing on every branch.
    """

    lines: tuple[Polynomial, ...]
    reduction: Polynomial


def _check_linear_form(p: Polynomial, label: str) -> None:
    if p.nvars != 2:
        raise InputError(f"{label} must be a linear form in exactly two variables")
    if p.is_zero or not p.is_homogeneous() or p.degree() != 1:
        raise InputError(f"{label} must be a nonzero homogeneous linear form")


def line_arrangement(lines: Sequence[Polynomial], reduction: Polynomial) -> LineArrangement:
    """Validate and package an arrangement; rejects repeated lines and
    reductions vanishing on a branch."""
    lines = tuple(lines)
    if not lines:
        raise InputError("an arrangement needs at least one line")
    for k, line in enumerate(lines, 1):
        _check_linear_form(line, f"line {k}")
    coeffs = [(l.coefficient((1, 0)), l.coefficient((0, 1))) for l in lines]
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            (a1, b1), (a2, b2) = coeffs[i], coeffs[j]
            if a1 * b2 - a2 * b1 == 0:
                raise InputError(
                    f"lines {i + 1} and {j + 1} are proportional; the product is not squarefree"
                )
    _check_linear_form(reduction, "reduction")
    r0, r1 = reduction.coefficient((1, 0)), reduction.coefficient((0, 1))
    for k, (a, b) in enumerate(coeffs, 1):
        if r0 * b == r1 * a:  # the reduction vanishes at (b, -a)
            raise InputError(f"reduction vanishes on line {k}; it is not a minimal reduction")
    return LineArrangement(lines, reduction)


def arrangement_dr(arr: LineArrangement) -> DrozdRoiterReport:
    """Lengths in closed form: e = r and lambda = max(r - 2, 0) for r lines.

    lambda sums over degrees j >= 2 the rank of the degree-j monomials
    evaluated at the r branch points, minus that of the degree-(j-1) ones
    with each branch's entry scaled by its nonzero reduction value.  Binary
    forms of degree j restricted to r distinct points of P^1 span
    min(j + 1, r) dimensions (a nonzero one vanishes at no more than j of
    them; interpolation gives the rest), and the scaling keeps the rank, so
    degree j contributes min(j + 1, r) - min(j, r): one exactly when j < r.
    """
    r = len(arr.lines)
    return _make_report(e=r, lam=max(r - 2, 0))
