"""Jacobian-criterion singular locus (characteristic zero).

The criterion adjoins the codim x codim minors of the Jacobian matrix of a
minimal presentation to the ideal and measures the dimension of the quotient.
Equidimensionality is assumed, not checked; the report says so explicitly and
consumers must surface that assumption whenever a verdict depends on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetError, Budgets, DEFAULT_BUDGETS
from .groebner import buchberger, normal_form
from .invariants import Analysis, hilbert_series_from_gb
from .poly import Polynomial
from .presentation import IdealPresentation


@dataclass(frozen=True)
class SingularityReport:
    codim: int
    jacobian_ideal: IdealPresentation
    singular_dim: int  # -1 for regular rings
    isolated: bool
    equidimensional_assumed: bool = True


def _minor(matrix, rows: tuple[int, ...], cols: tuple[int, ...], memo) -> Polynomial:
    """Laplace expansion along the first row, memoized on (rows, cols)."""
    key = (rows, cols)
    if key in memo:
        return memo[key]
    if len(rows) == 1:
        result = matrix[rows[0]][cols[0]]
    else:
        n = matrix[0][0].nvars if matrix and matrix[0] else 0
        result = Polynomial.zero(n)
        r0 = rows[0]
        rest = rows[1:]
        for k, c in enumerate(cols):
            entry = matrix[r0][c]
            if entry.is_zero:
                continue
            sub = _minor(matrix, rest, cols[:k] + cols[k + 1 :], memo)
            term = entry * sub
            result = result + term if k % 2 == 0 else result - term
    memo[key] = result
    return result


def singular_locus(bundle: Analysis, *, budgets: Budgets = DEFAULT_BUDGETS) -> SingularityReport:
    """Dimension of the singular locus and the isolated-singularity flag.

    Reads the minimal presentation, its reduced Groebner basis and its
    Hilbert series from `bundle`; the only new basis is that of I + minors.
    """
    minimal = bundle.presentation
    gens = minimal.generators
    nvars = minimal.nvars
    if not gens:
        return SingularityReport(
            codim=0,
            jacobian_ideal=IdealPresentation(minimal.variables, ()),
            singular_dim=-1,
            isolated=True,
        )
    codim = nvars - bundle.series.dim

    jacobian = [[g.derivative(j) for j in range(nvars)] for g in gens]
    minors: list[Polynomial] = []
    if codim <= len(gens) and codim <= nvars:
        count = math.comb(len(gens), codim) * math.comb(nvars, codim)
        if count > budgets.minors:
            raise BudgetError(
                f"{count} Jacobian minors exceed the minor budget {budgets.minors}"
            )
        memo: dict = {}
        seen: set[Polynomial] = set()
        for rows in combinations(range(len(gens)), codim):
            for cols in combinations(range(nvars), codim):
                det = _minor(jacobian, rows, cols, memo)
                if det.is_zero:
                    continue
                # reducing modulo the ideal does not change I + minors and
                # collapses the many minors that already lie in I
                det = normal_form(det, bundle.gb).monic()
                if det and det not in seen:
                    seen.add(det)
                    minors.append(det)

    jacobian_ideal = IdealPresentation(minimal.variables, tuple(gens) + tuple(minors))
    if minors:
        singular_dim = hilbert_series_from_gb(buchberger(jacobian_ideal, budgets=budgets)).dim
    else:  # every minor lies in I, so the singular locus is all of V(I)
        singular_dim = bundle.series.dim
    return SingularityReport(
        codim=codim,
        jacobian_ideal=jacobian_ideal,
        singular_dim=singular_dim,
        isolated=singular_dim <= 0,
    )
