"""Jacobian-criterion singular locus (characteristic zero).

The criterion adjoins the codim x codim minors of the Jacobian matrix of a
minimal presentation to the ideal and measures the dimension of the quotient.
Equidimensionality is assumed, not checked; the report says so explicitly and
consumers must surface that assumption whenever a verdict depends on it.

The Jacobian rows are the integer derivatives of the generators' primitive
integer maps, ``g.ints``, so every minor is a nonzero constant times the
rational one and I + minors is unchanged;
:func:`cmtype.poly.minors` expands them over integer term maps
as exterior products of the rows, replacing every monomial product by its
normal form from the analysis's quotient view, so each minor comes out
reduced modulo I, up to a nonzero rational factor that leaves its span
unchanged.  The minors enter one sparse integer echelon; I plus the
echelon rows is I plus every minor.

The z variables that no minimal generator uses split off: R = R'[those
variables] for R' = k[the others]/I, their Jacobian columns vanish, and the
minors lie in R', whose Hilbert function is R's numerator over
(1-t)^(n-z).  When in some degree d the rows span all of R'_d (their count
is that Hilbert function at d), I + minors holds every form of degree d in
the variables of R', so the singular locus is the origin of R' times k^z,
of dimension z, and no Groebner basis is computed; otherwise one basis of
I plus the rows gives its dimension.  More minors over the columns of R'
than ``Budgets.minors`` raise ``BudgetError`` before any is expanded;
``cmtype analyze`` then reports a null singularity section with the reason,
in ``singularity_skipped``, next to the invariants it already computed.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from . import linalg
from .errors import BudgetError, Budgets, DEFAULT_BUDGETS
from .groebner import buchberger, hilbert_coefficient
from .invariants import Analysis, hilbert_series_from_gb
from .poly import derivative_map, from_ints, minors, monomial_degree
from .presentation import RingPresentation


class SingularityReport(NamedTuple):
    codim: int
    jacobian_ideal: RingPresentation
    singular_dim: int  # -1 for regular rings
    isolated: bool
    equidimensional_assumed: bool = True


def singular_locus(bundle: Analysis, *, budgets: Budgets = DEFAULT_BUDGETS) -> SingularityReport:
    """Dimension of the singular locus and the isolated-singularity flag.

    Reads the minimal presentation, its quotient view and its Hilbert series
    from `bundle`; the only new basis, computed only when the minors span no
    whole degree, is that of I + minors.
    """
    minimal = bundle.presentation
    gens = minimal.generators
    nvars = minimal.nvars
    if not gens:
        return SingularityReport(
            codim=0,
            jacobian_ideal=RingPresentation(minimal.variables, ()),
            singular_dim=-1,
            isolated=True,
        )
    codim = nvars - bundle.series.dim

    # R = R'[z variables no generator uses]; their Jacobian columns vanish
    used = [j for j in range(nvars) if any(m[j] for g in gens for m in g.ints)]
    z = nvars - len(used)
    # Scaling a row by a nonzero constant scales its minors alike, which
    # leaves I + minors unchanged: differentiate the primitive integer maps.
    jacobian = [[derivative_map(g.ints, j) for j in used] for g in gens]
    count = math.comb(len(gens), codim) * math.comb(len(used), codim)
    if count > budgets.minors:
        raise BudgetError(
            f"singular_locus: {count} Jacobian minors exceed the minor budget {budgets.minors}"
        )
    # I + rows = I + minors; the minors are forms, so the degree-d rows span their image in R_d
    echelon = linalg.Echelon()
    for det in minors(jacobian, codim, bundle.quotient.normal):
        if det:
            echelon.add(det)

    spans = [from_ints(nvars, row, primitive=True) for row in echelon.rows.values()]
    jacobian_ideal = RingPresentation(minimal.variables, tuple(gens) + tuple(spans))
    ranks = Counter(map(monomial_degree, echelon.rows))
    # the minors lie in R', whose numerator over (1-t)^(n-z) is that of R
    numerator = bundle.series.numerator
    if any(rank == hilbert_coefficient(numerator, nvars - z, d) for d, rank in ranks.items()):
        # the minors span R'_d, so the singular locus is the origin of R' times k^z
        singular_dim = z
    elif spans:
        singular_dim = hilbert_series_from_gb(buchberger(jacobian_ideal, budgets=budgets)).dim
    else:  # every minor lies in I, so the singular locus is all of V(I)
        singular_dim = bundle.series.dim
    return SingularityReport(codim, jacobian_ideal, singular_dim, isolated=singular_dim <= 0)
