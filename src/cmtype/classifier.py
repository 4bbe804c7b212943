"""Decision tree mapping computed invariants to a representation-type verdict.

The verdict taxonomy separates `uncountable` (provably not of graded
countable type, with a citation) from `open_unknown` (the question is open or
outside the tool's certified scope); the tool never guesses on open cases.
All statements about uncountability live over an uncountable algebraically
closed field of characteristic zero and are transported through closure-
stable invariants (h-vector, quadric rank, root profile, singular dimension).
Hypersurfaces are tagged here: quadrics by rank and binary forms by root
profile, which are full linear-equivalence invariants in characteristic
zero, so no permutation certificate applies to them.  Every other family
tag comes from :func:`cmtype.families.match_named_family`.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .citations import CITATIONS, Justification
from .errors import BudgetError, Budgets, DEFAULT_BUDGETS, InputError
from .families import FamilyTag, binary_form_profile, match_named_family, quadric_rank
from .invariants import Analysis, RingInvariants, analyze
from .groebner import normal_form
from .poly import Polynomial, side_by_side, unit_vectors
from .presentation import RingPresentation
from .singularity import SingularityReport, singular_locus


class Verdict(str, Enum):
    FINITE = "finite"
    COUNTABLE_INFINITE = "countable_infinite"
    UNCOUNTABLE = "uncountable"
    OPEN_UNKNOWN = "open_unknown"
    OUT_OF_SCOPE = "out_of_scope"


class ObstructionData(NamedTuple):
    """Degree-2 rewrite data: u^2, uv, v^2 each equal to x * (linear form).

    `basis` lists variable indices in the order (x, u, v, rest...); `matrix`
    holds the three rewrite rows over that basis; `f_columns` maps each basis
    position >= 3 to its column triple (a1, a2, a3), the coefficients of the
    obstruction polynomial a1 + (X+Y)*a2 + X*Y*a3 for that column.
    """

    x_index: int
    u_index: int
    v_index: int
    basis: tuple[int, ...]
    matrix: tuple[tuple[Fraction, ...], ...]
    f_columns: dict[int, tuple[Fraction, Fraction, Fraction]]


class ClassificationReport(NamedTuple):
    """A verdict with its evidence; the field order is the report's key order."""

    invariants: RingInvariants | None
    singularity: SingularityReport | None
    family: FamilyTag | None
    obstruction: ObstructionData | None
    verdict: Verdict
    reason: str | None
    justification: tuple[Justification, ...]
    assumptions_used: tuple[str, ...]


# ---------------------------------------------------------------------------
# the degree-2 rewrite machinery


def _is_linear_nonzerodivisor(x_index: int, bundle: Analysis) -> bool:
    """Check the variable x_index is a nonzerodivisor via multiplication-map ranks.

    For a one-dimensional ring the Hilbert function is eventually constant;
    injectivity of multiplication by x up to a degree where the function has
    stabilized (so injective = bijective there) propagates to all degrees.
    """
    series = bundle.series
    quotient = bundle.quotient
    x = unit_vectors(bundle.presentation.nvars)[x_index]
    stable = max(1, len(series.hvector) - 1)
    d = 0
    while True:
        if quotient.kernel_dim(d, [x]):
            return False
        if d >= stable and len(quotient.basis(d)) == len(quotient.basis(d + 1)):
            return True
        d += 1
        if d > len(series.hvector) + 4:  # unreachable for dim 1
            raise InputError("nonzerodivisor test: the Hilbert function never stabilized")


def rewrite_in_xm(bundle: Analysis, x_index: int, u_index: int, v_index: int) -> ObstructionData:
    """Rewrite u^2, uv, v^2 as x*(linear form) by exact degree-2 linear algebra.

    Variable indices refer to the minimal presentation `bundle.presentation`.
    """
    pres = bundle.presentation
    inv = bundle.invariants
    n = pres.nvars
    for idx in (x_index, u_index, v_index):
        if not 0 <= idx < n:
            raise InputError(f"variable index {idx} out of range")
    if len({x_index, u_index, v_index}) != 3:
        raise InputError("x, u, v must be three distinct variables")
    if inv.dim != 1:
        raise InputError("the degree-2 rewrite applies to one-dimensional rings only")
    if not inv.is_min_mult:
        raise InputError("the degree-2 rewrite requires minimal multiplicity")

    if not _is_linear_nonzerodivisor(x_index, bundle):
        raise InputError(f"variable {x_index} is not a nonzerodivisor")

    # Column j is x * x_j in R_2 plus a 1 at the tag (-1, j), and a product
    # is itself plus a 1 at the marker (-2, 0), both over the form's
    # denominator.  A monomial m is keyed (0, m), so monomials sort above
    # tags, tags above the marker, and the columns are independent (x is a
    # nonzerodivisor): the residual of a product in their span is its
    # coefficients at the tags times minus the marker's entry.
    def vector(monomial, key) -> dict:
        vec, d = side_by_side([bundle.quotient.normal(monomial)])
        vec[key] = d
        return vec

    x = Polynomial.variable(n, x_index)
    basis_order = [x_index, u_index, v_index] + [
        i for i in range(n) if i not in (x_index, u_index, v_index)
    ]
    columns = linalg.Echelon(
        vector((x * Polynomial.variable(n, idx)).lead, (-1, j)) for j, idx in enumerate(basis_order)
    )

    u = Polynomial.variable(n, u_index)
    v = Polynomial.variable(n, v_index)
    units = unit_vectors(n)
    rows: list[tuple[Fraction, ...]] = []
    for product in (u * u, u * v, v * v):
        left = columns.residual(vector(product.lead, (-2, 0)))
        scale = left.pop((-2, 0))
        if any(key[0] != -1 for key in left):
            raise InputError(
                "degree-2 rewrite inconsistent: a product is not in x*m "
                "(m^2 = x*m fails for this x)"
            )
        solution = [Fraction(-left.get((-1, j), 0), scale) for j in range(len(basis_order))]
        # certify the rewrite: the residual must vanish in the quotient
        linear = Polynomial(n, ((units[idx], c) for idx, c in zip(basis_order, solution)))
        residual = normal_form(product - x * linear, bundle.quotient.divisors)
        if not residual.is_zero:
            raise InputError("rewrite residual did not normal-form to zero")
        rows.append(tuple(solution))

    f_columns = {
        j: (rows[0][j], rows[1][j], rows[2][j]) for j in range(3, len(basis_order))
    }
    return ObstructionData(x_index, u_index, v_index, tuple(basis_order), tuple(rows), f_columns)


def _best_effort_obstruction(bundle: Analysis) -> ObstructionData | None:
    """Attach rewrite data for the h = (1, n >= 3) verdict when a variable works."""
    n = bundle.presentation.nvars
    if n < 4:
        return None
    for x_idx in range(n):
        others = [i for i in range(n) if i != x_idx]
        try:
            return rewrite_in_xm(bundle, x_idx, others[0], others[1])
        except (InputError, BudgetError):
            continue
    return None


# ---------------------------------------------------------------------------
# the classifier


def _report(
    invariants: RingInvariants | None,
    verdict: Verdict,
    *rules: str,
    singularity: SingularityReport | None = None,
    family: FamilyTag | None = None,
    obstruction: ObstructionData | None = None,
    reason: str | None = None,
    assumptions_used: tuple[str, ...] = (),
) -> ClassificationReport:
    """The verdict with the citation of each rule it rests on and the evidence it read."""
    justification = tuple(CITATIONS[rule] for rule in rules)
    return ClassificationReport(
        invariants, singularity, family, obstruction, verdict, reason, justification, assumptions_used
    )


def classify(
    pres: RingPresentation,
    assumptions: frozenset[str] | set[str] | tuple = frozenset(),
    *,
    seed: int = 1,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> ClassificationReport:
    """Classify the graded Cohen-Macaulay representation type of R = S/I.

    Budget exhaustion is reported, not raised: the verdict degrades to
    out_of_scope with the budget failure as the reason.  The invariants stay
    in the report when analyze finished and only the decision ran out of
    budget.
    """
    bundle = None
    try:
        bundle = analyze(pres, seed=seed, budgets=budgets)
        inv = bundle.invariants
        if inv.is_regular:
            return _report(inv, Verdict.FINITE, "regular-ring")

        if not inv.is_cm:
            reason = "the ring is not Cohen-Macaulay"
            return _report(inv, Verdict.OUT_OF_SCOPE, "non-cm-input", reason=reason)

        if inv.dim == 0:
            if inv.is_hypersurface:
                return _report(inv, Verdict.FINITE, "dim0-hypersurface")
            return _report(inv, Verdict.UNCOUNTABLE, "dim0-hypersurface", "dim0-obstruction")

        if inv.dim == 1:
            return _classify_dim1(bundle, frozenset(assumptions))
        return _classify_dim_ge2(bundle, budgets)
    except BudgetError as exc:
        inv = None if bundle is None else bundle.invariants
        return _report(inv, Verdict.OUT_OF_SCOPE, "budget-exceeded", reason=str(exc))


# Cor 3.4: a one-dimensional hypersurface by the root profile of its binary
# form (tuple of root multiplicities); every profile not listed is uncountable.
_BINARY_FORMS: dict[tuple[int, ...], tuple[Verdict, tuple[str, ...]]] = {
    (1, 1): (Verdict.FINITE, ("dim1-two-lines", "dim1-hypersurface-list")),
    (1, 1, 1): (Verdict.FINITE, ("dim1-three-lines", "dim1-hypersurface-list")),
    (2,): (
        Verdict.COUNTABLE_INFINITE,
        ("dim1-a-infinity", "hypersurface-countable-iff", "completion-transfer"),
    ),
    (2, 1): (
        Verdict.COUNTABLE_INFINITE,
        ("dim1-d-infinity", "hypersurface-countable-iff", "completion-transfer"),
    ),
}
_OTHER_BINARY_FORMS = (
    Verdict.UNCOUNTABLE, ("dim1-hypersurface-list", "hypersurface-countable-iff")
)

# §5 list: a quadric hypersurface by its corank, embdim - rank; A_1 has corank
# 0, A_infinity corank 1, and every larger corank is uncountable.
_QUADRICS: dict[int, tuple[Verdict, tuple[str, ...]]] = {
    0: (Verdict.FINITE, ("quadric-a1", "gorenstein-minmult")),
    1: (
        Verdict.COUNTABLE_INFINITE,
        ("quadric-a-infinity", "hypersurface-countable-iff", "completion-transfer"),
    ),
}
_OTHER_QUADRICS = (Verdict.UNCOUNTABLE, ("hypersurface-countable-iff", "quadric-a1"))


def _classify_dim1(bundle: Analysis, assumptions: frozenset[str]) -> ClassificationReport:
    inv = bundle.invariants

    if inv.is_hypersurface:
        profile = binary_form_profile(bundle.presentation.generators[0])
        verdict, rules = _BINARY_FORMS.get(profile, _OTHER_BINARY_FORMS)
        return _report(inv, verdict, *rules, family=FamilyTag("binary_form", param=profile))

    h = inv.hvector
    if len(h) == 2 and h[1] >= 3:
        obstruction = _best_effort_obstruction(bundle)
        return _report(inv, Verdict.UNCOUNTABLE, "dim1-h13", obstruction=obstruction)

    if len(h) == 2 and h[1] == 2:
        family = match_named_family(bundle)
        if family.kind == "gw12":
            return _report(
                inv, Verdict.COUNTABLE_INFINITE, "dim1-gw12", "completion-transfer", family=family
            )
        if family.kind == "graded12":
            return _report(inv, Verdict.FINITE, "dim1-graded12", family=family)
        return _report(
            inv,
            Verdict.OPEN_UNKNOWN,
            "dim1-12-open",
            "dr-unsupported",
            family=family,
            reason="dr_unsupported",
            assumptions_used=("reduced_asserted",) if "reduced" in assumptions else (),
        )

    if len(h) >= 3:
        return _report(inv, Verdict.UNCOUNTABLE, "dim1-possible-h")
    # h = (1) would make the ring regular; h = (1,1) would make I a height-1
    # unmixed ideal of k[x,y], which is principal, so R would be a hypersurface
    raise InputError(f"classify: impossible h-vector {h} for a non-hypersurface CM curve")


def _classify_dim_ge2(bundle: Analysis, budgets: Budgets) -> ClassificationReport:
    inv = bundle.invariants

    if inv.is_gorenstein:
        if not inv.is_hypersurface:
            return _report(inv, Verdict.OPEN_UNKNOWN, "gorenstein-open")
        form = bundle.presentation.generators[0]
        if form.degree() != 2:
            return _report(inv, Verdict.UNCOUNTABLE, "hypersurface-countable-iff")
        rank = quadric_rank(form)
        verdict, rules = _QUADRICS.get(inv.embdim - rank, _OTHER_QUADRICS)
        family = FamilyTag("quadric", param=(rank, inv.embdim))
        return _report(inv, verdict, *rules, family=family)

    # non-Gorenstein, dim >= 2
    if not inv.is_min_mult:
        if inv.dim >= 3:
            return _report(inv, Verdict.UNCOUNTABLE, "dim3-domain-minmult")
        sing = singular_locus(bundle, budgets=budgets)
        evidence = {"singularity": sing, "assumptions_used": ("equidimensional_assumed",)}
        if sing.isolated:
            return _report(inv, Verdict.UNCOUNTABLE, "dim2-isolated-minmult", **evidence)
        return _report(inv, Verdict.OPEN_UNKNOWN, "dim2-nonisolated-open", **evidence)

    tag = match_named_family(bundle)
    if tag.kind == "scroll":
        if len(tag.param) == 1:
            return _report(inv, Verdict.FINITE, "scroll-2dim-finite", family=tag)
        if tag.param == (1, 2):
            return _report(inv, Verdict.FINITE, "dim3-special-finite", family=tag)
        return _report(inv, Verdict.UNCOUNTABLE, "scroll-uncountable", family=tag)
    if tag.kind == "veronese_cone":
        if tag.param == 5:
            return _report(inv, Verdict.FINITE, "dim3-special-finite", family=tag)
        if tag.param == 6:
            return _report(inv, Verdict.OPEN_UNKNOWN, "veronese-cone-open", family=tag)
        return _report(inv, Verdict.UNCOUNTABLE, "veronese-cone-big-singular", family=tag)
    return _report(
        inv, Verdict.OPEN_UNKNOWN, "family-unmatched", family=tag, reason="no_catalog_match"
    )
