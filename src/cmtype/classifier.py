"""Decision tree mapping computed invariants to a representation-type verdict.

The verdict taxonomy separates `uncountable` (provably not of graded
countable type, with a citation) from `open_unknown` (the question is open or
outside the tool's certified scope); the tool never guesses on open cases.
All statements about uncountability live over an uncountable algebraically
closed field of characteristic zero and are transported through closure-
stable invariants (h-vector, quadric rank, root profile, singular dimension).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import linalg
from .citations import CITATIONS
from .errors import BudgetError, Budgets, DEFAULT_BUDGETS, InputError
from .families import FamilyTag, binary_form_profile, match_named_family, quadric_rank
from .invariants import Analysis, RingInvariants, analyze
from .groebner import normal_form
from .poly import Polynomial
from .presentation import RingPresentation
from .singularity import SingularityReport, singular_locus


class Verdict(str, Enum):
    FINITE = "finite"
    COUNTABLE_INFINITE = "countable_infinite"
    UNCOUNTABLE = "uncountable"
    OPEN_UNKNOWN = "open_unknown"
    OUT_OF_SCOPE = "out_of_scope"


@dataclass(frozen=True)
class Justification:
    rule: str
    citation: str
    quote: str


def _justify(rules: tuple[str, ...]) -> tuple[Justification, ...]:
    return tuple(
        Justification(rule, CITATIONS[rule].label, CITATIONS[rule].quote) for rule in rules
    )


@dataclass(frozen=True)
class ObstructionData:
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


@dataclass(frozen=True, kw_only=True)
class ClassificationReport:
    """A verdict with its evidence; the field order is the report's key order."""

    invariants: RingInvariants | None
    singularity: SingularityReport | None
    family: FamilyTag | None = None
    obstruction: ObstructionData | None = None
    verdict: Verdict
    reason: str | None = None
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
    x = tuple(int(i == x_index) for i in range(bundle.presentation.nvars))
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


def _rewrite_from_bundle(
    bundle: Analysis, x_index: int, u_index: int, v_index: int
) -> ObstructionData:
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

    # Column j is x * x_j in R_2 plus the tag coordinate (-1, j), which sorts
    # below every monomial, so monomials are the pivots.  x is a
    # nonzerodivisor, so the columns are independent: the residual of a
    # product in their span holds only tags, carrying minus its coefficients.
    image = bundle.quotient.image
    x = Polynomial.variable(n, x_index)
    basis_order = [x_index, u_index, v_index] + [
        i for i in range(n) if i not in (x_index, u_index, v_index)
    ]
    columns = linalg.Echelon(
        {**image((x * Polynomial.variable(n, idx)).terms), (-1, j): Fraction(1)}
        for j, idx in enumerate(basis_order)
    )

    u = Polynomial.variable(n, u_index)
    v = Polynomial.variable(n, v_index)
    rows: list[tuple[Fraction, ...]] = []
    for product in (u * u, u * v, v * v):
        left = columns.residual(image(product.terms))
        if any(key[0] != -1 for key in left):
            raise InputError(
                "degree-2 rewrite inconsistent: a product is not in x*m "
                "(m^2 = x*m fails for this x)"
            )
        solution = [-left.get((-1, j), Fraction(0)) for j in range(len(basis_order))]
        # certify the rewrite: the residual must vanish in the quotient
        units = (tuple(int(i == idx) for i in range(n)) for idx in basis_order)
        linear = Polynomial(n, zip(units, solution))
        residual = normal_form(product - x * linear, bundle.gb)
        if not residual.is_zero:
            raise InputError("rewrite residual did not normal-form to zero")
        rows.append(tuple(solution))

    f_columns = {
        j: (rows[0][j], rows[1][j], rows[2][j]) for j in range(3, len(basis_order))
    }
    return ObstructionData(
        x_index=x_index,
        u_index=u_index,
        v_index=v_index,
        basis=tuple(basis_order),
        matrix=tuple(rows),
        f_columns=f_columns,
    )


def rewrite_in_xm(
    pres: RingPresentation,
    x_index: int,
    u_index: int,
    v_index: int,
    *,
    seed: int = 1,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> ObstructionData:
    """Rewrite u^2, uv, v^2 as x*(linear form) by exact degree-2 linear algebra.

    Variable indices refer to the presentation as given, which must already
    be minimal on the variable side (no eliminable linear generators).
    """
    bundle = analyze(pres, seed=seed, budgets=budgets)
    if bundle.presentation.nvars != pres.nvars:
        raise InputError(
            "presentation has eliminable linear generators; minimalize it first "
            "so variable indices are unambiguous"
        )
    return _rewrite_from_bundle(bundle, x_index, u_index, v_index)


def _best_effort_obstruction(bundle: Analysis) -> ObstructionData | None:
    """Attach rewrite data for the h = (1, n >= 3) verdict when a variable works."""
    n = bundle.presentation.nvars
    if n < 4:
        return None
    for x_idx in range(n):
        others = [i for i in range(n) if i != x_idx]
        try:
            return _rewrite_from_bundle(bundle, x_idx, others[0], others[1])
        except (InputError, BudgetError):
            continue
    return None


# ---------------------------------------------------------------------------
# the classifier


class _Context:
    """Mutable scratch state shared by the rule handlers of one classify run."""

    def __init__(self, bundle: Analysis, assumptions: frozenset[str], budgets: Budgets):
        self.bundle = bundle
        self.assumptions = assumptions
        self.budgets = budgets
        self.used: list[str] = []
        self.singularity: SingularityReport | None = None
        self.family: FamilyTag | None = None
        self.obstruction: ObstructionData | None = None

    def get_singularity(self) -> SingularityReport:
        if self.singularity is None:
            self.singularity = singular_locus(self.bundle, budgets=self.budgets)
        return self.singularity

    def report(
        self, verdict: Verdict, *rules: str, reason: str | None = None
    ) -> ClassificationReport:
        inv = self.bundle.invariants
        return ClassificationReport(
            verdict=verdict,
            invariants=inv,
            singularity=self.singularity,
            justification=_justify(rules),
            assumptions_used=tuple(dict.fromkeys(self.used)),
            family=self.family,
            obstruction=self.obstruction,
            reason=reason,
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
    out_of_scope with the budget failure as the reason.
    """
    try:
        bundle = analyze(pres, seed=seed, budgets=budgets)
    except BudgetError as exc:
        return ClassificationReport(
            verdict=Verdict.OUT_OF_SCOPE,
            invariants=None,
            singularity=None,
            justification=_justify(("budget-exceeded",)),
            assumptions_used=(),
            reason=str(exc),
        )
    ctx = _Context(bundle, frozenset(assumptions), budgets)
    inv = bundle.invariants

    if inv.is_regular:
        return ctx.report(Verdict.FINITE, "regular-ring")

    if not inv.is_cm:
        return ctx.report(
            Verdict.OUT_OF_SCOPE, "non-cm-input", reason="the ring is not Cohen-Macaulay"
        )

    if inv.dim == 0:
        if inv.is_hypersurface:
            return ctx.report(Verdict.FINITE, "dim0-hypersurface")
        return ctx.report(Verdict.UNCOUNTABLE, "dim0-hypersurface", "dim0-obstruction")

    try:
        if inv.dim == 1:
            return _classify_dim1(ctx)
        return _classify_dim_ge2(ctx)
    except BudgetError as exc:
        return ctx.report(Verdict.OUT_OF_SCOPE, "budget-exceeded", reason=str(exc))


def _classify_dim1(ctx: _Context) -> ClassificationReport:
    inv = ctx.bundle.invariants

    if inv.is_hypersurface:
        form = ctx.bundle.presentation.generators[0]
        profile = binary_form_profile(form)
        ctx.family = FamilyTag("binary_form", param=profile)
        if profile == (1, 1):
            return ctx.report(Verdict.FINITE, "dim1-two-lines", "dim1-hypersurface-list")
        if profile == (1, 1, 1):
            return ctx.report(Verdict.FINITE, "dim1-three-lines", "dim1-hypersurface-list")
        if profile == (2,):
            return ctx.report(
                Verdict.COUNTABLE_INFINITE,
                "dim1-a-infinity",
                "hypersurface-countable-iff",
                "completion-transfer",
            )
        if profile == (2, 1):
            return ctx.report(
                Verdict.COUNTABLE_INFINITE,
                "dim1-d-infinity",
                "hypersurface-countable-iff",
                "completion-transfer",
            )
        return ctx.report(
            Verdict.UNCOUNTABLE, "dim1-hypersurface-list", "hypersurface-countable-iff"
        )

    h = inv.hvector
    if len(h) == 2 and h[1] >= 3:
        ctx.obstruction = _best_effort_obstruction(ctx.bundle)
        return ctx.report(Verdict.UNCOUNTABLE, "dim1-h13")

    if len(h) == 2 and h[1] == 2:
        ctx.family = match_named_family(ctx.bundle.presentation)
        if ctx.family.kind == "gw12":
            return ctx.report(
                Verdict.COUNTABLE_INFINITE, "dim1-gw12", "completion-transfer"
            )
        if ctx.family.kind == "graded12":
            return ctx.report(Verdict.FINITE, "dim1-graded12")
        if "reduced" in ctx.assumptions:
            ctx.used.append("reduced_asserted")
        return ctx.report(
            Verdict.OPEN_UNKNOWN,
            "dim1-12-open",
            "dr-unsupported",
            reason="dr_unsupported",
        )

    if len(h) >= 3:
        return ctx.report(Verdict.UNCOUNTABLE, "dim1-possible-h")
    # h = (1) would make the ring regular; h = (1,1) would make I a height-1
    # unmixed ideal of k[x,y], which is principal, so R would be a hypersurface
    raise InputError(f"classify: impossible h-vector {h} for a non-hypersurface CM curve")


def _classify_dim_ge2(ctx: _Context) -> ClassificationReport:
    inv = ctx.bundle.invariants

    if inv.is_gorenstein:
        if inv.is_hypersurface:
            form = ctx.bundle.presentation.generators[0]
            if form.degree() == 2:
                rank = quadric_rank(form)
                n = inv.embdim
                ctx.family = FamilyTag("quadric", param=(rank, n))
                if rank == n:
                    return ctx.report(Verdict.FINITE, "quadric-a1", "gorenstein-minmult")
                if rank == n - 1:
                    return ctx.report(
                        Verdict.COUNTABLE_INFINITE,
                        "quadric-a-infinity",
                        "hypersurface-countable-iff",
                        "completion-transfer",
                    )
                return ctx.report(
                    Verdict.UNCOUNTABLE, "hypersurface-countable-iff", "quadric-a1"
                )
            return ctx.report(Verdict.UNCOUNTABLE, "hypersurface-countable-iff")
        return ctx.report(Verdict.OPEN_UNKNOWN, "gorenstein-open")

    # non-Gorenstein, dim >= 2
    if not inv.is_min_mult:
        if inv.dim >= 3:
            return ctx.report(Verdict.UNCOUNTABLE, "dim3-domain-minmult")
        sing = ctx.get_singularity()
        ctx.used.append("equidimensional_assumed")
        if sing.isolated:
            return ctx.report(Verdict.UNCOUNTABLE, "dim2-isolated-minmult")
        return ctx.report(Verdict.OPEN_UNKNOWN, "dim2-nonisolated-open")

    ctx.family = match_named_family(ctx.bundle.presentation)
    tag = ctx.family
    if tag.kind == "scroll":
        if len(tag.param) == 1:
            return ctx.report(Verdict.FINITE, "scroll-2dim-finite")
        if tag.param == (1, 2):
            return ctx.report(Verdict.FINITE, "dim3-special-finite")
        return ctx.report(Verdict.UNCOUNTABLE, "scroll-uncountable")
    if tag.kind == "veronese_cone":
        if tag.param == 5:
            return ctx.report(Verdict.FINITE, "dim3-special-finite")
        if tag.param == 6:
            return ctx.report(Verdict.OPEN_UNKNOWN, "veronese-cone-open")
        return ctx.report(Verdict.UNCOUNTABLE, "veronese-cone-big-singular")
    return ctx.report(
        Verdict.OPEN_UNKNOWN, "family-unmatched", reason="no_catalog_match"
    )
