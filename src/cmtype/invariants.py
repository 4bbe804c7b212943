"""Hilbert series, dimension, h-vector, multiplicity, and Cohen-Macaulay data.

The pipeline is: reduced Groebner basis -> its leading monomials -> Hilbert
numerator (pivot-variable recursion on the minimal ones) -> exact deflation by
(1-t) to read off dimension and h-vector.  The Hilbert function, the
coprime shortcut of the numerator and the standard monomials of
:class:`Quotient` use the expansion and the enumerator of
:mod:`cmtype.groebner`, the same ones its pair-discarding bound reads.
Cohen-Macaulayness is decided by comparing the length of a verified artinian
reduction with the multiplicity, and the Cohen-Macaulay type is the socle
dimension of that reduction.  Each trial basis of the reduction is computed
in n - k variables, with the k linear forms substituted away, and the socle
is read off the final one.
"""

from __future__ import annotations

import functools
import random
from itertools import accumulate
from typing import NamedTuple, Sequence

from . import linalg
from .errors import (
    BudgetError,
    Budgets,
    DEFAULT_BUDGETS,
    InhomogeneousError,
    InputError,
    LsopSearchError,
)
from .groebner import (
    DivisorSet,
    GroebnerBasis,
    _standard_monomials,
    buchberger,
    eliminate_linear_forms,
    hilbert_coefficient,
    minimalize_presentation,
    normal_form,
    numerator_product,
)
from .poly import (
    Monomial,
    Polynomial,
    from_ints,
    minimal_monomials,
    monomial_degree,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    side_by_side,
    unit_vectors,
)
from .presentation import RingPresentation


# ---------------------------------------------------------------------------
# Hilbert numerators for monomial ideals


def _strip(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs or [0]


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _numerator(gens: tuple[Monomial, ...], nvars: int) -> list[int]:
    """The numerator of S/(gens) for minimal generators: those free of the
    pivot plus the pivot variable stay minimal, so only the colon is
    minimalized before its recursion."""
    if not gens:
        return [1]
    if any(monomial_degree(m) == 0 for m in gens):
        return [0]
    # pairwise coprime generators form a regular sequence
    counts = [0] * nvars
    for m in gens:
        for i, e in enumerate(m):
            if e:
                counts[i] += 1
    if all(c <= 1 for c in counts):
        degrees = [monomial_degree(m) for m in gens]
        return numerator_product([1], degrees, sum(degrees))
    pivot = counts.index(max(counts))
    plus = tuple(m for m in gens if m[pivot] == 0)
    pivot_mono = tuple(1 if i == pivot else 0 for i in range(nvars))
    colon = tuple(
        tuple(e - 1 if i == pivot and e > 0 else e for i, e in enumerate(m)) for m in gens
    )
    n_plus = _numerator(plus + (pivot_mono,), nvars)
    n_colon = _numerator(minimal_monomials(colon), nvars)
    return _poly_add(n_plus, [0] + n_colon)


# Cap on the degree of a Hilbert numerator, whose coefficient lists are dense:
# x^100000000*y - y^100000001 would need a factor 1 - t^100000001.
MAX_NUMERATOR_DEGREE = 10_000


def hilbert_numerator(monomials: Sequence[Monomial], nvars: int) -> list[int]:
    """N(t) with the Hilbert series of S/(monomials) equal to N(t)/(1-t)^nvars."""
    gens = minimal_monomials(monomials)
    # Every term of N(t) is +-t^deg lcm(S) for a set S of minimal generators
    # (the Taylor resolution), so deg lcm(all) bounds its degree.
    bound = monomial_degree(functools.reduce(monomial_lcm, gens, (0,) * nvars))
    if bound > MAX_NUMERATOR_DEGREE:
        raise BudgetError(
            f"hilbert_numerator: degree bound {bound} exceeds the cap {MAX_NUMERATOR_DEGREE}"
        )
    return _strip(_numerator(gens, nvars))


# ---------------------------------------------------------------------------
# Hilbert series and deflation


class HilbertSeries(NamedTuple):
    """N(t)/(1-t)^nvars together with its exact deflation data."""

    numerator: tuple[int, ...]
    nvars: int
    dim: int
    hvector: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return sum(self.hvector)

    def hilbert_function(self, d: int) -> int:
        """dim_k of the degree-d piece of the quotient."""
        return hilbert_coefficient(self.numerator, self.nvars, d)


def _deflate(numerator: list[int]) -> tuple[int, list[int]]:
    """Divide by (1-t) as often as it divides exactly; return (count, quotient)."""
    coeffs = _strip(list(numerator))
    count = 0
    while sum(coeffs) == 0 and any(coeffs):
        coeffs = _strip(list(accumulate(coeffs))[:-1])
        count += 1
    return count, coeffs


def hilbert_series_from_gb(gb: GroebnerBasis) -> HilbertSeries:
    numerator = hilbert_numerator(gb.leading_monomials(), gb.nvars)
    if all(c == 0 for c in numerator):
        raise InputError("the ideal is the unit ideal; not a graded ring presentation")
    deflations, hvec = _deflate(numerator)
    return HilbertSeries(
        numerator=tuple(numerator),
        nvars=gb.nvars,
        dim=gb.nvars - deflations,
        hvector=tuple(hvec),
    )


def _require_homogeneous(pres: RingPresentation):
    if not pres.homogeneous:
        raise InhomogeneousError("invariant computations require a homogeneous ideal")


def _require_proper(pres: RingPresentation):
    if any(g.degree() == 0 for g in pres.generators):
        raise InputError("a degree-0 generator makes the ideal the unit ideal")


# ---------------------------------------------------------------------------
# the quotient S/I over a reduced Groebner basis


class Quotient:
    """The graded pieces of S/I, read through its reduced Groebner basis.

    ``basis(d)`` lists the standard monomials of degree d, a k-basis of the
    degree-d piece, grown from the packed ones of degree d - 1 by the
    enumerator that ``buchberger`` counts with, against the packed leads of
    ``divisors``, and unpacked; ``normal(m)`` is the normal form of the
    monomial m, a :class:`Polynomial` over those monomials, and the one view
    of a form: every product the Jacobian minors, the socle and the degree-2
    rewrite reduce is a monomial.  A standard monomial, one no leading
    monomial divides, is its own normal form and is answered without
    division.  Both memoize, so each monomial is divided once, and every
    division runs against one :class:`~cmtype.groebner.DivisorSet`,
    ``divisors``, which packs the basis on first use and is kept, so no
    form pays the packing again; the degree-2 rewrite divides by it too.
    ``normal`` looks ``normal_form`` up in this module at every call, so a
    rebinding of ``invariants.normal_form`` (a tracer, a counter) sees it.
    """

    def __init__(self, gb: GroebnerBasis):
        self.gb = gb
        self._leads = gb.leading_monomials()
        self._bases: list[list[Monomial]] = []  # degrees 0, 1, ...
        self._forms: dict[Monomial, Polynomial] = {}

    @functools.cached_property
    def divisors(self) -> DivisorSet:
        return DivisorSet(self.gb.nvars, self.gb.elements)

    def basis(self, d: int) -> list[Monomial]:
        while len(self._bases) <= d:
            standard = _standard_monomials(self.divisors, len(self._bases))
            self._bases.append(list(self.divisors.unpacked(dict.fromkeys(standard))))
        return self._bases[d] if d >= 0 else []

    def normal(self, m: Monomial) -> Polynomial:
        nf = self._forms.get(m)
        if nf is None:
            # a standard monomial is its own normal form
            nf = from_ints(self.gb.nvars, {m: 1}, lead=m, primitive=True)
            if any(monomial_divides(lead, m) for lead in self._leads):
                nf = normal_form(nf, self.divisors)
            self._forms[m] = nf
        return nf

    def kernel_dim(self, d: int, monomials: Sequence[Monomial]) -> int:
        """dim_k of the kernel of R_d -> R_{d+1}^k, b |-> (b*m)_m, for k
        degree-one monomials m: one vector per standard monomial b, the
        forms of every b*m side by side.  All of R_d when R_{d+1} = 0."""
        basis = self.basis(d)
        if not self.basis(d + 1):
            return len(basis)
        images = linalg.Echelon(
            side_by_side([self.normal(monomial_mul(b, m)) for m in monomials])[0] for b in basis
        )
        return len(basis) - len(images.rows)


# ---------------------------------------------------------------------------
# artinian reductions


class ArtinianReduction(NamedTuple):
    """A verified linear system of parameters and the resulting quotient data."""

    lsop: tuple[Polynomial, ...]
    standard_monomial_counts: tuple[int, ...]
    length: int
    seed: int


def artinian_reduction(
    minimal: RingPresentation,
    gb: GroebnerBasis,
    series: HilbertSeries,
    seed: int = 1,
    *,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> tuple[ArtinianReduction, GroebnerBasis]:
    """Quotient by `dim` verified generic linear forms.

    `minimal` is a minimal presentation and `gb`/`series` its reduced Groebner
    basis and Hilbert series, as :func:`analyze` computes them.  Returns the
    reduction and the reduced basis of the artinian ring: that of I' in the
    n - k variables left once :func:`eliminate_linear_forms` has substituted
    away the forms l_1..l_dim of rank k, or `gb` itself when the ring is
    already artinian.  S/(I + L) and S'/I' are the same graded ring, so the
    h-vector, the length and the socle are those of S/(I + L).

    The forms are those of a sequential search: step k draws candidates from
    a deterministic generator, attempt j with integer coefficients in
    [-(1+j), 1+j] (the documented widening schedule), and accepts the first
    that drops the dimension by exactly one; a degenerate input exhausts the
    20 attempts of a step and raises LsopSearchError.

    One basis usually settles it.  The fast path draws the first nonzero
    candidate of every step and computes the basis of I + (l_1..l_dim) alone.
    A linear form lowers the dimension by at most one (Krull's principal
    ideal theorem), so if that quotient has dimension 0, every prefix dropped
    it by exactly one: the sequential search would have accepted the same
    forms and ended at the same ideal.  Otherwise the sequential search runs
    from the seed again; its trials share a memo keyed by the forms, which
    holds the fast path's basis, so an ideal is never computed twice.
    Either way the result is exact, not probabilistic.  Every trial basis
    is computed in the variables its forms leave, from the projected
    generators of I, with the ring's numerator as ``buchberger``'s bound:
    by Froeberg's inequality HS(S/(I + L)) >=_lex HS(S/I) (1-t)^k, which is
    N(t)/(1-t)^(n-k), a lex lower bound for HS(S'/I').
    """
    bases = {(): (gb, series)}
    numerator = series.numerator

    def basis_of(forms: tuple[Polynomial, ...]) -> tuple[GroebnerBasis, HilbertSeries]:
        if forms not in bases:
            variables, projected = eliminate_linear_forms(minimal.variables, forms, minimal.generators)
            trial_pres = RingPresentation(variables, projected)
            trial_gb = buchberger(trial_pres, budgets=budgets, numerator=numerator)
            bases[forms] = trial_gb, hilbert_series_from_gb(trial_gb)
        return bases[forms]

    rng = random.Random(seed)
    forms = tuple(next(_candidates(rng, minimal.nvars), None) for _ in range(series.dim))
    if None in forms or basis_of(forms)[1].dim != 0:
        forms = _sequential_search(minimal, series.dim, seed, basis_of)
    gb, series = basis_of(forms)
    if series.dim != 0:
        raise InputError("artinian reduction failed to reach dimension zero")
    reduction = ArtinianReduction(
        lsop=forms,
        standard_monomial_counts=series.hvector,
        length=series.multiplicity,
        seed=seed,
    )
    return reduction, gb


def _candidates(rng: random.Random, nvars: int):
    """The candidate forms of one step of the search, drawn lazily: attempt j
    draws coefficients in [-(1+j), 1+j] and skips an all-zero draw."""
    for attempt in range(20):
        bound = 1 + attempt
        coeffs = [rng.randint(-bound, bound) for _ in range(nvars)]
        if any(coeffs):
            yield from_ints(nvars, {m: c for m, c in zip(unit_vectors(nvars), coeffs) if c})


def _sequential_search(minimal: RingPresentation, dim: int, seed: int, basis_of) -> tuple[Polynomial, ...]:
    """Accept, step by step, the first candidate that drops the dimension by one."""
    rng = random.Random(seed)
    chosen: list[Polynomial] = []
    for step in range(dim):
        for form in _candidates(rng, minimal.nvars):
            if basis_of((*chosen, form))[1].dim == dim - step - 1:
                chosen.append(form)
                break
        else:
            raise LsopSearchError(
                f"artinian_reduction: no linear parameter found after 20 attempts (dim {dim - step})"
            )
    return tuple(chosen)


# ---------------------------------------------------------------------------
# socle and Cohen-Macaulay type


def _socle_dimension(quotient: Quotient) -> int:
    """dim_k (0 : m) of an artinian quotient: per degree, the kernel of
    multiplication by every variable into the next degree (the top degree
    is all socle)."""
    units = unit_vectors(quotient.gb.nvars)
    total = d = 0
    while quotient.basis(d):
        total += quotient.kernel_dim(d, units)
        d += 1
    return total


# ---------------------------------------------------------------------------
# the assembled invariants


class RingInvariants(NamedTuple):
    dim: int
    embdim: int
    hvector: tuple[int, ...]
    multiplicity: int
    is_cm: bool
    cm_type: int | None
    is_gorenstein: bool | None
    is_min_mult: bool
    is_hypersurface: bool
    is_regular: bool


class Analysis(NamedTuple):
    """Everything the pipeline computes about one ring, built only by :func:`analyze`.

    Consumers (the singular locus, the family matcher, the degree-2 rewrite,
    the classifier, the CLI) take it instead of recomputing, so each ideal
    gets one reduced Groebner basis per run: `presentation` is minimal and
    `quotient` the view of S/I over its basis (`quotient.gb`), whose
    memoized normal forms the consumers share.
    """

    presentation: RingPresentation
    quotient: Quotient
    series: HilbertSeries
    reduction: ArtinianReduction
    invariants: RingInvariants


def analyze(
    pres: RingPresentation,
    seed: int = 1,
    *,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> Analysis:
    """Minimalize `pres` (a minimal `pres` comes back equal) and run the
    invariant pipeline on it, once.

    The only producer of :class:`Analysis`; the artinian reduction reuses
    `gb` and `series` and hands back the basis of its final trial, over the
    variables its forms leave, on which the socle is computed.
    """
    _require_homogeneous(pres)
    _require_proper(pres)
    minimal = minimalize_presentation(pres)
    _require_proper(minimal)
    gb = buchberger(minimal, budgets=budgets)
    series = hilbert_series_from_gb(gb)
    reduction, artinian_gb = artinian_reduction(minimal, gb, series, seed=seed, budgets=budgets)
    e = series.multiplicity
    is_cm = reduction.length == e
    cm_type = _socle_dimension(Quotient(artinian_gb)) if is_cm else None
    is_gorenstein = (cm_type == 1) if is_cm else None
    embdim = minimal.nvars
    invariants = RingInvariants(
        dim=series.dim,
        embdim=embdim,
        hvector=series.hvector,
        multiplicity=e,
        is_cm=is_cm,
        cm_type=cm_type,
        is_gorenstein=is_gorenstein,
        is_min_mult=len(series.hvector) <= 2,
        is_hypersurface=len(minimal.generators) <= 1,
        is_regular=len(minimal.generators) == 0,
    )
    return Analysis(minimal, Quotient(gb), series, reduction, invariants)
