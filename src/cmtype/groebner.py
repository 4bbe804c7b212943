"""Buchberger's algorithm, normal forms, initial ideals, minimal presentations.

Degrevlex is the one term order: leading terms, division and the reduced
basis all follow :func:`cmtype.poly.monomial_key`.  The engine is
deliberately deterministic: the normal selection strategy (minimal lcm
degree first, ties broken by the lexicographic pair index) and a canonical
output ordering make the reduced basis identical across runs and across
permutations of the input generators.  Pair pruning uses the
Gebauer-Moeller refinement of the Buchberger product and chain criteria.
Open pairs keep the lcm computed when they were made and wait in a heap
keyed by (lcm degree, pair index), so selection pops instead of rescanning.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, sub
from typing import ClassVar, Sequence

from . import linalg
from .errors import BudgetError, Budgets, DEFAULT_BUDGETS, InhomogeneousError, InputError
from .poly import (
    Monomial,
    Polynomial,
    VariableSet,
    _raw,
    heap_key,
    integer_multiple,
    monomial_degree,
    monomial_divides,
    monomial_lcm,
    monomial_key,
    monomial_mul,
    monomials_of_degree,
    polynomial_from_descending,
)
from .presentation import RingPresentation


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced degrevlex Groebner basis: monic elements in canonical
    (descending) order."""

    variables: VariableSet
    elements: tuple[Polynomial, ...]
    order: ClassVar[str] = "degrevlex"

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.leading_monomial() for g in self.elements)


def spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial of f and g up to a nonzero rational factor, which is all
    division and ``.monic()`` need: (cg/d)*x^qf*tail_f - (cf/d)*x^qg*tail_g
    from the two integer reducers, d = gcd(cf, cg), lcm = x^qf*lm_f = x^qg*lm_g."""
    mf, cf, tail_f = f.reducer()
    mg, cg, tail_g = g.reducer()
    lcm = monomial_lcm(mf, mg)
    qf, qg = tuple(map(sub, lcm, mf)), tuple(map(sub, lcm, mg))
    d = math.gcd(cf, cg)
    a, b = cg // d, cf // d
    terms = {tuple(map(add, m, qf)): a * c for m, c in tail_f}
    for m, c in tail_g:
        m = tuple(map(add, m, qg))
        if v := terms.get(m, 0) - b * c:
            terms[m] = v
        else:
            del terms[m]
    return _raw(f.nvars, terms)


def normal_form(p: Polynomial, basis) -> Polynomial:
    """Full remainder of p under division by the basis (no term divisible by a
    leading term survives).  Against a Groebner basis the result is the unique
    normal form; in particular it is zero exactly for ideal members.

    The leading remaining term is always divided by the first basis element
    whose leading monomial divides it.  The division runs in one dict of
    integers: ``work`` starts as the primitive integer multiple of p, each
    step cancels the leading term against the primitive integer multiple of
    the divisor, and the rational ``scale`` with ``p == scale * work + (ideal
    multiples) + remainder`` absorbs every multiplier and removed content.
    Remainder terms leave as ``scale * c``, so the result is exactly the
    rational remainder of dividing p itself.
    """
    elements = basis.elements if isinstance(basis, GroebnerBasis) else basis
    elements = tuple(g for g in elements if not g.is_zero)
    if not elements:
        return p
    if any(g.nvars != p.nvars for g in elements):
        raise InputError("polynomials are over different variable sets")
    reducers = [g.reducer() for g in elements]
    scale, work = integer_multiple(p.terms)
    heap = [(heap_key(m), m) for m in work]
    heapq.heapify(heap)
    remainder: dict[Monomial, Fraction] = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, 0)
        if not c:  # stale: the monomial cancelled after it was pushed
            continue
        for lm, lc, tail in reducers:
            if all(map(le, lm, m)):
                break
        else:
            remainder[m] = scale * c
            continue
        q = tuple(map(sub, m, lm))
        g = math.gcd(c, lc)
        a, b = lc // g, c // g
        if a != 1:
            for t in work:
                work[t] *= a
            scale /= a
        for t, d in tail:
            t = tuple(map(add, t, q))
            v = work.get(t)
            if v is None:
                work[t] = -b * d
                heapq.heappush(heap, (heap_key(t), t))
            elif v := v - b * d:
                work[t] = v
            else:
                del work[t]
        if a != 1 and (content := math.gcd(*work.values())) > 1:
            for t in work:
                work[t] //= content
            scale *= content
    return polynomial_from_descending(p.nvars, remainder)


def buchberger(pres: RingPresentation, *, budgets: Budgets = DEFAULT_BUDGETS) -> GroebnerBasis:
    """Reduced degrevlex Groebner basis of the ideal; it depends on the ideal
    only, not on how its generators are listed or scaled.

    Each open pair (i, j) stores the lcm of its leading monomials once, in
    ``lcms``, and enters the heap ``queue`` under (lcm degree, i, j); the pop
    is the pair of least lcm degree, ties broken by the smaller index pair.
    Adding an element computes its lcm with each earlier leading monomial
    once and prunes open pairs by the chain criterion against the stored
    lcms; pruned pairs stay in the heap and are skipped when popped.
    """
    gens = [g.monic() for g in pres.generators]

    basis: list[Polynomial] = []
    leads: list[Monomial] = []
    lcms: dict[tuple[int, int], Monomial] = {}  # open pairs and their lcms
    queue: list[tuple[int, int, int]] = []  # (lcm degree, i, j), pruned pairs included

    def update(f: Polynomial):
        # Gebauer-Moeller pair pruning (product + chain criteria).
        mf = f.leading_monomial()
        t = len(basis)
        new_lcms = [monomial_lcm(lead, mf) for lead in leads]
        for (i, j), lcm in list(lcms.items()):
            if monomial_divides(mf, lcm) and lcm != new_lcms[i] and lcm != new_lcms[j]:
                del lcms[i, j]
        by_lcm: dict[Monomial, list[int]] = {}
        for i, lcm in enumerate(new_lcms):
            by_lcm.setdefault(lcm, []).append(i)
        minimal: list[Monomial] = []
        for lcm in sorted(by_lcm, key=monomial_key):
            if not any(monomial_divides(seen, lcm) for seen in minimal):
                minimal.append(lcm)
        for lcm in minimal:
            members = by_lcm[lcm]
            if not any(lcm == monomial_mul(leads[i], mf) for i in members):
                i = min(members)
                lcms[i, t] = lcm
                heapq.heappush(queue, (monomial_degree(lcm), i, t))
        basis.append(f)
        leads.append(mf)

    for f in gens:
        update(f)

    processed = 0
    while lcms:
        lcm_degree, i, j = heapq.heappop(queue)
        if (i, j) not in lcms:  # pruned by the chain criterion after it was queued
            continue
        if lcm_degree > budgets.degree:
            raise BudgetError(
                f"buchberger: S-pair degree {lcm_degree} exceeds the degree budget {budgets.degree}"
            )
        processed += 1
        if processed > budgets.pairs:
            raise BudgetError(f"buchberger: pair budget {budgets.pairs} exceeded")
        del lcms[i, j]
        h = normal_form(spoly(basis[i], basis[j]), basis)
        if h:
            update(h.monic())

    return GroebnerBasis(pres.variables, _interreduce(basis))


def _interreduce(elements: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
    """Minimalize (drop divisible leading terms) and tail-reduce; canonical sort."""
    minimal: list[Polynomial] = []
    for g in sorted(elements, key=lambda g: monomial_key(g.leading_monomial())):
        lm = g.leading_monomial()
        if not any(monomial_divides(h.leading_monomial(), lm) for h in minimal):
            minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        reduced.append(normal_form(g, others).monic())
    reduced.sort(key=lambda g: monomial_key(g.leading_monomial()), reverse=True)
    return tuple(reduced)


def initial_ideal(gb: GroebnerBasis) -> RingPresentation:
    """The monomial ideal of leading terms; its quotient shares the Hilbert
    function of the original quotient."""
    n = gb.nvars
    gens = tuple(Polynomial(n, [(m, 1)]) for m in gb.leading_monomials())
    return RingPresentation(gb.variables, gens)


# ---------------------------------------------------------------------------
# minimal presentations


# Cap on the monomial multiples of one kept generator that the minimal-generator
# echelon materializes in one degree; more raises BudgetError instead of
# exhausting time and memory (x^2, y^100000000 would need 10^8 of them).
MAX_SEED_MULTIPLES = 20_000


def _minimal_homogeneous_generators(
    gens: Sequence[Polynomial], nvars: int
) -> list[Polynomial]:
    """Prune to a minimal homogeneous generating set.

    Degree by degree: a generator of degree d is redundant exactly when it
    lies in the span of the degree-d monomial multiples of the generators
    kept so far (lower degrees cannot be helped by higher ones in the
    homogeneous setting).  For each degree one exact sparse echelon is seeded
    with the multiples of the lower-degree generators kept; the degree-d
    generators are then reduced into it in ``sort_key`` order, and each is
    kept exactly when it leaves a nonzero residual, so duplicates and
    combinations of earlier generators drop out.
    """
    kept: list[Polynomial] = []
    degree = None
    for g in sorted(gens, key=lambda g: g.sort_key()):
        d = g.degree()
        if d != degree:
            degree = d
            echelon = linalg.Echelon()
            for h in kept:
                shift = d - h.degree()
                count = math.comb(nvars + shift - 1, shift)
                if count > MAX_SEED_MULTIPLES:
                    raise BudgetError(
                        f"minimalize_presentation: degree {d} needs {count} multiples "
                        f"of a degree-{h.degree()} generator (cap {MAX_SEED_MULTIPLES})"
                    )
                for m in monomials_of_degree(nvars, shift):
                    echelon.add(h.mul_term(m, 1).terms)
        if echelon.add(g.terms):
            kept.append(g)
    return kept


def minimalize_presentation(pres: RingPresentation) -> RingPresentation:
    """Minimal presentation of the same graded ring.

    Every generator with a nonzero linear part (for a homogeneous ideal, a
    linear form) is eliminated by substituting out its leading variable; the
    remaining generators are pruned to a minimal homogeneous generating set.
    The variable count of the result is the embedding dimension.
    """
    if not pres.homogeneous:
        raise InhomogeneousError("minimalize_presentation requires a homogeneous ideal")
    variables = pres.variables
    gens = list(pres.generators)

    while True:
        gens = [g for g in gens if not g.is_zero]
        linear = next((g for g in gens if g.degree() == 1), None)
        if linear is None:
            break
        lm, lc = linear.leading_term()
        i = lm.index(1)
        # x_i = x_i - linear/lc has no x_i left; substitute it everywhere.
        replacement = Polynomial.variable(len(variables), i) - linear * (1 / lc)
        gens = [g.substitute(i, replacement) for g in gens if g is not linear]
        gens = [g.drop_variable(i) for g in gens]
        variables = variables.drop(i)

    minimal = _minimal_homogeneous_generators(gens, len(variables))
    return RingPresentation(variables, tuple(minimal), minimalized=True, warnings=pres.warnings)
