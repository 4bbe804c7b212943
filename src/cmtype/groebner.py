"""Buchberger's algorithm, normal forms, minimal presentations.

Degrevlex is the one term order: leading terms, division and the reduced
basis all follow :func:`cmtype.poly.monomial_key`.  The engine is
deliberately deterministic: the normal selection strategy (minimal lcm
degree first, ties broken by the lexicographic pair index) and a canonical
output ordering make the reduced basis identical across runs and across
permutations of the input generators.  Pair pruning uses the
Gebauer-Moeller refinement of the Buchberger product and chain criteria.
Open pairs keep the lcm computed when they were made and wait in a heap
keyed by (lcm degree, pair index), so selection pops instead of rescanning.
On homogeneous input a pair whose degree a lower bound on the Hilbert series
already settles is discarded unreduced (Traverso, J. Symb. Comp. 1996, with
the lex form of Froeberg's inequality, Math. Scand. 56, 1985).

Division runs in integers on packed monomials (Bachmann-Schoenemann, ISSAC
1998; the heap of Monagan-Pearce, J. Symb. Comp. 46, 2011): a
:class:`DivisorSet` packs each element of a basis once, as a primitive
integer map over monomials of one int each.  ``buchberger`` stays packed
from its generators to its reduced basis: it divides each S-pair of packed
entries into a packed remainder that joins the set as it is, counts the
standard monomials of its Hilbert bound against the packed leads, and
interreduces the entries in ascending lead order, each by the reduced ones
before it, making polynomials only of the reduced elements.  The quotient
view of :mod:`cmtype.invariants` keeps one set for all its forms and
standard monomials.

The module also holds the one expansion of a Hilbert series
(:func:`hilbert_coefficient`, :func:`numerator_product`) and the one
standard-monomial enumerator, on packed monomials, which
:mod:`cmtype.invariants` shares.
"""

from __future__ import annotations

import heapq
import math
from itertools import chain
from typing import NamedTuple, Sequence

from . import linalg
from .errors import BudgetError, Budgets, DEFAULT_BUDGETS, InhomogeneousError, InputError
from .poly import (
    Monomial,
    Polynomial,
    from_ints,
    minimal_monomials,
    monomial_degree,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    monomials_of_degree,
)
from .presentation import RingPresentation


class GroebnerBasis(NamedTuple):
    """A reduced degrevlex Groebner basis: monic elements in canonical
    (descending) order."""

    variables: tuple[str, ...]
    elements: tuple[Polynomial, ...]
    order = "degrevlex"  # unannotated: a class attribute, not a field

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.lead for g in self.elements)


class DivisorSet:
    """The nonzero elements of a basis, each packed once for division.

    A monomial is one int: each exponent gets a field of ``width`` bits,
    the variable i at bit i * width, and the total degree the field above
    them; the top bit of every field is a guard bit, 0 in every packed
    monomial.  A product of monomials is then their sum, the quotient of a
    divisible pair their difference, ``lm | m`` the one test ``((m | guard)
    - lm) & guard == guard`` (no field of m | guard borrows from the next),
    and ``2 * (m & mask) - m`` an ascending degrevlex key for a min-heap:
    minus the degree field, plus the exponents from the last variable down.
    In degrevlex no term exceeds the degree of its polynomial's lead, so the
    largest degree the set must hold fixes the width: the fields hold up to
    2^(width-1) - 1, and a larger degree moves every packed field wider.

    ``entries[k]`` is the k-th element as a primitive integer map: its
    packed lead, its positive coefficient there, and its other terms as
    packed pairs.  No polynomial is kept: the set is built from polynomials
    and :meth:`add` appends packed remainders.  ``standard`` is the packed
    list of the last degree :func:`_standard_monomials` counted against the
    set, repacked with it.
    """

    def __init__(self, nvars: int, elements=(), degree: int = 0):
        self.nvars = nvars
        elements = [g for g in elements if g]
        if any(g.nvars != nvars for g in elements):
            raise InputError("polynomials are over different variable sets")
        self.entries, self.standard, self.width = [], [], 1
        self._layout(max([degree, *(g.degree() for g in elements)]))
        pack = self.pack
        for g in elements:
            lead = g.lead
            self.entries.append((pack(lead), g.ints[lead], [(pack(m), c) for m, c in g.ints.items() if m != lead]))

    def _layout(self, degree: int):
        """The narrowest fields that hold the degree; every packed entry and
        standard monomial moves its fields there."""
        old, field = self.width, (1 << self.width) - 1
        width = self.width = degree.bit_length() + 1
        moves = [(k * old, k * width) for k in range(self.nvars + 1)]

        def repack(m):
            return sum((m >> s & field) << t for s, t in moves)

        self.cap = (1 << width - 1) - 1
        self.shift = self.nvars * width  # the degree field
        self.mask = (1 << self.shift) - 1
        self.guard = sum(1 << k * width + width - 1 for k in range(self.nvars + 1))
        self.entries = [(repack(lm), lc, [(repack(t), c) for t, c in tail]) for lm, lc, tail in self.entries]
        self.standard = [repack(m) for m in self.standard]

    def fit(self, degree: int):
        """Repack wider if the fields cannot hold the degree."""
        if degree > self.cap:
            self._layout(degree)

    def add(self, ints: dict[int, int]):
        """Append a nonzero packed map led by its first key, as
        :func:`normal_form` returns it, made primitive with a positive lead."""
        (lead, lc), *tail = ints.items()
        content = math.gcd(*ints.values()) if lc > 0 else -math.gcd(*ints.values())
        self.entries.append((lead, lc // content, [(m, c // content) for m, c in tail]))

    def pack(self, m: Monomial) -> int:
        width, packed = self.width, sum(m)
        for e in reversed(m):
            packed = packed << width | e
        return packed

    def unpack(self, m: int) -> Monomial:
        field = (1 << self.width) - 1
        return tuple([m >> s & field for s in range(0, self.shift, self.width)])

    def unpacked(self, ints: dict[int, int]) -> dict[Monomial, int]:
        """A packed integer map over exponent tuples, in the same order."""
        shifts, field = range(0, self.shift, self.width), (1 << self.width) - 1
        return {tuple([m >> s & field for s in shifts]): c for m, c in ints.items()}

    def spoly(self, i: int, j: int, lcm: Monomial) -> dict[int, int]:
        """The S-polynomial of elements i and j, whose leads have the lcm,
        up to a nonzero rational factor, as a packed integer map:
        (cg/d)*x^qf*f - (cf/d)*x^qg*g over the primitive maps, d = gcd(cf,
        cg) of their leading coefficients, lcm = x^qf*lead_f = x^qg*lead_g."""
        self.fit(sum(lcm))
        lcm = self.pack(lcm)
        (lf, cf, tail_f), (lg, cg, tail_g) = self.entries[i], self.entries[j]
        d = math.gcd(cf, cg)
        a, b, qf, qg = cg // d, -cf // d, lcm - lf, lcm - lg
        out = {t + qf: a * c for t, c in tail_f}
        for t, c in tail_g:
            t += qg
            if v := out.get(t, 0) + b * c:
                out[t] = v
            else:
                del out[t]
        return out


def spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial of f and g up to a nonzero rational factor, which is all
    division and ``.monic()`` need; see :meth:`DivisorSet.spoly`."""
    divisors = DivisorSet(f.nvars, (f, g))
    return from_ints(f.nvars, divisors.unpacked(divisors.spoly(0, 1, monomial_lcm(f.lead, g.lead))))


def normal_form(p: Polynomial | dict[int, int], basis) -> Polynomial | dict[int, int]:
    """Full remainder of p under division by the basis (no term divisible by a
    leading term survives).  Against a Groebner basis the result is the unique
    normal form; in particular it is zero exactly for ideal members.

    The basis is a :class:`DivisorSet`, or a sequence of polynomials or a
    :class:`GroebnerBasis`, packed for this one call.  A Polynomial p gives
    a Polynomial.  A packed integer map of the set's layout (an S-pair, an
    entry to interreduce) gives its remainder up to a nonzero rational
    factor as a packed map in pop order, led by its first key.  The leading
    remaining term is divided by the first element whose lead divides it:
    ``work`` starts as the integer map of p, each step subtracts a multiple
    of the divisor's tail that cancels the leading term, and terms no lead
    divides move to ``remainder``.  A step that multiplies ``work`` by a =
    lc / gcd(c, lc) multiplies ``remainder`` too, then divides both by the
    gcd of a and all their coefficients, folded from a until it reaches 1:
    only the multiplier's content is stripped, as the remainder is made
    primitive at the end anyway.  The integers ``num`` and ``den`` with ``p
    == scale * num / den * (work + remainder) + (ideal multiples)`` absorb
    both.
    """
    if isinstance(basis, DivisorSet):
        divisors = basis
    else:
        divisors = DivisorSet(p.nvars, basis.elements if isinstance(basis, GroebnerBasis) else basis, p.degree())
    if isinstance(p, Polynomial):
        if not divisors.entries:
            return p
        if p.nvars != divisors.nvars:
            raise InputError("polynomials are over different variable sets")
        divisors.fit(p.degree())
        pack = divisors.pack
        work = {pack(m): c for m, c in p.ints.items()}
    else:
        work = dict(p)
    entries, guard, mask, shift = divisors.entries, divisors.guard, divisors.mask, divisors.shift
    gcd, heappop, heappush = math.gcd, heapq.heappop, heapq.heappush
    heap = [2 * (m & mask) - m for m in work]
    heapq.heapify(heap)
    remainder: dict[int, int] = {}
    num = den = 1
    while heap:
        key = heappop(heap)
        m = key - (key >> shift << shift + 1)  # the monomial back from its key
        c = work.get(m)
        if c is None:  # stale: the monomial cancelled after it was pushed
            continue
        for lm, lc, tail in entries:
            if (m | guard) - lm & guard == guard:
                break
        else:
            remainder[m] = work.pop(m)
            continue
        del work[m]  # cancelled by the divisor's leading term
        q = m - lm
        g = gcd(c, lc)
        a, b = lc // g, c // g
        if a != 1:
            for t in work:
                work[t] *= a
            for t in remainder:
                remainder[t] *= a
            den *= a
        # inline, not add_scaled: a monomial new to work goes onto the heap
        for t, d in tail:
            t += q
            v = work.get(t)
            if v is None:
                work[t] = -b * d
                heappush(heap, 2 * (t & mask) - t)
            elif v := v - b * d:
                work[t] = v
            else:
                del work[t]
        if a != 1:
            for v in chain(work.values(), remainder.values()):
                if (a := gcd(a, v)) == 1:
                    break
            else:
                for t in work:
                    work[t] //= a
                for t in remainder:
                    remainder[t] //= a
                num *= a
    if isinstance(p, Polynomial):
        ints = divisors.unpacked(remainder)
        return from_ints(p.nvars, ints, p.scale * num / den, next(iter(ints), None))  # popped first: the lead
    return remainder


def buchberger(
    pres: RingPresentation, *, budgets: Budgets = DEFAULT_BUDGETS, numerator: Sequence[int] | None = None
) -> GroebnerBasis:
    """Reduced degrevlex Groebner basis of the ideal; it depends on the ideal
    only, not on how its generators are listed or scaled.

    Each open pair (i, j) stores the lcm of its leading monomials once, in
    ``lcms``, and enters the heap ``queue`` under (lcm degree, i, j); the pop
    is the pair of least lcm degree, ties broken by the smaller index pair.
    Adding an element computes its lcm with each earlier leading monomial
    once and prunes open pairs by the chain criterion against the stored
    lcms; pruned pairs stay in the heap and are skipped when popped.

    Homogeneous input discards the pairs that provably reduce to zero
    (Traverso 1996), reading a lex lower bound B = N(t)/(1-t)^n on HS(S/I).
    A given ``numerator`` is N, which the caller vouches for.  By default N
    is prod_j (1 - t^{d_j}) over the generators g_1..g_r of degrees d_j
    (Froeberg 1985), by induction from J_0 = 0, where the bound is equal:
    with J_j = (g_1..g_j), HS_j = (1 - t^{d_j}) HS_{j-1} + t^{d_j}
    HS((J_{j-1} : g_j)/J_{j-1}), where (1 - t^{d_j}) keeps the sign of the
    first nonzero coefficient of HS_{j-1} - B_{j-1} and the added term is
    >= 0.  Pops come in degree order and G lies in I, so in(G) has at least
    H_{S/I}(e) standard monomials of degree e.  If it meets B in every degree
    below d, then H_{S/I} = B there and H_{S/I}(d) >= B(d); so once in(G)
    has B(d) standard monomials of degree d, in(G)_d = in(I)_d and every
    remaining pair of degree d reduces to zero.  Each new element of degree d
    takes one standard monomial away, so a degree is counted once.  The rule
    stops at the first completed degree that misses B, or where B < 0.
    B(d) is ``hilbert_coefficient`` of N truncated at ``budgets.degree``, as
    a pair above that degree raises first, or at ``MAX_BOUND_DEGREE``, where
    the rule stops.
    Discarded pairs count against ``budgets.pairs``, and the reduced basis
    is unique, so the result does not change.
    """
    gens = pres.generators
    divisors = DivisorSet(pres.nvars, gens)
    leads: list[Monomial] = []
    lcms: dict[tuple[int, int], Monomial] = {}  # open pairs and their lcms
    queue: list[tuple[int, int, int]] = []  # (lcm degree, i, j), pruned pairs included

    def update(mf: Monomial):
        # Gebauer-Moeller pair pruning (product + chain criteria) for a new lead
        t = len(leads)
        new_lcms = [monomial_lcm(lead, mf) for lead in leads]
        for (i, j), lcm in list(lcms.items()):
            if monomial_divides(mf, lcm) and lcm != new_lcms[i] and lcm != new_lcms[j]:
                del lcms[i, j]
        by_lcm: dict[Monomial, list[int]] = {}
        for i, lcm in enumerate(new_lcms):
            by_lcm.setdefault(lcm, []).append(i)
        for lcm in minimal_monomials(by_lcm):
            members = by_lcm[lcm]
            if not any(lcm == monomial_mul(leads[i], mf) for i in members):
                i = min(members)
                lcms[i, t] = lcm
                heapq.heappush(queue, (monomial_degree(lcm), i, t))
        leads.append(mf)

    for f in gens:
        update(f.lead)

    if numerator is None:
        numerator, degrees = (1,), [g.degree() for g in gens]
    else:
        degrees = []
    top = min(budgets.degree, MAX_BOUND_DEGREE)
    bound = numerator_product(numerator, degrees, top) if pres.homogeneous else None
    # the last degree counted, its standard monomials then, and their excess over B now
    degree, standard, excess = -1, [], 0

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
        lcm = lcms.pop((i, j))
        while bound is not None and degree < lcm_degree:
            b = hilbert_coefficient(bound, pres.nvars, degree + 1) if degree < top else -1
            if excess or b < 0 or len(standard) * pres.nvars > MAX_STANDARD_CANDIDATES:
                bound = None
            else:
                degree += 1
                divisors.fit(lcm_degree)  # one repacking for every degree up to the pair's
                standard = _standard_monomials(divisors, degree)
                excess = len(standard) - b
        if bound is not None and not excess:
            continue  # in(G) and in(I) agree in degree lcm_degree
        h = normal_form(divisors.spoly(i, j, lcm), divisors)
        if h:
            excess -= 1
            divisors.add(h)
            update(divisors.unpack(next(iter(h))))

    return GroebnerBasis(pres.variables, _interreduce(divisors))


# Caps on the discarding rule, past which it stops: the candidates (n times
# the standard monomials one degree down) it enumerates for a degree, and the
# degree it counts to.  A quadric and a degree-20 form in 9 variables would
# count 1.5 million of degree 20; under a degree budget of 10^9,
# x^100000000*y - y^100000001 would need a bound of 10^8 coefficients, and
# reading degree d off the bound costs d steps.
MAX_STANDARD_CANDIDATES = 20_000
MAX_BOUND_DEGREE = 1_000


def hilbert_coefficient(numerator: Sequence[int], nvars: int, d: int) -> int:
    """The coefficient of t^d in N(t)/(1-t)^nvars, the sum over k <= d of
    N_k * C(nvars - 1 + d - k, d - k); 0 for d < 0."""
    if d < 0:
        return 0
    if nvars == 0:
        return numerator[d] if d < len(numerator) else 0
    return sum(
        c * math.comb(nvars - 1 + d - k, d - k) for k, c in enumerate(numerator[: d + 1]) if c
    )


def numerator_product(numerator: Sequence[int], degrees: Sequence[int], top: int) -> list[int]:
    """N(t) * prod_j (1 - t^{d_j}) up to degree top: each factor subtracts
    the product so far from d_j degrees back.  The truncation keeps the list
    short when some d_j is huge (x^100000000*y - y^100000001)."""
    product = list(numerator[: max(top + 1, 0)])
    product += [0] * (min(top + 1, len(numerator) + sum(degrees)) - len(product))
    for d in degrees:
        for e in range(len(product) - 1, d - 1, -1):
            product[e] -= product[e - d]
    return product


def _standard_monomials(divisors: DivisorSet, degree: int) -> list[int]:
    """The packed monomials of the degree that no lead of the set divides,
    grown from ``divisors.standard``, a superset of those one degree down
    (divisors of standard monomials are standard), which they replace.

    The set is first fitted to the degree.  A candidate is a standard
    monomial m plus the packed unit vector of x_i, its degree field
    included, for i at or past the last variable of m, the field of the top
    set bit below the degree field, so each is made once; it is kept when
    the guard test finds no lead that divides it."""
    divisors.fit(degree)
    width, guard, mask = divisors.width, divisors.guard, divisors.mask
    leads = [entry[0] for entry in divisors.entries]
    if degree == 0:
        candidates = [0]
    else:
        units = [(1 << divisors.shift) + (1 << i * width) for i in range(divisors.nvars)]
        candidates = [
            m + unit for m in divisors.standard for unit in units[max(((m & mask).bit_length() - 1) // width, 0) :]
        ]
    standard = divisors.standard = []
    for m in candidates:
        m_guarded = m | guard
        for lm in leads:
            if m_guarded - lm & guard == guard:
                break
        else:
            standard.append(m)
    return standard


def _interreduce(divisors: DivisorSet) -> tuple[Polynomial, ...]:
    """The reduced basis of the Groebner basis the set packs: minimalized
    (no lead divisible by another) and tail-reduced, in canonical order.

    The entries go in ascending lead order, each divided by one growing set
    of the reduced ones before it.  That is enough: a lead that divides a
    tail term of g is at most that term, so below the lead of g and already
    in the set; the lead of g survives, as no lead before it divides it.
    An entry whose lead one before it divides is dropped; of equal leads the
    first stays.  The reduced basis is unique, so the order of the
    divisions does not change it.  The set is laid out at the width of
    ``divisors``, so the entries are its dividends as they are, and only
    the reduced elements are unpacked, into monic polynomials."""
    mask, guard = divisors.mask, divisors.guard
    reduced = DivisorSet(divisors.nvars, degree=divisors.cap)
    for lm, lc, tail in sorted(divisors.entries, key=lambda entry: 2 * (entry[0] & mask) - entry[0], reverse=True):
        lm_guarded = lm | guard
        if not any(lm_guarded - entry[0] & guard == guard for entry in reduced.entries):
            reduced.add(normal_form(dict([(lm, lc), *tail]), reduced))
    elements = []
    for lm, lc, tail in reversed(reduced.entries):
        ints = reduced.unpacked(dict([(lm, lc), *tail]))
        elements.append(from_ints(reduced.nvars, ints, lead=next(iter(ints)), primitive=True).monic())
    return tuple(elements)


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
                    echelon.add(h.mul_term(m, 1).ints)
        if echelon.add(g.ints):
            kept.append(g)
    return kept


def eliminate_linear_forms(
    variables: tuple[str, ...], forms: Sequence[Polynomial], generators: Sequence[Polynomial]
) -> tuple[tuple[str, ...], tuple[Polynomial, ...]]:
    """Substitute linear forms away: S/(I + L) and S'/I' are the same graded
    ring, for S' the polynomial ring in the variables left.

    The forms go into one echelon, whose rows (distinct leading variables)
    are a Groebner basis of the linear ideal L they span, so the normal form
    of a generator modulo those rows is the one congruent polynomial free of
    the pivot variables, which are then dropped in one projection of
    exponent tuples.  Returns the remaining variables and the nonzero
    projected normal forms, in the order of `generators`.
    """
    linear = linalg.Echelon(f.ints for f in forms)
    if not linear.rows:
        return variables, tuple(generators)
    n = len(variables)
    rows = DivisorSet(n, [from_ints(n, row, primitive=True) for row in linear.rows.values()])
    keep = [i for i in range(n) if not any(lm[i] for lm in linear.rows)]
    # dropping variables that no term uses keeps the degrevlex order of the terms
    projected = []
    for g in generators:
        if h := normal_form(g, rows):
            ints = {tuple(m[i] for i in keep): c for m, c in h.ints.items()}
            lead = tuple(h.lead[i] for i in keep)
            projected.append(from_ints(len(keep), ints, h.scale, lead, primitive=True))
    return tuple(variables[i] for i in keep), tuple(projected)


def minimalize_presentation(pres: RingPresentation) -> RingPresentation:
    """Minimal presentation of the same graded ring.

    The linear generators are substituted away by
    :func:`eliminate_linear_forms`, and the remaining generators are pruned
    to a minimal homogeneous generating set.  The variable count of the
    result is the embedding dimension.
    """
    if not pres.homogeneous:
        raise InhomogeneousError("minimalize_presentation requires a homogeneous ideal")
    variables, gens = eliminate_linear_forms(
        pres.variables,
        [g for g in pres.generators if g.degree() == 1],
        [g for g in pres.generators if g.degree() != 1],
    )
    minimal = _minimal_homogeneous_generators(gens, len(variables))
    return RingPresentation(variables, tuple(minimal), warnings=pres.warnings)
