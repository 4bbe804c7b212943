"""Independent brute-force oracles used to freeze expected values.

Nothing here goes through the Groebner engine: Hilbert functions come from
dense rank computations on monomial bases, semigroup lengths from explicit
exponent-set differences, and arrangement lengths from graded linear algebra
in the quotient of the 2-variable polynomial ring.  Minimal generators and
the family matcher's quadric-span data come from the original dense
algorithms: a fresh rref for every membership test.  The minimal
presentation oracle is the original elimination of linear generators, one
substitution of a leading variable at a time.  The normal form oracle
is the original division over Fraction polynomials, one new polynomial per
step.  The Buchberger oracle picks each S-pair by rescanning every open pair
and builds its S-polynomial over Fractions, and the singular locus oracle
expands every Jacobian minor over Fraction polynomials; both reduce with the
engine's ``normal_form``.  ``laplace_minors`` is the original memoized Laplace
expansion of integer term-map minors, without reduction modulo an ideal.  The artinian reduction oracle is the sequential search alone, one ``buchberger`` run per
trial, with no one-basis fast path and no memo.  The socle and
nonzerodivisor oracles normal-form every product afresh with the engine's
``normal_form`` and take the ranks of dense matrices with rref.  The
degree-2 rewrite oracle normal-forms every product afresh and solves its
three systems by rref on dense vectors over the degree-2 standard
monomials.  The binary-form profile oracle is
Yun's squarefree decomposition over Fraction coefficient lists, with its own
univariate division.  The scroll and Veronese-cone oracles write out each
2x2 minor as a difference of Polynomial products.  The constrained
permutations oracle is the original ``itertools.product`` of every
signature group's permutations, which builds them all up front.  The
render oracle is the original renderer over the Fraction term view, one
Fraction coefficient per term, with the digit cap checked on every
numerator and denominator.  Apart
from that, the paths under test and the oracle paths share only the
Polynomial arithmetic: every rank and solve under test runs on the sparse
``linalg.Echelon``, and only the oracles call the dense ``rref``.
"""

from __future__ import annotations

import random
from fractions import Fraction

import math
from itertools import combinations, permutations
from operator import add
from typing import Iterator, Sequence

from hypothesis import strategies as st

from cmtype import Polynomial, linalg, make_presentation
from cmtype.classifier import ObstructionData
from cmtype.drozd_roiter import NumericalSemigroup
from cmtype.errors import (
    BudgetError,
    Budgets,
    DEFAULT_BUDGETS,
    InhomogeneousError,
    InputError,
    LsopSearchError,
)
from cmtype.groebner import (
    DivisorSet,
    GroebnerBasis,
    _interreduce,
    _minimal_homogeneous_generators,
    buchberger,
    minimalize_presentation,
    normal_form,
)
from cmtype.invariants import (
    Analysis,
    ArtinianReduction,
    HilbertSeries,
    hilbert_series_from_gb,
)
from cmtype.linalg import rank, rref
from cmtype.poly import (
    Monomial,
    from_ints,
    monomial_degree,
    monomial_divides,
    monomial_key,
    monomial_lcm,
    monomial_mul,
    monomials_of_degree,
    unit_vectors,
)
from cmtype.presentation import MAX_RENDERED_DIGITS, RingPresentation
from cmtype.singularity import SingularityReport


def terms(p: Polynomial) -> dict[Monomial, Fraction]:
    """The Fraction term view ``{m: scale * c}`` the oracles read a polynomial through."""
    return {m: p.scale * c for m, c in p.ints.items()}


def leading_term(p: Polynomial) -> tuple[Monomial, Fraction]:
    return p.lead, terms(p)[p.lead]


def monomial_div(a: Monomial, b: Monomial) -> Monomial | None:
    """a / b, or None when b does not divide a."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def hilbert_function_oracle(generators, nvars: int, degree: int) -> int:
    """dim_k (S/I)_degree by row-reducing all monomial multiples of the generators."""
    basis = monomials_of_degree(nvars, degree)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for g in generators:
        shift = degree - g.degree()
        if shift < 0:
            continue
        for m in monomials_of_degree(nvars, shift):
            product = g.mul_term(m, 1)
            row = [Fraction(0)] * len(basis)
            for mono, coeff in terms(product).items():
                row[index[mono]] = coeff
            rows.append(row)
    return len(basis) - rank(rows)


def semigroup_lambda_oracle(sg: NumericalSemigroup) -> int:
    """Exponent-set difference: valuations of the closure of m^2 minus x*m."""
    a1 = sg.multiplicity
    window = sg.frobenius + a1 + 1
    closure = {s for s in range(2 * a1, window + a1) if sg.contains(s)}
    xm = {a1 + s for s in range(1, window) if sg.contains(s)}
    # both sets coincide beyond frobenius + a1; restrict to the finite window
    closure = {s for s in closure if s <= sg.frobenius + a1}
    xm = {s for s in xm if s <= sg.frobenius + a1}
    return len(closure - xm)


def arrangement_lambda_oracle(lines, reduction) -> int:
    """lambda(m^2 / x m) computed inside R = k[x,y]/(product of lines).

    For two or more distinct lines the degree-1 part of the integral closure
    of m^2 vanishes, so the closure equals m^2 and the length is the sum over
    degrees j >= 2 of dim R_j - dim (reduction * R_{j-1}).
    """
    product = Polynomial.one(2)
    for line in lines:
        product = product * line
    r = len(lines)

    def dim_rj(j: int) -> int:
        return hilbert_function_oracle([product], 2, j)

    def dim_xrj(j: int) -> int:
        # dim of the image of reduction * (degree j-1 monomials) inside R_j
        basis = monomials_of_degree(2, j)
        index = {m: i for i, m in enumerate(basis)}

        def vec(p):
            row = [Fraction(0)] * len(basis)
            for mono, coeff in terms(p).items():
                row[index[mono]] = coeff
            return row

        ideal_rows = []
        shift = j - product.degree()
        if shift >= 0:
            for m in monomials_of_degree(2, shift):
                ideal_rows.append(vec(product.mul_term(m, 1)))
        image_rows = [
            vec(reduction * Polynomial(2, [(m, 1)])) for m in monomials_of_degree(2, j - 1)
        ]
        return rank(ideal_rows + image_rows) - rank(ideal_rows)

    total = 0
    for j in range(2, r + 4):
        total += dim_rj(j) - dim_xrj(j)
    return total


def random_homogeneous_polynomial(rng: random.Random, nvars: int, degree: int) -> Polynomial:
    """Random nonzero homogeneous polynomial with small integer coefficients."""
    while True:
        pairs = []
        for m in monomials_of_degree(nvars, degree):
            c = rng.randint(-2, 2)
            if c:
                pairs.append((m, c))
        p = Polynomial(nvars, pairs)
        if not p.is_zero:
            return p


def random_homogeneous_ideal(rng: random.Random):
    """Small random homogeneous ideal for the Groebner property suites."""
    nvars = rng.randint(1, 3)
    ngens = rng.randint(1, 3)
    gens = [
        random_homogeneous_polynomial(rng, nvars, rng.randint(1, 3)) for _ in range(ngens)
    ]
    return nvars, gens


@st.composite
def rational_homogeneous_presentations(
    draw, max_degree: int, max_generators: int, curves: bool = False
):
    """1..max_generators homogeneous forms in at most 4 variables, of degrees
    1..max_degree with 1-4 terms each; the coefficients are rationals with
    denominators up to 4, so most forms are not integral.  With ``curves``,
    2-4 variables and one form fewer than variables, so the quotient has
    dimension at least 1 (Krull), and often exactly 1."""
    nvars = draw(st.integers(2 if curves else 1, 4))
    coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    gens = []
    for _ in range(nvars - 1 if curves else draw(st.integers(1, max_generators))):
        monomial = st.sampled_from(monomials_of_degree(nvars, draw(st.integers(1, max_degree))))
        monomials = draw(st.lists(monomial, min_size=1, max_size=4, unique=True))
        gens.append(Polynomial(nvars, [(m, draw(coefficient)) for m in monomials]))
    return make_presentation([f"x{i}" for i in range(nvars)], gens)


def linear_change(p: Polynomial, matrix) -> Polynomial:
    """Substitute x_i -> sum_j matrix[i][j] x_j (exact)."""
    n = p.nvars
    images = []
    for i in range(n):
        img = Polynomial.zero(n)
        for j in range(n):
            img = img + Polynomial.variable(n, j) * Fraction(matrix[i][j])
        images.append(img)
    result = Polynomial.zero(n)
    for mono, coeff in terms(p).items():
        term = Polynomial.constant(n, coeff)
        for i, e in enumerate(mono):
            for _ in range(e):
                term = term * images[i]
        result = result + term
    return result


def random_invertible_matrix(rng: random.Random, n: int):
    """Random integer matrix with nonzero determinant (for change of variables)."""
    while True:
        matrix = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if len(rref(matrix)[1]) == n:
            return matrix


# ---------------------------------------------------------------------------
# dense span membership: the algorithms the sparse echelon replaced


def _reduce_against(vec, mat, pivots):
    """Residual of vec after elimination by an rref basis."""
    v = [Fraction(x) for x in vec]
    for row, c in zip(mat, pivots):
        if v[c]:
            f = v[c]
            v = [x - f * y for x, y in zip(v, row)]
    return v


def _in_row_space(rows, vec) -> bool:
    mat, pivots = rref(rows)
    return not any(_reduce_against(vec, mat, pivots))


def _coefficient_vector(p, basis):
    return [p.coefficient(m) for m in basis]


def minimal_homogeneous_generators_oracle(gens, nvars: int):
    """Prune to a minimal homogeneous generating set, one dense rref over
    the degree-d multiples of every kept generator per generator tested."""
    kept = []
    for g in sorted(gens, key=lambda g: g.sort_key()):
        d = g.degree()
        basis = monomials_of_degree(nvars, d)
        rows = []
        for h in kept:
            shift = d - h.degree()
            for m in monomials_of_degree(nvars, shift):
                rows.append(_coefficient_vector(h.mul_term(m, 1), basis))
        if rows and _in_row_space(rows, _coefficient_vector(g, basis)):
            continue
        kept.append(g)
    return kept


def _substitute(p: Polynomial, i: int, replacement: Polynomial) -> Polynomial:
    """Substitute the i-th variable by a polynomial over the same variables."""
    powers: dict[int, Polynomial] = {0: Polynomial.one(p.nvars)}
    result = Polynomial.zero(p.nvars)
    for m, c in sorted(terms(p).items()):
        e = m[i]
        if e not in powers:
            powers[e] = replacement**e
        rest = list(m)
        rest[i] = 0
        result = result + powers[e].mul_term(tuple(rest), c)
    return result


def _drop_variable(p: Polynomial, i: int) -> Polynomial:
    """Remove an unused variable (every exponent at position i must be 0)."""
    data = {}
    for m, c in p.ints.items():
        if m[i] != 0:
            raise InputError(f"variable {i} still occurs; cannot drop it")
        data[m[:i] + m[i + 1 :]] = c
    return from_ints(p.nvars - 1, data, p.scale)


def minimalize_presentation_oracle(pres: RingPresentation) -> RingPresentation:
    """The original elimination: while a linear generator is left, substitute
    out its leading variable everywhere and drop that variable; then prune
    with the engine's ``_minimal_homogeneous_generators``."""
    if not pres.homogeneous:
        raise InhomogeneousError("minimalize_presentation requires a homogeneous ideal")
    variables = pres.variables
    gens = list(pres.generators)

    while True:
        gens = [g for g in gens if not g.is_zero]
        linear = next((g for g in gens if g.degree() == 1), None)
        if linear is None:
            break
        lm, lc = leading_term(linear)
        i = lm.index(1)
        # x_i = x_i - linear/lc has no x_i left; substitute it everywhere.
        replacement = Polynomial.variable(len(variables), i) - linear * Fraction(1, lc)
        gens = [_substitute(g, i, replacement) for g in gens if g is not linear]
        gens = [_drop_variable(g, i) for g in gens]
        variables = variables[:i] + variables[i + 1 :]

    minimal = _minimal_homogeneous_generators(gens, len(variables))
    return RingPresentation(variables, tuple(minimal), warnings=pres.warnings)


def degree2_rref_oracle(gens, nvars: int):
    """Dense rref of the quadrics' coefficient rows: (rows, pivots, basis)."""
    basis = monomials_of_degree(nvars, 2)
    rows = [[g.coefficient(m) for m in basis] for g in gens]
    mat, pivots = rref(rows)
    mat = mat[: len(pivots)]
    return mat, pivots, basis


def support_signatures_oracle(mat, basis, nvars: int):
    """Per variable: (square occurs, cross-term count) over the rows' supports."""
    support = set()
    for row in mat:
        for c, value in enumerate(row):
            if value:
                support.add(basis[c])
    squares = [0] * nvars
    crosses = [0] * nvars
    for m in support:
        live = [i for i, e in enumerate(m) if e]
        if len(live) == 1:
            squares[live[0]] += 1
        else:
            crosses[live[0]] += 1
            crosses[live[1]] += 1
    return list(zip(squares, crosses))


def constrained_permutations_oracle(family_sigs, input_sigs, n: int):
    """Permutations sigma (old -> new) respecting the variable signatures."""
    from collections import defaultdict
    from itertools import product

    pools: dict = defaultdict(list)
    for idx, sig in enumerate(input_sigs):
        pools[sig].append(idx)
    groups: dict = defaultdict(list)
    for idx, sig in enumerate(family_sigs):
        groups[sig].append(idx)
    if {s: len(v) for s, v in pools.items()} != {s: len(v) for s, v in groups.items()}:
        return
    signatures = sorted(groups)
    for assignment in product(*[permutations(pools[s]) for s in signatures]):
        sigma = [0] * n
        for sig, perm in zip(signatures, assignment):
            for fam_idx, inp_idx in zip(groups[sig], perm):
                sigma[fam_idx] = inp_idx
        yield tuple(sigma)


# ---------------------------------------------------------------------------
# division over Fraction polynomials: the algorithm the integer division replaced


def normal_form_oracle(p: Polynomial, basis) -> Polynomial:
    """Full remainder of p under division by the basis (no term divisible by a
    leading term survives).  Against a Groebner basis the result is the unique
    normal form; in particular it is zero exactly for ideal members."""
    elements = basis.elements if isinstance(basis, GroebnerBasis) else tuple(basis)
    elements = tuple(g for g in elements if not g.is_zero)
    if not elements:
        return p
    leads = [leading_term(g) for g in elements]
    remainder: dict[Monomial, Fraction] = {}
    work = p
    while work:
        m, c = leading_term(work)
        for g, (lm, lc) in zip(elements, leads):
            q = monomial_div(m, lm)
            if q is not None:
                work = work - g.mul_term(q, Fraction(c, lc))
                break
        else:
            remainder[m] = c
            work = work - Polynomial(p.nvars, [(m, c)])
    return Polynomial(p.nvars, remainder)


# ---------------------------------------------------------------------------
# Buchberger with a rescan of every open pair per step and Fraction
# S-polynomials, and the singular locus over Fraction minors: the algorithms
# the pair heap, the integer S-polynomial and integer minors replaced


def spoly_oracle(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial of f and g."""
    mf, cf = leading_term(f)
    mg, cg = leading_term(g)
    lcm = monomial_lcm(mf, mg)
    return f.mul_term(monomial_div(lcm, mf), Fraction(1, cf)) - g.mul_term(
        monomial_div(lcm, mg), Fraction(1, cg)
    )


def buchberger_oracle(pres, *, budgets: Budgets = DEFAULT_BUDGETS) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal.  Picks each pair by rescanning
    every open pair with ``min``."""
    gens = [g.monic() for g in pres.generators if not g.is_zero]

    basis: list[Polynomial] = []
    leads: list[Monomial] = []
    pairs: set[tuple[int, int]] = set()

    def update(f: Polynomial):
        # Gebauer-Moeller pair pruning (product + chain criteria).
        mf = f.lead
        t = len(basis)
        kept = {
            (i, j)
            for (i, j) in pairs
            if not monomial_divides(mf, monomial_lcm(leads[i], leads[j]))
            or monomial_lcm(leads[i], leads[j]) == monomial_lcm(leads[i], mf)
            or monomial_lcm(leads[i], leads[j]) == monomial_lcm(leads[j], mf)
        }
        by_lcm: dict[Monomial, list[int]] = {}
        for i in range(t):
            by_lcm.setdefault(monomial_lcm(leads[i], mf), []).append(i)
        minimal: list[Monomial] = []
        for lcm in sorted(by_lcm, key=monomial_key):
            if not any(monomial_divides(seen, lcm) for seen in minimal):
                minimal.append(lcm)
        for lcm in minimal:
            members = by_lcm[lcm]
            if not any(monomial_lcm(leads[i], mf) == monomial_mul(leads[i], mf) for i in members):
                kept.add((min(members), t))
        basis.append(f)
        leads.append(mf)
        pairs.clear()
        pairs.update(kept)

    for f in gens:
        update(f)

    processed = 0
    while pairs:
        i, j = min(pairs, key=lambda ij: (monomial_degree(monomial_lcm(leads[ij[0]], leads[ij[1]])), ij))
        lcm_degree = monomial_degree(monomial_lcm(leads[i], leads[j]))
        if lcm_degree > budgets.degree:
            raise BudgetError(
                f"S-pair degree {lcm_degree} exceeds the degree budget {budgets.degree}"
            )
        processed += 1
        if processed > budgets.pairs:
            raise BudgetError(f"pair budget {budgets.pairs} exceeded")
        pairs.remove((i, j))
        h = normal_form(spoly_oracle(basis[i], basis[j]), basis)
        if h:
            update(h.monic())

    return GroebnerBasis(pres.variables, _interreduce(DivisorSet(pres.nvars, basis)))


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


def laplace_minors(matrix: Sequence[Sequence[dict]], size: int) -> Iterator[dict]:
    """Every size x size minor of a matrix of integer term maps ``{monomial:
    int}``, as such a map (empty when zero): row combinations outer, column
    combinations inner.  Laplace expansion along the first row, memoized on
    (rows, cols), so sub-minors shared by many minors are expanded once."""
    memo: dict = {}

    def minor(rows: tuple[int, ...], cols: tuple[int, ...]) -> dict:
        key = (rows, cols)
        if key in memo:
            return memo[key]
        if len(rows) == 1:
            result = matrix[rows[0]][cols[0]]
        else:
            result = {}
            r0 = rows[0]
            rest = rows[1:]
            for k, c in enumerate(cols):
                entry = matrix[r0][c]
                if not entry:
                    continue
                sub = minor(rest, cols[:k] + cols[k + 1 :])
                sign = -1 if k % 2 else 1
                for m1, c1 in entry.items():
                    c1 *= sign
                    for m2, c2 in sub.items():
                        m = tuple(map(add, m1, m2))
                        if v := result.get(m, 0) + c1 * c2:
                            result[m] = v
                        else:
                            del result[m]
        memo[key] = result
        return result

    for rows in combinations(range(len(matrix)), size):
        for cols in combinations(range(len(matrix[rows[0]])), size):
            yield minor(rows, cols)


def singular_locus_oracle(
    pres: RingPresentation, *, budgets: Budgets = DEFAULT_BUDGETS
) -> SingularityReport:
    """Dimension of the singular locus and the isolated-singularity flag, from
    every Jacobian minor expanded over Fraction polynomials."""
    minimal = minimalize_presentation(pres)
    gens = minimal.generators
    nvars = minimal.nvars
    if not gens:
        return SingularityReport(
            codim=0,
            jacobian_ideal=RingPresentation(minimal.variables, ()),
            singular_dim=-1,
            isolated=True,
        )
    gb = buchberger_oracle(minimal, budgets=budgets)
    series = hilbert_series_from_gb(gb)
    codim = nvars - series.dim

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
                det = normal_form(det, gb).monic()
                if det and det not in seen:
                    seen.add(det)
                    minors.append(det)

    jacobian_ideal = RingPresentation(minimal.variables, tuple(gens) + tuple(minors))
    locus_series = hilbert_series_from_gb(buchberger_oracle(jacobian_ideal, budgets=budgets))
    singular_dim = locus_series.dim
    return SingularityReport(
        codim=codim,
        jacobian_ideal=jacobian_ideal,
        singular_dim=singular_dim,
        isolated=singular_dim <= 0,
    )


def standard_monomials(leads: Sequence[Monomial], nvars: int, degree: int) -> list[Monomial]:
    return [
        m
        for m in monomials_of_degree(nvars, degree)
        if not any(monomial_divides(lead, m) for lead in leads)
    ]


def socle_dimension_oracle(artinian_gb: GroebnerBasis) -> int:
    """dim_k (0 : m) of the artinian quotient, by exact kernel computations."""
    nvars = artinian_gb.nvars
    leads = artinian_gb.leading_monomials()
    bases: list[list[Monomial]] = []
    d = 0
    while True:
        basis = standard_monomials(leads, nvars, d)
        if not basis:
            break
        bases.append(basis)
        d += 1
    total = 0
    for d, basis in enumerate(bases):
        upstairs = bases[d + 1] if d + 1 < len(bases) else []
        if not upstairs:
            total += len(basis)
            continue
        index = {m: i for i, m in enumerate(upstairs)}
        rows = []
        for v in range(nvars):
            images = []
            for b in basis:
                shifted = tuple(e + (1 if i == v else 0) for i, e in enumerate(b))
                image = normal_form(Polynomial(nvars, [(shifted, 1)]), artinian_gb)
                images.append(image)
            for target in upstairs:
                rows.append([img.coefficient(target) for img in images])
        total += len(basis) - linalg.rank(rows)
    return total


# ---------------------------------------------------------------------------
# the artinian reduction by the sequential search alone: one Buchberger run
# per trial I + (l_1..l_k), the algorithm the one-basis fast path replaced


def artinian_reduction_oracle(
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
    reduction and the reduced basis of the artinian ideal: the basis of the
    last accepted trial, or `gb` itself when the ring is already artinian.

    Candidate forms draw integer coefficients from a deterministic generator;
    attempt k uses the range [-(1+k), 1+k] (the documented widening schedule).
    A candidate is accepted only if it drops the dimension by exactly one; a
    degenerate input exhausts the 20 attempts and raises LsopSearchError.
    """
    nvars = minimal.nvars
    rng = random.Random(seed)

    current = list(minimal.generators)
    chosen: list[Polynomial] = []
    for _ in range(series.dim):
        for attempt in range(20):
            bound = 1 + attempt
            coeffs = [rng.randint(-bound, bound) for _ in range(nvars)]
            if not any(coeffs):
                continue
            form = Polynomial(nvars, [(m, c) for m, c in zip(unit_vectors(nvars), coeffs) if c])
            trial = current + [form]
            trial_gb = buchberger(RingPresentation(minimal.variables, tuple(trial)), budgets=budgets)
            trial_series = hilbert_series_from_gb(trial_gb)
            if trial_series.dim == series.dim - 1:
                current, gb, series = trial, trial_gb, trial_series
                chosen.append(form)
                break
        else:
            raise LsopSearchError(
                f"no linear parameter found after 20 attempts (dim {series.dim})",
            )

    if series.dim != 0:
        raise InputError("artinian reduction failed to reach dimension zero")
    reduction = ArtinianReduction(
        lsop=tuple(chosen),
        standard_monomial_counts=series.hvector,
        length=series.multiplicity,
        seed=seed,
    )
    return reduction, gb


def is_linear_nonzerodivisor_oracle(x: Polynomial, bundle: Analysis) -> bool:
    """Check x is a nonzerodivisor via multiplication-map ranks.

    For a one-dimensional ring the Hilbert function is eventually constant;
    injectivity of multiplication by x up to a degree where the function has
    stabilized (so injective = bijective there) propagates to all degrees.
    """
    series = bundle.series
    gb = bundle.quotient.gb
    nvars = bundle.presentation.nvars
    leads = gb.leading_monomials()
    stable = max(1, len(series.hvector) - 1)
    d = 0
    while True:
        basis_d = standard_monomials(leads, nvars, d)
        basis_d1 = standard_monomials(leads, nvars, d + 1)
        images = [normal_form(x * Polynomial(nvars, [(m, 1)]), gb) for m in basis_d]
        rows = [[img.coefficient(target) for img in images] for target in basis_d1]
        if linalg.rank(rows) < len(basis_d):
            return False
        if d >= stable and len(basis_d) == len(basis_d1):
            return True
        d += 1
        if d > len(series.hvector) + 4:  # unreachable for dim 1
            raise InputError("nonzerodivisor test: the Hilbert function never stabilized")


# ---------------------------------------------------------------------------
# the degree-2 rewrite by dense elimination: the algorithm the one-echelon
# solve replaced, verbatim apart from the names of the routines it calls


def solve_combination_oracle(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> tuple[list[Fraction], bool] | None:
    """Solve sum_j c_j * columns[j] == target.

    Returns (coefficients, unique) or None when the system is inconsistent.
    Free coefficients are set to zero.
    """
    k = len(columns)
    m = len(target)
    aug = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(m)]
    mat, pivots = rref(aug)
    if k in pivots:
        return None
    sol = [Fraction(0)] * k
    for row, c in zip(mat, pivots):
        sol[c] = row[k]
    return sol, len(pivots) == k


def rewrite_in_xm_oracle(
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

    if not is_linear_nonzerodivisor_oracle(Polynomial.variable(n, x_index), bundle):
        raise InputError(f"variable {x_index} is not a nonzerodivisor")

    def vector(p: Polynomial) -> list:  # p modulo I over the degree-2 standard monomials
        image = terms(normal_form(p, bundle.quotient.gb))
        return [image.get(m, 0) for m in bundle.quotient.basis(2)]

    x = Polynomial.variable(n, x_index)
    basis_order = [x_index, u_index, v_index] + [
        i for i in range(n) if i not in (x_index, u_index, v_index)
    ]
    columns = [vector(x * Polynomial.variable(n, idx)) for idx in basis_order]

    u = Polynomial.variable(n, u_index)
    v = Polynomial.variable(n, v_index)
    rows: list[tuple[Fraction, ...]] = []
    for product in (u * u, u * v, v * v):
        solved = solve_combination_oracle(columns, vector(product))
        if solved is None:
            raise InputError(
                "degree-2 rewrite inconsistent: a product is not in x*m "
                "(m^2 = x*m fails for this x)"
            )
        solution, _unique = solved
        # certify the rewrite: the residual must vanish in the quotient
        linear = Polynomial.zero(n)
        for coeff, idx in zip(solution, basis_order):
            linear = linear + Polynomial.variable(n, idx) * coeff
        residual = normal_form(product - x * linear, bundle.quotient.gb)
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


# ---------------------------------------------------------------------------
# the binary-form profile by Yun's squarefree decomposition over Fraction
# coefficient lists: the algorithm the gcd-degree profile replaced


def _udeg(u: list[Fraction]) -> int:
    return len(u) - 1


def _utrim(u: list[Fraction]) -> list[Fraction]:
    while len(u) > 1 and u[-1] == 0:
        u.pop()
    return u


def _uderiv(u: list[Fraction]) -> list[Fraction]:
    if len(u) <= 1:
        return [Fraction(0)]
    return _utrim([u[i] * i for i in range(1, len(u))])


def _udivmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    while _udeg(_utrim(list(a))) >= _udeg(b) and any(a):
        a = _utrim(a)
        if _udeg(a) < _udeg(b):
            break
        shift = _udeg(a) - _udeg(b)
        factor = a[-1] * inv
        q[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
    return _utrim(q), _utrim(a)


def _ugcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _utrim(list(a)), _utrim(list(b))
    while any(b):
        _, r = _udivmod(a, b)
        a, b = b, r
    if any(a) and a[-1] != 1:
        a = [c / a[-1] for c in a]
    return a


def _yun_multiplicities(u: list[Fraction]) -> list[tuple[int, int]]:
    """Squarefree decomposition via Yun's algorithm: list of (multiplicity, degree)."""
    result: list[tuple[int, int]] = []
    du = _uderiv(u)
    g = _ugcd(u, du)
    c, _ = _udivmod(u, g)
    d = [x - y for x, y in _pad(_udivmod(du, g)[0], _uderiv(c))]
    i = 1
    while _udeg(c) > 0:
        gi = _ugcd(c, d)
        if _udeg(gi) > 0:
            result.append((i, _udeg(gi)))
        c, _ = _udivmod(c, gi)
        d = [x - y for x, y in _pad(_udivmod(d, gi)[0], _uderiv(c))]
        i += 1
    return result


def _pad(a: list[Fraction], b: list[Fraction]):
    size = max(len(a), len(b))
    a = a + [Fraction(0)] * (size - len(a))
    b = b + [Fraction(0)] * (size - len(b))
    return zip(a, b)


def binary_form_profile_oracle(f: Polynomial) -> tuple[int, ...]:
    """Root-multiplicity profile over the algebraic closure, without factoring.

    Computed from the squarefree decomposition of the dehomogenization plus
    the multiplicity of the root at infinity; returned sorted descending.
    Valid in characteristic zero.
    """
    if f.is_zero:
        raise InputError("binary_form_profile requires a nonzero form")
    if f.nvars != 2 or not f.is_homogeneous() or f.degree() < 1:
        raise InputError("binary_form_profile requires a binary form of degree >= 1")
    d = f.degree()
    u = [Fraction(0)] * (d + 1)
    for m, c in terms(f).items():
        u[m[0]] = Fraction(c)
    u = _utrim(u)
    profile: list[int] = []
    infinity_mult = d - _udeg(u)
    if infinity_mult > 0:
        profile.append(infinity_mult)
    if _udeg(u) > 0:
        for mult, degree in _yun_multiplicities(u):
            profile.extend([mult] * degree)
    return tuple(sorted(profile, reverse=True))


# ---------------------------------------------------------------------------
# determinantal families by explicit 2x2 minor loops over Polynomial products:
# the generators that the shared ``families._determinantal`` replaced


def scroll_ideal_oracle(blocks: Sequence[int]) -> RingPresentation:
    """2x2 minors of the concatenated Hankel blocks of the scroll."""
    k = len(blocks) - 1
    names: list[str] = []
    columns: list[tuple[int, int]] = []
    offset = 0
    for i, a in enumerate(blocks):
        for j in range(a + 1):
            names.append(f"x{j}" if k == 0 else f"x{j}_{i}")
        for j in range(a):
            columns.append((offset + j, offset + j + 1))
        offset += a + 1
    nvars = len(names)

    def var(i: int) -> Polynomial:
        return Polynomial.variable(nvars, i)

    gens: list[Polynomial] = []
    seen = set()
    for p in range(len(columns)):
        for q in range(p + 1, len(columns)):
            top_p, bot_p = columns[p]
            top_q, bot_q = columns[q]
            minor = var(top_p) * var(bot_q) - var(bot_p) * var(top_q)
            if minor and minor not in seen:
                seen.add(minor)
                gens.append(minor)
    return make_presentation(names, gens)


def veronese_cone_ideal_oracle(n: int) -> RingPresentation:
    """2x2 minors of the generic symmetric 3x3 matrix plus n-5 cone variables.

    n = 5 is the cone over the quadratic Veronese surface (6 variables);
    each further n adds one free variable.
    """
    if n < 5:
        raise InputError("veronese_cone requires n >= 5")
    nvars = n + 1
    names = [f"x{i}" for i in range(nvars)]

    def var(i: int) -> Polynomial:
        return Polynomial.variable(nvars, i)

    matrix = [
        [var(0), var(1), var(2)],
        [var(1), var(3), var(4)],
        [var(2), var(4), var(5)],
    ]
    gens: list[Polynomial] = []
    seen = set()
    for r1 in range(3):
        for r2 in range(r1 + 1, 3):
            for c1 in range(3):
                for c2 in range(c1 + 1, 3):
                    minor = matrix[r1][c1] * matrix[r2][c2] - matrix[r1][c2] * matrix[r2][c1]
                    if minor and minor not in seen:
                        seen.add(minor)
                        gens.append(minor)
    return make_presentation(names, gens)


# ---------------------------------------------------------------------------
# rendering over Fraction terms: the renderer the integer one replaced


def _check_digits_oracle(c) -> None:
    for n in (c.numerator, c.denominator):
        digits = n.bit_length() * 30103 // 100_000 + 1
        while digits > MAX_RENDERED_DIGITS and abs(n) < 10 ** (digits - 1):
            digits -= 1
        if digits > MAX_RENDERED_DIGITS:
            raise BudgetError(
                f"render_polynomial: coefficient has {digits} digits (cap {MAX_RENDERED_DIGITS})"
            )


def render_polynomial_oracle(p: Polynomial, names) -> str:
    """Canonical text form: terms in descending degrevlex order."""
    if p.is_zero:
        return "0"
    pieces = []
    descending = sorted(terms(p).items(), key=lambda t: monomial_key(t[0]), reverse=True)
    for i, (m, c) in enumerate(descending):
        _check_digits_oracle(c)
        mono = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, m) if e)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if i == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)
