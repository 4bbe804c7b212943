"""Generators and recognizers for the catalog of named ring families.

The catalog covers polynomial rings, quadrics (tagged by rank), binary-form
hypersurfaces (tagged by root-multiplicity profile), rational normal scrolls,
Veronese cones, and the two special h-vector (1,2) rings.  Recognition of the
determinantal families is exact up to variable permutation; quadrics and
binary forms are instead tagged by rank and profile, which are full
linear-equivalence invariants in characteristic zero, so no permutation
certificate applies to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Sequence

from . import linalg
from .errors import BudgetError, InputError
from .groebner import minimalize_presentation, normal_form
from .parsing import parse_presentation
from .poly import Polynomial
from .presentation import RingPresentation, make_presentation


# ---------------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class ScrollType:
    """Nondecreasing block sizes a_0 <= ... <= a_k with at least one positive."""

    a: tuple[int, ...]

    def __post_init__(self):
        if not self.a or any(x < 0 for x in self.a):
            raise InputError("scroll type must be a nonempty tuple of naturals")
        if list(self.a) != sorted(self.a):
            raise InputError("scroll type must be sorted ascending")
        if not any(self.a):
            raise InputError("scroll type needs at least one positive entry")

    @property
    def nvars(self) -> int:
        return sum(self.a) + len(self.a)

    @property
    def dim(self) -> int:
        return len(self.a) + 1  # k + 2


def scroll_ideal(scroll: ScrollType | Sequence[int]) -> RingPresentation:
    """2x2 minors of the concatenated Hankel blocks of the scroll."""
    if not isinstance(scroll, ScrollType):
        scroll = ScrollType(tuple(scroll))
    blocks = scroll.a
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


def veronese_cone_ideal(n: int) -> RingPresentation:
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


def gw12_ideal() -> RingPresentation:
    return parse_presentation("ring: x, y, z\nideal: x*y, y*z, z^2\n")


def graded12_ideal() -> RingPresentation:
    """2x2 minors of the cyclic matrix [[x, y, z], [y, z, x]]."""
    return parse_presentation(
        "ring: x, y, z\nideal: x*z - y^2, x^2 - y*z, x*y - z^2\n"
    )


def polynomial_ring(n: int) -> RingPresentation:
    if n < 1:
        raise InputError("a polynomial ring needs at least one variable")
    return make_presentation([f"x{i}" for i in range(n)], [])


def sum_of_squares(rank: int, nvars: int) -> RingPresentation:
    if not 1 <= rank <= nvars:
        raise InputError("quadric rank must be between 1 and the variable count")
    names = [f"x{i}" for i in range(nvars)]
    form = Polynomial.zero(nvars)
    for i in range(rank):
        form = form + Polynomial.variable(nvars, i) ** 2
    return make_presentation(names, [form])


def binary_form_presentation(profile: Sequence[int]) -> RingPresentation:
    """Canonical product of lines x, y, x+y, x+2y, ... with given multiplicities."""
    mults = sorted((int(m) for m in profile), reverse=True)
    if not mults or any(m < 1 for m in mults):
        raise InputError("profile entries must be positive integers")
    names = ["x", "y"]
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    lines = [x, y] + [x + i * y for i in range(1, max(0, len(mults) - 2) + 1)]
    form = Polynomial.one(2)
    for line, m in zip(lines, mults):
        form = form * line**m
    return make_presentation(names, [form])


# ---------------------------------------------------------------------------
# invariant-based tags: quadric rank and binary-form profile


def quadric_rank(f: Polynomial) -> int:
    """Rank of the symmetric matrix of a quadratic form, by exact elimination."""
    if f.is_zero or not f.is_homogeneous() or f.degree() != 2:
        raise InputError("quadric_rank requires a nonzero homogeneous quadratic form")
    n = f.nvars
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for m, c in f.terms.items():
        support = [i for i, e in enumerate(m) if e]
        if len(support) == 1:
            i = support[0]
            matrix[i][i] = c
        else:
            i, j = support
            matrix[i][j] = c / 2
            matrix[j][i] = c / 2
    return linalg.rank(matrix)


def binary_form_profile(f: Polynomial) -> tuple[int, ...]:
    """Root-multiplicity profile over the algebraic closure, without factoring.

    Let u(x) = f(x, 1) have roots of multiplicities m_i.  In characteristic
    zero the gcds g_0 = u, g_k = gcd(g_{k-1}, u^(k)) have degrees
    D_k = sum_i max(0, m_i - k), so exactly D_{k-1} - 2 D_k + D_{k+1} roots
    have multiplicity k.  Each gcd is Euclid's algorithm on remainders of
    division by one polynomial, which in one variable lowers the degree.  The
    root at infinity has multiplicity deg f - deg u.  Returned sorted
    descending.
    """
    if f.is_zero:
        raise InputError("binary_form_profile requires a nonzero form")
    if f.nvars != 2 or not f.is_homogeneous() or f.degree() < 1:
        raise InputError("binary_form_profile requires a binary form of degree >= 1")
    u = Polynomial(1, [(m[:1], c) for m, c in f.terms.items()])
    profile = [f.degree() - u.degree()] if u.degree() < f.degree() else []
    degrees = [u.degree()]
    g = derivative = u
    while degrees[-1] > 0:
        derivative = derivative.derivative(0)
        a, b = g, derivative
        while b:
            a, b = b, normal_form(a, [b])
        g = a
        degrees.append(g.degree())
    degrees.append(0)
    for k in range(1, len(degrees) - 1):
        profile += [k] * (degrees[k - 1] - 2 * degrees[k] + degrees[k + 1])
    return tuple(sorted(profile, reverse=True))


# ---------------------------------------------------------------------------
# recognition

# The catalog's permutation-matched families are all quadric-generated, so the
# search is pruned with a permutation-equivariant signature of the degree-2
# piece: the union of monomial supports over the whole row space (the same for
# every basis of it, such as the echelon rows) assigns each variable the pair
# (does its square occur, how many cross terms occur), and a relabeling can
# only map variables with equal signatures onto each other.


def _support_signatures(echelon: linalg.Echelon, nvars: int) -> list[tuple[int, int]]:
    support = set()
    for row in echelon.rows.values():
        support.update(row)
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


def _constrained_permutations(family_sigs, input_sigs, n: int):
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


@dataclass(frozen=True)
class FamilyTag:
    """Result of catalog matching.

    For permutation-matched kinds the certificate is the variable relabeling
    (old index -> new index) under which the canonical family's quadrics span
    exactly the input's quadrics; equal spans give equal ideals, so the
    relabeled family has the input's reduced Groebner basis.  Rank- and
    profile-based kinds carry no certificate.  `attempted` is False when the permutation
    search was skipped because the ring has more than 9 variables.
    """

    kind: str  # polynomial_ring|quadric|binary_form|scroll|veronese_cone|gw12|graded12|none
    param: tuple | int | None = None
    certificate: tuple[int, ...] | None = None
    attempted: bool = True


def _scroll_types_with_nvars(n: int) -> list[ScrollType]:
    """All scroll types on exactly n variables whose ideal is nonzero."""
    found: list[ScrollType] = []

    def extend(prefix: list[int], remaining: int):
        # remaining = variables still to allocate; each block uses a_i + 1
        if remaining == 0:
            if any(prefix) and sum(prefix) >= 2:
                found.append(ScrollType(tuple(prefix)))
            return
        lo = prefix[-1] if prefix else 0
        for a in range(lo, remaining):
            extend(prefix + [a], remaining - (a + 1))

    extend([], n)
    found.sort(key=lambda t: (len(t.a), t.a))
    return found


def _permutation_candidates(n: int) -> list[tuple[FamilyTag, RingPresentation]]:
    candidates: list[tuple[FamilyTag, RingPresentation]] = []
    for scroll in _scroll_types_with_nvars(n):
        candidates.append(
            (FamilyTag("scroll", param=scroll.a), scroll_ideal(scroll))
        )
    if n >= 6:
        p = n - 1
        candidates.append((FamilyTag("veronese_cone", param=p), veronese_cone_ideal(p)))
    if n == 3:
        candidates.append((FamilyTag("gw12"), gw12_ideal()))
        candidates.append((FamilyTag("graded12"), graded12_ideal()))
    return candidates


def match_named_family(pres: RingPresentation) -> FamilyTag:
    """Match a minimal presentation against the family catalog.

    Quadrics and binary forms are tagged by their invariants; all other
    families are searched over variable permutations in lexicographic order
    (first match wins), pruned by the rank and support signatures of the
    quadric span.  A match is reported when the permuted family's quadrics
    span exactly the input's quadrics: both ideals are generated by those
    spans, so the ideals, and hence their reduced Groebner bases, are equal.
    """
    minimal = pres if pres.minimalized else minimalize_presentation(pres)
    gens = minimal.generators
    n = minimal.nvars

    if not gens:
        return FamilyTag("polynomial_ring", param=n, certificate=tuple(range(n)))
    if len(gens) == 1:
        f = gens[0]
        if f.degree() == 2:
            return FamilyTag("quadric", param=(quadric_rank(f), n))
        if n == 2:
            return FamilyTag("binary_form", param=binary_form_profile(f))
        return FamilyTag("none")

    if n > 9:
        return FamilyTag("none", attempted=False)
    if any(g.degree() != 2 for g in gens):
        return FamilyTag("none")  # every permutation-matched family is quadric-generated

    input_echelon = linalg.Echelon(g.terms for g in gens)
    input_sigs = _support_signatures(input_echelon, n)
    for tag, family in _permutation_candidates(n):
        # catalog generators are quadrics; only their span is read
        family_echelon = linalg.Echelon(g.terms for g in family.generators)
        if len(family_echelon.rows) != len(input_echelon.rows):
            continue
        fam_sigs = _support_signatures(family_echelon, n)
        for sigma in _constrained_permutations(fam_sigs, input_sigs, n):
            permuted = (g.permute_variables(sigma) for g in family.generators)
            # equal ranks, so containment of the permuted span is equality
            if not any(input_echelon.residual(pg.terms) for pg in permuted):
                return FamilyTag(tag.kind, param=tag.param, certificate=tuple(sigma))
    return FamilyTag("none")


# ---------------------------------------------------------------------------
# catalog access for the `generate` front end


# Caps on a generated family, checked before it is built: scroll 100000000
# would need 10^8 variable names and about 5*10^15 minors.
MAX_FAMILY_VARIABLES = 100
MAX_FAMILY_DEGREE = 100


def catalog_presentation(family: str, args: Sequence[str]) -> RingPresentation:
    """Canonical presentation for a named family; used by `generate`.

    Raises BudgetError, before building anything, when the family would have
    more than MAX_FAMILY_VARIABLES variables or, for a binary form, a degree
    above MAX_FAMILY_DEGREE.
    """

    def ints(count: int = 0) -> list[int]:
        """The comma-separated integer arguments: exactly `count` of them, or
        at least one when `count` is 0."""
        flat = [part for a in args for part in str(a).split(",") if part]
        if count and len(flat) != count:
            raise InputError(f"{family} expects {count} integer argument(s)")
        if not flat:
            raise InputError(f"{family} expects at least one integer argument")
        try:
            return [int(a) for a in flat]
        except ValueError:
            raise InputError(f"{family} expects integer arguments") from None

    def cap(size: int, what: str = "variable count", limit: int = MAX_FAMILY_VARIABLES) -> int:
        if size > limit:
            raise BudgetError(f"catalog_presentation: {family} has {what} {size} (cap {limit})")
        return size

    if family == "polynomial_ring":
        return polynomial_ring(cap(ints(1)[0]))
    if family == "quadric":
        rank, nvars = ints(2)
        return sum_of_squares(rank, cap(nvars))
    if family == "binary_form":
        profile = ints()
        cap(sum(profile), "degree", MAX_FAMILY_DEGREE)
        return binary_form_presentation(profile)
    if family == "scroll":
        scroll = ScrollType(tuple(sorted(ints())))
        cap(scroll.nvars)
        return scroll_ideal(scroll)
    if family == "veronese_cone":
        n = ints(1)[0]
        cap(n + 1)
        return veronese_cone_ideal(n)
    if family == "sym3x3":
        if args:
            raise InputError("sym3x3 takes no arguments")
        return veronese_cone_ideal(5)
    if family == "gw12":
        if args:
            raise InputError("gw12 takes no arguments")
        return gw12_ideal()
    if family == "graded12":
        if args:
            raise InputError("graded12 takes no arguments")
        return graded12_ideal()
    raise InputError(
        f"unknown family {family!r}; available: polynomial_ring, quadric, binary_form, "
        "scroll, veronese_cone, sym3x3, gw12, graded12"
    )
