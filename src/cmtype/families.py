"""Generators and recognizers for the catalog of named ring families.

The catalog covers polynomial rings, quadrics, binary-form hypersurfaces,
rational normal scrolls, Veronese cones, and the two special h-vector (1,2)
rings.  The scrolls, the Veronese cones and graded12 are generated by the
distinct nonzero 2x2 minors of a matrix of variables, expanded by
:func:`cmtype.poly.minors`.  Recognition of these families and gw12 is exact
up to variable permutation.  :func:`quadric_rank` and
:func:`binary_form_profile` compute the invariants the classifier tags
hypersurfaces by.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import permutations
from typing import NamedTuple, Sequence

from . import linalg
from .errors import BudgetError, InputError
from .groebner import normal_form
from .invariants import Analysis
from .poly import Polynomial, from_ints, minors, unit_vectors
from .presentation import RingPresentation, make_presentation


# ---------------------------------------------------------------------------
# generators


def _scroll_type(a: Sequence[int]) -> tuple[int, ...]:
    """The scroll type a as a tuple, once checked to be nondecreasing block
    sizes a_0 <= ... <= a_k with at least one positive."""
    a = tuple(a)
    if not a or any(x < 0 for x in a):
        raise InputError("scroll type must be a nonempty tuple of naturals")
    if list(a) != sorted(a):
        raise InputError("scroll type must be sorted ascending")
    if not any(a):
        raise InputError("scroll type needs at least one positive entry")
    return a


def _determinantal(
    names: Sequence[str], index_matrix: Sequence[Sequence[int]]
) -> RingPresentation:
    """The distinct nonzero 2x2 minors, in :func:`minors` order, of the matrix
    whose entry i is the variable names[i]."""
    nvars = len(names)
    units = [{m: 1} for m in unit_vectors(nvars)]
    matrix = [[units[i] for i in row] for row in index_matrix]
    gens = (from_ints(nvars, det) for det in minors(matrix, 2) if det)
    return make_presentation(names, dict.fromkeys(gens))


def scroll_ideal(scroll: Sequence[int]) -> RingPresentation:
    """2x2 minors of the concatenated Hankel blocks of the scroll."""
    scroll = _scroll_type(scroll)
    k = len(scroll) - 1
    names: list[str] = []
    top: list[int] = []
    bottom: list[int] = []
    for i, a in enumerate(scroll):
        offset = len(names)
        names += [f"x{j}" if k == 0 else f"x{j}_{i}" for j in range(a + 1)]
        top += range(offset, offset + a)
        bottom += range(offset + 1, offset + a + 1)
    return _determinantal(names, [top, bottom])


def veronese_cone_ideal(n: int) -> RingPresentation:
    """2x2 minors of the generic symmetric 3x3 matrix plus n-5 cone variables.

    n = 5 is the cone over the quadratic Veronese surface (6 variables);
    each further n adds one free variable.
    """
    if n < 5:
        raise InputError("veronese_cone requires n >= 5")
    names = [f"x{i}" for i in range(n + 1)]
    return _determinantal(names, [[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def gw12_ideal() -> RingPresentation:
    """The monomial ideal (xy, yz, z^2)."""
    gens = [Polynomial(3, {m: 1}) for m in ((1, 1, 0), (0, 1, 1), (0, 0, 2))]
    return make_presentation(["x", "y", "z"], gens)


def graded12_ideal() -> RingPresentation:
    """2x2 minors of the cyclic matrix [[x, y, z], [y, z, x]]."""
    return _determinantal(["x", "y", "z"], [[0, 1, 2], [1, 2, 0]])


def polynomial_ring(n: int) -> RingPresentation:
    if n < 1:
        raise InputError("a polynomial ring needs at least one variable")
    return make_presentation([f"x{i}" for i in range(n)], [])


def sum_of_squares(rank: int, nvars: int) -> RingPresentation:
    if not 1 <= rank <= nvars:
        raise InputError("quadric rank must be between 1 and the variable count")
    names = [f"x{i}" for i in range(nvars)]
    form = Polynomial(nvars, [(tuple(2 * (j == i) for j in range(nvars)), 1) for i in range(rank)])
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
    # twice the symmetric matrix of the primitive integer multiple: same rank, all ints
    rows: list[dict] = [{} for _ in range(f.nvars)]
    for m, c in f.ints.items():
        support = [i for i, e in enumerate(m) if e]
        if len(support) == 1:
            i = support[0]
            rows[i][i] = 2 * c
        else:
            i, j = support
            rows[i][j] = rows[j][i] = c
    return len(linalg.Echelon(rows).rows)


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
    u = from_ints(1, {m[:1]: c for m, c in f.ints.items()}, primitive=True)
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
    """Permutations sigma (old -> new) respecting the variable signatures,
    lazily: the first signature's permutation varies slowest, as in the
    itertools.product of the per-signature permutations, which would build
    every permutation of every group before yielding the first sigma."""
    pools: dict = defaultdict(list)
    for idx, sig in enumerate(input_sigs):
        pools[sig].append(idx)
    groups: dict = defaultdict(list)
    for idx, sig in enumerate(family_sigs):
        groups[sig].append(idx)
    if {s: len(v) for s, v in pools.items()} != {s: len(v) for s, v in groups.items()}:
        return
    signatures = sorted(groups)
    sigma = [0] * n

    def assign(s: int):
        if s == len(signatures):
            yield tuple(sigma)
            return
        slots = groups[signatures[s]]
        for perm in permutations(pools[signatures[s]]):
            for fam_idx, inp_idx in zip(slots, perm):
                sigma[fam_idx] = inp_idx
            yield from assign(s + 1)

    yield from assign(0)


class FamilyTag(NamedTuple):
    """Result of catalog matching.

    For permutation-matched kinds the certificate is the variable relabeling
    (old index -> new index) under which the canonical family's quadrics span
    exactly the input's quadrics; equal spans give equal ideals, so the
    relabeled family has the input's reduced Groebner basis.  The rank- and
    profile-based kinds, which the classifier gives hypersurfaces, carry no
    certificate.  `attempted` is False when the permutation search was
    skipped because the ring has more than 9 variables.
    """

    kind: str  # quadric|binary_form|scroll|veronese_cone|gw12|graded12|none
    param: tuple | int | None = None
    certificate: tuple[int, ...] | None = None
    attempted: bool = True


def _scroll_types_with_nvars(n: int) -> list[tuple[int, ...]]:
    """All scroll types on exactly n variables whose ideal is nonzero."""
    found: list[tuple[int, ...]] = []

    def extend(prefix: list[int], remaining: int):
        # remaining = variables still to allocate; each block uses a_i + 1
        if remaining == 0:
            if any(prefix) and sum(prefix) >= 2:
                found.append(tuple(prefix))
            return
        lo = prefix[-1] if prefix else 0
        for a in range(lo, remaining):
            extend(prefix + [a], remaining - (a + 1))

    extend([], n)
    found.sort(key=lambda t: (len(t), t))
    return found


def _permutation_candidates(n: int, quadrics: int) -> list[tuple[FamilyTag, RingPresentation]]:
    """The catalog families on n variables with the given number of quadrics,
    filtered before any ideal is built: a scroll of type a has C(sum a, 2),
    the Veronese cone 6, gw12 and graded12 3 each."""
    candidates: list[tuple[FamilyTag, RingPresentation]] = [
        (FamilyTag("scroll", param=scroll), scroll_ideal(scroll))
        for scroll in _scroll_types_with_nvars(n)
        if math.comb(sum(scroll), 2) == quadrics
    ]
    if n >= 6 and quadrics == 6:
        p = n - 1
        candidates.append((FamilyTag("veronese_cone", param=p), veronese_cone_ideal(p)))
    if n == 3 and quadrics == 3:
        candidates.append((FamilyTag("gw12"), gw12_ideal()))
        candidates.append((FamilyTag("graded12"), graded12_ideal()))
    return candidates


def match_named_family(bundle: Analysis) -> FamilyTag:
    """Match the minimal presentation of `bundle` against the family catalog.

    The families with the input's number of quadrics are searched over
    variable permutations in lexicographic order (first match wins), pruned
    by the support signatures of the quadric span.  A match is reported when
    the permuted family's quadrics span exactly the input's quadrics: both
    ideals are generated by those spans, so the ideals, and hence their
    reduced Groebner bases, are equal.  The classifier tags hypersurfaces
    itself, by rank or root profile, and calls this only on rings with at
    least two generators.
    """
    gens = bundle.presentation.generators
    n = bundle.presentation.nvars
    if n > 9:
        return FamilyTag("none", attempted=False)
    if any(g.degree() != 2 for g in gens):
        return FamilyTag("none")  # every permutation-matched family is quadric-generated

    input_echelon = linalg.Echelon(g.ints for g in gens)
    input_sigs = _support_signatures(input_echelon, n)
    for tag, family in _permutation_candidates(n, len(input_echelon.rows)):
        # catalog generators are quadrics; only their span is read
        family_echelon = linalg.Echelon(g.ints for g in family.generators)
        fam_sigs = _support_signatures(family_echelon, n)
        for sigma in _constrained_permutations(fam_sigs, input_sigs, n):
            permuted = (g.permute_variables(sigma) for g in family.generators)
            # the family's quadric count is the input's rank, so containment is equality
            if not any(input_echelon.residual(pg.ints) for pg in permuted):
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
        scroll = _scroll_type(sorted(ints()))
        cap(sum(scroll) + len(scroll))
        return scroll_ideal(scroll)
    if family == "veronese_cone":
        n = ints(1)[0]
        cap(n + 1)
        return veronese_cone_ideal(n)
    fixed = {"sym3x3": lambda: veronese_cone_ideal(5), "gw12": gw12_ideal, "graded12": graded12_ideal}
    if family in fixed:
        if args:
            raise InputError(f"{family} takes no arguments")
        return fixed[family]()
    raise InputError(
        f"unknown family {family!r}; available: polynomial_ring, quadric, binary_form, "
        "scroll, veronese_cone, sym3x3, gw12, graded12"
    )
