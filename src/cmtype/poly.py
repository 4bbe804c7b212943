"""Exact multivariate polynomial arithmetic under the degrevlex term order.

Coefficients are exact, ``fractions.Fraction`` or ``int``, never ``float``;
nothing in the library ever rounds.  A :class:`Polynomial` is stored as one
rational scale times a primitive integer map, normalized by
:func:`from_ints`.  Every reader, from the division, the S-polynomial and
the quotient forms to the Jacobian and the echelon vectors, takes the
integer map and the scale as they are, so the coefficient type is decided
here alone: :func:`derivative_map` differentiates an integer map, and
:func:`side_by_side` lays several forms over the least common denominator
of their scales as one integer vector.  A polynomial knows its number of
variables, not their names: those are a presentation's tuple of strings.  A monomial is a plain
exponent tuple, one entry per variable, and the position of a variable in
that tuple fixes its significance in degrevlex (earlier = more significant).
Only the division kernel of :mod:`cmtype.groebner` packs a monomial into
one int, on the way in, and unpacks it on the way out.
:func:`add_scaled` is the one sparse accumulate over exponent tuples: every
sum of term maps in the package, from polynomial arithmetic to the parser
and echelon residuals, goes through it, except the innermost loop of
:func:`minors` and the packed division and S-polynomial.  :func:`minors`
is the one determinant routine: the Jacobian minors of the singular locus,
expanded modulo the ideal as exterior products of their rows over bitmask
column sets, and the 2x2 minors of the determinantal families both come
from it.  It expands over integers alone, reading each normal form's scale
as a numerator and a denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from operator import add, le
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import InputError

Monomial = tuple  # exponent tuple, one entry per variable


# ---------------------------------------------------------------------------
# monomial helpers


def monomial_degree(m: Monomial) -> int:
    return sum(m)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True when a divides b."""
    return all(map(le, a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def unit_monomial(nvars: int) -> Monomial:
    return (0,) * nvars


def unit_vectors(nvars: int) -> list[Monomial]:
    """The degree-one monomials, the i-th that of the i-th variable."""
    return [tuple(int(j == i) for j in range(nvars)) for i in range(nvars)]


def monomials_of_degree(nvars: int, degree: int) -> list[Monomial]:
    """All exponent tuples of the given total degree, in a fixed order."""
    if degree < 0:
        return []
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def monomial_key(m: Monomial):
    """Degrevlex sort key; larger key = larger monomial.

    Degrevlex is the one term order of the package: total degree first, ties
    going to the monomial with the smaller exponent in the last variable where
    the two differ.  1 is minimal and multiplication preserves comparisons.
    """
    return (sum(m), tuple(-e for e in reversed(m)))


def heap_key(m: Monomial):
    """Ascending degrevlex key for a min-heap; smaller key = larger monomial."""
    return (-sum(m), m[::-1])


def minimal_monomials(monomials: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """The distinct monomials that no other one divides, ascending in
    degrevlex: a proper divisor always comes earlier in that order."""
    minimal: list[Monomial] = []
    for m in sorted(set(monomials), key=monomial_key):
        if not any(monomial_divides(g, m) for g in minimal):
            minimal.append(m)
    return tuple(minimal)


# ---------------------------------------------------------------------------
# polynomials


def _rational(value) -> int | Fraction:
    """The value itself, once checked to be an exact rational."""
    if isinstance(value, (int, Fraction)):
        return value
    raise InputError(f"coefficients must be exact rationals, got {type(value).__name__}")


class Polynomial:
    """Immutable sparse polynomial over the rationals, stored as ``scale * ints``.

    ``ints`` maps exponent tuples to integers without common factor, and its
    coefficient at ``lead``, the degrevlex leading monomial, is positive;
    ``scale`` is a nonzero Fraction.  The zero polynomial has ``ints == {}``,
    scale 1 and lead None.  The form is canonical, so equal polynomials have
    equal ``(nvars, scale, ints)``.  The coefficient at m is ``scale *
    ints[m]``; every reader takes ``ints`` and ``scale`` as they are.
    Every polynomial is built by :func:`from_ints`; the constructor checks
    a term map or a list of ``(monomial, coefficient)`` pairs first, for
    parsed and user input, while an integer map the library computed goes
    to :func:`from_ints` directly.
    """

    __slots__ = ("nvars", "ints", "scale", "lead")

    def __new__(cls, nvars: int, terms: Mapping | Iterable[tuple] = ()):
        data: dict[Monomial, int | Fraction] = {}
        for m, c in terms.items() if isinstance(terms, Mapping) else terms:
            m = tuple(m)
            if len(m) != nvars or any(e < 0 for e in m):
                raise InputError(f"bad exponent tuple {m} for {nvars} variables")
            if c := data.get(m, 0) + _rational(c):
                data[m] = c
            else:
                data.pop(m, None)
        return from_ints(nvars, *cleared(data))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):  # unpickle through from_ints, not __new__ and __setattr__
        return from_ints, (self.nvars, self.ints, self.scale, self.lead, True)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls(nvars, [(unit_monomial(nvars), 1)])

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        return cls(nvars, [(unit_monomial(nvars), c)])

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        return cls(nvars, [(unit_vectors(nvars)[i], 1)])

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.ints

    def __bool__(self) -> bool:
        return bool(self.ints)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return -1 if self.lead is None else sum(self.lead)

    def is_homogeneous(self) -> bool:
        degrees = {monomial_degree(m) for m in self.ints}
        return len(degrees) <= 1

    def coefficient(self, m: Monomial) -> Fraction:
        return self.scale * self.ints.get(tuple(m), 0)

    def descending_terms(self) -> Iterator[tuple[Monomial, int, int]]:
        """``(m, n, d)`` for each term, in descending degrevlex order: its
        coefficient is n / d in lowest terms, d > 0, read off the integer
        map without a Fraction.  The scale is in lowest terms, so the term's
        int c gives n = numerator * c / g and d = denominator / g for the one
        gcd g = gcd(c, denominator)."""
        numerator, denominator = self.scale.numerator, self.scale.denominator
        ints = self.ints
        for m in sorted(ints, key=heap_key):
            c = ints[m]
            if denominator == 1:
                yield m, numerator * c, 1
            else:
                g = math.gcd(c, denominator)
                yield m, numerator * (c // g), denominator // g

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise InputError("polynomials are over different variable sets")

    def _plus(self, other, c: int) -> "Polynomial":
        """self + c * other, for a Polynomial or rational constant other."""
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        # self + c * other = self.scale / d * (d * self.ints + n * other.ints)
        # for n / d = c * other.scale / self.scale in lowest terms
        ratio = c * other.scale / self.scale
        d = ratio.denominator
        ints = add_scaled({m: d * v for m, v in self.ints.items()}, other.ints, ratio.numerator)
        return from_ints(self.nvars, ints, self.scale / d)

    def __add__(self, other) -> "Polynomial":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return self * -1

    def __sub__(self, other) -> "Polynomial":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.nvars)
            return from_ints(self.nvars, self.ints, self.scale * other, self.lead, primitive=True)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        if not (self and other):
            return Polynomial.zero(self.nvars)
        # Gauss's lemma: the product of primitive maps is primitive, led by the product of leads
        data: dict[Monomial, int] = {}
        for m, c in self.ints.items():
            add_scaled(data, other.ints, c, m)
        lead = monomial_mul(self.lead, other.lead)
        return from_ints(self.nvars, data, self.scale * other.scale, lead, primitive=True)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise InputError("polynomial exponents must be nonnegative integers")
        result = Polynomial.one(self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def mul_term(self, m: Monomial, c) -> "Polynomial":
        """Multiply by the single term c * x^m."""
        c = _rational(c)
        if not (c and self):
            return Polynomial.zero(self.nvars)
        data = {monomial_mul(t, m): v for t, v in self.ints.items()}
        lead = monomial_mul(self.lead, m)
        return from_ints(self.nvars, data, self.scale * c, lead, primitive=True)

    def monic(self) -> "Polynomial":
        if not self or self.scale * self.ints[self.lead] == 1:
            return self
        scale = Fraction(1, self.ints[self.lead])
        return from_ints(self.nvars, self.ints, scale, self.lead, primitive=True)

    # -- structural operations ----------------------------------------------

    def permute_variables(self, sigma: Sequence[int]) -> "Polynomial":
        """Relabel variables: old variable i becomes new variable sigma[i]."""
        if sorted(sigma) != list(range(self.nvars)):
            raise InputError("sigma must be a permutation of the variable indices")
        data = {}
        for m, c in self.ints.items():
            exps = [0] * self.nvars
            for i, e in enumerate(m):
                exps[sigma[i]] = e
            data[tuple(exps)] = c
        return from_ints(self.nvars, data, self.scale, primitive=True)

    def derivative(self, i: int) -> "Polynomial":
        return from_ints(self.nvars, derivative_map(self.ints, i), self.scale)

    # -- identity ------------------------------------------------------------

    def sort_key(self) -> tuple:
        """A deterministic total key on polynomials (for canonical orderings)."""
        return (self.degree(), tuple(sorted((m, self.scale * c) for m, c in self.ints.items())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.scale == other.scale and self.ints == other.ints

    def __hash__(self) -> int:
        return hash((self.nvars, self.scale, frozenset(self.ints.items())))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.ints:
            return "Polynomial(0)"
        parts = [f"{n}*x^{m}" if d == 1 else f"{n}/{d}*x^{m}" for m, n, d in self.descending_terms()]
        return "Polynomial(" + " + ".join(parts) + ")"


def from_ints(
    nvars: int,
    ints: dict,
    scale: Fraction = Fraction(1),
    lead: Monomial | None = None,
    primitive: bool = False,
) -> Polynomial:
    """The polynomial ``scale * ints``, for a term map of nonzero ints and a
    nonzero Fraction: the one normalizer every polynomial is built by.  The
    content of ``ints``, signed to leave a positive coefficient at the
    leading monomial, moves into the scale; ``ints`` is kept, not copied,
    when nothing divides out.  ``lead`` is the leading monomial when the
    caller knows it; ``primitive`` vouches that ``ints`` has no common
    factor (a product of primitive maps, a shift, a projection), so only the
    sign is fixed."""
    if ints:
        if lead is None:
            lead = min(ints, key=heap_key)
        content = 1 if primitive else math.gcd(*ints.values())
        if ints[lead] < 0:
            content = -content
        if content != 1:
            ints = {m: c // content for m, c in ints.items()}
            scale = scale * content
    else:
        scale = Fraction(1)
    p = object.__new__(Polynomial)
    object.__setattr__(p, "nvars", nvars)
    object.__setattr__(p, "ints", ints)
    object.__setattr__(p, "scale", scale)
    object.__setattr__(p, "lead", lead)
    return p


def cleared(terms: Mapping) -> tuple[dict, Fraction]:
    """``(ints, scale)`` with ``terms == scale * ints`` for a term map of
    rationals: ``ints`` integral, the scale 1 over their least common denominator."""
    denominator = math.lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (denominator // c.denominator) for m, c in terms.items()}, Fraction(1, denominator)


def derivative_map(ints: Mapping, i: int) -> dict:
    """The derivative of a term map with respect to variable i, a term map
    of the same coefficient type: integral for an integer map."""
    data = {}
    for m, c in ints.items():
        if m[i]:
            exps = list(m)
            exps[i] -= 1
            data[tuple(exps)] = c * m[i]
    return data


def side_by_side(forms: Sequence[Polynomial]) -> tuple[dict, int]:
    """``(vector, d)``: the forms laid side by side as one integer vector,
    ``{(k, m): c}`` with ``forms[k] = sum of c * x^m over d``, for ``d`` the
    least common denominator of their scales."""
    d = math.lcm(*(p.scale.denominator for p in forms))
    vector = {}
    for k, p in enumerate(forms):
        n = p.scale.numerator * (d // p.scale.denominator)
        for m, c in p.ints.items():
            vector[k, m] = n * c
    return vector, d


def add_scaled(out: dict, terms: Mapping, c=1, shift: Monomial | None = None) -> dict:
    """``out += c * x^shift * terms`` in place, deleting every key whose
    coefficient cancels; returns ``out``.  ``c`` and the coefficients of
    ``terms`` are nonzero, so only a key that ``out`` already holds can
    cancel."""
    for m, x in terms.items():
        if shift is not None:
            m = tuple(map(add, m, shift))
        if v := out.get(m, 0) + c * x:
            out[m] = v
        else:
            del out[m]
    return out


# ---------------------------------------------------------------------------
# determinants


def minors(
    matrix: Sequence[Sequence[dict]],
    size: int,
    form: Callable[[Monomial], Polynomial] | None = None,
) -> Iterator[dict]:
    """Every size x size minor of a matrix of integer term maps ``{monomial:
    int}``, as such a map (empty when zero): row combinations outer, column
    combinations inner.  ``form(m)`` is the normal form of the monomial m
    modulo an ideal I, and every product of monomials is replaced by it, so
    each minor comes out already reduced modulo I; without ``form`` the
    minors are the plain ones.

    Each map is the reduced minor times a nonzero rational, and exactly the
    minor when every form is integral, as every plain minor is.  A form is
    read as its integer map times its scale's numerator, over the scale's
    denominator; a minor is kept as an integer map over its own
    denominator, and a product whose denominator does not divide it
    rescales the map once, the way :func:`cmtype.groebner.normal_form`
    rescales its frame.  The last denominator is dropped.

    The minors on one row set are the coordinates of the exterior product of
    those rows, each built as the first row wedged with the memoized product
    of the rows below it, and the product of no rows is 1 on no columns.  A
    column set is a bitmask: an entry (r0, j) times the minor on a set S
    without j adds to the minor on S | 1 << j, signed by the parity of the
    members of S below j.  Reducing each product is exact, since NF(a*b) =
    NF(NF(a)*b) when the normal form NF is linear and NF(a) - a lies in I;
    ``form`` is called once per distinct pair of factor monomials."""
    products: dict = {}  # m1 -> {m2: the form of m1 * m2}, shared by every entry term m1
    rows_items = [
        [(1 << j, tuple((m, c, products.setdefault(m, {})) for m, c in entry.items()))
         for j, entry in enumerate(row) if entry]
        for row in matrix
    ]
    unit = next((unit_monomial(len(m)) for row in matrix for e in row for m in e), ())
    # the wedges of the trailing row sets, their maps as item tuples
    below: dict = {(): ({0: ((unit, 1),)}, {})}

    def reduced(m1: Monomial, m2: Monomial) -> tuple:
        """(items, d): the form of m1 * m2 is the integer items over d."""
        m = tuple(map(add, m1, m2))
        if form is None:
            return ((m, 1),), 1
        nf = form(m)
        n = nf.scale.numerator
        return tuple((t, n * x) for t, x in nf.ints.items()), nf.scale.denominator

    def wedge(rows: tuple[int, ...]) -> tuple[dict, dict]:
        """({column mask: minor's integer map}, {column mask: its denominator,
        when not 1}) over the column sets where the rows have a term."""
        rest = rows[1:]
        if rest not in below:
            maps, rest_dens = wedge(rest)
            below[rest] = {cols: tuple(out.items()) for cols, out in maps.items() if out}, rest_dens
        subs, sub_dens = below[rest]
        first = rows_items[rows[0]]
        result: dict = {}
        dens: dict = {}
        for cols, sub in subs.items():
            den = sub_dens.get(cols, 1)
            for bit, entry in first:
                if cols & bit:
                    continue
                key = cols | bit
                out = result.get(key)
                if out is None:
                    out = result[key] = {}
                frame = dens.get(key, 1) if dens else 1
                sign = -1 if (cols & (bit - 1)).bit_count() & 1 else 1
                for m1, c1, by_m2 in entry:
                    c1 *= sign
                    for m2, c2 in sub:
                        reduced_items = by_m2.get(m2)
                        if reduced_items is None:
                            reduced_items = by_m2[m2] = reduced(m1, m2)
                        items, d = reduced_items
                        c = c1 * c2
                        if d != 1 or den != 1 or frame != 1:
                            d *= den
                            if frame % d:  # out / frame + c * items / d over a common frame
                                grow = d // math.gcd(frame, d)
                                for t in out:
                                    out[t] *= grow
                                frame = dens[key] = frame * grow
                            c *= frame // d
                        # inline, not add_scaled: the innermost loop of a singular locus
                        for t, x in items:
                            if v := out.get(t, 0) + c * x:
                                out[t] = v
                            else:
                                del out[t]
        return result, dens

    ncols = len(matrix[0]) if matrix else 0
    masks = [sum(1 << j for j in cols) for cols in combinations(range(ncols), size)]
    for rows in combinations(range(len(matrix)), size):
        dets = wedge(rows)[0]
        for mask in masks:
            yield dets.get(mask) or {}
