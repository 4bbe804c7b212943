"""Exact multivariate polynomial arithmetic under the degrevlex term order.

Coefficients are exact, ``fractions.Fraction`` or ``int``, never ``float``;
nothing in the library ever rounds.  The constructor stores Fractions; the
S-polynomial keeps ints.  Division by a basis runs internally on primitive
integer multiples (:func:`integer_multiple`, :meth:`Polynomial.reducer`)
whose rational scale is tracked exactly, so every remainder is again a
Fraction polynomial.  A monomial is a plain exponent tuple, one entry per
variable, and the position of a variable in its :class:`VariableSet` fixes
its significance in degrevlex (earlier = more significant).
:func:`add_scaled` is the one sparse accumulate: every sum of term maps in
the package, from polynomial arithmetic to the parser, the S-polynomial,
quotient images and echelon residuals, goes through it, except the two
innermost loops of division and of :func:`minors`.  :func:`minors`
is the one determinant routine: the Jacobian minors of the singular locus,
expanded modulo the ideal as exterior products of their rows, and the 2x2
minors of the determinantal families both come from it.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from operator import add, le
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InputError

Monomial = tuple  # exponent tuple, one entry per variable

_IDENT_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*\Z")


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
# variables


@dataclass(frozen=True)
class VariableSet:
    """Ordered, distinct variable names.

    Declaration order is significant: it fixes degrevlex significance
    and the rendering order.  Presentations always have at least one
    variable; the empty set only arises internally when minimalization
    eliminates every variable (the residue field).
    """

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise InputError("variable names must be distinct")
        for name in self.names:
            if not _IDENT_RE.match(name):
                raise InputError(f"invalid variable name {name!r}")

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown variable {name!r}") from None


# ---------------------------------------------------------------------------
# polynomials


def _coeff(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise InputError(f"coefficients must be exact rationals, got {type(value).__name__}")


class Polynomial:
    """Immutable sparse polynomial over the rationals.

    Stored as a map from exponent tuple to nonzero exact coefficient, a
    Fraction or an int, never a float; two equal polynomials therefore have
    equal term maps.  The degrevlex leading term and the reducer data are
    memoized in the slots ``_lead`` and ``_reducer``, set on first use.
    """

    __slots__ = ("nvars", "terms", "_lead", "_reducer")

    def __init__(self, nvars: int, terms: dict | Iterable[tuple] = ()):
        data: dict[Monomial, Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for m, c in items:
            m = tuple(m)
            if len(m) != nvars or any(e < 0 for e in m):
                raise InputError(f"bad exponent tuple {m} for {nvars} variables")
            c = _coeff(c) + data.get(m, Fraction(0))
            if c:
                data[m] = c
            else:
                data.pop(m, None)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", data)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

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
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, [(tuple(exps), 1)])

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(monomial_degree(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {monomial_degree(m) for m in self.terms}
        return len(degrees) <= 1

    def coefficient(self, m: Monomial) -> Fraction:
        return self.terms.get(tuple(m), Fraction(0))

    def leading_term(self) -> tuple[Monomial, Fraction]:
        try:
            return self._lead
        except AttributeError:
            if not self.terms:
                raise InputError("zero polynomial has no leading term") from None
        m = max(self.terms, key=monomial_key)
        object.__setattr__(self, "_lead", (m, self.terms[m]))
        return self._lead

    def reducer(self) -> tuple[Monomial, int, tuple]:
        """``(lm, lc, tail)`` of the primitive integer multiple of self whose
        lead coefficient ``lc`` is positive; ``tail`` lists the other terms as
        ``(monomial, int)`` pairs.  The form in which division divides by self."""
        try:
            return self._reducer
        except AttributeError:
            pass
        lm = self.leading_term()[0]
        ints = integer_multiple(self.terms)[1]
        sign = 1 if ints[lm] > 0 else -1
        lc = sign * ints.pop(lm)
        tail = tuple((m, sign * c) for m, c in ints.items())
        object.__setattr__(self, "_reducer", (lm, lc, tail))
        return self._reducer

    def leading_monomial(self) -> Monomial:
        return self.leading_term()[0]

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: monomial_key(t[0]), reverse=True)

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
        return _raw(self.nvars, add_scaled(dict(self.terms), other.terms, c))

    def __add__(self, other) -> "Polynomial":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _raw(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            if not c:
                return Polynomial.zero(self.nvars)
            return _raw(self.nvars, {m: v * c for m, v in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        data: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            add_scaled(data, other.terms, c, m)
        return _raw(self.nvars, data)

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
        c = _coeff(c)
        if not c:
            return Polynomial.zero(self.nvars)
        return _raw(self.nvars, {monomial_mul(t, m): v * c for t, v in self.terms.items()})

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        m, lc = self.leading_term()
        if lc == 1:
            return self
        out = self * (Fraction(1) / lc)
        object.__setattr__(out, "_lead", (m, Fraction(1)))
        return out

    # -- structural operations ----------------------------------------------

    def extend(self, extra: int) -> "Polynomial":
        """Append `extra` fresh variables (exponent 0 everywhere)."""
        pad = (0,) * extra
        return _raw(self.nvars + extra, {m + pad: c for m, c in self.terms.items()})

    def permute_variables(self, sigma: Sequence[int]) -> "Polynomial":
        """Relabel variables: old variable i becomes new variable sigma[i]."""
        if sorted(sigma) != list(range(self.nvars)):
            raise InputError("sigma must be a permutation of the variable indices")
        data = {}
        for m, c in self.terms.items():
            exps = [0] * self.nvars
            for i, e in enumerate(m):
                exps[sigma[i]] = e
            data[tuple(exps)] = c
        return _raw(self.nvars, data)

    def derivative(self, i: int) -> "Polynomial":
        data: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            exps = list(m)
            exps[i] -= 1
            data[tuple(exps)] = c * m[i]
        return _raw(self.nvars, data)

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        if len(values) != self.nvars:
            raise InputError("wrong number of values")
        total = Fraction(0)
        for m, c in self.terms.items():
            term = c
            for v, e in zip(values, m):
                if e:
                    term *= Fraction(v) ** e
            total += term
        return total

    # -- identity ------------------------------------------------------------

    def sort_key(self) -> tuple:
        """A deterministic total key on polynomials (for canonical orderings)."""
        return (self.degree(), tuple(sorted(self.terms.items())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.terms:
            return "Polynomial(0)"
        parts = [f"{c}*x^{m}" for m, c in self.sorted_terms()]
        return "Polynomial(" + " + ".join(parts) + ")"


def _raw(nvars: int, data: dict) -> Polynomial:
    """Internal constructor for already-clean term maps."""
    p = object.__new__(Polynomial)
    object.__setattr__(p, "nvars", nvars)
    object.__setattr__(p, "terms", data)
    return p


def polynomial_from_descending(nvars: int, data: dict) -> Polynomial:
    """Polynomial from a clean term map whose first key is its leading
    monomial, which is remembered."""
    p = _raw(nvars, data)
    if data:
        m = next(iter(data))
        object.__setattr__(p, "_lead", (m, data[m]))
    return p


def add_scaled(out: dict, terms, c=1, shift: Monomial | None = None) -> dict:
    """``out += c * x^shift * terms`` in place, deleting every key whose
    coefficient cancels; returns ``out``.  ``terms`` is a term map or the
    ``(monomial, coefficient)`` pairs of a :meth:`Polynomial.reducer` tail.
    ``c`` and the coefficients of ``terms`` are nonzero, so only a key that
    ``out`` already holds can cancel."""
    for m, x in terms.items() if isinstance(terms, dict) else terms:
        if shift is not None:
            m = tuple(map(add, m, shift))
        if v := out.get(m, 0) + c * x:
            out[m] = v
        else:
            del out[m]
    return out


def integer_multiple(terms: dict) -> tuple[Fraction, dict[Monomial, int]]:
    """``(scale, ints)`` with ``terms == scale * ints``, where ``ints`` has
    integer coefficients without common factor: the primitive integer multiple."""
    denominator = math.lcm(*(c.denominator for c in terms.values()))
    ints = {m: c.numerator * (denominator // c.denominator) for m, c in terms.items()}
    content = math.gcd(*ints.values())
    if content > 1:
        ints = {m: c // content for m, c in ints.items()}
    return Fraction(content, denominator), ints


# ---------------------------------------------------------------------------
# determinants


def minors(
    matrix: Sequence[Sequence[dict]], size: int, form: Callable[[Monomial], dict]
) -> Iterator[dict]:
    """Every size x size minor of a matrix of integer term maps ``{monomial:
    int}``, as such a map (empty when zero): row combinations outer, column
    combinations inner.  Every product of monomials m is replaced by the term
    map ``form(m)``, so a normal form modulo an ideal I gives every minor
    already reduced modulo I; ``lambda m: {m: 1}`` gives the plain minors.

    The minors on one row set are the coordinates of the exterior product of
    those rows, each built as the first row wedged with the memoized product
    of the rows below it: an entry (r0, j) times the minor on a column set S
    without j adds to the minor on S + {j}, signed by j's position there.
    Reducing each product is exact, since NF(a*b) = NF(NF(a)*b) when the
    normal form NF is linear and NF(a) - a lies in I; ``form`` is called once
    per distinct pair of factor monomials."""
    products: dict = {}
    below: dict = {}

    def wedge(rows: tuple[int, ...]) -> dict:
        """{cols: minor on (rows, cols)} over the column sets with a term."""
        first = matrix[rows[0]]
        result: dict = {}
        if len(rows) == 1:
            for j, entry in enumerate(first):
                if not entry:
                    continue
                out = result[(j,)] = {}
                for m, c in entry.items():
                    add_scaled(out, form(m), c)
            return result
        rest = rows[1:]
        if rest not in below:
            below[rest] = wedge(rest)
        entries = [(j, entry) for j, entry in enumerate(first) if entry]
        for cols, sub in below[rest].items():
            if not sub:
                continue
            for j, entry in entries:
                if j in cols:
                    continue
                k = bisect_left(cols, j)
                key = cols[:k] + (j,) + cols[k:]
                out = result.get(key)
                if out is None:
                    out = result[key] = {}
                sign = -1 if k % 2 else 1
                for m1, c1 in entry.items():
                    c1 *= sign
                    for m2, c2 in sub.items():
                        reduced = products.get(pair := (m1, m2))
                        if reduced is None:
                            reduced = products[pair] = form(monomial_mul(m1, m2))
                        c = c1 * c2
                        # inline, not add_scaled: the innermost loop of a singular locus
                        for t, x in reduced.items():
                            if v := out.get(t, 0) + c * x:
                                out[t] = v
                            else:
                                del out[t]
        return result

    for rows in combinations(range(len(matrix)), size):
        dets = wedge(rows)
        for cols in combinations(range(len(matrix[rows[0]])), size):
            yield dets.get(cols) or {}
