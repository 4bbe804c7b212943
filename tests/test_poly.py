"""Polynomial arithmetic, the degrevlex term order, and their contracts."""

import math
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from cmtype import Polynomial, buchberger, classify, parse_presentation
from cmtype.poly import (
    add_scaled,
    heap_key,
    minimal_monomials,
    minors,
    monomial_key,
    monomial_mul,
    monomials_of_degree,
    side_by_side,
)

from oracles import random_homogeneous_polynomial, terms


def P(nvars, *terms):
    return Polynomial(nvars, list(terms))


x2 = (2, 0, 0)
xy = (1, 1, 0)
y2 = (0, 2, 0)
xz = (1, 0, 1)
yz = (0, 1, 1)
z2 = (0, 0, 2)


def above(a, b) -> bool:
    """a > b in degrevlex."""
    return monomial_key(a) > monomial_key(b)


class TestMonomialOrders:
    def test_degrevlex_first_variable_dominates_in_degree_one(self):
        assert above((1, 0), (0, 1))

    def test_degrevlex_degree_two_chain(self):
        chain = [x2, xy, y2, xz, yz, z2]
        for a, b in zip(chain, chain[1:]):
            assert above(a, b)

    def test_degrevlex_y3_beats_xz2(self):
        assert above((0, 3, 0), (1, 0, 2))

    def test_total_order_on_random_triples(self):
        rng = random.Random(7)
        monos = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(60)]
        for _ in range(200):
            a, b, c = rng.choice(monos), rng.choice(monos), rng.choice(monos)
            assert above(a, b) + above(b, a) + (a == b) == 1  # trichotomy
            if above(a, b) and above(b, c):
                assert above(a, c)  # transitivity
            # term order: multiplication preserves comparisons
            m = rng.choice(monos)
            assert above(monomial_mul(a, m), monomial_mul(b, m)) == above(a, b)
            # the heap key sorts the other way round
            assert (heap_key(a) < heap_key(b)) == above(a, b)

    def test_unit_monomial_is_minimal(self):
        assert above((1, 0), (0, 0))
        assert above((0, 1), (0, 0))


class TestArithmetic:
    def test_difference_of_squares(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        assert (x + y) * (x - y) == x**2 - y**2

    def test_multiplicative_identity(self):
        p = P(2, ((1, 2), Fraction(3, 4)), ((0, 0), -2))
        assert p * Polynomial.one(2) == p

    def test_monomial_product(self):
        xy_p = P(3, (xy, 1))
        yz_p = P(3, (yz, 1))
        assert xy_p * yz_p == P(3, ((1, 2, 1), 1))

    def test_ring_axioms_randomized(self):
        rng = random.Random(2024)
        for _ in range(200):
            nvars = rng.randint(1, 3)
            p = random_homogeneous_polynomial(rng, nvars, rng.randint(0, 4))
            q = random_homogeneous_polynomial(rng, nvars, rng.randint(0, 4))
            r = random_homogeneous_polynomial(rng, nvars, rng.randint(0, 4))
            assert (p * q) * r == p * (q * r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r
            assert (p + q) + r == p + (q + r)
            for poly in (p * q, p + q, p - q):
                assert_canonical(poly)

    def test_canonical_equality(self):
        a = P(2, ((1, 0), 1), ((0, 1), 1))
        b = P(2, ((0, 1), Fraction(1)), ((1, 0), Fraction(2)), ((1, 0), -1))
        assert a == b and (a.scale, a.ints) == (b.scale, b.ints)

    def test_pow(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        assert (x + y) ** 2 == x**2 + 2 * x * y + y**2
        assert (x + y) ** 0 == Polynomial.one(2)


class TestAddScaled:
    def test_a_cancelled_key_is_removed(self):
        out = {xy: 2, z2: Fraction(1, 2)}
        assert add_scaled(out, {xy: 1, yz: 3}, -2) is out
        assert out == {z2: Fraction(1, 2), yz: -6}

    def test_shift_multiplies_by_the_monomial(self):
        assert add_scaled({}, {xy: 3, z2: 1}, 2, (0, 0, 1)) == {(1, 1, 1): 6, (0, 0, 3): 2}

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_matches_a_counter_sum(self, data):
        monomials = st.tuples(st.integers(0, 2), st.integers(0, 2))
        coefficients = st.one_of(
            st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=3)
        ).filter(bool)
        out = data.draw(st.dictionaries(monomials, coefficients))
        terms = data.draw(st.dictionaries(monomials, coefficients))
        c = data.draw(coefficients)
        shift = data.draw(st.none() | monomials)
        expected = Counter(out)
        for m, x in terms.items():
            expected[m if shift is None else monomial_mul(m, shift)] += c * x
        assert add_scaled(dict(out), terms, c, shift) == {m: v for m, v in expected.items() if v}


def assert_canonical(p: Polynomial):
    """The stored form: ``scale * ints`` with ``ints`` primitive and positive at
    the degrevlex lead."""
    assert type(p.scale) is Fraction and p.scale != 0
    if not p.ints:
        assert (p.scale, p.lead) == (1, None)
        return
    assert all(type(c) is int and c for c in p.ints.values())
    assert math.gcd(*p.ints.values()) == 1
    assert p.lead == max(p.ints, key=monomial_key) and p.ints[p.lead] > 0


def reference(p: Polynomial) -> Counter:
    return Counter(terms(p))


def nonzero(counter: Counter) -> dict:
    return {m: c for m, c in counter.items() if c}


NVARS = 3
monomials3 = st.tuples(*[st.integers(0, 2)] * NVARS)
rationals = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-4, max_value=4, max_denominator=6)
).filter(bool)
polynomials = st.dictionaries(monomials3, rationals, max_size=5).map(lambda d: Polynomial(NVARS, d))
derandomized = settings(max_examples=200, deadline=None, database=None, derandomize=True)


class TestRepresentation:
    def test_content_and_sign_move_into_the_scale(self):
        p = P(3, (x2, 2), (yz, -4), (z2, 6))
        assert (p.lead, p.ints, p.scale) == (x2, {x2: 1, yz: -2, z2: 3}, 2)
        q = P(3, (yz, Fraction(1, 2)), (x2, Fraction(-3, 4)))
        assert (q.lead, q.ints, q.scale) == (x2, {x2: 3, yz: -2}, Fraction(-1, 4))
        assert [q.coefficient(m) for m in (x2, yz, z2)] == [Fraction(-3, 4), Fraction(1, 2), 0]
        zero = P(3, (x2, 1), (x2, -1))
        assert (zero.ints, zero.scale, zero.lead, zero.degree()) == ({}, 1, None, -1)

    @derandomized
    @given(polynomials, polynomials, rationals, monomials3)
    def test_operations_match_a_counter_of_fractions(self, p, q, c, m):
        a, b = reference(p), reference(q)
        product = Counter()
        for s, x in a.items():
            for t, y in b.items():
                product[monomial_mul(s, t)] += x * y
        expected = [
            (p + q, Counter({k: a[k] + b[k] for k in {*a, *b}})),
            (p - q, Counter({k: a[k] - b[k] for k in {*a, *b}})),
            (p * q, product),
            (p.mul_term(m, c), Counter({monomial_mul(t, m): x * c for t, x in a.items()})),
            (p * c, Counter({t: x * c for t, x in a.items()})),
        ]
        for result, counter in expected:
            assert_canonical(result)
            assert terms(result) == nonzero(counter)
        for i in range(NVARS):
            derivative = p.derivative(i)
            assert_canonical(derivative)
            assert terms(derivative) == {
                t[:i] + (t[i] - 1,) + t[i + 1 :]: x * t[i] for t, x in a.items() if t[i]
            }
        sigma = (2, 0, 1)
        permuted = p.permute_variables(sigma)
        assert_canonical(permuted)
        assert terms(permuted) == {(t[1], t[2], t[0]): x for t, x in a.items()}
        monic = p.monic()
        assert_canonical(monic)
        if p:
            lead_coefficient = a[p.lead]
            assert terms(monic) == {t: x / lead_coefficient for t, x in a.items()}

    @derandomized
    @given(polynomials, polynomials, rationals)
    def test_equal_polynomials_share_scale_ints_and_hash(self, p, q, c):
        for same in (p + q - q, (p * c) * Fraction(1, c), P(NVARS, *reversed(terms(p).items()))):
            assert same == p and (same.scale, same.ints) == (p.scale, p.ints)
            assert hash(same) == hash(p)

    @derandomized
    @given(polynomials, polynomials)
    def test_a_product_keeps_gauss_lemma(self, p, q):
        product = p * q
        if p and q:
            # leads multiply and the product of primitive maps is primitive
            assert product.lead == monomial_mul(p.lead, q.lead)
            assert product.ints[product.lead] == p.ints[p.lead] * q.ints[q.lead]
            assert math.gcd(*product.ints.values()) == 1
            assert product.scale == p.scale * q.scale
        else:
            assert not product


class TestStructuralOps:
    def test_permute_variables(self):
        p = P(3, ((2, 1, 0), 5))
        assert p.permute_variables((2, 0, 1)) == P(3, ((1, 0, 2), 5))

    def test_derivative(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        p = x**3 * y - x * y**3
        assert p.derivative(0) == 3 * x**2 * y - y**3

    def test_side_by_side_shares_one_denominator(self):
        p = P(3, (x2, Fraction(1, 2)), (yz, Fraction(-3, 2)))
        q = P(3, (xy, Fraction(2, 3)))
        vector, d = side_by_side([p, q, p * 0])
        assert d == 6 and vector == {(0, x2): 3, (0, yz): -9, (1, xy): 4}

    def test_homogeneity(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        assert (x * y + y**2).is_homogeneous()
        assert not (x + y**2).is_homogeneous()
        assert Polynomial.zero(2).is_homogeneous()


def test_pickle_round_trips():
    """Polynomials, and the records that hold them, can be sent to a worker process."""
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    pres = parse_presentation("ring: x, y, z, u ; ideal: x^2, x*y, y^3")
    report = classify(pres)  # its singularity section holds the Jacobian ideal
    assert report.singularity.jacobian_ideal.generators
    values = [Fraction(3, 4) * x**2 - Fraction(1, 6) * y, pres, buchberger(pres), report]
    assert values[0].scale.denominator > 1
    for value in values:
        again = pickle.loads(pickle.dumps(value))
        assert again == value and hash(again) == hash(value)


def test_minimal_monomials_match_a_divisibility_filter():
    rng = random.Random(15)
    for _ in range(300):
        nvars = rng.randint(1, 4)
        monomials = [
            tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(rng.randint(0, 8))
        ]
        expected = {
            m
            for m in monomials
            if not any(d != m and all(a <= b for a, b in zip(d, m)) for d in monomials)
        }
        result = minimal_monomials(monomials)
        assert len(result) == len(expected) and set(result) == expected
        assert list(result) == sorted(result, key=monomial_key)


def test_monomials_of_degree_counts():
    for n in range(1, 4):
        for d in range(5):
            assert len(monomials_of_degree(n, d)) == math.comb(n - 1 + d, d)


def test_minors_match_the_leibniz_formula_in_row_major_order():
    # entries c*t^e (some zero) in one variable t; each minor against the
    # signed sum over permutations, listed row combinations outer
    rng = random.Random(5)
    matrix = [[{(rng.randint(0, 2),): rng.randint(-3, 3)} for _ in range(4)] for _ in range(3)]
    matrix = [[{m: c for m, c in entry.items() if c} for entry in row] for row in matrix]

    def leibniz(rows, cols):
        total = Polynomial.zero(1)
        for perm in permutations(range(len(cols))):
            inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))
            term = Polynomial.constant(1, -1 if inversions % 2 else 1)
            for r, k in zip(rows, perm):
                term = term * Polynomial(1, matrix[r][cols[k]])
            total = total + term
        return total

    for size in (1, 2, 3):
        expected = [
            leibniz(rows, cols)
            for rows in combinations(range(3), size)
            for cols in combinations(range(4), size)
        ]
        assert [Polynomial(1, det) for det in minors(matrix, size)] == expected
