"""Buchberger engine, normal forms, leading monomials, minimal presentations."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cmtype import (
    BudgetError,
    Budgets,
    CmtypeError,
    Polynomial,
    buchberger,
    make_presentation,
    minimalize_presentation,
    normal_form,
    parse_presentation,
    scroll_ideal,
    spoly,
)
from cmtype import groebner
from cmtype.groebner import _minimal_homogeneous_generators
from cmtype.invariants import hilbert_numerator, hilbert_series_from_gb
from cmtype import poly
from cmtype.poly import monomial_divides, monomials_of_degree
from cmtype.presentation import RingPresentation, render_presentation

import oracles
from oracles import (
    buchberger_oracle,
    hilbert_function_oracle,
    minimal_homogeneous_generators_oracle,
    minimalize_presentation_oracle,
    normal_form_oracle,
    random_homogeneous_ideal,
    random_homogeneous_polynomial,
    rational_homogeneous_presentations,
    singular_locus_oracle,
    spoly_oracle,
)


def gb_of(text):
    return buchberger(parse_presentation(text))


def divisions(run, *modules):
    """Run ``run()`` with each module's ``normal_form`` recording every
    division: its input's primitive integer map ``ints``, which division
    starts from and which two polynomials equal up to a rational factor
    share (the engine's packed S-polynomial and the oracle's), and whether
    the remainder is zero."""
    log = []
    nf = groebner.normal_form

    def recorded_normal_form(p, basis):
        remainder = nf(p, basis)
        if not isinstance(p, Polynomial):  # a packed S-pair of the divisor set
            p = poly.from_ints(basis.nvars, basis.unpacked(p))
        log.append((p.ints, remainder.is_zero))
        return remainder

    with pytest.MonkeyPatch.context() as mp:
        for module in modules:
            mp.setattr(module, "normal_form", recorded_normal_form)
        return run(), log


def assert_oracle_minus_zero_divisions(engine, oracle):
    """The engine's divisions are the oracle's, in order, minus some that the
    oracle reduced to zero."""
    rest = iter(engine)
    pending = next(rest, None)
    for division in oracle:
        if division == pending:
            pending = next(rest, None)
        else:
            assert division[1], division
    assert pending is None


class TestNormalForm:
    def test_member_of_monomial_ideal_reduces_to_zero(self):
        gb = gb_of("ring: x,y,z ; ideal: x*y, y*z, z^2")
        p = parse_presentation("ring: x,y,z ; ideal: x*y + y*z").generators[0]
        assert normal_form(p, gb).is_zero

    def test_no_divisible_term_is_fixed(self):
        gb = gb_of("ring: x,y,z ; ideal: x*y, y*z, z^2")
        p = Polynomial.variable(3, 0) ** 2
        assert normal_form(p, gb) == p

    def test_y_squared_reduces_to_xz_for_cyclic_minors(self):
        gb = gb_of("ring: x,y,z ; ideal: x*z - y^2, x^2 - y*z, x*y - z^2")
        x, y, z = (Polynomial.variable(3, i) for i in range(3))
        reduced = normal_form(y**2, gb)
        assert reduced == x * z
        # membership of the difference confirms the reduction
        assert normal_form(y**2 - x * z, gb).is_zero

    def test_idempotent(self):
        gb = gb_of("ring: x,y ; ideal: x^2 - y^2")
        rng = random.Random(5)
        for _ in range(20):
            p = Polynomial(
                2, [((rng.randint(0, 3), rng.randint(0, 3)), rng.randint(-2, 2)) for _ in range(4)]
            )
            once = normal_form(p, gb)
            assert normal_form(once, gb) == once
            assert normal_form(p - once, gb).is_zero

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_matches_the_fraction_oracle(self, data):
        nvars = data.draw(st.integers(1, 4))
        p = data.draw(polynomials(nvars))
        basis = data.draw(st.lists(polynomials(nvars), max_size=4))
        assert normal_form(p, basis) == normal_form_oracle(p, basis)


class TestSpoly:
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_rational_multiple_of_the_fraction_oracle(self, data):
        # non-monic inputs with rational coefficients, denominators up to 4
        nvars = data.draw(st.integers(1, 4))
        f, g = (data.draw(polynomials(nvars).filter(bool)) for _ in range(2))
        basis = data.draw(st.lists(polynomials(nvars), max_size=4))
        s, expected = spoly(f, g), spoly_oracle(f, g)
        assert s.scale.denominator == 1  # every coefficient is an int
        assert s.ints.keys() == expected.ints.keys()
        if expected:
            m = expected.lead
            assert s * (expected.coefficient(m) / s.coefficient(m)) == expected
        assert normal_form(s, basis).monic() == normal_form(expected, basis).monic()


@st.composite
def packed_monomials(draw):
    """(nvars, w, a, b): two monomials whose product has degree at most
    2^(w-1) - 1, the most a field of w bits holds; the boundary, a product
    with all of that degree in one variable, is reachable."""
    nvars = draw(st.integers(0, 5))
    width = draw(st.integers(1, 8))
    cap = 2 ** (width - 1) - 1
    cuts = sorted(draw(st.lists(st.integers(0, cap), min_size=nvars, max_size=nvars)))
    product = [hi - lo for lo, hi in zip([0] + cuts, cuts)]  # degree cuts[-1] <= cap
    a = tuple(draw(st.integers(0, e)) for e in product)
    return nvars, width, a, tuple(e - f for e, f in zip(product, a))


class TestPackedMonomials:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(packed_monomials())
    def test_packing_agrees_with_exponent_tuples(self, drawn):
        nvars, width, a, b = drawn
        cap = 2 ** (width - 1) - 1
        divisors = groebner.DivisorSet(nvars, degree=cap)
        assert divisors.width == width
        assert groebner.DivisorSet(nvars, degree=cap + 1).width == width + 1
        pack, guard, mask = divisors.pack, divisors.guard, divisors.mask
        pa, pb = pack(a), pack(b)
        assert divisors.unpacked({pa: 1, pb: 2}) == {a: 1, b: 2} or a == b
        # the heap key ascends as the monomial descends in degrevlex
        key_a, key_b = 2 * (pa & mask) - pa, 2 * (pb & mask) - pb
        assert (key_a < key_b) == (poly.monomial_key(a) > poly.monomial_key(b))
        assert (key_a == key_b) == (a == b)
        for m, n in ((a, b), (b, a), (a, a)):
            assert (((pack(n) | guard) - pack(m)) & guard == guard) == monomial_divides(m, n)
        product = poly.monomial_mul(a, b)
        assert pa + pb == pack(product)
        assert pack(product) - pa == pb

    def test_a_higher_input_repacks_the_set(self):
        x, y, z = (Polynomial.variable(3, i) for i in range(3))
        basis = [x * y - z**2, y**2 - x * z, 3 * x * z - 2 * y * z]
        divisors = groebner.DivisorSet(3, basis)
        assert divisors.width == 3  # degrees up to 3
        inputs = [
            (x**3 + 2 * y**3 - x * y * z, 3),  # at the top of the field
            (x**4 * y**3 - z**7 + Fraction(1, 3) * x * y**6, 4),  # degree 7: wider
            (x**8 - y**5 * z**3, 5),
            (y**2, 5),  # a lower input keeps the wider set
        ]
        for p, width in inputs:
            assert normal_form(p, divisors) == normal_form_oracle(p, basis)
            assert divisors.width == width

    def test_a_set_repacked_mid_run_gives_the_oracle_basis(self, monkeypatch):
        # The S-pair of x^N*y - y^(N+1) and x*y^2 is y^(N+2).  For N = 10^8
        # all three degrees fit the 28-bit fields the generators need; for
        # N = 2^27 - 2 the generator fills its fields (degree 2^27 - 1) and
        # the S-pair repacks the set wider before it is divided.  Only the
        # layouts of buchberger's own set, the first one laid out, count: the
        # interreduction lays out a set of its own at the final width.
        layouts = []
        layout = groebner.DivisorSet._layout

        def recorded_layout(self, degree):
            layout(self, degree)
            layouts.append((self, len(self.elements), self.width))

        monkeypatch.setattr(groebner.DivisorSet, "_layout", recorded_layout)
        for n, widths in ((10**8, [1, 28]), (2**27 - 2, [1, 28, 29])):
            pres = parse_presentation(f"ring: x, y ; ideal: x^{n}*y - y^{n + 1}, x*y^2")
            layouts.clear()
            gb = buchberger(pres, budgets=Budgets(degree=10**9))
            first = layouts[0][0]
            assert [w for s, count, w in layouts if s is first and count <= 2] == widths
            assert gb.elements == buchberger_oracle(pres, budgets=Budgets(degree=10**9)).elements
            x, y = (Polynomial.variable(2, i) for i in range(2))
            assert gb.elements == (y ** (n + 2), x**n * y - y ** (n + 1), x * y**2)


def interreduced_by_the_oracle(basis):
    """Drop every element whose lead an earlier one's divides, in ascending
    lead order, and reduce each kept element against all the other kept
    ones with the Fraction oracle; canonical order."""
    kept = []
    for g in sorted(basis, key=lambda g: poly.monomial_key(g.lead)):
        if not any(monomial_divides(h.lead, g.lead) for h in kept):
            kept.append(g)
    reduced = [normal_form_oracle(g, [h for h in kept if h is not g]).monic() for g in kept]
    return tuple(sorted(reduced, key=lambda g: poly.monomial_key(g.lead), reverse=True))


class TestInterreduce:
    def test_a_tail_term_divisible_only_by_a_later_element_of_the_same_degree(self):
        # x*y in the tail of the first element is divisible by the lead of the
        # second alone, which comes later in the list and has the same degree
        x, y = (Polynomial.variable(2, i) for i in range(2))
        basis = [x**2 + 3 * x * y - y**2, 2 * x * y + y**2, y**3]
        reduced = groebner._interreduce(groebner.DivisorSet(2, basis))
        assert reduced == (y**3, x**2 - Fraction(5, 2) * y**2, x * y + Fraction(1, 2) * y**2)
        assert reduced == interreduced_by_the_oracle(basis)

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(rational_homogeneous_presentations(max_degree=3, max_generators=4), st.data())
    def test_shuffled_unreduced_bases_give_the_oracle_basis(self, pres, data):
        # each element of the reduced basis gains multiples of the others
        # below its lead, and a scale; redundant multiples and scaled copies
        # join it; the list is shuffled
        gb = buchberger(pres)
        n, elements = gb.nvars, gb.elements
        monomial = st.sampled_from(monomials_of_degree(n, 1) + monomials_of_degree(n, 0))
        scale = st.fractions(-4, 4, max_denominator=3).filter(bool)
        basis = []
        for g in elements:
            f = g * data.draw(scale)
            for h in elements:
                m = data.draw(monomial)
                if h.degree() + sum(m) <= g.degree() and poly.monomial_key(poly.monomial_mul(h.lead, m)) < poly.monomial_key(g.lead):
                    f = f + h.mul_term(m, data.draw(scale))
            basis.append(f)
            if data.draw(st.booleans()):
                basis.append(g.mul_term(data.draw(monomial), data.draw(scale)) + f)
        basis = data.draw(st.permutations(basis))
        reduced = groebner._interreduce(groebner.DivisorSet(n, basis))
        assert reduced == interreduced_by_the_oracle(basis) == elements


class TestStandardMonomials:
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_packed_count_matches_the_brute_force_filter(self, data):
        # leads of degree at most 3 pack 3-bit fields, so degree 4 and then
        # degree 8 widen the set between two counts; a division may widen it
        # further in between, and the kept list is repacked with it
        nvars = data.draw(st.integers(1, 4))
        leads = data.draw(st.lists(st.sampled_from(
            [m for d in range(4) for m in monomials_of_degree(nvars, d)]), max_size=5))
        divisors = groebner.DivisorSet(nvars, [Polynomial(nvars, [(m, 1)]) for m in leads])
        widths = []
        for degree in range(9):
            if degree and data.draw(st.booleans()):
                divisors.fit(data.draw(st.integers(0, 40)))
            standard = groebner._standard_monomials(divisors, degree)
            widths.append(divisors.width)
            found = list(divisors.unpacked(dict.fromkeys(standard)))
            assert len(found) == len(standard)
            assert sorted(found) == sorted(oracles.standard_monomials(leads, nvars, degree))
        assert len(set(widths)) > 1


class TestBuchberger:
    def test_monomial_ideal_is_its_own_basis(self):
        gb = gb_of("ring: x,y,z ; ideal: x*y, y*z, z^2")
        rendered = {tuple(sorted(g.ints)) for g in gb.elements}
        assert rendered == {(((1, 1, 0)),), (((0, 1, 1)),), (((0, 0, 2)),)}

    def test_principal_ideal_made_monic(self):
        gb = gb_of("ring: x,y ; ideal: 3*x^2 - 3*y^2")
        assert len(gb.elements) == 1
        g = gb.elements[0]
        assert g.coefficient(g.lead) == 1

    def test_cyclic_minors_already_a_basis(self):
        pres = parse_presentation("ring: x,y,z ; ideal: x*z - y^2, x^2 - y*z, x*y - z^2")
        gb = buchberger(pres)
        # monic forms of the three generators, verified by hand S-polynomial oracle
        monic = {g.monic() for g in pres.generators}
        assert set(gb.elements) == monic
        for i in range(len(gb.elements)):
            for j in range(i + 1, len(gb.elements)):
                assert normal_form(spoly(gb.elements[i], gb.elements[j]), gb).is_zero

    def test_budget_errors_are_loud(self):
        pres = parse_presentation("ring: x,y,z ; ideal: x*z - y^2, x^2 - y*z, x*y - z^2")
        with pytest.raises(BudgetError):
            buchberger(pres, budgets=Budgets(pairs=0))
        with pytest.raises(BudgetError):
            buchberger(pres, budgets=Budgets(degree=1))

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_reduced_basis_ignores_generator_order_and_scaling(self, data):
        # "one basis per distinct ideal" rests on this: the reduced basis
        # depends on the ideal, not on how its generators are listed
        nvars = data.draw(st.integers(1, 4))
        names = [f"x{i}" for i in range(nvars)]
        small = st.integers(-3, 3).filter(bool)
        gens = []
        for _ in range(data.draw(st.integers(1, 4))):
            monomial = st.sampled_from(monomials_of_degree(nvars, data.draw(st.integers(1, 2))))
            monomials = data.draw(st.lists(monomial, min_size=1, max_size=4, unique=True))
            gens.append(Polynomial(nvars, [(m, data.draw(small)) for m in monomials]))
        scale = st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool)
        rewritten = [g * data.draw(scale) for g in data.draw(st.permutations(gens))]
        expected = buchberger(make_presentation(names, gens))
        assert buchberger(make_presentation(names, rewritten)).elements == expected.elements

    def test_matches_sympy_grevlex(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20261018)
        for _ in range(30):
            nvars = rng.randint(1, 4)
            gens = [
                random_homogeneous_polynomial(rng, nvars, rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))
            ]
            # Declaration order is significance order in both systems: x0 > x1 > ...
            symbols = sympy.symbols([f"x{i}" for i in range(nvars)])
            forms = [
                sum(
                    c * sympy.prod(s**e for s, e in zip(symbols, m))
                    for m, c in oracles.terms(g).items()
                )
                for g in gens
            ]
            theirs = []
            for g in sympy.groebner(forms, *symbols, order="grevlex", domain="QQ").polys:
                terms = [(m, Fraction(int(c.p), int(c.q))) for m, c in g.terms()]
                theirs.append(Polynomial(nvars, terms).monic())
            theirs.sort(key=lambda g: _degrevlex_key(g.lead), reverse=True)
            ours = buchberger(make_presentation([f"x{i}" for i in range(nvars)], gens))
            assert ours.elements == tuple(theirs), gens

    def test_dense_five_quadrics_compare_few_monomials(self, monkeypatch):
        # bench/workloads.py: gb_pool_item(2, 11), the 5q6v pool member 11
        text = (
            "ring: x1, x2, x3, x4, x5, x6\n"
            "ideal: -1*x1^2 - 1*x1*x4 - 2*x1*x5 - 1*x1*x6 - 2*x2^2 - 2*x2*x3 + 2*x2*x5"
            " + 1*x3^2 - 2*x3*x4 - 1*x3*x5 - 2*x3*x6 - 2*x4^2 - 2*x4*x5 + 2*x5^2,"
            " -2*x1*x2 + 2*x1*x3 - 2*x1*x4 + 2*x1*x5 - 2*x2^2 + 1*x2*x3 + 2*x2*x4"
            " - 1*x2*x5 + 1*x2*x6 + 1*x3^2 + 1*x3*x4 - 2*x3*x5 + 2*x4^2 + 1*x4*x5"
            " + 1*x4*x6 + 2*x5^2 + 1*x5*x6 - 2*x6^2,"
            " -2*x1^2 + 1*x1*x2 + 1*x1*x3 + 1*x1*x4 + 2*x1*x5 - 1*x1*x6 - 2*x2^2"
            " + 1*x2*x3 - 1*x2*x4 + 2*x2*x5 - 2*x2*x6 + 2*x3^2 - 1*x3*x4 - 2*x4^2"
            " + 1*x4*x5 + 2*x4*x6 - 2*x5^2 - 2*x5*x6 + 2*x6^2,"
            " -2*x1^2 - 1*x1*x2 - 1*x1*x4 + 1*x1*x5 + 2*x1*x6 + 2*x2^2 - 1*x2*x3"
            " + 1*x2*x5 - 2*x3^2 - 1*x3*x4 - 2*x3*x6 - 1*x4^2 - 2*x4*x5 + 1*x4*x6"
            " - 1*x5^2 + 2*x5*x6 - 1*x6^2,"
            " -1*x1^2 + 1*x1*x2 - 2*x1*x3 - 1*x1*x4 - 1*x1*x5 + 2*x1*x6 + 2*x2^2"
            " - 1*x2*x5 + 2*x3*x4 + 1*x3*x6 - 2*x4^2 + 1*x4*x6 + 2*x5^2 - 2*x5*x6 + 1*x6^2\n"
        )
        calls = {"key": 0, "normal_form": 0}
        key, nf = poly.monomial_key, groebner.normal_form

        def counted_key(m):
            calls["key"] += 1
            return key(m)

        def counted_normal_form(*args, **kwargs):
            calls["normal_form"] += 1
            return nf(*args, **kwargs)

        monkeypatch.setattr(poly, "monomial_key", counted_key)
        monkeypatch.setattr(groebner, "normal_form", counted_normal_form)
        gb = groebner.buchberger(parse_presentation(text))
        assert len(gb.elements) == 21
        # Leading terms are memoized and division keeps its own heap, so
        # comparisons stay far below the 212,733 of recomputing every leading term.
        assert calls["key"] < 10_000
        # the ideal meets the generic series, so the Hilbert bound settles
        # most degrees: 87 normal forms when every pair was reduced
        assert calls["normal_form"] == 40

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(rational_homogeneous_presentations(max_degree=2, max_generators=6))
    def test_pair_queue_matches_the_rescan_oracle(self, pres):
        # the heap pops the pair the min-rescan picked, so the same pairs come
        # in the same order; the engine divides each of them except the pairs
        # the Hilbert bound discards, and the oracle reduces those to zero
        gb, engine = divisions(lambda: buchberger(pres), groebner)
        expected, oracle = divisions(lambda: buchberger_oracle(pres), groebner, oracles)
        assert gb.elements == expected.elements
        assert_oracle_minus_zero_divisions(engine, oracle)

    def test_jacobian_ideal_pairs_compute_few_lcms(self, monkeypatch):
        # scroll(2,3) and its 55 distinct reduced minors: a 65-generator
        # Jacobian ideal, as the Fraction minor oracle builds it
        jacobian_ideal = singular_locus_oracle(scroll_ideal((2, 3))).jacobian_ideal
        assert len(jacobian_ideal.generators) == 65
        calls = {"lcm": 0, "normal_form": 0}
        lcm, nf = groebner.monomial_lcm, groebner.normal_form

        def counted_lcm(*args):
            calls["lcm"] += 1
            return lcm(*args)

        def counted_normal_form(*args, **kwargs):
            calls["normal_form"] += 1
            return nf(*args, **kwargs)

        monkeypatch.setattr(groebner, "monomial_lcm", counted_lcm)
        monkeypatch.setattr(groebner, "normal_form", counted_normal_form)
        buchberger(jacobian_ideal)
        # each pair's lcm is stored once, so nothing rescans the open pairs
        # (65,111 lcms when every step took the min over all of them)
        assert calls["lcm"] < 5_000
        assert calls["normal_form"] == 389


class TestHilbertDrivenDiscarding:
    # a complete intersection of three quadrics in three variables
    CI = "ring: x,y,z ; ideal: x^2 - y*z + z^2, y^2 - x*z + x*y, z^2 + x*y - y*z"

    def test_discarded_pairs_count_against_the_pair_budget(self, monkeypatch):
        # 9 pairs are popped and counted, as when every pair was divided,
        # but 5 of them are discarded
        pres = parse_presentation(self.CI)
        with pytest.raises(BudgetError, match=r"^buchberger: pair budget 8 exceeded$"):
            buchberger(pres, budgets=Budgets(pairs=8))
        calls = {"spoly": 0}
        original = groebner.DivisorSet.spoly

        def counted_spoly(*args):
            calls["spoly"] += 1
            return original(*args)

        monkeypatch.setattr(groebner.DivisorSet, "spoly", counted_spoly)
        gb = buchberger(pres, budgets=Budgets(pairs=9))
        assert gb.elements == buchberger_oracle(pres).elements
        assert calls["spoly"] == 4

    def test_standard_monomial_count_is_capped(self, monkeypatch):
        # one pair, of degree 21, in 9 variables: counting every degree below
        # it would enumerate 1.5 million standard monomials of degree 20
        names = [f"x{i}" for i in range(1, 10)]
        text = f"ring: {', '.join(names)} ; ideal: x1^2 + x2*x3, x1*x2^19 + x3^20"
        counted = []
        original = groebner._standard_monomials

        def recording(*args):
            counted.append(len(result := original(*args)))
            return result

        monkeypatch.setattr(groebner, "_standard_monomials", recording)
        pres = parse_presentation(text)
        assert buchberger(pres).elements == buchberger_oracle(pres).elements
        assert 0 < sum(counted) < 20_000

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_lex_bound_holds_and_bases_match_the_oracle(self, data):
        # r > n, duplicate, scaled and combined generators and linear forms
        # all come from generator_sets; the bound composes the series of the
        # first k generators with the Froeberg factors of the rest, as the
        # artinian reduction passes the ring's own series for its generators
        nvars, gens = data.draw(generator_sets())
        k = data.draw(st.integers(0, len(gens)))
        names = [f"x{i}" for i in range(nvars)]
        numerator = [1]
        if k:
            prefix_gb = buchberger_oracle(make_presentation(names, gens[:k]))
            numerator = hilbert_numerator(prefix_gb.leading_monomials(), nvars)
        degrees = [g.degree() for g in gens[k:]]
        product = groebner.numerator_product(numerator, degrees, 4)
        bound = [groebner.hilbert_coefficient(product, nvars, d) for d in range(5)]
        series = [hilbert_function_oracle(gens, nvars, d) for d in range(5)]
        assert series >= bound  # list order is the lex order
        pres = make_presentation(names, gens)
        expected = buchberger_oracle(pres).elements
        composed = groebner.numerator_product(numerator, degrees, len(numerator) + sum(degrees))
        assert buchberger(pres, numerator=composed).elements == expected

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_the_bound_past_a_missed_degree_is_never_read(self, data):
        # B = HS - t^d + t^(d+1)/(1-t) is a lex lower bound whatever follows
        # degree d, where it misses HS; past d it exceeds HS by one, so a run
        # still counting there would discard the last element of a degree
        nvars, gens = data.draw(generator_sets())
        d = data.draw(st.integers(0, 4))
        pres = make_presentation([f"x{i}" for i in range(nvars)], gens)
        expected = buchberger_oracle(pres).elements
        numerator = hilbert_numerator(buchberger_oracle(pres).leading_monomials(), nvars)
        tail = [(-1) ** i * math.comb(nvars - 1, i) for i in range(nvars)]  # (1-t)^(n-1)
        numerator += [0] * (d + nvars + 1 - len(numerator))
        for i, c in enumerate(tail):
            numerator[d + i] -= c
            numerator[d + i + 1] += 2 * c
        assert buchberger(pres, numerator=numerator).elements == expected

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_inhomogeneous_input_divides_every_pair(self, data):
        # a term one degree up makes the first generator inhomogeneous; pops
        # are then out of degree order, so nothing may be discarded
        nvars, gens = data.draw(generator_sets())
        top = data.draw(st.sampled_from(monomials_of_degree(nvars, gens[0].degree() + 1)))
        gens = [gens[0] + Polynomial(nvars, [(top, 1)])] + gens[1:]
        pres = make_presentation([f"x{i}" for i in range(nvars)], gens)
        gb, engine = divisions(lambda: buchberger(pres), groebner)
        expected, oracle = divisions(lambda: buchberger_oracle(pres), groebner, oracles)
        assert gb.elements == expected.elements
        assert engine == oracle


class TestInitialIdeal:
    def test_monomial_ideal_fixed(self):
        gb = gb_of("ring: x,y,z ; ideal: x*y, y*z, z^2")
        assert set(gb.leading_monomials()) == {(1, 1, 0), (0, 1, 1), (0, 0, 2)}

    def test_leading_term_of_binomial(self):
        gb = gb_of("ring: x,y ; ideal: x^2 + y^2")
        assert set(gb.leading_monomials()) == {(2, 0)}

    def test_cyclic_minors_initial_ideal(self):
        # degrevlex leading monomials: the degree-2 chain puts y^2 above xz,
        # so the initial ideal is (x^2, x*y, y^2); confirmed against the
        # dense Hilbert-function oracle below.
        gb = gb_of("ring: x,y,z ; ideal: x*z - y^2, x^2 - y*z, x*y - z^2")
        assert set(gb.leading_monomials()) == {(2, 0, 0), (1, 1, 0), (0, 2, 0)}
        gens = parse_presentation(
            "ring: x,y,z ; ideal: x*z - y^2, x^2 - y*z, x*y - z^2"
        ).generators
        series = hilbert_series_from_gb(gb)
        for d in range(7):
            assert series.hilbert_function(d) == hilbert_function_oracle(gens, 3, d)


class TestMinimalize:
    def test_linear_generator_substituted_out(self):
        pres = parse_presentation("ring: x,y,z ; ideal: x + y, y^2")
        minimal = minimalize_presentation(pres)
        assert minimal.variables == ("y", "z")
        assert len(minimal.generators) == 1
        assert minimal.generators[0] == Polynomial.variable(2, 0) ** 2

    def test_already_minimal_unchanged(self):
        pres = parse_presentation("ring: x,y ; ideal: x*y")
        minimal = minimalize_presentation(pres)
        assert minimal.generators == pres.generators
        assert minimal.variables == ("x", "y")

    def test_redundant_generator_dropped(self):
        pres = parse_presentation("ring: x,y ; ideal: x*y, x^2*y")
        minimal = minimalize_presentation(pres)
        assert len(minimal.generators) == 1
        assert minimal.generators[0].degree() == 2

    def test_idempotent_and_preserves_hilbert_function(self):
        rng = random.Random(99)
        for _ in range(40):
            nvars, gens = random_homogeneous_ideal(rng)
            pres = make_presentation([f"x{i}" for i in range(nvars)], gens)
            m1 = minimalize_presentation(pres)
            m2 = minimalize_presentation(m1)
            assert m1 == m2
            # Hilbert functions agree degree by degree (dense oracle on both sides)
            for d in range(5):
                hf_original = hilbert_function_oracle(gens, nvars, d)
                hf_minimal = hilbert_function_oracle(
                    list(m1.generators), m1.nvars, d
                )
                # eliminating a variable shifts the ambient ring; compare quotients
                # through their Hilbert series instead when variables dropped
                if m1.nvars == nvars:
                    assert hf_original == hf_minimal
        # explicit variable-elimination case
        pres = parse_presentation("ring: x,y,z ; ideal: x + y, y^2")
        before = hilbert_series_from_gb(buchberger(pres))
        after = hilbert_series_from_gb(buchberger(minimalize_presentation(pres)))
        for d in range(7):
            assert before.hilbert_function(d) == after.hilbert_function(d)

    def test_minimal_generator_count_via_linear_algebra(self):
        gens = parse_presentation(
            "ring: x,y ; ideal: x^2, x*y, x^2 + x*y"
        ).generators
        assert len(_minimal_homogeneous_generators(list(gens), 2)) == 2

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_matches_the_dense_oracle(self, data):
        nvars, gens = data.draw(generator_sets())
        assert _minimal_homogeneous_generators(gens, nvars) == (
            minimal_homogeneous_generators_oracle(gens, nvars)
        )

    def test_huge_degree_hypersurface_is_already_minimal(self):
        pres = parse_presentation("ring: x, y ; ideal: x^100000000*y - y^100000001")
        started = time.perf_counter()
        minimal = minimalize_presentation(pres)
        assert time.perf_counter() - started < 1.0
        assert minimal.generators == pres.generators

    def test_seed_multiples_are_budgeted(self):
        pres = parse_presentation("ring: x, y ; ideal: x^2, y^100000000")
        with pytest.raises(BudgetError, match="minimalize_presentation: degree 100000000 needs 99999999"):
            minimalize_presentation(pres)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_matches_the_substitution_oracle(self, data):
        pres = data.draw(linear_eliminations())
        assert minimalize_outcome(minimalize_presentation, pres) == (
            minimalize_outcome(minimalize_presentation_oracle, pres)
        )

    @pytest.mark.parametrize(
        "text, names",
        [
            # dependent forms eliminate every variable
            ("ring: x,y,z ; ideal: x - y, 2*y + z, 3*x + z, 2*x - 2*y, x*y", ()),
            # a constant generator survives the elimination and absorbs y^2
            ("ring: x,y ; ideal: x - y, 2, x*y", ("y",)),
            ("ring: x,y,z ; ideal: 2*z - y, y^2 - x*z, y + z, x^3", ("x",)),
            ("ring: x,y ; ideal: x - y, x^2 + y", None),  # inhomogeneous
            ("ring: x,y,z ; ideal: z - x, x^2, y^100000000", None),  # seed multiples budget
        ],
    )
    def test_fixed_cases_match_the_substitution_oracle(self, text, names):
        parsed = parse_presentation(text)  # scaled to rational coefficients
        gens = [g * Fraction(1, i + 2) for i, g in enumerate(parsed.generators)]
        pres = RingPresentation(parsed.variables, tuple(gens))
        outcome = minimalize_outcome(minimalize_presentation, pres)
        assert outcome == minimalize_outcome(minimalize_presentation_oracle, pres)
        if names is None:
            assert issubclass(outcome[0], CmtypeError)
        else:
            assert tuple(outcome[0]) == names


def minimalize_outcome(minimalize, pres):
    """The variables, the generators in order (with their leading terms and
    the rendered text) and the warnings of the result, or the error raised."""
    try:
        m = minimalize(pres)
    except CmtypeError as exc:
        return type(exc), str(exc)
    leads = [g.lead for g in m.generators]
    return m.variables, m.generators, leads, render_presentation(m), m.warnings


@st.composite
def linear_eliminations(draw):
    """Homogeneous presentations in 1-6 variables: 1..n+1 linear forms with
    rational coefficients plus dependent ones (rational combinations of
    earlier forms), next to 0-4 forms of degrees 0-3 (constants included),
    in any order."""
    nvars = draw(st.integers(1, 6))
    coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)

    def form(degree):
        monomial = st.sampled_from(monomials_of_degree(nvars, degree))
        monomials = draw(st.lists(monomial, min_size=1, max_size=4, unique=True))
        return Polynomial(nvars, [(m, draw(coefficient)) for m in monomials])

    linear = [form(1) for _ in range(draw(st.integers(1, nvars + 1)))]
    for _ in range(draw(st.integers(0, 2))):
        combination = Polynomial.zero(nvars)
        for g in draw(st.lists(st.sampled_from(linear), min_size=1, max_size=3)):
            combination = combination + g * draw(coefficient)
        if combination:
            linear.append(combination)
    others = [form(draw(st.integers(0, 3))) for _ in range(draw(st.integers(0, 4)))]
    gens = draw(st.permutations(linear + others))
    return make_presentation([f"x{i}" for i in range(nvars)], gens)


def _degrevlex_key(exps):
    return sum(exps), tuple(-e for e in reversed(exps))


@st.composite
def polynomials(draw, nvars):
    """Arbitrary polynomials in nvars variables, zero included: exponents up
    to 3 per variable (so mostly inhomogeneous) and rational coefficients."""
    monomial = st.tuples(*[st.integers(0, 3)] * nvars)
    coefficient = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    return Polynomial(nvars, draw(st.lists(st.tuples(monomial, coefficient), max_size=5)))


@st.composite
def generator_sets(draw):
    """Homogeneous forms in at most 5 variables of degrees 1-3, plus planted
    dependents: duplicates, scalar multiples and rational combinations of
    monomial multiples of earlier forms."""
    nvars = draw(st.integers(1, 5))
    small = st.integers(-3, 3).filter(bool)

    def ratio():
        return Fraction(draw(small), draw(st.integers(1, 3)))

    def monomial(degree):
        return st.sampled_from(monomials_of_degree(nvars, degree))

    def form(degree):
        monomials = draw(st.lists(monomial(degree), min_size=1, max_size=4, unique=True))
        return Polynomial(nvars, [(m, draw(small)) for m in monomials])

    gens = [form(draw(st.integers(1, 3))) for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("duplicate", "scalar", "combination")))
        g = draw(st.sampled_from(gens))
        if kind == "duplicate":
            gens.append(g)
        elif kind == "scalar":
            gens.append(g * ratio())
        else:
            degree = draw(st.integers(g.degree(), 3))
            combination = Polynomial.zero(nvars)
            for h in gens:
                if h.degree() <= degree and draw(st.booleans()):
                    shift = draw(monomial(degree - h.degree()))
                    combination = combination + h.mul_term(shift, ratio())
            if combination:
                gens.append(combination)
    return nvars, draw(st.permutations(gens))


class TestRandomSuite:
    def test_two_hundred_random_ideals(self):
        rng = random.Random(20240809)
        for trial in range(200):
            nvars, gens = random_homogeneous_ideal(rng)
            pres = make_presentation([f"x{i}" for i in range(nvars)], gens)
            gb = buchberger(pres)

            # reduced: monic, and no term is divisible by another leading monomial
            leads = gb.leading_monomials()
            for g, lm in zip(gb.elements, leads):
                assert g.coefficient(lm) == 1
                others = [h for h in leads if h != lm]
                assert not any(monomial_divides(h, m) for h in others for m in g.ints)

            # every S-polynomial of the output reduces to zero
            for i in range(len(gb.elements)):
                for j in range(i + 1, len(gb.elements)):
                    assert normal_form(spoly(gb.elements[i], gb.elements[j]), gb).is_zero

            # random polynomial combinations of the inputs reduce to zero
            for _ in range(2):
                combo = Polynomial.zero(nvars)
                for g in gens:
                    factor = Polynomial(
                        nvars,
                        [
                            (m, rng.randint(-2, 2))
                            for m in [(0,) * nvars, tuple(1 if k == rng.randrange(nvars) else 0 for k in range(nvars))]
                        ],
                    )
                    combo = combo + factor * g
                assert normal_form(combo, gb).is_zero

            # determinism across repeated runs and generator permutations
            again = buchberger(pres)
            assert again.elements == gb.elements
            shuffled = list(gens)
            rng.shuffle(shuffled)
            permuted = buchberger(
                RingPresentation(pres.variables, tuple(shuffled))
            )
            assert permuted.elements == gb.elements

            # quotient dimensions per degree match the dense oracle
            if not gb.elements or all(g.degree() > 0 for g in gb.elements):
                series = hilbert_series_from_gb(gb)
                for d in range(7):
                    assert series.hilbert_function(d) == hilbert_function_oracle(
                        gens, nvars, d
                    ), (trial, nvars, gens, d)
