"""Hilbert series, h-vectors, the quotient view, artinian reductions, CM type."""

from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cmtype import (
    InputError,
    LsopSearchError,
    Polynomial,
    analyze,
    buchberger,
    hilbert_numerator,
    make_presentation,
    parse_presentation,
    scroll_ideal,
    veronese_cone_ideal,
)
from cmtype import invariants
from cmtype.groebner import hilbert_coefficient, minimalize_presentation, normal_form
from cmtype.invariants import artinian_reduction, hilbert_series_from_gb
from cmtype.presentation import RingPresentation
from cmtype.poly import minimal_monomials, monomial_mul, monomials_of_degree

from oracles import (
    artinian_reduction_oracle,
    buchberger_oracle,
    hilbert_function_oracle,
    normal_form_oracle,
    rank,
    rational_homogeneous_presentations,
    socle_dimension_oracle,
    standard_monomials,
    terms,
)


CORPUS = {
    "gw12": "ring: x,y,z ; ideal: x*y, y*z, z^2",
    "graded12": "ring: x,y,z ; ideal: x*z - y^2, x^2 - y*z, x*y - z^2",
    "two_lines": "ring: x,y ; ideal: x*y",
    "quadric_rank3": "ring: x,y,z ; ideal: x^2 + y^2 + z^2",
    "four_lines": "ring: x,u,v,w ; ideal: u*v, u*w, v*w, u^2 - x*u, v^2 - x*v, w^2 - x*w",
    "ci_two_quadrics": "ring: x,y,z,w ; ideal: x^2 + y^2, z^2 + w^2",
    "artinian_gorenstein": "ring: x,y ; ideal: x^2, y^2",
}


class TestHilbertNumerator:
    def test_zero_ideal(self):
        assert hilbert_numerator((), 3) == [1]

    def test_principal_power(self):
        assert hilbert_numerator([(3, 0)], 2) == [1, 0, 0, -1]

    def test_three_quadric_monomials(self):
        # standard monomial counts 1, 3, 3, 3, ... give (1+2t)(1-t)^2
        assert hilbert_numerator([(1, 1, 0), (0, 1, 1), (0, 0, 2)], 3) == [1, 0, -3, 2]

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_duplicates_and_multiples_leave_the_numerator(self, data):
        # a list with repeats and non-minimal elements has the numerator of
        # its minimal set, whose Hilbert function the dense oracle gives
        nvars = data.draw(st.integers(1, 4))
        monomials = st.tuples(*[st.integers(0, 2)] * nvars)
        gens = data.draw(st.lists(monomials, max_size=5))
        if gens:
            picks = st.sampled_from(gens)
            gens += data.draw(st.lists(picks, max_size=3))
            gens += [monomial_mul(m, data.draw(monomials)) for m in data.draw(st.lists(picks, max_size=3))]
        gens = data.draw(st.permutations(gens))
        numerator = hilbert_numerator(gens, nvars)
        assert numerator == hilbert_numerator(minimal_monomials(gens), nvars)
        ideal = [Polynomial(nvars, {m: 1}) for m in gens]
        for d in range(5):
            assert hilbert_coefficient(numerator, nvars, d) == hilbert_function_oracle(ideal, nvars, d)


class TestRingInvariants:
    def test_gw12(self):
        inv = analyze(parse_presentation(CORPUS["gw12"])).invariants
        assert (inv.dim, inv.hvector, inv.multiplicity) == (1, (1, 2), 3)
        assert inv.is_cm and inv.cm_type == 2 and inv.is_gorenstein is False
        assert inv.is_min_mult and not inv.is_hypersurface

    def test_univariate_polynomial_ring(self):
        inv = analyze(parse_presentation("ring: x ; ideal:")).invariants
        assert (inv.dim, inv.hvector, inv.multiplicity) == (1, (1,), 1)
        assert inv.is_regular and inv.is_hypersurface

    def test_hankel_scroll_staircase(self):
        # scroll of type (4): 2x4 Hankel minors in 5 variables
        pres = scroll_ideal((4,))
        inv = analyze(pres).invariants
        assert (inv.dim, inv.hvector, inv.multiplicity) == (2, (1, 3), 4)
        series = hilbert_series_from_gb(buchberger(pres))
        for d in range(6):
            assert series.hilbert_function(d) == hilbert_function_oracle(
                list(pres.generators), pres.nvars, d
            )

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(rational_homogeneous_presentations(max_degree=3, max_generators=3))
    def test_hilbert_function_matches_the_oracle_and_the_standard_monomials(self, pres):
        bundle = analyze(pres)
        for d in range(6):
            expected = hilbert_function_oracle(list(pres.generators), pres.nvars, d)
            assert bundle.series.hilbert_function(d) == expected
            assert len(bundle.quotient.basis(d)) == expected
            gb = bundle.quotient.gb
            standard = standard_monomials(gb.leading_monomials(), gb.nvars, d)
            assert set(bundle.quotient.basis(d)) == set(standard)

    def test_free_variable_additivity(self):
        for text in CORPUS.values():
            pres = parse_presentation(text)
            inv = analyze(pres).invariants
            extended = make_presentation(
                pres.variables + ("t_new",),
                [
                    Polynomial(pres.nvars + 1, {m + (0,): c for m, c in terms(g).items()})
                    for g in pres.generators
                ],
            )
            inv2 = analyze(extended).invariants
            assert inv2.dim == inv.dim + 1
            assert inv2.hvector == inv.hvector

    def test_deflation_exactness(self):
        for text in CORPUS.values():
            inv = analyze(parse_presentation(text)).invariants
            assert inv.hvector[0] == 1
            assert sum(inv.hvector) == inv.multiplicity > 0
            assert inv.hvector[-1] != 0

    def test_minimal_multiplicity_equivalences(self):
        # shape (1, n) of the h-vector matches e = embdim - dim + 1
        for text in CORPUS.values():
            inv = analyze(parse_presentation(text)).invariants
            if inv.is_cm:
                assert inv.is_min_mult == (
                    inv.multiplicity == inv.embdim - inv.dim + 1
                ), text
                assert inv.is_min_mult == (len(inv.hvector) <= 2), text

    def test_inhomogeneous_input_is_hard_error(self):
        with pytest.raises(InputError):
            analyze(parse_presentation("ring: x,y ; ideal: x^2 + y")).invariants

    def test_unit_ideal_rejected(self):
        with pytest.raises(InputError):
            analyze(parse_presentation("ring: x ; ideal: 2")).invariants


class TestQuotientForm:
    @staticmethod
    def forms_against_the_oracle(text, max_degree=3):
        """Every monomial form up to max_degree, each checked as rationals
        against the Fraction division of the monomial itself."""
        bundle = analyze(parse_presentation(text))
        n = bundle.presentation.nvars
        values = []
        for d in range(max_degree + 1):
            for m in monomials_of_degree(n, d):
                form = terms(bundle.quotient.normal(m))
                expected = normal_form_oracle(Polynomial(n, [(m, 1)]), bundle.quotient.gb)
                assert form == terms(expected), m
                values.extend(form.values())
        return values

    def test_toric_forms_are_integers(self):
        text = (Path(__file__).resolve().parents[1] / "bench/corpus/scroll_2-3.ring").read_text()
        values = self.forms_against_the_oracle(text)
        assert values and all(c.denominator == 1 for c in values)

    def test_non_integral_forms_stay_fractions(self):
        # x^2 = 3/2 y^2 in the quotient; standard monomials keep coefficient 1
        values = self.forms_against_the_oracle("ring: x,y ; ideal: 2*x^2 - 3*y^2")
        assert Fraction(3, 2) in values

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(rational_homogeneous_presentations(max_degree=3, max_generators=3))
    def test_standard_monomials_are_answered_without_division(self, pres):
        # every monomial up to degree 4: a standard one is its own form and
        # never reaches normal_form, any other is divided once and agrees
        # with normal_form
        gb = buchberger(pres)
        quotient = invariants.Quotient(gb)
        with mock.patch.object(invariants, "normal_form", wraps=invariants.normal_form) as divide:
            for d in range(5):
                standard = set(quotient.basis(d))
                for m in monomials_of_degree(gb.nvars, d):
                    calls = divide.call_count
                    form = quotient.normal(m)
                    expected = normal_form(Polynomial(gb.nvars, [(m, 1)]), gb)
                    assert form == expected, m
                    if m in standard:
                        assert terms(form) == {m: 1} and divide.call_count == calls, m
                    else:
                        assert divide.call_count == calls + 1, m


class TestArtinianReduction:
    def test_two_coordinate_lines(self):
        red = analyze(parse_presentation(CORPUS["two_lines"])).reduction
        assert red.length == 2
        assert red.standard_monomial_counts == (1, 1)
        assert len(red.lsop) == 1

    def test_regular_line(self):
        red = analyze(parse_presentation("ring: x ; ideal:")).reduction
        assert red.length == 1
        assert red.standard_monomial_counts == (1,)

    def test_non_cm_length_exceeds_multiplicity(self):
        pres = parse_presentation("ring: x,y ; ideal: x^2, x*y")
        inv = analyze(pres).invariants
        red = analyze(pres).reduction
        assert inv.multiplicity == 1
        assert red.length == 2 > inv.multiplicity
        assert not inv.is_cm

    def test_deterministic_given_seed(self):
        pres = parse_presentation(CORPUS["gw12"])
        a = analyze(pres, seed=3).reduction
        b = analyze(pres, seed=3).reduction
        assert a == b

    def test_exhausted_search_reports_attempts(self, monkeypatch):
        import random as random_module

        monkeypatch.setattr(random_module.Random, "randint", lambda self, a, b: 0)
        message = r"^artinian_reduction: no linear parameter found after 20 attempts \(dim 1\)$"
        with pytest.raises(LsopSearchError, match=message):
            analyze(parse_presentation(CORPUS["two_lines"]))

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(rational_homogeneous_presentations(max_degree=3, max_generators=3))
    def test_matches_the_sequential_search_oracle(self, pres):
        minimal = minimalize_presentation(pres)
        gb = buchberger(minimal)
        series = hilbert_series_from_gb(gb)
        for seed in range(1, 6):
            reduction, basis = artinian_reduction(minimal, gb, series, seed=seed)
            expected, expected_basis = artinian_reduction_oracle(minimal, gb, series, seed=seed)
            assert reduction == expected
            assert_substitutes_the_oracle_basis(basis, expected_basis)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(rational_homogeneous_presentations(max_degree=3, max_generators=3))
    def test_socle_of_the_substituted_basis_matches_the_oracle(self, pres):
        # the socle, and with it cm_type, read in n - k variables is the
        # socle of the oracle's artinian basis in all n
        minimal = minimalize_presentation(pres)
        gb = buchberger(minimal)
        series = hilbert_series_from_gb(gb)
        for seed in range(1, 6):
            _, basis = artinian_reduction(minimal, gb, series, seed=seed)
            _, expected_basis = artinian_reduction_oracle(minimal, gb, series, seed=seed)
            socle = invariants._socle_dimension(invariants.Quotient(basis))
            assert socle == socle_dimension_oracle(expected_basis)

    @pytest.mark.parametrize(
        "pres, fallback",
        [(scroll_ideal((2, 3)), False), (scroll_ideal((2, 2)), True), (veronese_cone_ideal(5), True)],
        ids=["scroll_2-3", "scroll_2-2", "veronese_cone_5"],
    )
    def test_prefix_series_keeps_the_oracle_reduction(self, monkeypatch, pres, fallback):
        # every trial basis is told the ring's own series for the generators
        # of I; scroll(2,2) and veronese_cone(5) take the sequential search
        minimal = minimalize_presentation(pres)
        gb = buchberger(minimal)
        series = hilbert_series_from_gb(gb)
        units = monomials_of_degree(minimal.nvars, 1)
        ranks, calls = [], []
        eliminate, original = invariants.eliminate_linear_forms, invariants.buchberger

        def eliminating(variables, forms, generators):
            ranks.append(rank([[f.coefficient(u) for u in units] for f in forms]))
            return eliminate(variables, forms, generators)

        def recording(trial, **kwargs):
            calls.append((trial.nvars, kwargs["numerator"]))
            return original(trial, **kwargs)

        monkeypatch.setattr(invariants, "eliminate_linear_forms", eliminating)
        monkeypatch.setattr(invariants, "buchberger", recording)
        reduction, basis = artinian_reduction(minimal, gb, series, seed=1)
        monkeypatch.undo()
        expected, expected_basis = artinian_reduction_oracle(minimal, gb, series, seed=1)
        assert reduction == expected
        assert_substitutes_the_oracle_basis(basis, expected_basis)
        assert len(ranks) == len(calls)
        for r, (nvars, numerator) in zip(ranks, calls):
            assert nvars == minimal.nvars - r
            assert numerator == series.numerator
        assert (len(calls) > 1) == fallback

    def test_one_basis_when_the_first_forms_are_parameters(self, monkeypatch):
        # scroll(2,3): dim 3, where the sequential search alone runs three trials
        calls = []
        original = invariants.buchberger

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(invariants, "buchberger", counting)
        bundle = analyze(scroll_ideal((2, 3)), seed=1)
        assert bundle.invariants.dim == 3 and len(bundle.reduction.lsop) == 3
        assert len(calls) == 2  # the ring's basis and that of I + (l_1, l_2, l_3)


def assert_substitutes_the_oracle_basis(basis, oracle_basis):
    """The oracle's reduced basis of I + L in all n variables is the reduced
    echelon of L plus elements of degree >= 2 free of its leading variables.
    Those leading variables are exactly the ones substituted away, and the
    other elements, projected, are the returned basis."""
    linear = [g for g in oracle_basis.elements if g.degree() == 1]
    rest = [g for g in oracle_basis.elements if g.degree() != 1]
    dropped = {g.lead.index(1) for g in linear}
    keep = [i for i in range(oracle_basis.nvars) if i not in dropped]
    assert basis.variables == tuple(oracle_basis.variables[i] for i in keep)
    assert not any(m[i] for g in rest for m in g.ints for i in dropped)
    projected = tuple(
        Polynomial(len(keep), {tuple(m[i] for i in keep): c for m, c in terms(g).items()})
        for g in rest
    )
    assert basis.elements == projected


class TestCmAndType:
    def test_hypersurfaces_are_gorenstein(self):
        for text in ("ring: x,y ; ideal: x*y", "ring: x,y,z ; ideal: x^2 + y^2 + z^2"):
            result = analyze(parse_presentation(text)).invariants
            assert result.is_cm and result.cm_type == 1 and result.is_gorenstein

    def test_gw12_has_type_two(self):
        result = analyze(parse_presentation(CORPUS["gw12"])).invariants
        assert result.is_cm and result.cm_type == 2 and result.is_gorenstein is False

    def test_scroll_12_has_type_two(self):
        result = analyze(scroll_ideal((1, 2))).invariants
        assert result.is_cm and result.cm_type == 2 and result.is_gorenstein is False

    def test_complete_intersection_is_gorenstein(self):
        result = analyze(parse_presentation(CORPUS["ci_two_quadrics"])).invariants
        assert result.is_cm and result.cm_type == 1 and result.is_gorenstein

    def test_type_is_seed_independent(self):
        for text in (CORPUS["gw12"], CORPUS["graded12"], CORPUS["four_lines"]):
            pres = parse_presentation(text)
            types = {analyze(pres, seed=s).invariants.cm_type for s in range(1, 6)}
            assert len(types) == 1

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(rational_homogeneous_presentations(max_degree=3, max_generators=3))
    def test_cm_data_is_seed_independent(self, pres):
        # any linear system of parameters gives the same length when R is CM
        # and the same socle, so the seed may change the forms, nothing else
        results = set()
        for seed in (1, 2, 3):
            inv = analyze(pres, seed=seed).invariants
            results.add((inv.is_cm, inv.cm_type, inv.hvector))
        assert len(results) == 1

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(rational_homogeneous_presentations(max_degree=3, max_generators=3))
    def test_type_matches_the_socle_oracle(self, pres):
        bundle = analyze(pres)
        if bundle.invariants.is_cm:
            minimal = bundle.presentation
            artinian = RingPresentation(
                minimal.variables, minimal.generators + bundle.reduction.lsop
            )
            expected = socle_dimension_oracle(buchberger_oracle(artinian))
            assert bundle.invariants.cm_type == expected

    def test_cm_criterion_consistency(self):
        for name, text in CORPUS.items():
            pres = parse_presentation(text)
            inv = analyze(pres).invariants
            red = analyze(pres).reduction
            if inv.is_cm:
                assert sum(inv.hvector) == red.length, name
            else:
                assert red.length > inv.multiplicity, name


class TestHypersurfacePredicate:
    def test_binary_cubic(self):
        assert analyze(parse_presentation("ring: x,y ; ideal: x*y^2")).invariants.is_hypersurface

    def test_gw12_is_not(self):
        assert not analyze(parse_presentation(CORPUS["gw12"])).invariants.is_hypersurface

    def test_minimalizes_before_counting(self):
        pres = parse_presentation("ring: x,y,z ; ideal: x + y, y^2")
        assert analyze(pres).invariants.is_hypersurface
