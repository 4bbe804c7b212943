"""Jacobian-criterion singular locus."""

import pytest
from hypothesis import given, settings, strategies as st

from cmtype import (
    analyze,
    buchberger,
    make_presentation,
    parse_presentation,
    scroll_ideal,
    singular_locus,
    veronese_cone_ideal,
)
from cmtype import invariants, linalg, singularity
from cmtype.families import sum_of_squares
from cmtype.poly import minors

from oracles import laplace_minors, rational_homogeneous_presentations, singular_locus_oracle


def report_for(text):
    return singular_locus(analyze(parse_presentation(text)))


def test_rank_three_quadric_cone_is_isolated():
    report = report_for("ring: x,y,z ; ideal: x^2 + y^2 + z^2")
    assert report.singular_dim == 0
    assert report.isolated


def test_double_line_is_not_isolated():
    report = report_for("ring: x,y ; ideal: y^2")
    assert report.singular_dim == 1
    assert not report.isolated


def test_line_plus_double_line_is_not_isolated():
    report = report_for("ring: x,y ; ideal: x*y^2")
    assert report.singular_dim == 1
    assert not report.isolated


def test_regular_rings_report_minus_one():
    for text in ("ring: x,y ; ideal:", "ring: x,y,z ; ideal: x + y"):
        report = report_for(text)
        assert report.singular_dim == -1
        assert report.isolated


def test_quadric_family_all_ranks():
    for n in range(1, 6):
        for r in range(1, n + 1):
            report = singular_locus(analyze(sum_of_squares(r, n)))
            if r == n:
                assert report.singular_dim == 0, (n, r)
            else:
                assert report.singular_dim == n - r, (n, r)
            assert report.isolated == (report.singular_dim <= 0)


def test_free_variable_increments_singular_dimension():
    for text in (
        "ring: x,y ; ideal: y^2",
        "ring: x,y ; ideal: x*y^2",
        "ring: x,y,z ; ideal: x^2 + y^2 + z^2",
    ):
        pres = parse_presentation(text)
        base = singular_locus(analyze(pres))
        extended = make_presentation(
            pres.variables + ("t_new",), [g.extend(1) for g in pres.generators]
        )
        grown = singular_locus(analyze(extended))
        assert grown.singular_dim == base.singular_dim + 1


def test_report_carries_equidimensionality_assumption():
    report = report_for("ring: x,y ; ideal: y^2")
    assert report.equidimensional_assumed


def test_minor_budget_guard():
    import pytest

    from cmtype import BudgetError, Budgets, scroll_ideal, singular_locus

    with pytest.raises(BudgetError):
        singular_locus(analyze(scroll_ideal((5,))), budgets=Budgets(minors=10))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(rational_homogeneous_presentations(max_degree=3, max_generators=3))
def test_matches_the_fraction_minor_oracle(pres):
    # the echelon rows replace the reduced minors as generators, but the
    # Jacobian ideal, hence its reduced basis, and the dimension stay
    report = singular_locus(analyze(pres))
    expected = singular_locus_oracle(pres)
    assert report.codim == expected.codim
    assert buchberger(report.jacobian_ideal) == buchberger(expected.jacobian_ideal)
    assert report.singular_dim == expected.singular_dim


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(rational_homogeneous_presentations(max_degree=3, max_generators=4), st.integers(1, 4))
def test_minors_in_the_quotient_are_the_reduced_laplace_minors(pres, size):
    # mixed degrees and non-toric forms with Fraction normal forms: each
    # minor, expanded with every monomial product reduced, is the normal
    # form of the plain minor
    nvars = pres.nvars
    primitive = [g * (1 / g.scale) for g in pres.generators]
    jacobian = [[g.derivative(j).terms for j in range(nvars)] for g in primitive]
    quotient = invariants.Quotient(buchberger(pres))
    expected = [quotient.image(det) for det in laplace_minors(jacobian, size)]
    assert list(minors(jacobian, size, quotient.form)) == expected


def count_calls(monkeypatch, module, name):
    calls = []
    function = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_scroll_minors_span_a_whole_degree(monkeypatch):
    # scroll(2,3): 5,665 minors are nonzero in S, with 210 distinct
    # monomials, the bound below; expanding them in the quotient divides
    # only 112 monomials, and their span fills a degree of R, so no basis
    # is needed
    bundle = analyze(scroll_ideal((2, 3)))
    normal_forms = count_calls(monkeypatch, invariants, "normal_form")
    bases = count_calls(monkeypatch, singularity, "buchberger")
    report = singular_locus(bundle)
    assert report.singular_dim == 0
    assert len(normal_forms) <= 210
    assert len(bases) == 0


@pytest.mark.parametrize("pres", [veronese_cone_ideal(6), sum_of_squares(3, 4)])
def test_non_isolated_singularity_falls_back_to_one_basis(monkeypatch, pres):
    bundle = analyze(pres)
    bases = count_calls(monkeypatch, singularity, "buchberger")
    report = singular_locus(bundle)
    assert report.singular_dim == 1
    assert len(bases) == 1


@pytest.mark.parametrize("pres", [scroll_ideal((1, 1, 2)), veronese_cone_ideal(5)])
def test_analysis_and_singular_locus_use_no_dense_elimination(monkeypatch, pres):
    # minimal generators, the socle and the minor spans all run on sparse
    # echelons over the shared quotient view
    def no_rref(rows):
        raise AssertionError("dense rref called")

    monkeypatch.setattr(linalg, "rref", no_rref)
    bundle = analyze(pres)
    report = singular_locus(bundle)
    assert bundle.invariants.cm_type == 3 and report.singular_dim == 0
