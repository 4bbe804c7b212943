"""Jacobian-criterion singular locus."""

from hypothesis import given, settings

from cmtype import analyze, make_presentation, parse_presentation, scroll_ideal, singular_locus
from cmtype import singularity
from cmtype.families import sum_of_squares

from oracles import rational_homogeneous_presentations, singular_locus_oracle


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
            tuple(pres.variables) + ("t_new",), [g.extend(1) for g in pres.generators]
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
    # integer rows and the scalar-duplicate skip change neither the adjoined
    # minors, nor their order, nor the dimension
    report = singular_locus(analyze(pres))
    expected = singular_locus_oracle(pres)
    assert report.codim == expected.codim
    assert report.jacobian_ideal == expected.jacobian_ideal
    assert report.singular_dim == expected.singular_dim


def test_scroll_minors_are_reduced_once_per_scalar_class(monkeypatch):
    # scroll(2,3): 5,665 nonzero 5x5 minors, 2,615 of them distinct up to scalar
    bundle = analyze(scroll_ideal((2, 3)))
    calls = []
    normal_form = singularity.normal_form

    def counted_normal_form(*args, **kwargs):
        calls.append(1)
        return normal_form(*args, **kwargs)

    monkeypatch.setattr(singularity, "normal_form", counted_normal_form)
    report = singular_locus(bundle)
    assert len(report.jacobian_ideal.generators) == 65 and report.singular_dim == 0
    assert len(calls) <= 2_615


def test_scalar_class_identifies_exactly_the_scalar_multiples():
    square, cross = (0, 2), (1, 1)
    assert singularity._scalar_class({square: 2, cross: -4}) == singularity._scalar_class(
        {square: -1, cross: 2}
    )
    assert singularity._scalar_class({square: 1, cross: 1}) != singularity._scalar_class(
        {square: 1, cross: -1}
    )
    assert singularity._scalar_class({square: 3}) != singularity._scalar_class({cross: 3})
