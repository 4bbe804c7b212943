"""Jacobian-criterion singular locus."""

from cmtype import analyze, make_presentation, parse_presentation, singular_locus
from cmtype.families import sum_of_squares


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
