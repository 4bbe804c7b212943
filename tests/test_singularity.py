"""Jacobian-criterion singular locus."""

import pytest
from hypothesis import given, settings, strategies as st

from cmtype import (
    Polynomial,
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
from cmtype.groebner import normal_form
from cmtype.poly import derivative_map, minors, unit_vectors

from oracles import laplace_minors, rational_homogeneous_presentations, singular_locus_oracle, terms


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
            pres.variables + ("t_new",),
            [
                Polynomial(pres.nvars + 1, {m + (0,): c for m, c in terms(g).items()})
                for g in pres.generators
            ],
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


def test_the_minor_budget_counts_the_minors_expanded():
    # veronese_cone 6 has one variable no generator uses: its Jacobian has
    # 6 columns, not 7, so C(6, 3) * C(6, 3) = 400 minors are expanded
    from cmtype import BudgetError, Budgets

    bundle = analyze(veronese_cone_ideal(6))
    assert singular_locus(bundle, budgets=Budgets(minors=400)).singular_dim == 1
    with pytest.raises(BudgetError, match="400 Jacobian minors exceed the minor budget 399"):
        singular_locus(bundle, budgets=Budgets(minors=399))


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


def proportional(got: dict, expected: dict) -> bool:
    """got = q * expected for a nonzero rational q (both empty when zero)."""
    if got.keys() != expected.keys():
        return False
    if not got:
        return True
    t0 = next(iter(got))
    return all(got[t] * expected[t0] == expected[t] * got[t0] for t in got)


def normal_terms(det: dict, gb) -> dict:
    """The normal form of a term map modulo the ideal of `gb`."""
    return terms(normal_form(Polynomial(gb.nvars, det), gb))


def jacobian_of(pres):
    return [[derivative_map(g.ints, j) for j in range(pres.nvars)] for g in pres.generators]


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(rational_homogeneous_presentations(max_degree=3, max_generators=4), st.integers(1, 4))
def test_minors_in_the_quotient_are_the_reduced_laplace_minors(pres, size):
    # mixed degrees and non-toric forms with Fraction normal forms: each
    # minor, expanded with every monomial product reduced, is the normal
    # form of the plain minor up to a nonzero rational factor, and its
    # coefficients are ints
    jacobian = jacobian_of(pres)
    gb = buchberger(pres)
    expected = [normal_terms(det, gb) for det in laplace_minors(jacobian, size)]
    quotient = invariants.Quotient(gb)
    got = list(minors(jacobian, size, quotient.normal))
    assert len(got) == len(expected)
    for det, reduced in zip(got, expected):
        assert proportional(det, reduced)
        assert all(type(c) is int for c in det.values())


def determinantal_matrix(index_matrix, nvars):
    """The matrix of variables families._determinantal expands, entry i the i-th variable."""
    units = [{m: 1} for m in unit_vectors(nvars)]
    return [[units[i] for i in row] for row in index_matrix]


@pytest.mark.parametrize(
    "index_matrix, nvars",
    [
        ([[0, 1, 3, 4, 5], [1, 2, 4, 5, 6]], 7),  # scroll(2,3)
        ([[0, 1, 2], [1, 3, 4], [2, 4, 5]], 6),  # veronese_cone 5
        ([[0, 1, 2], [1, 2, 0]], 3),  # graded12
    ],
)
def test_the_identity_form_gives_the_exact_minors(index_matrix, nvars):
    # the plain minors of the matrices families._determinantal expands into
    # the catalog generators are exactly the Laplace minors
    matrix = determinantal_matrix(index_matrix, nvars)
    for size in range(1, len(matrix) + 1):
        assert list(minors(matrix, size)) == list(laplace_minors(matrix, size))


def test_integral_forms_give_the_exact_reduced_minors():
    # every form of the toric quotient of scroll(1,2) has coefficient 1, so
    # each minor is exactly the reduced Laplace minor
    pres = scroll_ideal((1, 2))
    jacobian = jacobian_of(pres)
    gb = buchberger(pres)
    quotient = invariants.Quotient(gb)
    for size in (1, 2, 3):
        expected = [normal_terms(det, gb) for det in laplace_minors(jacobian, size)]
        assert list(minors(jacobian, size, quotient.normal)) == expected


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
def test_cone_over_an_isolated_singularity_takes_no_basis(monkeypatch, pres):
    # one variable no generator uses: R = R'[z], the minors lie in R' and
    # span a whole degree of it, so the singular locus is the z-line
    bundle = analyze(pres)
    bases = count_calls(monkeypatch, singularity, "buchberger")
    report = singular_locus(bundle)
    assert report.singular_dim == 1
    assert len(bases) == 0


def test_cone_over_a_non_isolated_singularity_falls_back_to_one_basis(monkeypatch):
    # x^2*y is singular along the y-axis of k[x, y], so its minors x*y and
    # x^2 span no degree of R' and one basis of I + minors finds the plane
    bundle = analyze(parse_presentation("ring: x,y,z ; ideal: x^2*y"))
    bases = count_calls(monkeypatch, singularity, "buchberger")
    report = singular_locus(bundle)
    assert report.singular_dim == 2
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
