"""Verdict rules, citations, rewrite certificates, and report determinism."""

import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cmtype.classifier as classifier_module
from cmtype import (
    Budgets,
    InputError,
    Polynomial,
    Verdict,
    arrangement_dr,
    classify,
    line_arrangement,
    make_presentation,
    normal_form,
    parse_presentation,
    buchberger,
    minimalize_presentation,
    rewrite_in_xm,
    scroll_ideal,
    veronese_cone_ideal,
)
from cmtype import linalg
from cmtype.citations import CITATIONS
from cmtype.invariants import analyze
from cmtype.singularity import SingularityReport

from oracles import (
    is_linear_nonzerodivisor_oracle,
    linear_change,
    random_invertible_matrix,
    rational_homogeneous_presentations,
    rewrite_in_xm_oracle,
    terms,
)


def classify_text(text, assumptions=frozenset()):
    return classify(parse_presentation(text), assumptions)


def citations_of(report):
    return [j.citation for j in report.justification]


FOUR_LINES = "ring: x,u,v,w ; ideal: u*v, u*w, v*w, u^2 - x*u, v^2 - x*v, w^2 - x*w"
SQUARE_OF_UVW = "ring: x,u,v,w ; ideal: u^2, u*v, u*w, v^2, v*w, w^2"


class TestDimensionZero:
    def test_truncated_line_is_finite(self):
        report = classify_text("ring: x ; ideal: x^4")
        assert report.verdict is Verdict.FINITE
        assert "Prop 2.1" in citations_of(report)

    def test_fat_point_is_uncountable(self):
        report = classify_text("ring: x,y ; ideal: x^2, x*y, y^2")
        assert report.verdict is Verdict.UNCOUNTABLE
        assert "Prop 2.1 proof" in citations_of(report)


class TestDimensionOneHypersurfaces:
    @pytest.mark.parametrize(
        "text,verdict,citation",
        [
            ("ring: x,y ; ideal: x*y", Verdict.FINITE, "Cor 3.4 (2)"),
            ("ring: x,y ; ideal: x^2*y + x*y^2", Verdict.FINITE, "Cor 3.4 (3)"),
            ("ring: x,y ; ideal: x*y^2", Verdict.COUNTABLE_INFINITE, "Cor 3.4 (4)"),
            ("ring: x,y ; ideal: y^2", Verdict.COUNTABLE_INFINITE, "Cor 3.4 (5)"),
            ("ring: x,y ; ideal: x^2*y^2", Verdict.UNCOUNTABLE, "Cor 3.4"),
            ("ring: x,y ; ideal: y^3", Verdict.UNCOUNTABLE, "Cor 3.4"),
        ],
    )
    def test_binary_form_verdicts(self, text, verdict, citation):
        report = classify_text(text)
        assert report.verdict is verdict
        assert citation in citations_of(report)

    def test_conjugate_pair_of_lines_is_finite(self):
        # x^2 + y^2 splits into two distinct lines over the closure
        report = classify_text("ring: x,y ; ideal: x^2 + y^2")
        assert report.verdict is Verdict.FINITE


class TestDimensionOneNonHypersurfaces:
    def test_four_coordinate_lines_cites_the_h13_rule(self):
        report = classify_text(FOUR_LINES)
        assert report.verdict is Verdict.UNCOUNTABLE
        assert citations_of(report) == ["Thm 3.3"]
        assert report.obstruction is not None
        assert report.obstruction.matrix == (
            (0, 1, 0, 0),
            (0, 0, 0, 0),
            (0, 0, 1, 0),
        )

    def test_gw12_is_countable(self):
        report = classify_text("ring: x,y,z ; ideal: x*y, y*z, z^2")
        assert report.verdict is Verdict.COUNTABLE_INFINITE
        assert "§3.2 eqn:gw-1,2" in citations_of(report)

    def test_graded12_is_finite(self):
        report = classify_text("ring: x,y,z ; ideal: x*z - y^2, x^2 - y*z, x*y - z^2")
        assert report.verdict is Verdict.FINITE
        assert "Cor 3.6 (4)" in citations_of(report)

    def test_unmatched_12_ring_stays_open(self):
        # a (1,2) curve that is neither of the two catalog rings: three
        # generic-ish quadrics in three variables
        text = "ring: x,y,z ; ideal: x*y - z^2, x*z, y*z + x^2"
        pres = parse_presentation(text)
        inv = analyze(pres).invariants
        if inv.is_cm and inv.hvector == (1, 2) and not inv.is_hypersurface:
            report = classify(pres, frozenset({"reduced"}))
            if report.verdict is Verdict.OPEN_UNKNOWN:
                assert report.reason == "dr_unsupported"

    def test_long_h_vector_is_uncountable(self):
        # h = (1, 2, 1): artinian part k[x,y]/(x^2, xy, y^3) times a line
        report = classify_text("ring: x,y,z ; ideal: x^2, x*y, y^3")
        assert report.verdict is Verdict.UNCOUNTABLE
        assert "Cor 3.5" in citations_of(report)

    @pytest.mark.parametrize("hvector", [(1,), (1, 1)])
    def test_impossible_curve_hvector_raises(self, monkeypatch, hvector):
        # a non-hypersurface CM curve has h_1 >= 2: h = (1) is a regular ring and
        # h = (1,1) a principal ideal, so no input reaches this guard unforged
        pres = parse_presentation("ring: x, y, z ; ideal: x*y, y*z, z^2")
        bundle = analyze(pres)
        forged = bundle._replace(invariants=bundle.invariants._replace(hvector=hvector))
        monkeypatch.setattr(classifier_module, "analyze", lambda *args, **kwargs: forged)
        with pytest.raises(InputError, match=r"^classify: "):
            classify(pres)


class TestDimensionTwoAndUp:
    def test_scrolls(self):
        assert classify(scroll_ideal((3,))).verdict is Verdict.FINITE
        assert classify(scroll_ideal((4,))).verdict is Verdict.FINITE
        report = classify(scroll_ideal((3,)))
        assert "Prop 4.2" in citations_of(report)
        report = classify(scroll_ideal((1, 2)))
        assert report.verdict is Verdict.FINITE
        assert "Prop 4.5" in citations_of(report)
        report = classify(scroll_ideal((2, 2)))
        assert report.verdict is Verdict.UNCOUNTABLE
        assert "Prop 4.5 proof" in citations_of(report)

    def test_veronese_cones(self):
        assert classify(veronese_cone_ideal(5)).verdict is Verdict.FINITE
        report = classify(veronese_cone_ideal(6))
        assert report.verdict is Verdict.OPEN_UNKNOWN
        assert "§4.1" in citations_of(report)
        report = classify(veronese_cone_ideal(7))
        assert report.verdict is Verdict.UNCOUNTABLE

    def test_quadric_split_in_four_variables(self):
        assert (
            classify_text("ring: x,y,z,w ; ideal: x^2 + y^2 + z^2 + w^2").verdict
            is Verdict.FINITE
        )
        assert (
            classify_text("ring: x,y,z,w ; ideal: x^2 + y^2 + z^2").verdict
            is Verdict.COUNTABLE_INFINITE
        )
        assert (
            classify_text("ring: x,y,z,w ; ideal: x^2 + y^2").verdict
            is Verdict.UNCOUNTABLE
        )

    def test_quadric_verdicts_move_with_a_free_variable(self):
        # a full-rank quadric becomes corank one when a free variable is added
        for n in range(2, 6):
            names = [f"x{i}" for i in range(n)]
            form = Polynomial.zero(n)
            for i in range(n):
                form = form + Polynomial.variable(n, i) ** 2
            assert classify(make_presentation(names, [form])).verdict is Verdict.FINITE
            padded = Polynomial(n + 1, {m + (0,): c for m, c in terms(form).items()})
            grown = make_presentation(names + ["t_new"], [padded])
            assert classify(grown).verdict is Verdict.COUNTABLE_INFINITE

    def test_cubic_hypersurface_surface_is_uncountable(self):
        report = classify_text("ring: x,y,z ; ideal: x^3 + y^3 + z^3")
        assert report.verdict is Verdict.UNCOUNTABLE

    def test_gorenstein_non_hypersurface_is_open(self):
        report = classify_text("ring: x,y,z,w ; ideal: x^2 + y^2, z^2 + w^2")
        assert report.verdict is Verdict.OPEN_UNKNOWN
        assert "Conjecture 5.1" in citations_of(report)

    def test_dim3_without_minimal_multiplicity_is_uncountable(self):
        report = classify_text("ring: x,y,z,u,v ; ideal: x^2, x*y, y^3")
        assert report.verdict is Verdict.UNCOUNTABLE
        assert "§4.2" in citations_of(report)

    def test_dim2_nonisolated_without_minimal_multiplicity_is_open(self):
        report = classify_text("ring: x,y,z,u ; ideal: x^2, x*y, y^3")
        assert report.verdict is Verdict.OPEN_UNKNOWN
        assert "equidimensional_assumed" in report.assumptions_used

    def test_dim2_isolated_branch_rule(self, monkeypatch):
        # no natural corpus ring reaches this branch; exercise the rule wiring
        pres = parse_presentation("ring: x,y,z,u ; ideal: x^2, x*y, y^3")

        def fake_singular_locus(bundle, budgets=None):
            from cmtype.presentation import RingPresentation

            p = bundle.presentation
            return SingularityReport(
                codim=2,
                jacobian_ideal=RingPresentation(p.variables, p.generators),
                singular_dim=0,
                isolated=True,
            )

        monkeypatch.setattr(classifier_module, "singular_locus", fake_singular_locus)
        report = classify(pres)
        assert report.verdict is Verdict.UNCOUNTABLE
        assert "§4.1" in citations_of(report)

    def test_unmatched_minimal_multiplicity_is_open(self, monkeypatch):
        # force the matcher to miss so the fallback rule is observable
        monkeypatch.setattr(
            classifier_module,
            "match_named_family",
            lambda pres, budgets=None: classifier_module.FamilyTag("none"),
        )
        report = classify(scroll_ideal((3,)))
        assert report.verdict is Verdict.OPEN_UNKNOWN
        assert report.reason == "no_catalog_match"


class TestSummaryCorpus:
    """The full catalog of known verdicts, reproduced in one sweep."""

    def test_arbitrary_dimension_families(self):
        for n in range(1, 5):
            names = [f"x{i}" for i in range(n)]
            assert classify(make_presentation(names, [])).verdict is Verdict.FINITE
            full = Polynomial.zero(n)
            for i in range(n):
                full = full + Polynomial.variable(n, i) ** 2
            assert classify(make_presentation(names, [full])).verdict is Verdict.FINITE
            if n >= 2:
                corank1 = Polynomial.zero(n)
                for i in range(1, n):
                    corank1 = corank1 + Polynomial.variable(n, i) ** 2
                assert (
                    classify(make_presentation(names, [corank1])).verdict
                    is Verdict.COUNTABLE_INFINITE
                )

    def test_dimension_zero_list(self):
        for m in (1, 2, 5):
            report = classify_text(f"ring: x ; ideal: x^{m}")
            assert report.verdict is Verdict.FINITE

    def test_dimension_one_list(self):
        expected = {
            "ring: x,y ; ideal: x*y": Verdict.FINITE,
            "ring: x,y ; ideal: x^2*y + x*y^2": Verdict.FINITE,
            "ring: x,y ; ideal: x*y^2": Verdict.COUNTABLE_INFINITE,
            "ring: x,y,z ; ideal: x*z - y^2, x^2 - y*z, x*y - z^2": Verdict.FINITE,
            "ring: x,y,z ; ideal: x*y, y*z, z^2": Verdict.COUNTABLE_INFINITE,
        }
        for text, verdict in expected.items():
            assert classify_text(text).verdict is verdict, text

    def test_dimension_two_and_three_lists(self):
        for m in range(2, 5):
            assert classify(scroll_ideal((m,))).verdict is Verdict.FINITE
        assert classify(scroll_ideal((1, 2))).verdict is Verdict.FINITE
        assert classify(veronese_cone_ideal(5)).verdict is Verdict.FINITE


class TestScopeAndBudgets:
    def test_non_cm_input_is_out_of_scope(self):
        report = classify_text("ring: x,y ; ideal: x^2, x*y")
        assert report.verdict is Verdict.OUT_OF_SCOPE

    def test_budget_exhaustion_degrades_to_out_of_scope(self):
        report = classify(
            parse_presentation("ring: x,y,z ; ideal: x*z - y^2, x^2 - y*z, x*y - z^2"),
            budgets=Budgets(pairs=0),
        )
        assert report.verdict is Verdict.OUT_OF_SCOPE
        assert report.reason and "budget" in report.reason

    def test_budget_exhausted_in_the_decision_keeps_the_invariants(self):
        # analyze finishes; the singular locus the dim-2 rule needs does not
        pres = parse_presentation("ring: x,y,z,u ; ideal: x^2, x*y, y^3")
        report = classify(pres, budgets=Budgets(minors=1))
        assert report.verdict is Verdict.OUT_OF_SCOPE
        assert report.invariants == analyze(pres).invariants
        assert (report.singularity, report.assumptions_used) == (None, ())
        assert [j.rule for j in report.justification] == ["budget-exceeded"]
        assert report.reason.startswith("singular_locus: ")

    def test_regular_rings_are_finite(self):
        report = classify_text("ring: x,y,z ; ideal:")
        assert report.verdict is Verdict.FINITE
        assert report.invariants.is_regular


class TestRewriteInXm:
    def test_square_of_maximal_ideal_gives_zero_matrix(self):
        # quotient by (u,v,w)^2: every product of u, v, w vanishes outright
        data = rewrite_in_xm(analyze(parse_presentation(SQUARE_OF_UVW)), 0, 1, 2)
        assert all(all(c == 0 for c in row) for row in data.matrix)

    def test_four_lines_rows(self):
        data = rewrite_in_xm(analyze(parse_presentation(FOUR_LINES)), 0, 1, 2)
        assert data.basis == (0, 1, 2, 3)
        assert data.matrix == ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0))
        assert data.f_columns == {3: (0, 0, 0)}

    def test_residuals_normal_form_to_zero(self):
        pres = parse_presentation(FOUR_LINES)
        data = rewrite_in_xm(analyze(pres), 0, 1, 2)
        gb = buchberger(minimalize_presentation(pres))
        n = pres.nvars
        x = Polynomial.variable(n, data.x_index)
        u = Polynomial.variable(n, data.u_index)
        v = Polynomial.variable(n, data.v_index)
        for row, product in zip(data.matrix, (u * u, u * v, v * v)):
            linear = Polynomial.zero(n)
            for coeff, idx in zip(row, data.basis):
                linear = linear + Polynomial.variable(n, idx) * coeff
            assert normal_form(product - x * linear, gb).is_zero

    def test_gw12_regression_zerodivisor_precondition(self):
        # for (xy, yz, z^2) the first variable kills y, so the verified
        # nonzerodivisor precondition fires before any solve is attempted
        with pytest.raises(InputError, match="not a nonzerodivisor"):
            rewrite_in_xm(analyze(parse_presentation("ring: x,y,z ; ideal: x*y, y*z, z^2")), 0, 1, 2)

    def test_rejects_non_minimal_multiplicity(self):
        with pytest.raises(InputError, match="minimal multiplicity"):
            rewrite_in_xm(analyze(parse_presentation("ring: x,y,z ; ideal: x^2, x*y, y^3")), 0, 1, 2)

    def test_nonzerodivisor_guard_raises_when_the_function_never_stabilizes(self):
        # k[x, y] is two-dimensional, so its Hilbert function keeps growing
        bundle = analyze(parse_presentation("ring: x,y ; ideal:"))
        with pytest.raises(InputError, match="never stabilized"):
            classifier_module._is_linear_nonzerodivisor(0, bundle)

    @settings(max_examples=50, deadline=None, database=None, derandomize=True)
    @given(st.sampled_from([FOUR_LINES, SQUARE_OF_UVW]), st.integers(0, 2**32))
    def test_rewrite_matches_the_dense_oracle(self, text, seed):
        pres = parse_presentation(text)
        matrix = random_invertible_matrix(random.Random(seed), pres.nvars)
        changed = make_presentation(
            pres.variables, [linear_change(g, matrix) for g in pres.generators]
        )
        bundle = analyze(changed)
        checked = 0
        for x, u, v in itertools.permutations(range(bundle.presentation.nvars), 3):
            if classifier_module._is_linear_nonzerodivisor(x, bundle):
                assert rewrite_in_xm(bundle, x, u, v) == rewrite_in_xm_oracle(bundle, x, u, v), (
                    x, u, v
                )
                checked += 1
        # a draw that leaves no variable a nonzerodivisor checks nothing
        assume(checked)

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(rational_homogeneous_presentations(max_degree=3, max_generators=3, curves=True))
    def test_nonzerodivisor_verdicts_match_the_dense_oracle(self, pres):
        bundle = analyze(pres)
        assume(bundle.invariants.dim == 1)
        n = bundle.presentation.nvars
        for i in range(n):
            expected = is_linear_nonzerodivisor_oracle(Polynomial.variable(n, i), bundle)
            assert classifier_module._is_linear_nonzerodivisor(i, bundle) == expected


class TestReports:
    @pytest.mark.parametrize(
        "text, kind, param",
        [
            ("ring: x, y ; ideal: x*y", "binary_form", (1, 1)),
            ("ring: x, y ; ideal: x^2", "binary_form", (2,)),
            ("ring: x, y, z ; ideal: x*z - y^2", "quadric", (3, 3)),
        ],
    )
    def test_hypersurfaces_are_tagged_by_profile_or_rank(self, text, kind, param):
        # the classifier tags every hypersurface itself, without a certificate:
        # rank and root profile are full linear-equivalence invariants
        family = classify_text(text).family
        assert (family.kind, family.param, family.certificate) == (kind, param, None)

    def test_every_quote_is_in_the_citation_table(self):
        table_quotes = {c.quote for c in CITATIONS.values()}
        for text in (
            "ring: x,y ; ideal: x*y^2",
            "ring: x,y,z ; ideal: x*y, y*z, z^2",
            FOUR_LINES,
            "ring: x,y,z,w ; ideal: x^2 + y^2, z^2 + w^2",
        ):
            report = classify_text(text)
            for j in report.justification:
                assert j.quote in table_quotes

    def test_every_citation_is_named_by_the_classifier(self):
        # a CITATIONS key that no string literal of classifier.py names is a
        # citation no verdict can carry
        tree = ast.parse(Path(classifier_module.__file__).read_text(encoding="utf-8"))
        literals = {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        assert sorted(set(CITATIONS) - literals) == []

    def test_justification_present_except_out_of_scope(self):
        finite = classify_text("ring: x,y ; ideal: x*y")
        assert len(finite.justification) >= 1

    def test_reports_are_deterministic(self):
        for text in ("ring: x,y,z ; ideal: x*y, y*z, z^2", FOUR_LINES):
            assert classify_text(text) == classify_text(text)


def test_the_library_runs_no_dense_elimination(monkeypatch):
    # every rank and solve runs on linalg.Echelon; the dense rref and rank
    # are the oracles' reference, so a call from the library fails here
    def refuse(rows):
        raise AssertionError("dense elimination called")

    monkeypatch.setattr(linalg, "rref", refuse)
    monkeypatch.setattr(linalg, "rank", refuse)
    corpus = Path(__file__).resolve().parents[1] / "bench" / "corpus"
    quadric = classify(parse_presentation((corpus / "quadric_3_4.ring").read_text()))
    assert (quadric.family.kind, quadric.family.param) == ("quadric", (3, 4))
    gw12 = classify(parse_presentation((corpus / "gw12.ring").read_text()))
    assert gw12.verdict is Verdict.COUNTABLE_INFINITE
    data = rewrite_in_xm(analyze(parse_presentation(FOUR_LINES)), 0, 1, 2)
    assert data.matrix == ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0))
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    report = arrangement_dr(line_arrangement([y, x, x - y, x + y], x + 2 * y))
    assert (report.e, report.lam) == (4, 2)
    assert analyze(scroll_ideal((1, 2))).invariants.cm_type == 2
