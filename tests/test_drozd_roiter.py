"""Semigroup and line-arrangement Drozd-Roiter lengths against oracles."""

import itertools
import random
from fractions import Fraction

import pytest

from cmtype import (
    InputError,
    Polynomial,
    arrangement_dr,
    line_arrangement,
    semigroup_closure,
    semigroup_dr,
)
from cmtype.drozd_roiter import NumericalSemigroup

from oracles import arrangement_lambda_oracle, semigroup_lambda_oracle

X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)


class TestSemigroupClosure:
    def test_3_7(self):
        sg = semigroup_closure([3, 7])
        members = [s for s in range(15) if sg.contains(s)]
        assert members == [0, 3, 6, 7, 9, 10, 12, 13, 14]
        assert sg.frobenius == 11
        assert sg.multiplicity == 3

    def test_trivial(self):
        sg = semigroup_closure([1])
        assert sg.frobenius == -1
        assert all(sg.contains(s) for s in range(10))

    def test_2_3(self):
        sg = semigroup_closure([2, 3])
        assert sg.frobenius == 1
        assert [s for s in range(6) if sg.contains(s)] == [0, 2, 3, 4, 5]

    def test_gcd_rejected(self):
        with pytest.raises(InputError):
            semigroup_closure([4, 6])

    def test_closed_under_addition_within_table(self):
        sg = semigroup_closure([3, 7])
        limit = len(sg.membership) - 1
        for a in range(limit + 1):
            if not sg.contains(a):
                continue
            for b in range(limit - a + 1):
                if sg.contains(b):
                    assert sg.contains(a + b)

    def test_everything_beyond_frobenius_is_a_member(self):
        sg = semigroup_closure([4, 7, 9])
        for s in range(sg.frobenius + 1, sg.frobenius + 30):
            assert sg.contains(s)


class TestSemigroupDr:
    def test_3_7_lengths(self):
        report = semigroup_dr(semigroup_closure([3, 7]))
        assert report.e == 3
        assert report.lam == 2
        assert report.witnesses == (7, 14)
        assert report.dr1 and not report.dr2
        assert not report.finite_type

    def test_2_3_is_finite(self):
        report = semigroup_dr(semigroup_closure([2, 3]))
        assert (report.e, report.lam, report.finite_type) == (2, 0, True)

    def test_4_5_6_7_fails_multiplicity_bound(self):
        report = semigroup_dr(semigroup_closure([4, 5, 6, 7]))
        assert report.e == 4
        assert not report.dr1
        assert not report.finite_type

    def test_lambda_invariant_under_window_enlargement(self):
        for gens in ([3, 7], [2, 5], [4, 9, 11], [3, 5]):
            sg = semigroup_closure(gens)
            widened = NumericalSemigroup(
                generators=sg.generators,
                membership=sg.membership
                + tuple(True for _ in range(50)),  # everything past the table is a member
                frobenius=sg.frobenius,
                multiplicity=sg.multiplicity,
            )
            assert semigroup_dr(sg).lam == semigroup_dr(widened).lam

    def test_apery_residue_count_equals_multiplicity(self):
        # dim(S/mS) for the normalization S = k[t] is the multiplicity: the
        # residues 0..a1-1 each contribute exactly one basis element t^i
        for gens in ([3, 7], [2, 3], [4, 5, 6, 7], [5, 7, 9]):
            sg = semigroup_closure(gens)
            assert len(range(sg.multiplicity)) == sg.multiplicity == semigroup_dr(sg).e

    def test_closed_formula_matches_enumeration_oracle(self):
        # every numerical semigroup of multiplicity 2 or 3 with frobenius <= 30
        seen = set()
        for mult in (2, 3):
            for extra in itertools.product(range(mult + 1, 40), repeat=2):
                gens = sorted({mult, *extra})
                try:
                    sg = semigroup_closure(gens)
                except InputError:
                    continue
                if sg.multiplicity != mult or sg.frobenius > 30:
                    continue
                key = tuple(sg.contains(s) for s in range(sg.frobenius + 2))
                if key in seen:
                    continue
                seen.add(key)
                assert semigroup_dr(sg).lam == semigroup_lambda_oracle(sg), gens
        assert len(seen) > 30  # the sweep actually covered a family


class TestLineArrangement:
    def test_four_line_example(self):
        arr = line_arrangement([Y, X, X - Y, X + Y], X + 2 * Y)
        report = arrangement_dr(arr)
        assert report.e == 4
        assert not report.finite_type
        # closed form and quotient-ring oracle agree
        assert report.lam == arrangement_lambda_oracle([Y, X, X - Y, X + Y], X + 2 * Y)

    def test_two_coordinate_lines(self):
        report = arrangement_dr(line_arrangement([X, Y], X + Y))
        assert (report.e, report.lam, report.finite_type) == (2, 0, True)

    def test_three_lines_finite(self):
        report = arrangement_dr(line_arrangement([X, Y, X + Y], X + 2 * Y))
        assert report.e == 3
        assert report.lam <= 1
        assert report.finite_type
        assert report.lam == arrangement_lambda_oracle([X, Y, X + Y], X + 2 * Y)

    def test_oracle_agreement_across_arrangements(self):
        arrangements = [
            ([X, Y], X + 5 * Y),
            ([X, Y, X + Y], X + 5 * Y),
            ([X, Y, X - Y], X + 5 * Y),
            ([Y, X, X - Y, X + Y], X + 5 * Y),
            ([X, Y, X + Y, X + 2 * Y, X + 3 * Y], X + 5 * Y),
        ]
        # seeded random arrangements of 1-7 pairwise non-proportional lines,
        # each with a reduction proportional to none of them (so it vanishes
        # on no branch)
        rng = random.Random(10)
        for r in range(1, 8):
            for _ in range(5):
                slopes: list[tuple[int, int]] = []
                while len(slopes) < r + 1:
                    a, b = rng.randint(-5, 5), rng.randint(-5, 5)
                    if (a, b) != (0, 0) and all(a * d - b * c for c, d in slopes):
                        slopes.append((a, b))
                forms = [a * X + b * Y for a, b in slopes]
                arrangements.append((forms[:r], forms[r]))
        for lines, reduction in arrangements:
            r = len(lines)
            report = arrangement_dr(line_arrangement(lines, reduction))
            assert report.e == r
            assert report.lam == arrangement_lambda_oracle(lines, reduction) == max(r - 2, 0), lines

    def test_invariance_under_permutation_and_rescaling(self):
        lines = [Y, X, X - Y, X + Y]
        base = arrangement_dr(line_arrangement(lines, X + 2 * Y))
        permuted = arrangement_dr(line_arrangement(list(reversed(lines)), X + 2 * Y))
        rescaled = arrangement_dr(
            line_arrangement([3 * Y, X * Fraction(1, 2), X - Y, X + Y], X + 2 * Y)
        )
        assert permuted == base
        assert rescaled == base

    def test_minimal_reductions_are_interchangeable(self):
        lines = [Y, X, X - Y, X + Y]
        lam_values = set()
        for reduction in (X + 2 * Y, X + 3 * Y, 2 * X - 5 * Y):
            lam_values.add(arrangement_dr(line_arrangement(lines, reduction)).lam)
        assert len(lam_values) == 1

    def test_rejects_repeated_line(self):
        with pytest.raises(InputError):
            line_arrangement([X, 2 * X], X + Y)

    def test_rejects_vanishing_reduction(self):
        # x vanishes identically on the branch V(x), so it is no reduction;
        # so does (y - x)/2 on V(x - y), at the point (1, 1)
        with pytest.raises(InputError):
            line_arrangement([X, Y], X)
        with pytest.raises(InputError, match="line 2"):
            line_arrangement([X + Y, X - Y], (Y - X) * Fraction(1, 2))
