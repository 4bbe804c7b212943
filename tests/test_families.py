"""Family generators, invariant tags, and catalog recognition."""

import itertools
import math
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cmtype import (
    InputError,
    Polynomial,
    analyze,
    binary_form_profile,
    buchberger,
    catalog_presentation,
    graded12_ideal,
    gw12_ideal,
    make_presentation,
    match_named_family,
    minimalize_presentation,
    parse_presentation,
    quadric_rank,
    scroll_ideal,
    spoly,
    veronese_cone_ideal,
)
from cmtype import linalg
from cmtype.families import (
    _constrained_permutations,
    _permutation_candidates,
    _scroll_types_with_nvars,
    _support_signatures,
)
from cmtype.presentation import RingPresentation, render_presentation

from oracles import (
    binary_form_profile_oracle,
    constrained_permutations_oracle,
    degree2_rref_oracle,
    linear_change,
    random_invertible_matrix,
    scroll_ideal_oracle,
    support_signatures_oracle,
    terms,
    veronese_cone_ideal_oracle,
)

# `cmtype generate FAMILY ARGS` output frozen by the benchmark; the file stem
# is the family followed by its arguments, "_"-separated, with "-" for ","
CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus"

X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)


class TestScrollIdeal:
    def test_type_2_is_the_rank3_quadric(self):
        pres = scroll_ideal((2,))
        assert pres.nvars == 3
        assert len(pres.generators) == 1
        g = pres.generators[0]
        x0x2 = g.coefficient((1, 0, 1))
        x1sq = g.coefficient((0, 2, 0))
        assert {x0x2, x1sq} == {1, -1}

    def test_type_1_1_is_one_rank4_quadric(self):
        pres = scroll_ideal((1, 1))
        assert pres.nvars == 4
        assert len(pres.generators) == 1
        assert quadric_rank(pres.generators[0]) == 4
        assert analyze(pres).invariants.dim == 3

    def test_type_1_2_matches_the_three_quadric_presentation(self):
        # det_2 [[x1,x2,x4],[x2,x3,x5]] up to variable renaming
        pres = scroll_ideal((1, 2))
        assert pres.nvars == 5
        assert len(pres.generators) == 3
        reference = parse_presentation(
            "ring: x1, x2, x3, x4, x5 ; "
            "ideal: x1*x3 - x2^2, x1*x5 - x2*x4, x2*x5 - x3*x4"
        )
        tag = match_named_family(analyze(reference))
        assert tag.kind == "scroll" and tag.param == (1, 2)

    def test_dimension_and_multiplicity_for_all_small_types(self):
        seen = 0
        for n in range(2, 8):
            for scroll in _scroll_types_with_nvars(n):
                pres = scroll_ideal(scroll)
                inv = analyze(pres).invariants
                assert inv.dim == len(scroll) + 1, scroll
                assert inv.multiplicity == sum(scroll), scroll
                seen += 1
        # the polynomial-ring types (0,..,0,1) carry no generators and are
        # covered separately; the sweep above must still hit a real family
        assert seen >= 8

    def test_scroll_type_validation(self):
        with pytest.raises(InputError, match="sorted ascending"):
            scroll_ideal((2, 1))
        with pytest.raises(InputError, match="at least one positive"):
            scroll_ideal((0, 0))
        with pytest.raises(InputError, match="nonempty tuple of naturals"):
            scroll_ideal([])
        # the front end checks the type before its variable cap
        with pytest.raises(InputError, match="nonempty tuple of naturals"):
            catalog_presentation("scroll", ["-1,200"])


class TestVeroneseCone:
    def test_base_case(self):
        pres = veronese_cone_ideal(5)
        assert pres.nvars == 6
        # the nine symmetric-matrix minors collapse to 6 distinct quadrics
        assert len(pres.generators) == 6
        inv = analyze(pres).invariants
        assert (inv.dim, inv.multiplicity, inv.hvector) == (3, 4, (1, 3))
        assert inv.is_cm and not inv.is_gorenstein

    def test_cone_adds_a_free_variable(self):
        inv5 = analyze(veronese_cone_ideal(5)).invariants
        inv6 = analyze(veronese_cone_ideal(6)).invariants
        assert inv6.dim == inv5.dim + 1 == 4
        assert inv6.hvector == inv5.hvector

    def test_n_below_five_rejected(self):
        with pytest.raises(InputError):
            veronese_cone_ideal(4)


class TestQuadricRank:
    def test_sum_of_three_squares(self):
        pres = parse_presentation("ring: x,y,z ; ideal: x^2 + y^2 + z^2")
        assert quadric_rank(pres.generators[0]) == 3

    def test_xy_has_rank_two(self):
        assert quadric_rank(X * Y) == 2

    def test_perfect_square_has_rank_one(self):
        assert quadric_rank((X + Y) ** 2) == 1

    def test_invariant_under_congruence(self):
        rng = random.Random(17)
        pres = parse_presentation("ring: x,y,z,w ; ideal: x^2 + y^2 + z^2")
        form = pres.generators[0]
        for _ in range(25):
            changed = linear_change(form, random_invertible_matrix(rng, 4))
            assert quadric_rank(changed) == 3

    def test_rejects_non_quadrics(self):
        with pytest.raises(InputError):
            quadric_rank(X**3)

    def test_exact_on_large_integer_coefficients(self):
        # y^2 + 2C*yz + (C^2 + 1)*z^2 has discriminant -4, so rank 2; halving
        # the int 2C as a float loses the 1 of C = 2^60 + 1 and reads rank 1
        C = 2**60 + 1
        x, y, z = (Polynomial.variable(3, i) for i in range(3))
        s = spoly(x + y, x * y - 2 * C * y * z - (C**2 + 1) * z**2)
        text = f"ring: x,y,z ; ideal: y^2 + {2 * C}*y*z + {C**2 + 1}*z^2"
        parsed = parse_presentation(text).generators[0]
        assert s == parsed
        assert quadric_rank(s) == quadric_rank(parsed) == 2


class TestBinaryFormProfile:
    def test_four_distinct_lines(self):
        assert binary_form_profile(X**3 * Y - X * Y**3) == (1, 1, 1, 1)

    def test_line_plus_double_line(self):
        assert binary_form_profile(X * Y**2) == (2, 1)

    def test_double_line(self):
        assert binary_form_profile(Y**2) == (2,)

    def test_irrational_conjugate_lines_count_separately(self):
        assert binary_form_profile(X**2 + Y**2) == (1, 1)

    def test_degree_identity_and_substitution_invariance(self):
        rng = random.Random(23)
        forms = [
            X**3 * Y - X * Y**3,
            X * Y**2,
            Y**2,
            (X + Y) ** 2 * (X - Y) ** 3,
            X**2 + Y**2,
            (X**2 + Y**2) ** 2 * X,
        ]
        for form in forms:
            profile = binary_form_profile(form)
            assert sum(profile) == form.degree()
            for _ in range(50):
                changed = linear_change(form, random_invertible_matrix(rng, 2))
                assert binary_form_profile(changed) == profile, form

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_matches_yuns_squarefree_decomposition(self, data):
        # products of powers of random linear and quadratic factors, so that
        # repeated lines, lines at infinity and irreducible quadratics occur
        small = st.integers(-3, 3)
        form = Polynomial.constant(2, data.draw(small.filter(bool)))
        for _ in range(data.draw(st.integers(1, 4))):
            degree = data.draw(st.integers(1, 2))
            monomials = [(i, degree - i) for i in range(degree + 1)]
            factor = Polynomial(2, [(m, data.draw(small)) for m in monomials])
            if factor:
                form = form * factor ** data.draw(st.integers(1, 3))
        if form.degree() >= 1:
            assert binary_form_profile(form) == binary_form_profile_oracle(form), form


class TestMatchNamedFamily:
    def test_gw12(self):
        tag = match_named_family(analyze(gw12_ideal()))
        assert tag.kind == "gw12"
        assert tag.certificate is not None

    def test_graded12(self):
        tag = match_named_family(analyze(graded12_ideal()))
        assert tag.kind == "graded12"

    def test_random_cubic_hypersurface_unmatched(self):
        pres = parse_presentation("ring: x,y,z ; ideal: x^3 + y^3 + z^3 + x*y*z")
        assert match_named_family(analyze(pres)).kind == "none"

    def test_recognition_soundness_replay(self):
        # permute a family, match it, then replay the certificate and require
        # bit-exact equality of reduced bases; the tags are pinned
        rng = random.Random(4)
        cases = (
            (gw12_ideal(), ("gw12", None, (2, 1, 0))),
            (graded12_ideal(), ("graded12", None, (0, 1, 2))),
            (scroll_ideal((1, 2)), ("scroll", (1, 2), (2, 4, 3, 1, 0))),
            (scroll_ideal((3,)), ("scroll", (3,), (0, 1, 2, 3))),
            (scroll_ideal((1, 1, 2)), ("scroll", (1, 1, 2), (2, 4, 5, 3, 6, 0, 1))),
            (scroll_ideal((2, 3)), ("scroll", (2, 3), (4, 3, 5, 1, 2, 0, 6))),
            (veronese_cone_ideal(5), ("veronese_cone", 5, (0, 3, 5, 2, 1, 4))),
        )
        for family, expected in cases:
            n = family.nvars
            sigma = list(range(n))
            rng.shuffle(sigma)
            permuted = make_presentation(
                [f"v{i}" for i in range(n)],
                [g.permute_variables(tuple(sigma)) for g in family.generators],
            )
            bundle = analyze(permuted)
            tag = match_named_family(bundle)
            assert (tag.kind, tag.param, tag.certificate) == expected
            assert_certificate_replays(bundle, tag)

    def test_scrambled_families_are_recognized(self):
        # every multi-quadric family on 3-7 variables, under a random
        # relabeling, comes back as itself with a replayable certificate
        rng = random.Random(11)
        checked = 0
        for n in range(3, 8):
            for quadrics in range(math.comb(n, 2) + 1):
                for expected, family in _permutation_candidates(n, quadrics):
                    if len(family.generators) < 2:
                        continue  # the classifier tags a single quadric by rank
                    sigma = list(range(n))
                    rng.shuffle(sigma)
                    scrambled = make_presentation(
                        [f"v{i}" for i in range(n)],
                        [g.permute_variables(tuple(sigma)) for g in family.generators],
                    )
                    bundle = analyze(scrambled)
                    tag = match_named_family(bundle)
                    assert (tag.kind, tag.param) == (expected.kind, expected.param)
                    assert_certificate_replays(bundle, tag)
                    checked += 1
        assert checked == 26

    def test_non_minimal_input_is_matched_on_its_minimal_presentation(self):
        # scroll(1,2) relabeled, over a sixth variable v5, with the linear
        # generator v0 - v5, also folded into a quadric: minimalizing
        # substitutes v5 for v0, and the certificate refers to the minimal
        # presentation's variables
        relabeled = (g.permute_variables((3, 0, 4, 1, 2)) for g in scroll_ideal((1, 2)).generators)
        quadrics = [Polynomial(6, [(m + (0,), c) for m, c in terms(g).items()]) for g in relabeled]
        linear = Polynomial.variable(6, 0) - Polynomial.variable(6, 5)
        pres = make_presentation(
            [f"v{i}" for i in range(6)],
            [quadrics[0] + Polynomial.variable(6, 2) * linear, quadrics[1], linear, quadrics[2]],
        )
        bundle = analyze(pres)
        assert bundle.presentation.variables == ("v1", "v2", "v3", "v4", "v5")
        tag = match_named_family(bundle)
        assert (tag.kind, tag.param) == ("scroll", (1, 2))
        assert_certificate_replays(bundle, tag)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_echelon_rank_and_signatures_match_dense_rref(self, n):
        # the quadric count the candidates are filtered by is the echelon rank
        reverse = tuple(reversed(range(n)))
        for quadrics in range(math.comb(n, 2) + 1):
            for _, family in _permutation_candidates(n, quadrics):
                minimal = minimalize_presentation(family).generators
                for gens in (minimal, [g.permute_variables(reverse) for g in minimal]):
                    mat, pivots, basis = degree2_rref_oracle(gens, n)
                    echelon = linalg.Echelon(g.ints for g in gens)
                    assert len(echelon.rows) == len(pivots) == quadrics
                    assert _support_signatures(echelon, n) == (
                        support_signatures_oracle(mat, basis, n)
                    )

    def test_minimalize_and_match_use_no_dense_elimination(self, monkeypatch):
        # a return to dense rref on this path fails here on a call, not on time
        def refuse(rows):
            raise AssertionError("dense rref called")

        monkeypatch.setattr(linalg, "rref", refuse)
        pres = scroll_ideal((1, 1, 1, 2))
        assert set(minimalize_presentation(pres).generators) == set(pres.generators)
        tag = match_named_family(analyze(pres))
        assert (tag.kind, tag.param) == ("scroll", (1, 1, 1, 2))

    def test_constrained_permutations_match_the_product_oracle(self):
        # same sigmas in the same order, and none when the signature counts differ
        rng = random.Random(16)
        for _ in range(300):
            n = rng.randint(0, 7)
            input_sigs = [rng.choice([(0, 1), (0, 2), (1, 2)]) for _ in range(n)]
            family_sigs = input_sigs[:]
            rng.shuffle(family_sigs)
            if n and rng.random() < 0.2:
                family_sigs[0] = (1, 0)
            args = (family_sigs, input_sigs, n)
            assert list(_constrained_permutations(*args)) == list(
                constrained_permutations_oracle(*args)
            )

    def test_first_permutation_is_drawn_lazily(self):
        # the product of the groups' permutations would build all 9! of them first
        sigs = [(0, 2)] * 9
        tracemalloc.start()
        try:
            first = next(_constrained_permutations(sigs, sigs, 9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == tuple(range(9))
        assert peak < 100_000

    def test_large_rings_skip_the_search(self):
        tag = match_named_family(analyze(scroll_ideal((4, 4))))  # 10 variables
        assert tag.kind == "none"
        assert tag.attempted is False


def assert_certificate_replays(bundle, tag):
    """The matcher's certificate, checked the long way: the relabeled family
    has exactly the reduced Groebner basis of the minimal input."""
    family = catalog_presentation_for_tag(tag)
    replayed = [g.permute_variables(tag.certificate) for g in family.generators]
    replay_gb = buchberger(RingPresentation(bundle.presentation.variables, tuple(replayed)))
    assert replay_gb.elements == bundle.quotient.gb.elements


def catalog_presentation_for_tag(tag):
    if tag.kind == "scroll":
        return scroll_ideal(tag.param)
    if tag.kind == "veronese_cone":
        return veronese_cone_ideal(tag.param)
    if tag.kind == "gw12":
        return gw12_ideal()
    if tag.kind == "graded12":
        return graded12_ideal()
    raise AssertionError(f"no canonical presentation for {tag.kind}")


class TestCatalogPresentations:
    def test_generate_arguments(self):
        assert catalog_presentation("scroll", ["1,2"]).nvars == 5
        assert catalog_presentation("veronese_cone", ["5"]).nvars == 6
        assert catalog_presentation("sym3x3", []) == veronese_cone_ideal(5)
        assert catalog_presentation("quadric", ["3", "4"]).nvars == 4
        assert catalog_presentation("binary_form", ["2,1"]).generators[0].degree() == 3
        with pytest.raises(InputError):
            catalog_presentation("mystery", [])
        with pytest.raises(InputError):
            catalog_presentation("scroll", [])
        for family in ("sym3x3", "gw12", "graded12"):
            with pytest.raises(InputError, match=f"^{family} takes no arguments$"):
                catalog_presentation(family, ["1"])

    def test_generate_reproduces_the_frozen_corpus(self):
        files = sorted(CORPUS.glob("*.ring"))
        assert len(files) == 18
        families = ("binary_form", "veronese_cone", "quadric", "scroll", "gw12", "graded12")
        for path in files:
            family = next(f for f in families if path.stem == f or path.stem.startswith(f + "_"))
            args = [a.replace("-", ",") for a in path.stem[len(family) + 1 :].split("_") if a]
            text = render_presentation(catalog_presentation(family, args))
            assert text == path.read_text(encoding="utf-8"), path.name

    def test_determinantal_generators_match_the_explicit_minor_loops(self):
        # every scroll type on at most 11 variables, zero ideals included:
        # same variables, same generators in the same order
        for size in range(1, 11):
            for a in itertools.combinations_with_replacement(range(11), size):
                if any(a) and sum(a) + size <= 11:
                    assert scroll_ideal(a) == scroll_ideal_oracle(a), a
        for n in range(5, 12):
            assert veronese_cone_ideal(n) == veronese_cone_ideal_oracle(n), n
