"""Acceptance suite: one test per criterion, each printing a pass line.

Every expected value here was frozen from an independent oracle (dense
linear algebra, exhaustive enumeration, or hand reduction) before the
implementation was trusted; the oracles live in oracles.py and are re-run
inline where the criterion asks for it.  All comparisons are exact.
"""

import json
import random

import pytest

from cmtype import (
    Polynomial,
    Verdict,
    analyze,
    arrangement_dr,
    buchberger,
    classify,
    line_arrangement,
    make_presentation,
    minimalize_presentation,
    normal_form,
    parse_presentation,
    rewrite_in_xm,
    scroll_ideal,
    semigroup_closure,
    semigroup_dr,
    singular_locus,
    spoly,
    veronese_cone_ideal,
)
from cmtype.cli import main
from cmtype.families import binary_form_profile
from cmtype.invariants import hilbert_series_from_gb
from cmtype.presentation import RingPresentation

from oracles import (
    arrangement_lambda_oracle,
    hilbert_function_oracle,
    random_homogeneous_ideal,
    random_invertible_matrix,
    linear_change,
)

X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)


def announce(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_01_semigroup_3_7():
    report = semigroup_dr(semigroup_closure([3, 7]))
    assert report.e == 3
    assert report.lam == 2
    assert report.finite_type is False
    announce(1, "semigroup 3,7 has e = 3, lambda = 2, finite_type = false")


def test_criterion_02_semigroup_controls():
    from oracles import semigroup_lambda_oracle

    r23 = semigroup_dr(semigroup_closure([2, 3]))
    assert r23.lam == 0 and r23.finite_type is True
    assert semigroup_lambda_oracle(semigroup_closure([2, 3])) == 0

    r4567 = semigroup_dr(semigroup_closure([4, 5, 6, 7]))
    assert r4567.e == 4 and r4567.finite_type is False
    assert semigroup_lambda_oracle(semigroup_closure([4, 5, 6, 7])) == r4567.lam
    announce(2, "semigroup controls <2,3> and <4,5,6,7> match the enumeration oracle")


def test_criterion_03_gw12_invariants_and_verdict():
    pres = parse_presentation("ring: x, y, z ; ideal: x*y, y*z, z^2")
    inv = analyze(pres).invariants
    assert inv.dim == 1
    assert inv.hvector == (1, 2)
    assert inv.multiplicity == 3
    assert inv.is_cm is True
    assert inv.cm_type == 2
    assert inv.is_gorenstein is False
    report = classify(pres)
    assert report.verdict is Verdict.COUNTABLE_INFINITE
    assert any("eqn:gw-1,2" in j.citation for j in report.justification)
    announce(3, "k[x,y,z]/(xy,yz,z^2): dim 1, h (1,2), e 3, CM type 2, countable_infinite")


def test_criterion_04_hypersurface_verdicts():
    cases = [
        ("ring: x,y ; ideal: x*y", "finite"),
        ("ring: x,y ; ideal: x^2*y + x*y^2", "finite"),
        ("ring: x,y ; ideal: x*y^2", "countable_infinite"),
        ("ring: x,y ; ideal: y^2", "countable_infinite"),
        ("ring: x,y ; ideal: x^2*y^2", "uncountable"),
    ]
    for text, expected in cases:
        assert classify(parse_presentation(text)).verdict.value == expected, text
    announce(4, "the five binary-form hypersurface verdicts are exact")


def test_criterion_05_four_lines_h13_rule():
    text = "ring: x,u,v,w ; ideal: u*v, u*w, v*w, u^2 - x*u, v^2 - x*v, w^2 - x*w"
    pres = parse_presentation(text)
    inv = analyze(pres).invariants
    assert inv.hvector == (1, 3)
    report = classify(pres)
    assert report.verdict is Verdict.UNCOUNTABLE
    assert any(j.citation == "Thm 3.3" for j in report.justification)

    data = rewrite_in_xm(analyze(pres), 0, 1, 2)
    assert data.matrix == ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0))
    gb = buchberger(minimalize_presentation(pres))
    n = pres.nvars
    x, u, v = (Polynomial.variable(n, i) for i in (0, 1, 2))
    for row, product in zip(data.matrix, (u * u, u * v, v * v)):
        linear = Polynomial.zero(n)
        for coeff, idx in zip(row, data.basis):
            linear = linear + Polynomial.variable(n, idx) * coeff
        assert normal_form(product - x * linear, gb).is_zero
    announce(5, "four coordinate lines: uncountable via the (1,3) rule, rewrite residuals vanish")


def test_criterion_06_quadric_split_in_four_variables():
    cases = [
        ("ring: x,y,z,w ; ideal: x^2 + y^2 + z^2 + w^2", "finite"),
        ("ring: x,y,z,w ; ideal: x^2 + y^2 + z^2", "countable_infinite"),
        ("ring: x,y,z,w ; ideal: x^2 + y^2", "uncountable"),
    ]
    for text, expected in cases:
        assert classify(parse_presentation(text)).verdict.value == expected, text
    announce(6, "quadric ranks 4/3/2 in four variables split finite/countable/uncountable")


def test_criterion_07_singular_locus():
    s = singular_locus(analyze(parse_presentation("ring: x,y,z ; ideal: x^2 + y^2 + z^2")))
    assert s.isolated is True and s.singular_dim == 0
    s = singular_locus(analyze(parse_presentation("ring: x,y ; ideal: y^2")))
    assert s.singular_dim == 1 and s.isolated is False
    s = singular_locus(analyze(parse_presentation("ring: x,y ; ideal: x*y^2")))
    assert s.singular_dim == 1 and s.isolated is False
    announce(7, "singular loci: quadric cone isolated; double line and cusp line are not")


def test_criterion_08_determinantal_families():
    for m in (2, 3, 4):
        inv = analyze(scroll_ideal((m,))).invariants
        assert inv.dim == 2
        assert inv.multiplicity == m
        assert inv.hvector == (1, m - 1)
    for m in (3, 4):
        report = classify(scroll_ideal((m,)))
        assert report.verdict is Verdict.FINITE
        assert any(j.citation == "Prop 4.2" for j in report.justification)

    report = classify(scroll_ideal((1, 2)))
    assert analyze(scroll_ideal((1, 2))).invariants.dim == 3
    assert report.verdict is Verdict.FINITE
    assert any(j.citation == "Prop 4.5" for j in report.justification)

    report = classify(scroll_ideal((2, 2)))
    assert report.verdict is Verdict.UNCOUNTABLE
    assert any(j.citation == "Prop 4.5 proof" for j in report.justification)

    v5 = veronese_cone_ideal(5)
    inv = analyze(v5).invariants
    assert (inv.dim, inv.multiplicity) == (3, 4)
    assert singular_locus(analyze(v5)).isolated is True
    assert classify(v5).verdict is Verdict.FINITE

    report = classify(veronese_cone_ideal(6))
    assert report.verdict is Verdict.OPEN_UNKNOWN
    assert any(j.citation == "§4.1" for j in report.justification)
    announce(8, "scrolls (2),(3),(4),(1,2),(2,2) and Veronese cones 5/6 classify exactly")


def test_criterion_09_cyclic_minor_ring():
    pres = parse_presentation("ring: x,y,z ; ideal: x*z - y^2, x^2 - y*z, x*y - z^2")
    inv = analyze(pres).invariants
    assert inv.dim == 1
    assert inv.hvector == (1, 2)
    report = classify(pres)
    assert report.verdict is Verdict.FINITE
    assert any(j.citation == "Cor 3.6 (4)" for j in report.justification)
    announce(9, "cyclic 2x3 minors: dim 1, h (1,2), finite")


def test_criterion_10_arrangement_lengths():
    lines = [Y, X, X - Y, X + Y]
    reduction = X + 2 * Y
    report = arrangement_dr(line_arrangement(lines, reduction))
    assert report.e == 4
    # the independent quotient-ring oracle fixes lambda; the closed form
    # must agree with it, and the frozen value is 2
    oracle_value = arrangement_lambda_oracle(lines, reduction)
    assert report.lam == oracle_value == 2
    assert report.finite_type is False
    announce(10, "arrangement {y, x, x-y, x+y}: e = 4 and lambda = 2 on both routes")


def test_criterion_11_property_suites(capsys, tmp_path):
    # 200-ideal Groebner suite: S-polynomials reduce to zero and Hilbert
    # functions match the dense oracle through degree 6
    rng = random.Random(1234)
    for _ in range(200):
        nvars, gens = random_homogeneous_ideal(rng)
        pres = make_presentation([f"x{i}" for i in range(nvars)], gens)
        gb = buchberger(pres)
        for i in range(len(gb.elements)):
            for j in range(i + 1, len(gb.elements)):
                assert normal_form(spoly(gb.elements[i], gb.elements[j]), gb).is_zero
        series = hilbert_series_from_gb(gb)
        for d in range(7):
            assert series.hilbert_function(d) == hilbert_function_oracle(gens, nvars, d)

    # h-vector deflation exactness
    for text in (
        "ring: x,y,z ; ideal: x*y, y*z, z^2",
        "ring: x,y ; ideal: x*y^2",
        "ring: x,y,z,w ; ideal: x^2 + y^2, z^2 + w^2",
    ):
        inv = analyze(parse_presentation(text)).invariants
        assert inv.hvector[0] == 1 and inv.hvector[-1] != 0
        assert sum(inv.hvector) == inv.multiplicity > 0

    # lsop seed-independence of the Cohen-Macaulay type
    for text in (
        "ring: x,y,z ; ideal: x*y, y*z, z^2",
        "ring: x,y,z ; ideal: x*z - y^2, x^2 - y*z, x*y - z^2",
    ):
        pres = parse_presentation(text)
        assert len({analyze(pres, seed=s).invariants.cm_type for s in range(1, 6)}) == 1

    # binary-form profile invariance under 50 random linear substitutions
    rng = random.Random(77)
    form = X**3 * Y - X * Y**3
    profile = binary_form_profile(form)
    for _ in range(50):
        changed = linear_change(form, random_invertible_matrix(rng, 2))
        assert binary_form_profile(changed) == profile

    # report byte-determinism across two runs (timings excluded)
    path = tmp_path / "input.ring"
    path.write_text("ring: x, y, z\nideal: x*y, y*z, z^2\n", encoding="utf-8")
    outputs = []
    for _ in range(2):
        code = main(["classify", str(path), "--json"])
        assert code == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        outputs.append(
            (doc["canonical_digest"], "\n".join(l for l in out.splitlines() if "total_ms" not in l))
        )
    assert outputs[0] == outputs[1]
    announce(11, "property suites: Groebner x200 + oracle, deflation, seeds, profiles, determinism")
