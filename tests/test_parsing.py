"""Presentation-file parsing and canonical rendering."""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cmtype import (
    BudgetError,
    CmtypeError,
    InhomogeneousError,
    InputError,
    ParseError,
    Polynomial,
    buchberger,
    make_presentation,
    minimalize_presentation,
    parse_polynomial,
    parse_presentation,
    render_polynomial,
    render_presentation,
)
from cmtype.presentation import RingPresentation

from oracles import random_homogeneous_polynomial, render_polynomial_oracle


def test_three_variable_monomial_ideal():
    pres = parse_presentation("ring: x,y,z ; ideal: x*y, y*z, z^2")
    assert len(pres.variables) == 3
    assert len(pres.generators) == 3
    assert pres.homogeneous


def test_zero_ideal():
    pres = parse_presentation("ring: x ; ideal:")
    assert pres.variables == ("x",)
    assert pres.generators == ()


def test_single_quartic():
    pres = parse_presentation("ring: x,y ; ideal: x^3*y - x*y^3")
    assert len(pres.generators) == 1
    g = pres.generators[0]
    assert g.is_homogeneous() and g.degree() == 4
    assert g.coefficient((3, 1)) == 1 and g.coefficient((1, 3)) == -1


def test_multiline_file_with_comments():
    text = """# a sample presentation
ring: x, y   # variables

ideal: x^2 + y^2,   # first generator
       x*y
"""
    pres = parse_presentation(text)
    assert len(pres.generators) == 2


def test_crlf_normalized():
    pres = parse_presentation("ring: x, y\r\nideal: x*y\r\n")
    assert len(pres.generators) == 1


def test_rational_coefficients():
    pres = parse_presentation("ring: x, y ; ideal: 1/2*x^2 - 3*y^2")
    g = pres.generators[0]
    assert g.coefficient((2, 0)) == Fraction(1, 2)
    assert g.coefficient((0, 2)) == -3


def test_parentheses_and_signs():
    p = parse_polynomial("-(x - y)^2 + x^2", ("x", "y"))
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert p == 2 * x * y - y**2


def test_syntax_error_carries_location():
    with pytest.raises(ParseError) as err:
        parse_presentation("ring: x, y\nideal: x +* y")
    assert err.value.line == 2
    assert err.value.column > 0


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        # CRLF and bare CR count as one line break
        ("ring: x, y\r\nideal: x*y,\r\n  x^", "expected integer exponent after '^'", 3, 5),
        ("ring: x, y\rideal: x +* y", "unexpected token '*'", 2, 11),
        ("ring: x\r\n\r\nideal: x*\r\n", "unexpected end of input", 4, 1),
        ("ring: x, y\r\nideal: x*y # done\r\n  + y^2\r\n  y", "unexpected trailing input 'y'", 4, 3),
        # after a comment, and one that holds tokens of the grammar
        ("ring: x  # the variables, ( and all\nideal: x $ y", "unexpected character '$'", 2, 10),
        ("ring: x\nideal: x,\n# trailing comment", "unexpected end of input", 3, 19),
        ("ring: x\nideal:\n\n\tx + _y", "unexpected character '_'", 4, 6),
        ("ring: x, y\nideal: x,\n   (y*x\n + q)", "unknown variable 'q'", 4, 4),
        ("ring x\nideal: x", "expected ':'", 1, 6),
        ("ring: x\nideal x", "expected ':'", 2, 7),
        ("rings: x", "expected keyword 'ring'", 1, 1),
        ("ring: x\nideals: x", "expected keyword 'ideal'", 2, 1),
        ("ring: x ; ; ideal: x", "expected keyword 'ideal'", 1, 11),
        ("ring: x\nideal: x y", "unexpected trailing input 'y'", 2, 10),
        ("ring: x\nideal: x/y", "unexpected trailing input '/'", 2, 9),
        ("ring: x, y\n\nideal: x*y,\n  y^2 + 1/0*x", "expected nonzero integer denominator", 4, 11),
        ("ring: x\nideal: 2/x", "expected nonzero integer denominator", 2, 10),
        ("ring: x\nideal: x - 1/\n", "expected nonzero integer denominator", 3, 1),
        ("ring: x\nideal: x^y", "expected integer exponent after '^'", 2, 10),
        ("ring: x\nideal: x^-1", "expected integer exponent after '^'", 2, 10),
        ("ring: x\nideal: (x + 1", "expected ')'", 2, 14),
        ("ring: x\nideal: x@", "unexpected character '@'", 2, 9),
        ("ring: x\nideal: é", "unexpected character 'é'", 2, 8),
        # numbers are ASCII digits only
        ("ring: x ; ideal: x^\u0663 - \uff13*x^3", "unexpected character '\u0663'", 1, 20),
        ("ring: x ; ideal: \uff13*x", "unexpected character '\uff13'", 1, 18),
        # the keywords are no variable names
        ("ring:\nideal: x", "expected a variable name", 2, 1),
        ("ring: ideal, ring ; ideal: ideal*ring", "expected a variable name", 1, 7),
        ("ring: x, ring ; ideal: x", "expected a variable name", 1, 10),
    ],
)
def test_error_positions(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus"
SPLICES = ["^99", "(", ")", "1/0", "/", ";", ",", "*", "-", "#", "\n", "\r\n", "x", "9" * 1001]


def test_mutated_corpus_texts_parse_or_raise_located_errors():
    """Every mutated text gives a presentation or a CmtypeError, and a
    ParseError points into the text (column len + 1 is its line's end)."""
    texts = [path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.ring"))]
    assert len(texts) == 18
    rng = random.Random(23)
    for _ in range(2000):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            j = min(len(text), i + rng.randint(0, 6))
            if rng.random() < 0.5:  # delete a span
                text = text[:i] + text[j:]
            else:  # insert or splice in a token
                text = text[:i] + rng.choice(SPLICES) + text[j if rng.random() < 0.5 else i :]
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        for require_homogeneous in (False, True):
            try:
                parse_presentation(text, require_homogeneous)
            except ParseError as exc:
                assert 1 <= exc.line <= len(lines), text
                assert 1 <= exc.column <= len(lines[exc.line - 1]) + 1, text
            except CmtypeError:
                pass


def test_nesting_depth_limit():
    x = Polynomial.variable(1, 0)
    assert parse_polynomial("(" * 100 + "x" + ")" * 100, ("x",)) == x
    with pytest.raises(ParseError, match=r"nested deeper than 100 \(line 1, column 101\)"):
        parse_polynomial("(" * 101 + "x" + ")" * 101, ("x",))


def test_expansion_and_digit_caps():
    xy = ("x", "y")
    # a monomial power costs one product per bit of the exponent
    pres = parse_presentation("ring: x, y\nideal: x^2, y^100000000")
    assert pres.generators[1] == Polynomial(2, [((0, 100000000), 1)])
    assert parse_polynomial("(x+y)^99", xy).coefficient((50, 49)) == math.comb(99, 50)
    with pytest.raises(ParseError, match=r"more than 50000 term products \(line 1, column 6\)"):
        parse_polynomial("(x+y)^1000", xy)
    literal = "9" * 1000
    value = parse_polynomial(f"{literal}/{literal[:-1]}7*x", xy).coefficient((1, 0))
    assert value == Fraction(int(literal), int(literal[:-1] + "7"))
    with pytest.raises(ParseError, match=r"an integer literal has more than 1000 digits"):
        parse_polynomial(literal + "9", xy)
    with pytest.raises(ParseError, match=r"a coefficient has more than 1000 digits"):
        parse_polynomial(f"{literal}*x*{literal}", xy)
    with pytest.raises(ParseError, match=r"a coefficient has more than 1000 digits"):
        parse_polynomial(f"1/{literal}*x + 1/{literal[:-1]}8*x", xy)
    # a term's degree is capped like a coefficient: 10^1000 - 1 is the largest
    assert parse_polynomial(f"x^{literal}", xy).degree() == int(literal)
    with pytest.raises(ParseError, match=r"a term has a degree of more than 1000 digits"):
        parse_polynomial(f"x^{literal}*y", xy)


@pytest.mark.parametrize(
    "coefficient", [-(10**4300), Fraction(1, 10**4300)], ids=["numerator", "denominator"]
)
def test_render_refuses_coefficients_past_the_str_limit(coefficient):
    # 2^14284 has 4,300 digits (bit length 14,285, where the estimate says
    # 4,301) and renders; one digit more raises before str() would
    assert render_polynomial(Polynomial(1, [((1,), 2**14284)]), ("x",)).endswith("6*x")
    message = r"^render_polynomial: coefficient has 4301 digits \(cap 4300\)$"
    with pytest.raises(BudgetError, match=message):
        render_polynomial(Polynomial(1, [((1,), coefficient)]), ("x",))


@st.composite
def term_lists(draw):
    """(nvars, [(monomial, coefficient)]): constants, coefficients +-1,
    integers and fractions, under a scale that may be a large fraction."""
    nvars = draw(st.integers(1, 3))
    monomial = st.tuples(*[st.integers(0, 3)] * nvars)
    coefficient = st.one_of(
        st.sampled_from([1, -1]),
        st.integers(-50, 50).filter(bool),
        st.fractions(-20, 20, max_denominator=12).filter(bool),
    )
    terms = draw(st.lists(st.tuples(monomial, coefficient), max_size=6))
    scale = draw(st.sampled_from([1, -1, Fraction(2, 3), Fraction(-(10**30), 7**20)]))
    return nvars, [(m, c * scale) for m, c in terms]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(term_lists())
# a non-integral scale under a negative lead, with a constant term
@example((2, [((1, 0), Fraction(-3, 2)), ((0, 1), Fraction(1, 2)), ((0, 0), 5)]))
# coefficients +-1 only, and a constant -1
@example((1, [((2,), -1), ((1,), 1), ((0,), -1)]))
def test_render_matches_the_fraction_term_oracle(drawn):
    nvars, terms = drawn
    p = Polynomial(nvars, terms)
    names = ("x", "y", "z")[:nvars]
    assert render_polynomial(p, names) == render_polynomial_oracle(p, names)


@pytest.mark.parametrize("where", ["numerator", "denominator"])
@pytest.mark.parametrize("value", [2**12900, 10**4300 - 1, 10**4300], ids=["12901-bit", "4300-digit", "4301-digit"])
def test_render_digit_cap_matches_the_oracle(where, value):
    # a tail term's numerator, or its denominator, past the bit length below
    # which no digit is counted: 4,300 digits render, 4,301 raise the oracle's error
    tail = value if where == "numerator" else Fraction(1, value)
    p = Polynomial(2, [((1, 0), -1), ((0, 1), tail), ((0, 0), 3)])
    try:
        expected = render_polynomial_oracle(p, ("x", "y"))
    except BudgetError as error:
        assert value == 10**4300
        with pytest.raises(BudgetError) as raised:
            render_polynomial(p, ("x", "y"))
        assert str(raised.value) == str(error) == "render_polynomial: coefficient has 4301 digits (cap 4300)"
    else:
        assert render_polynomial(p, ("x", "y")) == expected


def test_unknown_variable():
    with pytest.raises(ParseError) as err:
        parse_presentation("ring: x ; ideal: x*q")
    assert "unknown variable" in str(err.value)


def test_zero_generator_dropped_with_warning():
    pres = parse_presentation("ring: x ; ideal: x - x, x^2")
    assert len(pres.generators) == 1
    assert any("zero" in w for w in pres.warnings)
    # the warnings are no part of the ring: equality and the hash ignore them
    same = parse_presentation("ring: x ; ideal: x^2")
    assert pres == same and not pres != same and hash(pres) == hash(same)


@pytest.mark.parametrize("generator", [Polynomial.variable(3, 0), Polynomial.zero(2)])
def test_presentation_rejects_bad_generators(generator):
    xy = ("x", "y")
    with pytest.raises(InputError):
        RingPresentation(xy, (generator,))
    with pytest.raises(InputError):  # a copy is checked as a new one is
        RingPresentation(xy, ())._replace(generators=(generator,))


@pytest.mark.parametrize("names", [("x", "x"), ("1bad",), ("ring",), ("x", "ideal"), ("",), ("x y",)])
def test_presentation_rejects_bad_variable_names(names):
    with pytest.raises(InputError, match="variable names must be distinct|invalid variable name"):
        make_presentation(names, [])
    with pytest.raises(InputError):  # a copy is checked as a new one is
        make_presentation(("x",), [])._replace(variables=names)


def test_variables_are_a_plain_tuple_of_names():
    pres = parse_presentation("ring: x, y_1, z ; ideal: x*y_1, z")
    assert type(pres.variables) is tuple and pres.variables == ("x", "y_1", "z")
    assert type(buchberger(pres).variables) is tuple and buchberger(pres).variables == pres.variables
    assert minimalize_presentation(pres).variables == ("x", "y_1")
    assert make_presentation(["x", "y"], []) == RingPresentation(("x", "y"), ())


def test_homogeneous_flag_rejects_mixed_degrees():
    with pytest.raises(InhomogeneousError):
        parse_presentation("ring: x, y ; ideal: x + y^2", require_homogeneous=True)
    pres = parse_presentation("ring: x, y ; ideal: x + y^2")
    assert not pres.homogeneous
    # numbered as listed: the zero generator dropped before it counts, as in its warning
    text = "ring: x ; ideal: x - x, x^2 + x"
    with pytest.raises(InhomogeneousError, match="generator 2 is not homogeneous"):
        parse_presentation(text, require_homogeneous=True)
    assert parse_presentation(text).warnings == ("generator 1 is zero and was dropped",)
    with pytest.raises(ParseError, match="unexpected end of input"):  # a later syntax error wins
        parse_presentation(text + ", (", require_homogeneous=True)


def test_duplicate_variable_rejected():
    # located at the repeated name, not at the token after the list
    for text, line, column in [("ring: x, x ; ideal:", 1, 10), ("ring: x,x\nideal:", 1, 9)]:
        with pytest.raises(ParseError, match="duplicate variable name 'x'") as err:
            parse_presentation(text)
        assert (err.value.line, err.value.column) == (line, column)


def test_parse_render_round_trip_on_canonical_forms():
    corpus = [
        "ring: x, y, z ; ideal: x*y, y*z, z^2",
        "ring: x, y ; ideal: x^3*y - x*y^3",
        "ring: x ; ideal:",
        "ring: a, b, c ; ideal: 1/3*a^2 - b*c, a*b + 2*c^2",
    ]
    for text in corpus:
        pres = parse_presentation(text)
        again = parse_presentation(render_presentation(pres))
        assert again == pres

    rng = random.Random(11)
    names = ("x", "y", "z")
    for _ in range(50):
        p = random_homogeneous_polynomial(rng, 3, rng.randint(1, 4))
        assert parse_polynomial(render_polynomial(p, names), names) == p


def expressions(names):
    """Polynomial expression text over the given names: sums, differences,
    products, parenthesized negations and small powers of variables and
    rational numbers."""
    number = st.builds(
        lambda n, d: f"{n}/{d}" if d > 1 else str(n), st.integers(0, 12), st.integers(1, 4)
    )
    return st.recursive(
        st.one_of(st.sampled_from(names), number),
        lambda inner: st.one_of(
            st.builds(lambda a, op, b: f"{a} {op} {b}", inner, st.sampled_from("+-*"), inner),
            st.builds(lambda a: f"(-{a})", inner),
            st.builds(lambda a, e: f"({a})^{e}", inner, st.integers(0, 3)),
        ),
        max_leaves=8,
    )


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_parse_render_parse_round_trip(data):
    names = st.lists(st.sampled_from(["x", "y", "z1", "w_2"]), min_size=1, unique=True)
    names = tuple(data.draw(names))
    p = parse_polynomial(data.draw(expressions(names)), names)
    text = render_polynomial(p, names)
    again = parse_polynomial(text, names)
    assert again == p
    assert render_polynomial(again, names) == text
