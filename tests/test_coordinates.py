"""Catalog rings in general coordinates: a change of coordinates is an
isomorphism, so every invariant and the singular locus must stay put."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cmtype import analyze, catalog_presentation, make_presentation, singular_locus
from cmtype.poly import minors

from oracles import linear_change, random_invertible_matrix

# The small catalog rings.  Left out for time: the singular loci of
# veronese_cone 5 and scroll(2,2) take about a second each in general
# coordinates and scroll(1,1,2) five; scroll(1,3), scroll(2,3),
# veronese_cone 6 and the two rings over the minor budget are larger still.
RINGS = [
    ("gw12", ()),
    ("graded12", ()),
    ("binary_form", ("2,1",)),
    ("binary_form", ("1,1,1,1",)),
    ("quadric", ("3,4",)),
    ("quadric", ("4,4",)),
    ("quadric", ("3,5",)),
    ("scroll", ("1,2",)),
    ("scroll", ("1,1,1",)),
    ("scroll", ("4",)),
]


def in_general_coordinates(pres, seed):
    matrix = random_invertible_matrix(random.Random(seed), pres.nvars)
    return make_presentation(pres.variables, [linear_change(g, matrix) for g in pres.generators])


@pytest.mark.parametrize("family, args", RINGS, ids=lambda x: "-".join(x) if isinstance(x, tuple) else x)
@settings(max_examples=5, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32))
def test_a_change_of_coordinates_keeps_the_invariants_and_the_singular_locus(family, args, seed):
    pres = catalog_presentation(family, args)
    catalog, general = analyze(pres), analyze(in_general_coordinates(pres, seed))
    assert general.invariants == catalog.invariants
    assert singular_locus(general).singular_dim == singular_locus(catalog).singular_dim
    # the quotient's forms are no longer all integral (gw12, graded12 and
    # the scrolls), and the minors expanded through them are integer maps
    gens = general.presentation.generators
    codim = general.presentation.nvars - general.series.dim
    if gens:
        primitive = [g * (1 / g.scale) for g in gens]
        jacobian = [[g.derivative(j).terms for j in range(g.nvars)] for g in primitive]
        for det in minors(jacobian, codim, general.quotient.normal):
            assert all(type(c) is int for c in det.values())
