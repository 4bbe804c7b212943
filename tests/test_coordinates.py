"""Catalog rings in other coordinates: a change of coordinates is an
isomorphism, so every invariant and the singular locus must stay put, and
so must the verdicts that are read from invariants alone."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cmtype import analyze, catalog_presentation, classify, make_presentation, singular_locus
from cmtype.poly import derivative_map, minors

from oracles import linear_change, random_invertible_matrix

# The small catalog rings.  Under random_invertible_matrix(random.Random(1), n)
# the singular loci of veronese_cone 5, scroll(2,2) and scroll(1,3) take
# about 0.3 s each (Python 3.11, 2 cores).  Left out for time: scroll(1,1,2)
# and veronese_cone 6 (1.2-1.3 s each), scroll(2,3) (25-34 s), and
# scroll(3,4) and scroll(1,1,1,2), which exceed the minor budget.
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
    ("scroll", ("2,2",)),
    ("scroll", ("1,3",)),
    ("veronese_cone", ("5",)),
]


def permutation(rng, n):
    """x_i -> x_sigma(i) for a random permutation sigma."""
    sigma = rng.sample(range(n), n)
    return [[int(j == sigma[i]) for j in range(n)] for i in range(n)]


def shear(rng, n):
    """x_i -> x_i + x_j for one random pair i != j."""
    i, j = rng.sample(range(n), 2)
    return [[int(k == r or (r, k) == (i, j)) for k in range(n)] for r in range(n)]


CHANGES = {"permutation": permutation, "shear": shear, "general": random_invertible_matrix}


def changed(pres, change, seed):
    matrix = CHANGES[change](random.Random(seed), pres.nvars)
    return make_presentation(pres.variables, [linear_change(g, matrix) for g in pres.generators])


@pytest.mark.parametrize("change", CHANGES)
@pytest.mark.parametrize("family, args", RINGS, ids=lambda x: "-".join(x) if isinstance(x, tuple) else x)
@settings(max_examples=5, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32))
def test_a_change_of_coordinates_keeps_the_invariants_and_the_singular_locus(family, args, change, seed):
    pres = catalog_presentation(family, args)
    other = changed(pres, change, seed)
    catalog, bundle = analyze(pres), analyze(other)
    assert bundle.invariants == catalog.invariants
    assert singular_locus(bundle).singular_dim == singular_locus(catalog).singular_dim
    if family in ("binary_form", "quadric"):
        # tagged by root profile and quadric rank, which no change of coordinates moves
        assert classify(other).verdict == classify(pres).verdict
    # after a general change the quotient's forms are no longer all integral
    # (gw12, graded12 and the scrolls); the minors expanded through them are
    # integer maps
    gens = bundle.presentation.generators
    codim = bundle.presentation.nvars - bundle.series.dim
    if gens:
        jacobian = [[derivative_map(g.ints, j) for j in range(g.nvars)] for g in gens]
        for det in minors(jacobian, codim, bundle.quotient.normal):
            assert all(type(c) is int for c in det.values())
