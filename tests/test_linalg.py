"""The sparse echelon against the dense reference elimination."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cmtype import linalg


def entries(echelon):
    return [x for row in echelon.rows.values() for x in row.values()]


def test_integer_vectors_give_fraction_rows():
    echelon = linalg.Echelon([{(1,): 2, (0,): 3}])
    assert echelon.rows == {(1,): {(1,): 1, (0,): Fraction(3, 2)}}
    assert type(echelon.rows[(1,)][(0,)]) is Fraction


def test_integer_rows_stay_integral_when_the_pivot_divides_them():
    echelon = linalg.Echelon([{(1,): 2, (0,): 4}])
    assert echelon.rows == {(1,): {(1,): 1, (0,): 2}}
    assert all(type(x) is int for x in entries(echelon))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), max_size=6))
def test_integer_rows_stay_exact_and_keep_the_dense_rank(rows):
    # exact entries, int or Fraction, never float; every pivot entry is 1
    echelon = linalg.Echelon({j: c for j, c in enumerate(row) if c} for row in rows)
    assert all(type(x) in (int, Fraction) for x in entries(echelon))
    assert all(row[pivot] == 1 for pivot, row in echelon.rows.items())
    assert len(echelon.rows) == linalg.rank(rows)
