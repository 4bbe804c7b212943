"""The sparse integer echelon against the dense reference elimination."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from cmtype import linalg


def assert_primitive_integer_rows(echelon):
    for pivot, row in echelon.rows.items():
        assert all(type(x) is int for x in row.values())
        assert pivot == max(row) and row[pivot] > 0
        assert math.gcd(*row.values()) == 1


def test_a_pivot_that_does_not_divide_its_row_keeps_the_row_integral():
    echelon = linalg.Echelon([{(1,): 2, (0,): 3}])
    assert echelon.rows == {(1,): {(1,): 2, (0,): 3}}
    assert_primitive_integer_rows(echelon)
    # (2, 3) and (4, 6) are proportional; (1, 0) is not
    assert not echelon.add({(1,): 4, (0,): 6})
    # x1 reduces to -3/2 x0, read as the integer multiple 2 * (x1 - row / 2)
    assert echelon.residual({(1,): 1}) == {(0,): -3}
    assert echelon.add({(1,): 1})
    assert echelon.rows[(0,)] == {(0,): 1}


def test_rows_are_divided_by_their_content_and_signed_at_the_pivot():
    echelon = linalg.Echelon([{(1,): -4, (0,): 6}])
    assert echelon.rows == {(1,): {(1,): 2, (0,): -3}}


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), max_size=6))
def test_integer_rows_stay_primitive_and_keep_the_dense_rank(rows):
    # every entry an int, every row primitive with a positive pivot, and a
    # residual empty exactly when adding the vector leaves the rank unchanged
    echelon = linalg.Echelon()
    for k, row in enumerate(rows):
        vec = {j: c for j, c in enumerate(row) if c}
        in_span = not echelon.residual(vec)
        assert in_span == (linalg.rank(rows[: k + 1]) == linalg.rank(rows[:k]))
        assert echelon.add(vec) is not in_span
        assert_primitive_integer_rows(echelon)
    assert len(echelon.rows) == linalg.rank(rows)
