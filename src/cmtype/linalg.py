"""Exact linear algebra over the rationals.

Every rank, span test and solve in the library runs on :class:`Echelon`, a
sparse row echelon form of dicts from coordinate to int or Fraction.
:func:`rref` and :func:`rank`, dense Gaussian elimination over lists of rows
of Fractions, are the reference the test oracles compare against; no library
code calls them.  Everything is exact and deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .poly import add_scaled


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (copy) and the list of pivot columns."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    if not mat:
        return mat, pivots
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[1])


class Echelon:
    """Sparse row echelon form of the vectors added so far.

    A vector is a dict from coordinate (any totally ordered key, such as a
    monomial) to a nonzero int or Fraction.  ``rows`` maps each pivot, the
    largest coordinate of its row, to that row scaled to pivot entry 1; a
    row stays int when its pivot divides it.  Pivots are distinct, so the
    rows are independent and their count is the rank.
    """

    def __init__(self, vectors: Iterable[dict] = ()):
        self.rows: dict = {}
        for vec in vectors:
            self.add(vec)

    def residual(self, vec: dict) -> dict:
        """vec minus row multiples until its largest coordinate is no pivot;
        empty exactly when vec lies in the span of the rows."""
        v = dict(vec)
        while v and (row := self.rows.get(pivot := max(v))) is not None:
            add_scaled(v, row, -v[pivot])
        return v

    def add(self, vec: dict) -> bool:
        """Reduce vec; if a nonzero residual is left, store it and return True."""
        v = self.residual(vec)
        if v:
            pivot = max(v)
            p = v[pivot]
            if type(p) is int and not any(x % p for x in v.values()):
                self.rows[pivot] = {k: x // p for k, x in v.items()}
            else:
                inv = 1 / Fraction(p)
                self.rows[pivot] = {k: x * inv for k, x in v.items()}
        return bool(v)
