"""Exact linear algebra over the rationals.

Every rank, span test and solve in the library runs on :class:`Echelon`, a
sparse row echelon form of dicts from coordinate to int, fraction-free.
:func:`rref` and :func:`rank`, dense Gaussian elimination over lists of rows
of Fractions, are the reference the test oracles compare against; no library
code calls them.  Everything is exact and deterministic.
"""

from __future__ import annotations

import math
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
    """Sparse row echelon form of the integer vectors added so far.

    A vector is a dict from coordinate (any totally ordered key, such as a
    monomial) to a nonzero int.  ``rows`` maps each pivot, the largest
    coordinate of its row, to that row made primitive with a positive pivot
    entry.  Pivots are distinct, so the rows are independent and their
    count is the rank.
    """

    def __init__(self, vectors: Iterable[dict] = ()):
        self.rows: dict = {}
        for vec in vectors:
            self.add(vec)

    def residual(self, vec: dict) -> dict:
        """vec reduced until its largest coordinate is no pivot, each step
        v <- (p/g) v - (c/g) row for the row's pivot entry p, v's entry c and
        g = gcd(p, c): the exact residual times a nonzero integer, so it is
        empty exactly when vec lies in the span of the rows."""
        v = dict(vec)
        while v and (row := self.rows.get(pivot := max(v))) is not None:
            c, p = v[pivot], row[pivot]
            if c % p:  # scale v by p / gcd(p, c), so that p divides its entry c
                a = p // math.gcd(p, c)
                for k in v:
                    v[k] *= a
                c *= a
            add_scaled(v, row, -(c // p))
        return v

    def add(self, vec: dict) -> bool:
        """Reduce vec; if a nonzero residual is left, store it primitive and return True."""
        if v := self.residual(vec):
            pivot = max(v)
            content = math.gcd(*v.values()) if v[pivot] > 0 else -math.gcd(*v.values())
            self.rows[pivot] = {k: x // content for k, x in v.items()}
        return bool(v)
