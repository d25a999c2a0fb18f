"""Small exact linear algebra over the rationals.

One fraction-free Gauss-Jordan elimination (:func:`_eliminate`) serves
kernels, rank and every solve, each an augmented matrix: [M | rhs] in
:func:`solve_unique` and the Zariski kernel's integer [G_S | D.C_S].  It
uses ring operations only (``+``, ``-``, ``*`` and truthiness), so the
entries may be int, Fraction or one-variable Poly; every matrix here has at
most eight columns, so they grow only a little without division.  The one
division left, by each pivot, happens after the elimination, in
:func:`solve_unique` or in the caller.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def _eliminate(m: list[list]) -> list[int]:
    """Reduce ``m`` in place, fraction-free; return the pivot columns.

    The pivot of each column is its first nonzero entry at or below the
    current row.  Every other row r with a nonzero entry in that column
    becomes ``lead * m[r] - factor * m[row]``, a nonzero multiple of its
    Gauss-Jordan row, so the pivot columns are those of the reduced row
    echelon form.
    """
    nrows = len(m)
    pivots: list[int] = []
    for col in range(len(m[0]) if nrows else 0):
        row = len(pivots)
        if row == nrows:
            break
        pivot = next((r for r in range(row, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        lead = m[row][col]
        for r in range(nrows):
            factor = m[r][col]
            if r != row and factor:
                m[r] = [lead * x - factor * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
    return pivots


def kernel(matrix: Sequence[Sequence], ncols: int) -> list[list]:
    """A kernel basis, one vector per free column, with no division.

    For free column j, x_j is the product of the pivots, every other free
    column is 0, and the pivot column of row r gets -m[r][j] times the
    product of the other pivots.  The last nonzero entry of each vector is
    the one at its free column.  ``ncols`` covers a matrix with no rows.
    """
    m = [list(row) for row in matrix]
    pivots = _eliminate(m)
    leads = [m[r][c] for r, c in enumerate(pivots)]
    det = math.prod(leads)
    others = [math.prod(leads[:r] + leads[r + 1:]) for r in range(len(leads))]
    basis = []
    for j in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[j] = det
        for r, c in enumerate(pivots):
            vec[c] = -m[r][j] * others[r]
        basis.append(vec)
    return basis


def solve_unique(matrix: Sequence[Sequence[Fraction]], rhs: Sequence) -> list | None:
    """Solve M x = rhs for a unique solution, or None.

    ``[M | rhs]`` is eliminated: the solution exists and is unique exactly
    when the pivot columns are those of M, 0 to n - 1.  The matrix may be
    rectangular (rows >= cols).
    """
    ncols = len(matrix[0]) if matrix else 0
    m = [[*row, b] for row, b in zip(matrix, rhs)]
    if _eliminate(m) != list(range(ncols)):
        return None  # a free column (not unique) or a pivot in rhs (inconsistent)
    return [m[r][ncols] * (1 / Fraction(m[r][r])) for r in range(ncols)]


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    return len(_eliminate([list(row) for row in matrix]))


def is_negative_definite(gram: Sequence[Sequence[Fraction]]) -> bool:
    """Sylvester criterion: leading principal minors of -G are all positive."""
    n = len(gram)
    m = [[-Fraction(x) for x in row] for row in gram]
    # in-place LU without pivoting is fine: positive definiteness of -G
    # guarantees nonzero leading minors, and a zero pivot refutes it.
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for r in range(k + 1, n):
            factor = m[r][k] / m[k][k]
            for c in range(k, n):
                m[r][c] -= factor * m[k][c]
    return True
