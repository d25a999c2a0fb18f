"""Small exact linear algebra over the rationals.

One fraction-free Gauss-Jordan elimination (:func:`_eliminate`) serves
solves, kernels, null spaces and rank.  It uses ring operations only (``+``,
``-``, ``*`` and truthiness), so the entries may be int, Fraction or
one-variable Poly; every matrix here has at most six columns, so they grow
only a little without division.  A Poly right-hand side is how parametric
Gram systems are solved; the one division left, by each pivot, happens in
:func:`solve_unique` after the elimination.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def _eliminate(m: list[list], b: list | None = None) -> list[int]:
    """Reduce ``m`` in place, fraction-free; return the pivot columns.

    The pivot of each column is its first nonzero entry at or below the
    current row.  Every other row r with a nonzero entry in that column
    becomes ``lead * m[r] - factor * m[row]``, a nonzero multiple of its
    Gauss-Jordan row, so the pivot columns are those of the reduced row
    echelon form.  The same row operations are applied to ``b`` when given.
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
        if b is not None:
            b[row], b[pivot] = b[pivot], b[row]
        lead = m[row][col]
        for r in range(nrows):
            factor = m[r][col]
            if r != row and factor:
                m[r] = [lead * x - factor * y for x, y in zip(m[r], m[row])]
                if b is not None:
                    b[r] = lead * b[r] - factor * b[row]
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

    The matrix may be rectangular (rows >= cols); None means the system is
    inconsistent or the solution is not unique.  RHS entries only need to
    support +, -, and multiplication by Fraction.
    """
    m = [list(row) for row in matrix]
    b = list(rhs)
    ncols = len(m[0]) if m else 0
    if len(_eliminate(m, b)) < ncols:
        return None  # a free column: not unique (or a zero column)
    if any(b[ncols:]):
        return None  # inconsistent
    return [b[r] * (1 / Fraction(m[r][r])) for r in range(ncols)]


def null_space(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right null space of a rational matrix.

    The reduced-row-echelon basis: each :func:`kernel` vector divided by its
    entry at its free column.  The elimination runs on the entries as given,
    so an integer matrix is eliminated over the ints.
    """
    ncols = len(matrix[0]) if matrix else 0
    basis = []
    for vec in kernel(matrix, ncols):
        free = next(x for x in reversed(vec) if x)
        basis.append([Fraction(x, free) for x in vec])
    return basis


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
