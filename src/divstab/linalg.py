"""Small exact linear algebra over the rationals.

Matrices are lists of lists of Fraction.  The systems in this package are
small, so one Gauss-Jordan elimination with exact pivots serves solves, null
spaces and rank.
Right-hand sides may carry Poly entries (division only ever happens by
Fraction pivots), which is how parametric Gram systems are solved.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def _gauss_jordan(m: list[list], b: list | None = None) -> list[int]:
    """Reduce ``m`` in place to reduced row echelon form; return the pivot columns.

    The pivot of each column is its first nonzero entry at or below the
    current row.  The same row operations are applied to ``b`` when given.
    """
    nrows = len(m)
    pivots: list[int] = []
    for col in range(len(m[0]) if nrows else 0):
        row = len(pivots)
        if row == nrows:
            break
        pivot = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = Fraction(1) / m[row][col]
        m[row] = [inv * x for x in m[row]]
        if b is not None:
            b[row], b[pivot] = b[pivot], b[row]
            b[row] = b[row] * inv
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[row])]
                if b is not None:
                    b[r] = b[r] - b[row] * factor
        pivots.append(col)
    return pivots


def solve_unique(matrix: Sequence[Sequence[Fraction]], rhs: Sequence) -> list | None:
    """Solve M x = rhs for a unique solution, or None.

    The matrix may be rectangular (rows >= cols); None means the system is
    inconsistent or the solution is not unique.  RHS entries only need to
    support +, -, and multiplication/division by Fraction.
    """
    m = [list(row) for row in matrix]
    b = list(rhs)
    ncols = len(m[0]) if m else 0
    if len(_gauss_jordan(m, b)) < ncols:
        return None  # a free column: not unique (or a zero column)
    if any(_is_nonzero(x) for x in b[ncols:]):
        return None  # inconsistent
    return b[:ncols]


def _is_nonzero(x) -> bool:
    if hasattr(x, "is_zero"):
        return not x.is_zero()
    return x != 0


def null_space(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right null space of a rational matrix."""
    m = [list(map(Fraction, row)) for row in matrix]
    ncols = len(m[0]) if m else 0
    pivots = _gauss_jordan(m)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -m[r][free]
        basis.append(vec)
    return basis


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    return ncols - len(null_space(matrix)) if nrows else 0


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
