"""Small exact linear algebra over the rationals.

Matrices are lists of lists of Fraction.  Sizes in this package never exceed
6x6, so plain Gaussian elimination with exact pivots is all that is needed.
Right-hand sides may carry Poly entries (division only ever happens by
Fraction pivots), which is how parametric Gram systems are solved.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def solve_unique(matrix: Sequence[Sequence[Fraction]], rhs: Sequence) -> list | None:
    """Solve M x = rhs for a unique solution, or None.

    The matrix may be rectangular (rows >= cols); None means the system is
    inconsistent or the solution is not unique.  RHS entries only need to
    support +, -, and multiplication/division by Fraction.
    """
    m = [list(row) for row in matrix]
    b = list(rhs)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if pivot is None:
            return None  # free column: not unique (or zero column)
        m[row], m[pivot] = m[pivot], m[row]
        b[row], b[pivot] = b[pivot], b[row]
        inv = Fraction(1) / m[row][col]
        m[row] = [inv * x for x in m[row]]
        b[row] = b[row] * inv
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[row])]
                b[r] = b[r] - b[row] * factor
        pivots.append((row, col))
        row += 1
        if row == nrows:
            break
    if len(pivots) < ncols:
        return None
    for r in range(row, nrows):
        if _is_nonzero(b[r]):
            return None  # inconsistent
    out = [None] * ncols
    for r, c in pivots:
        out[c] = b[r]
    return out


def _is_nonzero(x) -> bool:
    if hasattr(x, "is_zero"):
        return not x.is_zero()
    return x != 0


def null_space(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right null space of a rational matrix."""
    m = [list(map(Fraction, row)) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = Fraction(1) / m[row][col]
        m[row] = [inv * x for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
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
