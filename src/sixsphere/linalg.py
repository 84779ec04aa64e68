"""Small dense linear algebra, exact over Fractions plus float helpers.

Exact matrices are lists of lists of Fractions (row-major).  Everything here
is sized for the 6x6 / 8x8 / 64x8 systems this package needs; none of it is
meant to scale.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

import numpy as np

Matrix = List[List[Fraction]]

#: singular values below this fraction of the largest one span a numerical
#: kernel; also the residual allowed to closed-form float roots
KERNEL_RTOL = 1e-7


def mat_identity(n: int) -> Matrix:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_transpose(m: Sequence[Sequence]) -> Matrix:
    return [list(col) for col in zip(*m)]


def mat_mul(a, b) -> Matrix:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def mat_sub(a, b) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_to_float(a) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in a])


def rref(m: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    a = [[Fraction(x) for x in row] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def kernel_basis(m: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Exact basis of the right kernel {v : m v = 0}."""
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    a, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


def det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination with exact pivoting."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    sign = 1
    d = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign = -sign
        d *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return sign * d


def is_orthogonal_exact(m: Sequence[Sequence[Fraction]]) -> bool:
    return mat_eq(mat_mul(m, mat_transpose(m)), mat_identity(len(m)))


# ---------------------------------------------------------------------------
# float helpers
# ---------------------------------------------------------------------------

def kernel_basis_float(m: np.ndarray, rtol: float = KERNEL_RTOL) -> np.ndarray:
    """Orthonormal basis (rows) of the numerical kernel: right singular
    vectors whose singular values fall below rtol * s_max."""
    _, s, vt = np.linalg.svd(np.asarray(m, dtype=float))
    if s.size == 0 or s[0] == 0.0:
        return vt
    ncols = vt.shape[1]
    cutoff = rtol * s[0]
    small = [i for i in range(ncols) if i >= s.size or s[i] < cutoff]
    return vt[small, :]
