"""Small dense linear algebra, exact over Fractions plus float helpers.

Matrices are row-major sequences of rows: of ints or Fractions when exact
(the integer numerators of a `SquareMatrix` pair among them).  Everything
here is sized for the 6x6 / 8x8 / 64x8 systems this package needs; none of
it is meant to scale.

Exact sums of products run on integers: `lift` writes a vector of rationals
as integer numerators over the lcm of its denominators, the products and the
sum are integer operations, and one `Fraction` is built at the end.  A
vector with a float in it has no such lift and is summed term by term.  The
exact kernel eliminates on integer rows too (`_integer_rref`) and builds
Fractions only for the basis it returns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import List, Optional, Sequence, Tuple

import numpy as np

Matrix = List[List[Fraction]]
#: a vector of rationals as (integer numerators, common denominator)
Lifted = Tuple[List[int], int]

#: singular values below this fraction of the largest one span a numerical
#: kernel; also the residual allowed to closed-form float roots
KERNEL_RTOL = 1e-7


def mat_identity(n: int) -> Matrix:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_transpose(m: Sequence[Sequence]) -> Matrix:
    return [list(col) for col in zip(*m)]


def lift(v: Sequence) -> Optional[Lifted]:
    """(numerators, d): the rationals (ints or Fractions) in v as integers
    over d, the lcm of their denominators; None when an entry is not
    rational (a float has no denominator)."""
    if len(v) and isinstance(v[0], float):
        return None  # the common float vector, turned down without raising
    try:
        dens = [c.denominator for c in v]
    except AttributeError:
        return None
    d = math.lcm(*dens)
    return [c.numerator * (d // e) for c, e in zip(v, dens)], d


def lift_exact(v: Sequence) -> Lifted:
    """`lift` of v with every entry taken as an exact rational: ints and
    Fractions as they are, anything else (a float, a numpy scalar) through
    `Fraction`."""
    qs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
    # int() of the parts: a Fraction of a numpy int keeps numpy parts
    dens = [int(q.denominator) for q in qs]
    d = math.lcm(*dens)
    return [int(q.numerator) * (d // e) for q, e in zip(qs, dens)], d


def _dot(x, y, p: Optional[Lifted], q: Optional[Lifted]):
    # x . y, given the lifts p of x and q of y
    if p is None or q is None:
        return sum(a * b for a, b in zip(x, y))
    return Fraction(sum(map(mul, p[0], q[0])), p[1] * q[1])


def dot(x: Sequence, y: Sequence):
    """sum_i x_i y_i: one Fraction over integer numerators when every entry
    is rational, else a float summed term by term."""
    p = lift(x)
    return _dot(x, y, p, p if y is x or p is None else lift(y))


def mat_mul(a, b) -> Matrix:
    cols = list(zip(*b))
    lifted = [lift(col) for col in cols]
    out = []
    for row in a:
        p = lift(row)
        out.append([_dot(row, col, p, q) for col, q in zip(cols, lifted)])
    return out


def mat_vec(a, v) -> list:
    q = lift(v)
    return [_dot(row, v, lift(row) if q else None, q) for row in a]


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _primitive(v: List[int]) -> List[int]:
    # v divided by the gcd of its entries
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _integer_rref(m: Sequence[Sequence]) -> Tuple[List[List[int]], List[int]]:
    """The nonzero rows of the reduced row echelon form of m, each scaled to
    primitive integers, and their pivot columns.

    Scaling a row leaves the row space, and so the reduced form, unchanged:
    each row of rationals is lifted to primitive integers, and every
    elimination step r_i <- p r_i - f r_pivot stays in the integers and is
    divided by the gcd of the new row (Knuth, TAOCP vol. 2, 4.5.1).  Row k
    of the reduced form is rows[k] / rows[k][pivots[k]]."""
    rows = [_primitive(lift_exact(row)[0]) for row in m]
    ncols = len(rows[0]) if rows else 0
    pivots: List[int] = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pr = rows[r]
        p = pr[c]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                rows[i] = _primitive([p * x - f * y for x, y in zip(row, pr)])
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows[:len(pivots)], pivots


def kernel_basis(m: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Exact basis of the right kernel {v : m v = 0}: for each free column,
    the vector with 1 there, 0 on the other free columns, read off the
    reduced row echelon form."""
    ncols = len(m[0]) if len(m) else 0
    rows, pivots = _integer_rref(m)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
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


def pfaffian(a: Sequence[Sequence]):
    """Pfaffian of an antisymmetric matrix of even size n >= 2, from the
    entries above the diagonal: the expansion along the first row (15
    terms at 6x6), with no division, in the entries' own arithmetic."""

    def pf(idx: tuple):
        if len(idx) == 2:
            return a[idx[0]][idx[1]]
        total = 0
        for k, j in enumerate(idx[1:], 1):
            t = a[idx[0]][j] * pf(idx[1:k] + idx[k + 1:])
            total = total + t if k % 2 else total - t
        return total

    return pf(tuple(range(len(a))))


def is_orthogonal_exact(m: Sequence[Sequence[Fraction]]) -> bool:
    return mat_eq(mat_mul(m, mat_transpose(m)), mat_identity(len(m)))


# ---------------------------------------------------------------------------
# float helpers
# ---------------------------------------------------------------------------

def kernel_basis_float(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the numerical kernel: right singular
    vectors whose singular values fall below KERNEL_RTOL * s_max."""
    _, s, vt = np.linalg.svd(np.asarray(m, dtype=float))
    if s.size == 0 or s[0] == 0.0:
        return vt
    ncols = vt.shape[1]
    cutoff = KERNEL_RTOL * s[0]
    small = [i for i in range(ncols) if i >= s.size or s[i] < cutoff]
    return vt[small, :]
