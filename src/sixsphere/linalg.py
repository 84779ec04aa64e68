"""Small dense linear algebra, exact over Fractions plus float helpers.

Matrices are row-major sequences of rows: of ints or Fractions when exact
(the integer numerators of a `SquareMatrix` pair among them).  Everything
here is sized for the 6x6 / 8x8 / 64x8 systems this package needs; none of
it is meant to scale.

Exact sums of products run on integers: `lift` writes a vector of rationals
as integer numerators over the lcm of its denominators, the products and the
sum are integer operations, and one `Fraction` is built at the end.  A
vector with a float in it has no such lift and is summed term by term.  The
exact kernel and determinant eliminate on integer rows too (`_integer_rref`,
`det`); only the determinant builds a Fraction, for what it returns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: a vector of rationals as (integer numerators, common denominator)
Lifted = Tuple[List[int], int]

#: singular values below this fraction of the largest one span a numerical
#: kernel; also the residual allowed to closed-form float roots
KERNEL_RTOL = 1e-7


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
    `Fraction`.  A vector of Python ints is its own lift, over 1."""
    if all(type(x) is int for x in v):
        return list(v), 1
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


def mat_mul(a, b) -> list:
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


def kernel_basis(m: Sequence[Sequence]) -> Tuple[List[List[int]], int]:
    """Exact basis of the right kernel {v : m v = 0}, as int rows over one
    d > 0, the lcm of the pivots: for each free column, the vector with 1
    there, 0 on the other free columns, read off the reduced echelon form."""
    ncols = len(m[0]) if len(m) else 0
    rows, pivots = _integer_rref(m)
    d = math.lcm(*(row[pc] for row, pc in zip(rows, pivots)))
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = d
        for row, pc in zip(rows, pivots):
            v[pc] = -row[fc] * (d // row[pc])
        basis.append(v)
    return basis, d


def det(m: Sequence[Sequence]) -> Fraction:
    """Exact determinant by fraction-free elimination (Bareiss, Math. Comp.
    22, 1968) on the rows lifted to integers: step k sets a_ij <- (a_kk a_ij
    - a_ik a_kj) / p for i, j > k, p the previous pivot, an exact division
    (each entry is a minor), swapping in a nonzero pivot from below."""
    lifted = [lift_exact(row) for row in m]
    a = [nums for nums, _ in lifted]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return Fraction(0)
            a[k], a[pivot], sign = a[pivot], a[k], -sign
        ak, p = a[k], a[k][k]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i] = [0] * (k + 1) + [(p * x - f * y) // prev
                                    for x, y in zip(a[i][k + 1:], ak[k + 1:])]
        prev = p
    return Fraction(sign * a[-1][-1] if n else 1, math.prod(d for _, d in lifted))


def pfaffian(a):
    """Pfaffian of an antisymmetric matrix of even size n >= 2 (rows of
    ints, Fractions or floats, or an array), or of each matrix of a stack
    (..., n, n): the expansion along the first row (15 terms at 6x6), from
    the entries above the diagonal, with no division, in the entries' own
    arithmetic.  Every entry is read as a[..., i, j], so a stack takes the
    same operations, in the same order, as each of its matrices."""
    if not isinstance(a, np.ndarray):
        a = np.array(a, dtype=object)

    def pf(idx: tuple):
        if len(idx) == 2:
            return a[..., idx[0], idx[1]]
        total = 0
        for k, j in enumerate(idx[1:], 1):
            t = a[..., idx[0], j] * pf(idx[1:k] + idx[k + 1:])
            total = total + t if k % 2 else total - t
        return total

    out = pf(tuple(range(a.shape[-1])))
    # a 2x2 matrix's Pfaffian is its entry, read as a 0-d array
    return out[()] if isinstance(out, np.ndarray) and not out.ndim else out


def is_orthogonal_exact(m: Sequence[Sequence[Fraction]]) -> bool:
    """m m^T == 1, exactly."""
    n = len(m)
    return mat_mul(m, list(zip(*m))) == [[int(i == j) for j in range(n)]
                                         for i in range(n)]


# ---------------------------------------------------------------------------
# float helpers
# ---------------------------------------------------------------------------

def _kernel_rows(m: np.ndarray):
    """The V^T of the SVD of m, or of each matrix of a stack in one batched
    SVD, and the mask of its rows that span the numerical kernel (see
    `kernel_basis_float`), each matrix cut at its own s_max."""
    m = np.asarray(m, dtype=float)
    _, s, vt = np.linalg.svd(m, full_matrices=m.shape[-2] < m.shape[-1])
    small = np.ones(vt.shape[:-1], bool)
    small[..., :s.shape[-1]] = s < KERNEL_RTOL * s[..., :1]
    if s.shape[-1]:
        small[s[..., 0] == 0.0] = True  # the zero matrix: everything
    return vt, small


def kernel_basis_float(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the numerical kernel of one matrix:
    right singular vectors whose singular values fall below
    KERNEL_RTOL * s_max.  A tall matrix (rows >= cols) takes the reduced
    SVD, whose V^T is already square; a wide one needs the full V^T, whose
    extra rows span most of its kernel.  Stacks take
    `kernel_planes_float`."""
    if np.ndim(m) != 2:
        raise ValueError("kernel_basis_float takes one matrix, got shape %s"
                         % (np.shape(m),))
    vt, small = _kernel_rows(m)
    return vt[small]


def kernel_planes_float(m: np.ndarray):
    """The kernels of a stack (n, rows, cols) as planes: one (n, 2, cols)
    array of bases and the dimension of each kernel.  The singular values
    fall in descending order, so a kernel is the last rows of its V^T and a
    plane its last two, the basis `kernel_basis_float` gives, bit for bit.
    A matrix whose kernel is not a plane has the first two unit vectors in
    its place."""
    vt, small = _kernel_rows(m)
    dims = small.sum(axis=-1)
    planes = np.where((dims == 2)[:, None, None], vt[:, -2:],
                      np.eye(2, vt.shape[-1]))
    return planes, dims
