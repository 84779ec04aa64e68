"""Octonion arithmetic over exact rationals or floats.

The multiplication table is *generated* at import time by running the
Cayley-Dickson doubling rule

    (a + Ib)(c + Id) = (ac - d*conj(b)) + I(cb + conj(a)*d)

three levels deep (reals -> complexes -> quaternions -> octonions), with the
basis fixed by iterated doubling:

    e0 = 1,  e1 = i,  e2 = j,  e3 = e1*e2,
    e4 = I,  e5 = e1*e4,  e6 = e2*e4,  e7 = e3*e4.

Nothing about the table is hand-coded, so there is no opportunity for a
sign-convention bug to creep in; the generated table is itself checked by the
test suite.

Octonions carry their coefficients either as `fractions.Fraction` (exact
mode, the default for identity checking) or as `float` (used where square
roots are unavoidable).  Mode is inferred from the coefficients; mixing exact
and float operands produces a float result.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import linalg
from .errors import ZeroDivisor

ScalarLike = Union[int, Fraction, float]

# Float tolerances, each named after its role and defined once.  Exact mode
# uses none of them: its tests are literal.

#: absolute tolerance of float equality of scalars, octonions and structures
FLOAT_EQ_TOL = 1e-12
#: residual allowed to a float identity check (the suites' default tolerance)
CHECK_TOL = 1e-9
#: distance under which float points count as one: preimage and fiber
#: classes, the antipodal branch of structure recovery, and the numerically
#: nonzero residual vectors of the orientation test
SEPARATION_TOL = 1e-6
#: squared norm under which a float octonion counts as zero
ZERO_NORM_SQ = 1e-30
#: magnitude under which a batched float divisor is replaced by 1
DIVISOR_FLOOR = 1e-14


def _cd_mul(x, y):
    # nested-pair Cayley-Dickson product; leaves are Fractions
    if not isinstance(x, tuple):
        return x * y
    a, b = x
    c, d = y
    return (_cd_sub(_cd_mul(a, c), _cd_mul(d, _cd_conj(b))),
            _cd_add(_cd_mul(c, b), _cd_mul(_cd_conj(a), d)))


def _cd_add(x, y):
    if not isinstance(x, tuple):
        return x + y
    return (_cd_add(x[0], y[0]), _cd_add(x[1], y[1]))


def _cd_sub(x, y):
    if not isinstance(x, tuple):
        return x - y
    return (_cd_sub(x[0], y[0]), _cd_sub(x[1], y[1]))


def _cd_neg(x):
    if not isinstance(x, tuple):
        return -x
    return (_cd_neg(x[0]), _cd_neg(x[1]))


def _cd_conj(x):
    if not isinstance(x, tuple):
        return x
    return (_cd_conj(x[0]), _cd_neg(x[1]))


def _cd_flat(x):
    if not isinstance(x, tuple):
        return [x]
    return _cd_flat(x[0]) + _cd_flat(x[1])


def _build_table():
    """Run the doubling rule and return (index, sign) arrays with
    e_i * e_j = sign[i][j] * e_{index[i][j]}."""

    def from_flat(v):
        n = len(v)
        if n == 1:
            return v[0]
        return (from_flat(v[:n // 2]), from_flat(v[n // 2:]))

    def flat_unit(i):
        v = [Fraction(0)] * 8
        v[i] = Fraction(1)
        return from_flat(v)

    # flat slots: 0 real, 1 complex unit, 2 quaternion doubling unit,
    # 4 octonion doubling unit; the rest are products.
    e = [None] * 8
    e[0] = flat_unit(0)
    e[1] = flat_unit(1)
    e[2] = flat_unit(2)
    e[4] = flat_unit(4)
    e[3] = _cd_mul(e[1], e[2])
    e[5] = _cd_mul(e[1], e[4])
    e[6] = _cd_mul(e[2], e[4])
    e[7] = _cd_mul(e[3], e[4])

    def identify(x):
        f = _cd_flat(x)
        nz = [(i, c) for i, c in enumerate(f) if c != 0]
        if len(nz) != 1 or nz[0][1] not in (1, -1):
            raise AssertionError("generated basis element is not a signed unit: %r" % f)
        return nz[0]

    flat_of_e = [identify(ek) for ek in e]
    back = {fi: (k, s) for k, (fi, s) in enumerate(flat_of_e)}

    index = [[0] * 8 for _ in range(8)]
    sign = [[0] * 8 for _ in range(8)]
    for i in range(8):
        for j in range(8):
            fi, c = identify(_cd_mul(e[i], e[j]))
            k, s = back[fi]
            index[i][j] = k
            sign[i][j] = int(c * s)
    return index, sign


MUL_INDEX, MUL_SIGN = _build_table()

#: structure tensor T[i, j, k] with e_i e_j = sum_k T[i, j, k] e_k  (float)
STRUCTURE_TENSOR = np.zeros((8, 8, 8))
for _i in range(8):
    for _j in range(8):
        STRUCTURE_TENSOR[_i, _j, MUL_INDEX[_i][_j]] = MUL_SIGN[_i][_j]

# flattened (index, sign) pairs grouped by output coordinate, for the scalar path
_TERMS_BY_K = [[] for _ in range(8)]
for _i in range(8):
    for _j in range(8):
        _TERMS_BY_K[MUL_INDEX[_i][_j]].append((_i, _j, MUL_SIGN[_i][_j]))


def _coerce(coords: Iterable[ScalarLike]):
    cs = tuple(coords)
    if len(cs) != 8:
        raise ValueError("octonion needs exactly 8 coordinates, got %d" % len(cs))
    if any(isinstance(c, float) or isinstance(c, np.floating) for c in cs):
        return tuple(float(c) for c in cs), False
    return tuple(c if isinstance(c, Fraction) else Fraction(c) for c in cs), True


class Octonion:
    """An element of the octonions, immutable.

    `coords` are the coefficients over (e0, ..., e7).  Exact octonions compare
    literally; float octonions compare up to FLOAT_EQ_TOL.
    """

    __slots__ = ("coords", "exact")

    def __init__(self, coords: Iterable[ScalarLike]):
        self.coords, self.exact = _coerce(coords)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Octonion":
        return cls((0,) * 8)

    @classmethod
    def one(cls) -> "Octonion":
        return cls.basis(0)

    @classmethod
    def basis(cls, k: int) -> "Octonion":
        c = [0] * 8
        c[k] = 1
        return cls(c)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "Octonion") -> "Octonion":
        return Octonion(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "Octonion") -> "Octonion":
        return Octonion(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "Octonion":
        return Octonion(-a for a in self.coords)

    def __mul__(self, other):
        if isinstance(other, Octonion):
            x, y = self.coords, other.coords
            z = [0] * 8
            for i in range(8):
                xi = x[i]
                if not xi:
                    continue
                row_idx = MUL_INDEX[i]
                row_sgn = MUL_SIGN[i]
                for j in range(8):
                    yj = y[j]
                    if not yj:
                        continue
                    if row_sgn[j] > 0:
                        z[row_idx[j]] += xi * yj
                    else:
                        z[row_idx[j]] -= xi * yj
            return Octonion(z)
        return Octonion(other * a for a in self.coords)

    def __rmul__(self, other):
        # scalars commute with everything
        return Octonion(other * a for a in self.coords)

    def __truediv__(self, scalar):
        return Octonion(a / scalar for a in self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Octonion):
            return NotImplemented
        return arithmetic_of(self, other).eq(self, other)

    def __repr__(self) -> str:
        return "Octonion(%s)" % (list(self.coords),)

    # -- composition-algebra structure -------------------------------------

    def conjugate(self) -> "Octonion":
        """2<x,1>1 - x: negate the imaginary part."""
        c = self.coords
        return Octonion((c[0], -c[1], -c[2], -c[3], -c[4], -c[5], -c[6], -c[7]))

    def inner(self, other: "Octonion"):
        return sum(a * b for a, b in zip(self.coords, other.coords))

    def norm_sq(self):
        return sum(a * a for a in self.coords)

    def norm(self) -> float:
        return float(self.norm_sq()) ** 0.5

    def inverse(self) -> "Octonion":
        n = self.norm_sq()
        if arithmetic_of(self).zero_norm(n):
            raise ZeroDivisor("cannot invert a zero octonion")
        return Octonion(a / n for a in self.conjugate().coords)

    def power(self, k: int) -> "Octonion":
        """k-th power by repeated multiplication (well defined: a single
        octonion generates a commutative associative subalgebra).  Negative k
        goes through the inverse."""
        if k < 0:
            return self.inverse().power(-k)
        r = arithmetic_of(self).one
        for _ in range(k):
            r = r * self
        return r

    # -- predicates & parts --------------------------------------------------

    def real(self):
        return self.coords[0]

    def imag(self) -> "Octonion":
        return Octonion((0, *self.coords[1:]))

    def is_zero(self, tol: float = FLOAT_EQ_TOL) -> bool:
        return arithmetic_of(self).is_zero(self.coords, tol)

    def is_unit(self, tol: float = FLOAT_EQ_TOL) -> bool:
        return arithmetic_of(self).scalar_eq(self.norm_sq(), 1, tol)

    def is_imaginary(self, tol: float = FLOAT_EQ_TOL) -> bool:
        return arithmetic_of(self).scalar_eq(self.coords[0], 0, tol)

    def isclose(self, other: "Octonion", tol: float = FLOAT_EQ_TOL) -> bool:
        return FLOAT.eq(self, other, tol)

    # -- interop -------------------------------------------------------------

    def to_float_array(self) -> np.ndarray:
        return np.array([float(c) for c in self.coords])

    def to_strings(self) -> list:
        """8-element list of strings: '3/5' in exact mode, repr(float) otherwise."""
        if self.exact:
            return [str(c) for c in self.coords]
        return [repr(float(c)) for c in self.coords]

    @classmethod
    def from_strings(cls, strings: Sequence[str]) -> "Octonion":
        vals = []
        floatish = any(("." in s or "e" in s or "E" in s) and "/" not in s for s in strings)
        for s in strings:
            vals.append(float(s) if floatish else Fraction(s))
        return cls(vals)


def exact_sqrt(q: Fraction) -> Optional[Fraction]:
    """sqrt(q) if q is the square of a rational, else None."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def normalize(o: Octonion) -> Octonion:
    """Unit vector along o.  Stays exact when the norm is rational, otherwise
    falls back to float coordinates."""
    n = o.norm_sq()
    if o.exact:
        r = exact_sqrt(n)
        if r is not None:
            return o / r
        return Octonion(float(c) for c in o.coords) / float(n) ** 0.5
    return o / float(n) ** 0.5


def residual(d: Octonion) -> float:
    """Largest absolute coordinate of d, as a float."""
    return max(abs(float(c)) for c in d.coords)


# ---------------------------------------------------------------------------
# the arithmetic context
# ---------------------------------------------------------------------------

class Arithmetic:
    """What differs between the two arithmetic modes, in one place.

    There are exactly two instances: EXACT, whose tests are literal, and
    FLOAT, whose tests take a tolerance (ignored by EXACT).  `arithmetic_of`
    picks one from the values a computation starts from, so an algorithm is
    written once and asks its context wherever the modes differ.
    """

    exact: bool

    def __init__(self, one: Octonion, e1: Octonion):
        self.one, self.e1 = one, e1


class _ExactArithmetic(Arithmetic):
    exact = True

    def scalar_eq(self, a, b, tol: float = FLOAT_EQ_TOL) -> bool:
        """Equality of two scalars."""
        return a == b

    def is_zero(self, coords: Iterable, tol: float = FLOAT_EQ_TOL) -> bool:
        """Whether every coordinate vanishes."""
        return all(c == 0 for c in coords)

    def eq(self, x: Octonion, y: Octonion, tol: float = FLOAT_EQ_TOL) -> bool:
        """Equality of two octonions."""
        return x.coords == y.coords

    def zero_norm(self, n, tol_sq: float = ZERO_NORM_SQ) -> bool:
        """Whether the squared norm n counts as zero."""
        return n == 0

    def agree(self, a, b, tol: float) -> bool:
        """Equality of two structures (objects with `rows` and `distance`);
        FLOAT compares their distance with tol."""
        return a.rows == b.rows

    def kernel(self, rows) -> list:
        """Basis (rows) of the right kernel of a matrix."""
        return linalg.kernel_basis(rows)

    def ray(self, o: Octonion) -> Octonion:
        """The representative of the ray through o that results carry."""
        return o


class _FloatArithmetic(Arithmetic):
    exact = False

    def scalar_eq(self, a, b, tol: float = FLOAT_EQ_TOL) -> bool:
        return abs(float(a) - float(b)) <= tol

    def is_zero(self, coords: Iterable, tol: float = FLOAT_EQ_TOL) -> bool:
        return all(abs(c) <= tol for c in coords)

    def eq(self, x: Octonion, y: Octonion, tol: float = FLOAT_EQ_TOL) -> bool:
        return all(abs(float(a) - float(b)) <= tol
                   for a, b in zip(x.coords, y.coords))

    def zero_norm(self, n, tol_sq: float = ZERO_NORM_SQ) -> bool:
        return float(n) < tol_sq

    def agree(self, a, b, tol: float) -> bool:
        return a.distance(b) <= tol

    def kernel(self, rows) -> list:
        return [list(v) for v in
                linalg.kernel_basis_float(np.array(rows, dtype=float),
                                          linalg.KERNEL_RTOL)]

    def ray(self, o: Octonion) -> Octonion:
        return normalize(o)


EXACT = _ExactArithmetic(Octonion.basis(0), Octonion.basis(1))
FLOAT = _FloatArithmetic(*(Octonion(float(c) for c in o.coords)
                           for o in (EXACT.one, EXACT.e1)))


def arithmetic_of(*values) -> Arithmetic:
    """EXACT when every value (anything with an `exact` flag) is exact, else
    FLOAT: mixed inputs compute in floats."""
    return EXACT if all(v.exact for v in values) else FLOAT


# ---------------------------------------------------------------------------
# batched float kernels (numpy); used by the degree engine and float sweeps
# ---------------------------------------------------------------------------

def batch_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Octonion product of (..., 8) float arrays, broadcasting."""
    return np.einsum("ijk,...i,...j->...k", STRUCTURE_TENSOR, x, y)


def batch_conj(x: np.ndarray) -> np.ndarray:
    out = -x.copy()
    out[..., 0] = x[..., 0]
    return out


def left_mult_matrix(w) -> np.ndarray:
    """8x8 float matrix of v -> w*v."""
    arr = w.to_float_array() if isinstance(w, Octonion) else np.asarray(w, dtype=float)
    return np.einsum("ijk,...i->...kj", STRUCTURE_TENSOR, arr)


def right_mult_matrix(w) -> np.ndarray:
    """8x8 float matrix of v -> v*w."""
    arr = w.to_float_array() if isinstance(w, Octonion) else np.asarray(w, dtype=float)
    return np.einsum("ijk,...j->...ki", STRUCTURE_TENSOR, arr)


def left_mult_matrix_exact(w: Octonion):
    """8x8 row-major list-of-lists of Fractions for v -> w*v."""
    cols = [(w * Octonion.basis(j)).coords for j in range(8)]
    return [[cols[j][i] for j in range(8)] for i in range(8)]
