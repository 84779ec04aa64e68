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

The exact product and inner product run on integers: each operand is lifted
to integer numerators over the lcm of its denominators (`linalg.lift`), the
table loop multiplies and adds integers, and each result coordinate is one
`Fraction`.  Such results, and sums and rational multiples of exact
octonions, are built from canonical Fractions and skip the constructor's
validation.  The arithmetic context also multiplies square matrices, each
mode in its own form (see `Arithmetic`), and `SquareMatrix` holds the
matrices of structures and of SO(7) elements in the mode of their entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import linalg
from .errors import DegenerateInput, ZeroDivisor
from .linalg import dot, lift

ScalarLike = Union[int, Fraction, float]

# Float tolerances, each named after its role and defined once.  Exact mode
# uses none of them: its tests are literal.

#: absolute tolerance of float equality of scalars, octonions and structures
FLOAT_EQ_TOL = 1e-12
#: residual allowed to a float identity check (the suites' default tolerance)
CHECK_TOL = 1e-9
#: distance under which float points count as one: preimage and fiber
#: classes, and the antipodal branch of structure recovery
SEPARATION_TOL = 1e-6
#: squared norm under which a float octonion counts as zero
ZERO_NORM_SQ = 1e-30


def _cd_mul(x: list, y: list) -> list:
    # the doubling rule on flat coordinate lists of length 2^k, whose halves
    # are a, b of x = a + I b and c, d of y = c + I d
    h = len(x) // 2
    if not h:
        return [x[0] * y[0]]

    def conj(v):
        return v[:1] + [-t for t in v[1:]]

    a, b, c, d = x[:h], x[h:], y[:h], y[h:]
    return ([p - q for p, q in zip(_cd_mul(a, c), _cd_mul(d, conj(b)))]
            + [p + q for p, q in zip(_cd_mul(c, b), _cd_mul(conj(a), d))])


def _build_table():
    """Run the doubling rule and return (index, sign) arrays with
    e_i * e_j = sign[i][j] * e_{index[i][j]}."""
    # flat slots: 0 real, 1 complex unit, 2 quaternion doubling unit,
    # 4 octonion doubling unit; the rest are products.
    e = [[int(k == i) for k in range(8)] for i in range(8)]
    e[3] = _cd_mul(e[1], e[2])
    e[5] = _cd_mul(e[1], e[4])
    e[6] = _cd_mul(e[2], e[4])
    e[7] = _cd_mul(e[3], e[4])

    def identify(x):
        nz = [(i, c) for i, c in enumerate(x) if c != 0]
        if len(nz) != 1 or nz[0][1] not in (1, -1):
            raise AssertionError("generated basis element is not a signed unit: %r" % x)
        return nz[0]

    # flat slot -> (k, s) with e_k = s * (the unit of that slot)
    back = {fi: (k, s) for k, (fi, s) in enumerate(map(identify, e))}
    prods = [[identify(_cd_mul(ei, ej)) for ej in e] for ei in e]
    return ([[back[fi][0] for fi, _ in row] for row in prods],
            [[c * back[fi][1] for fi, c in row] for row in prods])


MUL_INDEX, MUL_SIGN = _build_table()

# gather tables of the batched product: e_i e_{_PERM[i][k]} = _SIGN[i][k] e_k;
# and of the multiplication matrices: entry (k, j) of the matrix of v -> w*v
# is _LEFT_SIGN[k][j] w_{_LEFT[k][j]}, and of v -> v*w likewise
_PERM = np.empty((8, 8), dtype=np.intp)
_SIGN = np.empty((8, 8))
_LEFT = np.empty((8, 8), dtype=np.intp)
_LEFT_SIGN = np.empty((8, 8))
for _i in range(8):
    for _j in range(8):
        _k, _s = MUL_INDEX[_i][_j], MUL_SIGN[_i][_j]
        _PERM[_i, _k], _SIGN[_i, _k] = _j, _s
        _LEFT[_k, _j], _LEFT_SIGN[_k, _j] = _i, _s
_RIGHT, _RIGHT_SIGN = _PERM.T, _SIGN.T
# I - 1 1^T, the projection onto the imaginary octonions
_IMAG_PROJ = np.diag([0] + [1] * 7)


def _table_product(x: Sequence, y: Sequence) -> list:
    """Coordinates of the product of the coordinate sequences x and y, summed
    through the multiplication table; any scalars (ints, Fractions, floats).
    A zero coordinate contributes no term."""
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
    return z


def _coerce(coords: Iterable[ScalarLike]):
    cs = tuple(coords)
    if len(cs) != 8:
        raise DegenerateInput("octonion needs exactly 8 coordinates, got %d" % len(cs))
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
        return _closed((a + b for a, b in zip(self.coords, other.coords)),
                       self.exact and other.exact)

    def __sub__(self, other: "Octonion") -> "Octonion":
        return _closed((a - b for a, b in zip(self.coords, other.coords)),
                       self.exact and other.exact)

    def __neg__(self) -> "Octonion":
        return _closed((-a for a in self.coords), self.exact)

    @classmethod
    def _of_fractions(cls, coords: tuple) -> "Octonion":
        """The exact octonion with these 8 Fractions, not re-validated: only
        for results of exact operations on exact operands, whose coordinates
        are canonical Fractions by construction."""
        o = object.__new__(cls)
        o.coords, o.exact = coords, True
        return o

    def __mul__(self, other):
        if isinstance(other, Octonion):
            if self.exact and other.exact:
                (nx, dx), (ny, dy) = lift(self.coords), lift(other.coords)
                d = dx * dy
                return Octonion._of_fractions(
                    tuple(Fraction(z, d) for z in _table_product(nx, ny)))
            return Octonion(_table_product(self.coords, other.coords))
        return _closed((other * a for a in self.coords),
                       self.exact and isinstance(other, (int, Fraction)))

    def __rmul__(self, other):
        # scalars commute with everything
        return self * other

    def __truediv__(self, scalar):
        return _closed((a / scalar for a in self.coords),
                       self.exact and isinstance(scalar, (int, Fraction)))

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
        return _closed((c[0], -c[1], -c[2], -c[3], -c[4], -c[5], -c[6], -c[7]),
                       self.exact)

    def inner(self, other: "Octonion"):
        return dot(self.coords, other.coords)

    def norm_sq(self):
        return dot(self.coords, self.coords)

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

    # -- interop -------------------------------------------------------------

    def to_float_array(self) -> np.ndarray:
        return np.array([float(c) for c in self.coords])

    def to_strings(self) -> list:
        """8-element list of strings: '3/5' in exact mode, repr(float) otherwise."""
        return [str(c) for c in self.coords]

    @classmethod
    def from_strings(cls, strings: Sequence[str]) -> "Octonion":
        return cls(parse_scalar(s) for s in strings)


def parse_scalar(s: str) -> ScalarLike:
    """A float for a string with a decimal point or an exponent and no '/',
    else a Fraction ('3/5', '-2'); a sequence with one float entry is float
    throughout (see `_coerce` and `SquareMatrix`)."""
    floatish = ("." in s or "e" in s or "E" in s) and "/" not in s
    return float(s) if floatish else Fraction(s)


def _closed(coords: Iterable[ScalarLike], exact: bool) -> Octonion:
    """The octonion with these coordinates; `exact` says they are canonical
    Fractions (exact operands under +, -, and * or / by an int or a
    Fraction), which skip `_coerce`."""
    return Octonion._of_fractions(tuple(coords)) if exact else Octonion(coords)


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
    if not any(d.coords):
        return 0.0  # an exact zero converts nothing
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

    # Matrices and points are (array, denominator) pairs, and may be stacked
    # along leading axes: integer numerators in an object array over one
    # denominator per point (EXACT), floats over 1 (FLOAT).  Products
    # multiply the arrays and the denominators; only `entries` and the
    # comparisons divide.

    def product(self, *ms):
        """The product of matrix pairs, left to right, broadcasting."""
        return reduce(np.matmul, [m[0] for m in ms]), math.prod(m[1] for m in ms)

    def transpose(self, m):
        """The transpose of each matrix of the pair m."""
        return m[0].swapaxes(-1, -2), m[1]

    def projector(self, p):
        """I - 1 1^T - p p^T, the projection onto <1, p>-perp for p (a point
        pair) a unit imaginary."""
        v, d = p
        return (_IMAG_PROJ.astype(v.dtype) * (d * d)
                - v[..., :, None] * v[..., None, :], d * d)

    def identity(self, n: int):
        """The pair of the n x n identity matrix."""
        return self.matrix([[int(i == j) for j in range(n)] for i in range(n)])


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

    def points(self, os: Sequence[Octonion]):
        """The stacked pair of these octonions: each one's numerators over
        its own denominator, the denominators shaped (n, 1, 1)."""
        lifted = [lift(o.coords) for o in os]
        return (np.array([v for v, _ in lifted], dtype=object),
                np.array([d for _, d in lifted], dtype=object).reshape(-1, 1, 1))

    def matrix(self, rows):
        """The pair of the square matrix with these rows."""
        nums, d = lift([x for row in rows for x in row])
        return np.array(nums, dtype=object).reshape(len(rows), -1), d

    def left(self, p):
        """The pair of v -> w v for each point w of the pair p."""
        return left_mult_matrix_exact(p[0]), p[1]

    def right(self, p):
        """The pair of v -> v w for each point w of the pair p."""
        return right_mult_matrix_exact(p[0]), p[1]

    def scaled(self, m, s):
        """The pair m / s."""
        s = Fraction(s)
        return m[0] * s.denominator, m[1] * s.numerator

    def entries(self, m, idx: Optional[Sequence[int]] = None) -> tuple:
        """The rows of the one matrix of m (a stack of one is fine), on the
        rows and columns idx when given: one Fraction per entry."""
        d = m[1].flat[0] if isinstance(m[1], np.ndarray) else m[1]
        return tuple(tuple(Fraction(x, d) for x in row)
                     for row in _restrict(m[0], idx).tolist())

    def distance(self, m1, m2) -> float:
        """Largest absolute entry of m1 - m2, as a float."""
        num = m1[0] * m2[1] - m2[0] * m1[1]
        den = np.broadcast_to(np.asarray(m1[1] * m2[1], dtype=object), num.shape)
        return float(max(abs(Fraction(x, y)) for x, y in zip(num.flat, den.flat)))

    def equal(self, m1, m2, tol: float = FLOAT_EQ_TOL) -> bool:
        """Equality of two (stacked) matrices; FLOAT compares their distance
        with tol."""
        return bool((m1[0] * m2[1] == m2[0] * m1[1]).all())

    def det(self, m):
        """The determinant of the one matrix of the pair m."""
        return linalg.det(m[0].tolist()) / m[1] ** len(m[0])

    def sqrt(self, q):
        """The square root of the scalar q: None when q is not the square of
        a rational; FLOAT takes a negative q as 0."""
        return exact_sqrt(q)

    def mat_vec(self, rows, v) -> list:
        """The product of the matrix with these rows and the vector v."""
        return linalg.mat_vec(rows, v)


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
                linalg.kernel_basis_float(np.array(rows, dtype=float))]

    def ray(self, o: Octonion) -> Octonion:
        return normalize(o)

    def points(self, os: Sequence[Octonion]):
        return np.array([[float(c) for c in o.coords] for o in os]), 1.0

    def matrix(self, rows):
        return np.asarray(rows, dtype=float), 1.0

    def left(self, p):
        return left_mult_matrix(p[0]), p[1]

    def right(self, p):
        return right_mult_matrix(p[0]), p[1]

    def scaled(self, m, s):
        return m[0], m[1] * float(s)

    def entries(self, m, idx: Optional[Sequence[int]] = None) -> np.ndarray:
        return _restrict(m[0], idx) / m[1]

    def distance(self, m1, m2) -> float:
        return float(np.max(np.abs(m1[0] / m1[1] - m2[0] / m2[1])))

    def equal(self, m1, m2, tol: float = FLOAT_EQ_TOL) -> bool:
        return self.distance(m1, m2) <= tol

    def det(self, m):
        return float(np.linalg.det(m[0])) / m[1] ** len(m[0])

    def sqrt(self, q):
        return max(q, 0.0) ** 0.5

    def mat_vec(self, rows, v) -> list:
        # over Python floats, summed term by term as in exact mode
        return linalg.mat_vec(np.asarray(rows, dtype=float).tolist(), v)


def _restrict(a: np.ndarray, idx: Optional[Sequence[int]]) -> np.ndarray:
    # the one matrix of a, on the rows and columns idx when given
    a = a.reshape(a.shape[-2:])
    return a if idx is None else a[np.ix_(idx, idx)]


EXACT = _ExactArithmetic(Octonion.basis(0), Octonion.basis(1))
FLOAT = _FloatArithmetic(*(Octonion(float(c) for c in o.coords)
                           for o in (EXACT.one, EXACT.e1)))


def arithmetic_of(*values) -> Arithmetic:
    """EXACT when every value (anything with an `exact` flag) is exact, else
    FLOAT: mixed inputs compute in floats."""
    return EXACT if all(v.exact for v in values) else FLOAT


class SquareMatrix:
    """A square matrix in one arithmetic mode: the storage that structures
    and orthogonal-group elements share.

    The mode is decided here, once: an ndarray or any float entry gives a
    float array, anything else rows of Fractions (exact).  A subclass sets
    `size` and the `error` that a malformed matrix raises, and may override
    `_validate`, which runs on construction unless `validate` is False (after
    a float matrix is checked to be finite); it tests a float matrix to
    CHECK_TOL.
    """

    __slots__ = ("rows", "exact")
    size: int
    error: type

    def __init__(self, rows, validate: bool = True):
        n = self.size
        if (isinstance(rows, np.ndarray) and rows.shape != (n, n)
                or len(rows) != n or any(len(row) != n for row in rows)):
            raise self.error("expected %s %dx%d matrix"
                             % ("an" if n == 8 else "a", n, n))
        self.exact = not isinstance(rows, np.ndarray) and not any(
            isinstance(x, (float, np.floating)) for row in rows for x in row)
        self.rows = (tuple(tuple(Fraction(x) for x in row) for row in rows)
                     if self.exact else np.array(rows, dtype=float))
        if validate:
            if not self.exact and not np.isfinite(self.rows).all():
                raise self.error("matrix entries must be finite")
            self._validate()

    def _validate(self):
        """Raise `error` unless the matrix belongs to the class."""

    def as_array(self) -> np.ndarray:
        return np.asarray(self.rows, dtype=float)

    def distance(self, other: "SquareMatrix") -> float:
        return float(np.max(np.abs(self.as_array() - other.as_array())))

    def to_strings(self) -> list:
        """Row-major nested list of scalar strings: '3/5' in exact mode,
        repr(float) otherwise."""
        return [[str(x) for x in row] for row in self.rows]

    @classmethod
    def from_strings(cls, rows: Sequence[Sequence[str]]) -> "SquareMatrix":
        """The matrix of scalar strings (see `parse_scalar`), for a class
        built from its rows alone."""
        return cls([[parse_scalar(s) for s in row] for row in rows])


# ---------------------------------------------------------------------------
# batched float kernels (numpy); used by the degree engine and float sweeps
# ---------------------------------------------------------------------------

def batch_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Octonion product of (..., 8) float arrays, broadcasting.

    Row i of the table is a signed permutation, so the product is the sum
    over i of x_i times y gathered through `_PERM[i]` and signed by
    `_SIGN[i]`; 64 multiply-adds per product, summed in ascending i."""
    out = x[..., 0:1] * (y[..., _PERM[0]] * _SIGN[0])
    for i in range(1, 8):
        out += x[..., i:i + 1] * (y[..., _PERM[i]] * _SIGN[i])
    return out


def _float_coords(w) -> np.ndarray:
    return w.to_float_array() if isinstance(w, Octonion) else np.asarray(w, dtype=float)


def _signed_gather(w, idx: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """The multiplication matrix with entries sign * w[idx], equal to
    `batch_mul` against the identity, signed zeros included."""
    w = _float_coords(w)
    m = w[..., idx] * sign
    if not w.all():
        # batch_mul sums eight signed terms per entry, whose signs are those
        # of the entries of its row, and a sum of zeros is -0.0 only when
        # every term is; the other zero entries are +0.0
        m += np.where(np.signbit(m).all(-1, keepdims=True), -0.0, 0.0)
    return m


def left_mult_matrix(w) -> np.ndarray:
    """8x8 float matrix of v -> w*v; a (..., 8) batch gives (..., 8, 8)."""
    return _signed_gather(w, _LEFT, _LEFT_SIGN)


def right_mult_matrix(w) -> np.ndarray:
    """8x8 float matrix of v -> v*w; a (..., 8) batch gives (..., 8, 8)."""
    return _signed_gather(w, _RIGHT, _RIGHT_SIGN)


def left_mult_matrix_exact(w) -> np.ndarray:
    """8x8 object array of v -> w*v, a signed gather of w's own scalars: the
    Fractions of an octonion, or coordinates such as lifted numerators; a
    (..., 8) stack gives (..., 8, 8)."""
    c = w.coords if isinstance(w, Octonion) else w
    return np.array(c, dtype=object)[..., _LEFT] * _LEFT_SIGN.astype(int)


def right_mult_matrix_exact(w) -> np.ndarray:
    """8x8 object array of v -> v*w; see `left_mult_matrix_exact`."""
    c = w.coords if isinstance(w, Octonion) else w
    return np.array(c, dtype=object)[..., _RIGHT] * _RIGHT_SIGN.astype(int)
