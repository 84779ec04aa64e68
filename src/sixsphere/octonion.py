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

Octonions carry their coefficients either as exact rationals (exact mode,
the default for identity checking) or as `float` (used where square roots
are unavoidable).  Mode is inferred from the coefficients; mixing exact and
float operands produces a float result.

An exact octonion keeps one canonical pair: eight integer numerators over
one positive denominator, with gcd 1 (Knuth, TAOCP vol. 2, 4.5.1).  Its
`coords` are the canonical Fractions of that pair, built on first read.
Products, sums, differences, negation, conjugation and rational multiples
are integer operations followed by one gcd reduction; equality compares
pairs; `inner` and `norm_sq` build one `Fraction`; `residual` divides the
largest numerator by the denominator.  Float octonions hold their floats
over the denominator 1, and float results, floats by construction, skip
the constructor's validation.  One straight-line product, generated from
the table at import, multiplies exact numerators, float coordinates and
mixed Fraction/float coordinates alike.  A scalar multiple or quotient
tests the scalar, not the result: a zero divisor raises `ZeroDivisor`, a
NaN or infinite scalar `DegenerateInput`.  The arithmetic context also
multiplies square matrices as (array, denominator) pairs (see
`Arithmetic`), and a `SquareMatrix`, a structure or an SO(7) element,
holds its pair in that form, exact pairs reduced as octonions are.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import linalg
from .errors import DegenerateInput, ZeroDivisor
from .linalg import dot

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


def _compile_product():
    # the table product written out term by term, with no loop and no zero
    # tests: coordinate k is 0 +- x_i*y_j +- ..., one term per i in ascending
    # i, so one function multiplies integer numerators, floats and mixed
    # Fraction/float coordinates.  For floats, the leading 0 makes every
    # coordinate equal, signed zeros included, to the per-term sum that skips
    # zero terms: under round-to-nearest an exact-zero sum is +0 (IEEE
    # 754-2019, 6.3), so 0 +- (+-0.0) is +0.0, and adding a signed zero
    # leaves a nonzero partial sum or a +0 one unchanged.
    terms = [[] for _ in range(8)]
    for i in range(8):
        for j in range(8):
            terms[MUL_INDEX[i][j]].append(
                "%sx%d*y%d" % ("-" if MUL_SIGN[i][j] < 0 else "+", i, j))
    source = ("def _product(x, y):\n"
              "    x0, x1, x2, x3, x4, x5, x6, x7 = x\n"
              "    y0, y1, y2, y3, y4, y5, y6, y7 = y\n"
              "    return [%s]\n" % ", ".join("0" + "".join(t) for t in terms))
    namespace: dict = {}
    exec(source, namespace)
    return namespace["_product"]


#: the coordinates of the product of two coordinate sequences, each a list
#: of eight ints, floats or a mix of Fractions and floats
_product = _compile_product()


def _exact(num: tuple, d: int) -> "Octonion":
    """The exact octonion num / d for a canonical pair (int numerators, int
    d > 0, gcd 1), not re-validated: every exact octonion that is not built
    by the public constructor is made here."""
    o = object.__new__(Octonion)
    o.numerators, o.denominator, o._coords, o.exact = num, d, None, True
    return o


def _reduced(num: Sequence[int], d: int) -> "Octonion":
    """The exact octonion num / d for int numerators and an int d > 0,
    reduced by their gcd."""
    g = math.gcd(*num, d)
    if g == 1:
        return _exact(tuple(num), d)
    return _exact(tuple(n // g for n in num), d // g)


def _lift(values: Sequence, error: type, floats: bool = False):
    """The pair of these scalars in their mode: Python floats over 1.0 when
    `floats` is set or any scalar is a float, else canonical int numerators
    over a positive int (`linalg.lift_exact`, which reads Fraction strings
    too).  A value that is not a finite real number raises `error`."""
    types = set(map(type, values))
    try:
        if any(issubclass(t, (complex, np.complexfloating)) for t in types):
            raise TypeError("a complex number")
        if floats or any(issubclass(t, (float, np.floating)) for t in types):
            fs = [float(x) for x in values]
            if not all(map(math.isfinite, fs)):
                raise ValueError("a NaN or an infinity")
            return fs, 1.0
        return linalg.lift_exact(values)
    except (TypeError, ValueError) as e:
        raise error("entries must be finite real numbers, got %s" % e) from None


def _check_finite(scalar):
    # a scalar multiple or quotient tests its scalar first, so a NaN or
    # infinite scalar is named as such
    if not math.isfinite(scalar):
        raise DegenerateInput("octonion scalar must be finite, got %r" % (scalar,))


def _as_floats(scalar, cs: list) -> Iterable[float]:
    # the coordinates of a float multiple or quotient by scalar: a scalar
    # other than a Python float, int or Fraction (a numpy scalar, say) may
    # give coordinates of its own type, which become Python floats
    return cs if type(scalar) in (float, int, Fraction) else map(float, cs)


def _floats(coords: Iterable[float]) -> "Octonion":
    """The float octonion with these coordinates, Python floats by
    construction, not otherwise re-validated: a result that overflowed (an
    infinite or NaN coordinate) raises `DegenerateInput`.  One sum tests
    all eight; only when it is not finite is each coordinate tested, since
    finite coordinates may have an infinite sum."""
    cs = tuple(coords)
    if not math.isfinite(sum(cs)) and not all(map(math.isfinite, cs)):
        raise DegenerateInput("octonion coordinates must be finite")
    o = object.__new__(Octonion)
    o.numerators = o._coords = cs
    o.denominator, o.exact = 1, False
    return o


class Octonion:
    """An element of the octonions, immutable.

    An exact octonion holds its canonical pair: `numerators`, eight ints,
    over `denominator`, an int d > 0, with gcd 1.  A float octonion holds
    its eight floats as `numerators` over `denominator` 1.  `coords` are the
    coefficients over (e0, ..., e7): canonical Fractions (exact mode, built
    from the pair on first read) or floats.  Exact octonions compare
    literally; float octonions compare up to FLOAT_EQ_TOL.
    """

    __slots__ = ("numerators", "denominator", "_coords", "exact")

    def __init__(self, coords: Iterable[ScalarLike]):
        cs = tuple(coords)
        if len(cs) != 8:
            raise DegenerateInput("octonion needs exactly 8 coordinates, got %d" % len(cs))
        nums, d = _lift(cs, DegenerateInput)
        self.numerators, self.exact = tuple(nums), not isinstance(d, float)
        # the lift of reduced Fractions over the lcm of their denominators is
        # already canonical; floats are their own coordinates, over 1
        self.denominator, self._coords = (d, None) if self.exact else (1, self.numerators)

    @property
    def coords(self) -> tuple:
        c = self._coords
        if c is None:
            d = self.denominator
            c = self._coords = tuple(Fraction(n, d) for n in self.numerators)
        return c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Octonion":
        return _exact((0,) * 8, 1)

    @classmethod
    def one(cls) -> "Octonion":
        return cls.basis(0)

    @classmethod
    def basis(cls, k: int) -> "Octonion":
        c = [0] * 8
        c[k] = 1
        return _exact(tuple(c), 1)

    @classmethod
    def from_lifted(cls, num: Sequence[int], d: int) -> "Octonion":
        """The exact octonion num / d for int numerators and a nonzero int
        d, in canonical form."""
        if not d:
            raise ZeroDivisor("octonion numerators over a zero denominator")
        if d < 0:
            num, d = [-n for n in num], -d
        return _reduced(num, d)

    def _same_form(self, num: Iterable, d: int) -> "Octonion":
        # num / d in self's mode; float numerators come with d = 1
        return _reduced(tuple(num), d) if self.exact else _floats(num)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "Octonion") -> "Octonion":
        return self._sum(other, 1)

    def __sub__(self, other: "Octonion") -> "Octonion":
        return self._sum(other, -1)

    def _sum(self, other: "Octonion", sign: int) -> "Octonion":
        if self.exact and other.exact:
            dx, dy = self.denominator, other.denominator
            g = math.gcd(dx, dy)
            sx, sy = dy // g, sign * (dx // g)
            return _reduced([a * sx + b * sy for a, b in
                             zip(self.numerators, other.numerators)], dx * sx)
        if sign > 0:
            return _floats(a + b for a, b in zip(self.coords, other.coords))
        return _floats(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "Octonion":
        return self._same_form((-n for n in self.numerators), self.denominator)

    def __mul__(self, other):
        if isinstance(other, Octonion):
            if self.exact and other.exact:
                return _reduced(_product(self.numerators, other.numerators),
                                self.denominator * other.denominator)
            return _floats(_product(self.coords, other.coords))
        if self.exact and isinstance(other, (int, Fraction)):
            return _reduced([other.numerator * n for n in self.numerators],
                            other.denominator * self.denominator)
        _check_finite(other)
        if self.exact and not isinstance(other, float):
            return Octonion(other * a for a in self.coords)
        return _floats(_as_floats(other, [other * a for a in self.coords]))

    def __rmul__(self, other):
        # scalars commute with everything
        return self * other

    def __truediv__(self, scalar):
        if not scalar:
            raise ZeroDivisor("octonion divided by zero")
        if self.exact and isinstance(scalar, (int, Fraction)):
            return self * (1 / Fraction(scalar))
        _check_finite(scalar)
        if self.exact and not isinstance(scalar, float):
            return Octonion(a / scalar for a in self.coords)
        return _floats(_as_floats(scalar, [a / scalar for a in self.coords]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Octonion):
            return NotImplemented
        return arithmetic_of(self, other).eq(self, other)

    def __repr__(self) -> str:
        return "Octonion(%s)" % (list(self.coords),)

    # -- composition-algebra structure -------------------------------------

    def conjugate(self) -> "Octonion":
        """2<x,1>1 - x: negate the imaginary part."""
        n = self.numerators
        return self._same_form((n[0], -n[1], -n[2], -n[3], -n[4], -n[5], -n[6], -n[7]),
                               self.denominator)

    def inner(self, other: "Octonion"):
        if self.exact and other.exact:
            return Fraction(sum(map(mul, self.numerators, other.numerators)),
                            self.denominator * other.denominator)
        return dot(self.coords, other.coords)

    def norm_sq(self):
        return self.inner(self)

    def norm(self) -> float:
        return float(self.norm_sq()) ** 0.5

    def inverse(self) -> "Octonion":
        n = self.norm_sq()
        if arithmetic_of(self).zero_norm(n):
            raise ZeroDivisor("cannot invert a zero octonion")
        return self.conjugate() / n

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
    # (a numerator is zero, or has its sign, exactly when its coordinate does)

    def real(self):
        return self.coords[0]

    def imag(self) -> "Octonion":
        return self._same_form((0 if self.exact else 0.0, *self.numerators[1:]),
                               self.denominator)

    def is_zero(self, tol: float = FLOAT_EQ_TOL) -> bool:
        return arithmetic_of(self).is_zero(self.numerators, tol)

    def is_unit(self, tol: float = FLOAT_EQ_TOL) -> bool:
        return arithmetic_of(self).scalar_eq(self.norm_sq(), 1, tol)

    def is_imaginary(self, tol: float = FLOAT_EQ_TOL) -> bool:
        return arithmetic_of(self).scalar_eq(self.numerators[0], 0, tol)

    # -- interop -------------------------------------------------------------

    def to_float_array(self) -> np.ndarray:
        d = self.denominator
        return np.array([n / d for n in self.numerators])

    def to_strings(self) -> list:
        """8-element list of strings: '3/5' in exact mode, repr(float) otherwise."""
        return [str(c) for c in self.coords]

    @classmethod
    def from_strings(cls, strings: Sequence[str]) -> "Octonion":
        return cls(parse_scalar(s) for s in strings)


def parse_scalar(s: str) -> ScalarLike:
    """A float for a string with a decimal point or an exponent and no '/',
    else a Fraction ('3/5', '-2'); a sequence with one float entry is float
    throughout (see `Octonion` and `SquareMatrix`)."""
    floatish = ("." in s or "e" in s or "E" in s) and "/" not in s
    return float(s) if floatish else Fraction(s)


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
    if not n:
        raise ZeroDivisor("cannot normalize a zero octonion")
    if o.exact:
        r = exact_sqrt(n)
        if r is not None:
            return o / r
        return Octonion(float(c) for c in o.coords) / float(n) ** 0.5
    return o / float(n) ** 0.5


def residual(d: Octonion) -> float:
    """Largest absolute coordinate of d, as a float: int / int true division
    in exact mode, which rounds correctly."""
    return max(map(abs, d.numerators)) / d.denominator


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
    # multiply the arrays and the denominators; only the comparisons divide
    # them out, and `SquareMatrix._trusted` reduces a pair to its form.

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

    def matrix(self, rows, error: type = DegenerateInput):
        """The pair of the square matrix with these rows, in floats when this
        is FLOAT, rows is an ndarray or an entry is a float (see `_lift`)."""
        floats = not self.exact or isinstance(rows, np.ndarray)
        nums, d = _lift(rows.ravel().tolist() if isinstance(rows, np.ndarray)
                        else [x for row in rows for x in row], error, floats)
        return np.array(nums, dtype=float if isinstance(d, float) else object
                        ).reshape(len(rows), -1), d

    def identity(self, n: int):
        """The pair of the n x n identity matrix."""
        return self.matrix([[int(i == j) for j in range(n)] for i in range(n)])

    def pair(self, a: "SquareMatrix"):
        """The pair of the square matrix a in this mode: its own, or the
        float copy of an exact a (a mixed computation runs in floats)."""
        return a.m if a.exact == self.exact else (a.as_array(), 1.0)

    def agree(self, a: "SquareMatrix", b: "SquareMatrix", tol: float) -> bool:
        """Equality of two square matrices, FLOAT's within tol."""
        return self.equal(self.pair(a), self.pair(b), tol)

    def difference(self, a: "SquareMatrix", b: "SquareMatrix") -> np.ndarray:
        """The array of a - b times the product of their denominators: the
        matrix of a - b up to a positive scale, which has its kernel."""
        (x, dx), (y, dy) = self.pair(a), self.pair(b)
        return x * dy - y * dx


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
        return x.numerators == y.numerators and x.denominator == y.denominator

    def zero_norm(self, n, tol_sq: float = ZERO_NORM_SQ) -> bool:
        """Whether the squared norm n counts as zero."""
        return n == 0

    def kernel(self, rows) -> list:
        """Basis (rows) of the right kernel of a matrix."""
        return linalg.kernel_basis(rows)

    def ray(self, o: Octonion) -> Octonion:
        """The representative of the ray through o that results carry."""
        return o

    def points(self, os: Sequence[Octonion]):
        """The stacked pair of these octonions: each one's numerators over
        its own denominator, the denominators shaped (n, 1, 1)."""
        return (np.array([o.numerators for o in os], dtype=object),
                np.array([o.denominator for o in os], dtype=object).reshape(-1, 1, 1))

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

    def kernel(self, rows) -> list:
        return [list(v) for v in
                linalg.kernel_basis_float(np.array(rows, dtype=float))]

    def ray(self, o: Octonion) -> Octonion:
        return normalize(o)

    def points(self, os: Sequence[Octonion]):
        return np.array([[float(c) for c in o.coords] for o in os]), 1.0

    def left(self, p):
        return left_mult_matrix(p[0]), p[1]

    def right(self, p):
        return right_mult_matrix(p[0]), p[1]

    def scaled(self, m, s):
        return m[0], m[1] * float(s)

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

    It holds `m`, its pair in the form its `Arithmetic` multiplies: a float
    array over 1.0, or an object array of int numerators over an int d > 0
    with gcd 1.  `rows` are the float array, or canonical Fractions built
    from the pair on first read.  The mode is decided here, once, as
    `_lift` decides it, an ndarray counting as floats.  A subclass sets
    `size` and the `error` that a malformed matrix raises, and may override
    `_validate`, which runs on construction unless `validate` is False; it
    tests a float matrix to CHECK_TOL.
    """

    __slots__ = ("m", "exact", "_rows")
    size: int
    error: type

    def __init__(self, rows, validate: bool = True):
        n = self.size
        if (isinstance(rows, np.ndarray) and rows.shape != (n, n)
                or len(rows) != n or any(len(row) != n for row in rows)):
            raise self.error("expected %s %dx%d matrix"
                             % ("an" if n == 8 else "a", n, n))
        self.m = EXACT.matrix(rows, self.error)  # the entries decide the mode
        self.exact, self._rows = not isinstance(self.m[1], float), None
        if validate:
            self._validate()

    @property
    def rows(self):
        if not self.exact:
            return self.m[0]
        if self._rows is None:
            a, d = self.m
            self._rows = tuple(tuple(Fraction(x, d) for x in row) for row in a.tolist())
        return self._rows

    def _validate(self):
        """Raise `error` unless the matrix belongs to the class."""

    @classmethod
    def _trusted(cls, pair, ctx: Arithmetic,
                 idx: Optional[Sequence[int]] = None) -> "SquareMatrix":
        """The matrix of the pair (a stack of one is fine, with a positive
        denominator) that a formula in the mode of ctx puts in the class, on
        the rows and columns idx when given: reduced to its form, not
        re-validated."""
        a, d = pair[0].reshape(pair[0].shape[-2:]), pair[1]
        if idx is not None:
            a = a[np.ix_(idx, idx)]
        if not ctx.exact:
            a, d = a / d, 1.0
        else:
            d = d.flat[0] if isinstance(d, np.ndarray) else d
            g = math.gcd(*a.flat, d)
            if g > 1:
                a, d = a // g, d // g
        m = object.__new__(cls)
        m.m, m.exact, m._rows = (a, d), ctx.exact, None
        return m

    def as_array(self) -> np.ndarray:
        return np.asarray(self.m[0] / self.m[1], dtype=float)

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
