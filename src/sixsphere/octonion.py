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

An exact octonion keeps one canonical pair: eight integer numerators over one
positive denominator, with gcd 1 (Knuth, TAOCP vol. 2, 4.5.1); its `coords`,
the Fractions of that pair, are an output view built on each read.  Products,
sums, differences, negation, conjugation and rational multiples are integer
operations followed by one gcd reduction; equality compares pairs; `inner` and
`norm_sq` build one `Fraction`; `residual` divides the largest numerator by
the denominator.  Float octonions hold their floats over the denominator 1,
and float results skip the constructor's validation.  One straight-line
product, generated from the table at import, multiplies integers and floats
alike, and numpy arrays of them: `batch_mul` is that product on stacked
coordinates, its terms taken by one signed gather on float rows and, in
int64, on exact rows whose sums provably fit.  An exact
operand that meets a float one, octonion or matrix, enters as its float
copy: each numerator / denominator rounded once, the floats that Python's
`Fraction op float` uses.  A scalar multiple or quotient
follows one rule: an int, Fraction or numpy integer keeps an exact octonion
exact, any other scalar enters as its float; a zero divisor raises
`ZeroDivisor`, a NaN or infinite scalar `DegenerateInput`.  The arithmetic
context also multiplies square matrices as (array, denominator) pairs (see
`Arithmetic`), and a `SquareMatrix`, a structure or an SO(7) element, holds
its pair in that form, exact pairs reduced as octonions are, and applies it
to an octonion's numerators.  Frames are tested through the context too:
`Arithmetic.orthonormal` compares a Gram matrix with the identity,
`multiplication_defect` is one table product of a matrix's columns, and
`reject` removes the projection onto an orthonormal span.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cache, reduce
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import linalg
from .errors import DegenerateInput, ZeroDivisor

ScalarLike = Union[int, Fraction, float]

# Float tolerances, each named after its role and defined once.  Exact mode
# uses none of them: its tests are literal.

#: absolute tolerance of float equality of scalars, octonions and structures
FLOAT_EQ_TOL = 1e-12
#: residual allowed to a float identity check (the suites' default tolerance)
CHECK_TOL = 1e-9
#: distance under which float points count as one: preimage and fiber
#: classes
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


def _compile_product(index, sign):
    # the table product written out term by term, with no loop and no zero
    # tests: coordinate k is 0 +- x_i*y_j +- ..., one term per i in ascending
    # i, so one function multiplies integer numerators and floats (or numpy
    # arrays of either).  For floats, the leading 0 makes every coordinate
    # equal, signed zeros included, to the per-term sum that skips zero
    # terms: under round-to-nearest an exact-zero sum is +0 (IEEE 754-2019,
    # 6.3), so 0 +- (+-0.0) is +0.0, and adding a signed zero leaves a
    # nonzero partial sum or a +0 one unchanged.
    terms = [[] for _ in range(8)]
    for i in range(8):
        for j in range(8):
            terms[index[i][j]].append(
                "%sx%d*y%d" % ("-" if sign[i][j] < 0 else "+", i, j))
    source = ("def _product(x, y):\n"
              "    x0, x1, x2, x3, x4, x5, x6, x7 = x\n"
              "    y0, y1, y2, y3, y4, y5, y6, y7 = y\n"
              "    return [%s]\n" % ", ".join("0" + "".join(t) for t in terms))
    namespace: dict = {}
    exec(source, namespace)
    return namespace["_product"]


#: the names of the module constants built from the multiplication table,
#: in the order `_table_constants` returns them: everything that reads the
#: table reads one of these, so rebinding them all swaps the table
TABLE_CONSTANTS = ("MUL_INDEX", "MUL_SIGN", "_MUL_INDEX", "_MUL_SIGN",
                   "_LEFT", "_LEFT_SIGN", "_RIGHT", "_RIGHT_SIGN", "_TERMS",
                   "_FORM_INDEX", "_FORM_SIGN", "_product")
# the signs that conjugate coordinate rows: x * _CONJ is conj(x), exactly
_CONJ = np.array([1] + [-1] * 7)


def _table_constants(index, sign) -> tuple:
    """The constants of the table e_i e_j = sign[i][j] e_index[i][j], named
    by TABLE_CONSTANTS: the nested lists, their arrays, the gather tables of
    the multiplication matrices (entry (k, j) of the matrix of v -> w*v is
    _LEFT_SIGN[k][j] w_{_LEFT[k][j]}, entry (k, i) of the matrix of
    v -> v*w is _RIGHT_SIGN[k][i] w_{_RIGHT[k][i]}), the gather table of
    the float `batch_mul` (term i of coordinate k is x_i times row
    _TERMS[i][k] of y stacked over -y), the gather table of the companion's
    quadratic forms and the generated product.

    The quadratic forms are Q'_ijk, for i, j, k in 1..7, the symmetric 8x8
    matrices of a -> <(e_i a)(conj(a) e_j), e_k>, whose entries are -1, 0
    and 1.  For 343 values t_ijk flattened in (i, j, k) order, entry (p, q)
    of the sum of t_ijk Q'_ijk is the sum of t[_FORM_INDEX[p, q]] times
    _FORM_SIGN[p, q]: the nonzero entries of Q'_ijk at (p, q), padded by
    sign 0 (see `twistor.companion`)."""
    left, right, terms = np.empty((3, 8, 8), dtype=np.intp)
    left_sign, right_sign = np.empty((2, 8, 8), dtype=int)
    for i in range(8):
        for j in range(8):
            k, s = index[i][j], sign[i][j]
            left[k, j], left_sign[k, j] = i, s
            right[k, i], right_sign[k, i] = j, s
            terms[i, k] = j + 8 * (s < 0)
    # (e_i e_p)(conj(e_q) e_j) is +-e_k for one k, and that sign is entry
    # (p, q) of the form [i, j, k] before it is symmetrized
    idx, sgn = np.array(index), np.array(sign)
    i, j, p, q = np.ix_(*[range(8)] * 4)
    ip, qj = idx[i, p], idx[q, j]
    forms = np.zeros((8,) * 5, dtype=int)
    forms[(*np.broadcast_arrays(i, j, idx[ip, qj], p, q),)] = \
        sgn[i, p] * _CONJ[q] * sgn[q, j] * sgn[ip, qj]
    forms = (forms + forms.swapaxes(-1, -2))[1:, 1:, 1:] // 2
    flat = forms.reshape(343, 64).T                       # [pq, ijk]
    width = np.count_nonzero(flat, axis=1).max()
    order = np.argsort(flat == 0, axis=1, kind="stable")[:, :width]
    return (index, sign, np.array(index), np.array(sign), left, left_sign,
            right, right_sign, terms, order.reshape(8, 8, width),
            np.take_along_axis(flat, order, 1).reshape(8, 8, width),
            _compile_product(index, sign))


#: `_product` is the coordinates of the product of two coordinate sequences
#: of eight ints, eight floats, or eight arrays that broadcast against each
#: other
(MUL_INDEX, MUL_SIGN, _MUL_INDEX, _MUL_SIGN, _LEFT, _LEFT_SIGN, _RIGHT,
 _RIGHT_SIGN, _TERMS, _FORM_INDEX, _FORM_SIGN,
 _product) = _table_constants(*_build_table())
# I - 1 1^T, the projection onto the imaginary octonions
_IMAG_PROJ = np.diag([0] + [1] * 7)


def multiplication_defect(pair):
    """(S, d^2) for the pair (A, d) of an 8x8 matrix: S / d^2 is the stacked
    64x8 matrix of the maps u -> A(e_k u) - A(e_k) A(u), zero exactly when A
    is multiplicative.  Block k, column j is A(e_k e_j) - A(e_k) A(e_j), and
    A(e_k e_j) = MUL_SIGN[k][j] A(e_MUL_INDEX[k][j]): one table product of
    A's columns, ints or floats."""
    a, d = pair
    prod = np.array(_product(a[:, :, None], a[:, None, :]))   # [i, k, j]
    s = a[:, _MUL_INDEX] * _MUL_SIGN * d - prod
    return s.transpose(1, 0, 2).reshape(64, 8), d * d


def _exact(num: tuple, d: int) -> "Octonion":
    """The exact octonion num / d for a canonical pair (int numerators, int
    d > 0, gcd 1), not re-validated: every exact octonion that is not built
    by the public constructor is made here."""
    o = object.__new__(Octonion)
    o.numerators, o.denominator, o.exact = num, d, True
    return o


def _reduced(num: Sequence[int], d: int) -> "Octonion":
    """The exact octonion num / d for int numerators and an int d > 0,
    reduced by their gcd."""
    g = math.gcd(*num, d)
    if g == 1:
        return _exact(tuple(num), d)
    return _exact(tuple(n // g for n in num), d // g)


#: the message of an entry that is not a finite real number, and its reason
#: for a NaN or an infinity
_NOT_REAL = "entries must be finite real numbers, got %s"
_NOT_FINITE = "a NaN or an infinity"


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
                raise ValueError(_NOT_FINITE)
            return fs, 1.0
        return linalg.lift_exact(values)
    except (TypeError, ValueError) as e:
        raise error(_NOT_REAL % e) from None


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
    o.numerators, o.denominator, o.exact = cs, 1, False
    return o


def _float_copy(o: "Octonion") -> tuple:
    """The floats of o: each numerator / denominator, rounded once, for an
    exact o (how it enters float arithmetic); a float o's own floats."""
    d = o.denominator
    return tuple(n / d for n in o.numerators) if o.exact else o.numerators


class Octonion:
    """An element of the octonions, immutable.

    An exact octonion holds its canonical pair: `numerators`, eight ints,
    over `denominator`, an int d > 0, with gcd 1.  A float octonion holds
    its eight floats as `numerators` over `denominator` 1.  `coords` are the
    coefficients over (e0, ..., e7): canonical Fractions (exact mode, built
    from the pair on each read) or floats.  Exact octonions compare
    literally; float octonions compare up to FLOAT_EQ_TOL.
    """

    __slots__ = ("numerators", "denominator", "exact")

    def __init__(self, coords: Iterable[ScalarLike]):
        cs = tuple(coords)
        if len(cs) != 8:
            raise DegenerateInput("octonion needs exactly 8 coordinates, got %d" % len(cs))
        nums, d = _lift(cs, DegenerateInput)
        # a lift of reduced Fractions is canonical; floats stand over 1
        self.numerators, self.exact = tuple(nums), not isinstance(d, float)
        self.denominator = d if self.exact else 1

    @property
    def coords(self) -> tuple:
        if not self.exact:
            return self.numerators
        d = self.denominator
        return tuple(Fraction(n, d) for n in self.numerators)

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
        """The exact octonion num / d for integer numerators and a nonzero
        integer d (numpy integers among them), in canonical form over Python
        ints; any other scalar, or other than 8 numerators, raises
        `DegenerateInput`."""
        try:
            num, d = [operator.index(n) for n in num], operator.index(d)
        except TypeError as e:
            raise DegenerateInput("lifted octonion needs integers: %s" % e) from None
        if len(num) != 8:
            raise DegenerateInput("lifted octonion needs exactly 8 numerators, "
                                  "got %d" % len(num))
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
        op = operator.add if sign > 0 else operator.sub
        return _floats(map(op, _float_copy(self), _float_copy(other)))

    def __neg__(self) -> "Octonion":
        return self._same_form((-n for n in self.numerators), self.denominator)

    def __mul__(self, other):
        if isinstance(other, Octonion):
            if self.exact and other.exact:
                return _reduced(_product(self.numerators, other.numerators),
                                self.denominator * other.denominator)
            return _floats(_product(_float_copy(self), _float_copy(other)))
        return self._scaled(other, False)

    def __rmul__(self, other):
        # scalars commute with everything
        return self * other

    def __truediv__(self, scalar):
        if not scalar:
            raise ZeroDivisor("octonion divided by zero")
        return self._scaled(scalar, True)

    def _scaled(self, s, divide: bool) -> "Octonion":
        """self * s, or self / s when divide, by one rule: an int, Fraction or
        numpy integer s keeps an exact self exact, through its integer
        numerator and denominator; any other s enters as float(s) (the float
        Python's `Fraction op float` and `int op float` use), and a NaN or
        infinite s raises `DegenerateInput`."""
        if self.exact and isinstance(s, (int, Fraction, np.integer)):
            n, d = ((int(s.numerator), int(s.denominator))
                    if isinstance(s, Fraction) else (int(s), 1))
            if divide:
                n, d = (d, n) if n > 0 else (-d, -n)
            return _reduced([n * c for c in self.numerators], d * self.denominator)
        if not math.isfinite(s):
            raise DegenerateInput("octonion scalar must be finite, got %r" % (s,))
        f, cs = float(s), _float_copy(self)
        return _floats([c / f for c in cs] if divide else [f * c for c in cs])

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
            return Fraction(sum(map(operator.mul, self.numerators, other.numerators)),
                            self.denominator * other.denominator)
        return sum(map(operator.mul, _float_copy(self), _float_copy(other)))

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
        return np.array(_float_copy(self))

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
        return _floats(_float_copy(o)) / float(n) ** 0.5
    return o / float(n) ** 0.5


def reject(o: Octonion, orthonormal_basis: Iterable[Octonion]) -> Octonion:
    """o minus its projection onto the span of an orthonormal basis:
    o - <o, b1> b1 - <o, b2> b2 - ..., the terms subtracted in order."""
    out = o
    for b in orthonormal_basis:
        out = out - o.inner(b) * b
    return out


def inner_rows(a: np.ndarray, b: np.ndarray):
    """`Octonion.inner` of each row of a with its row of b, for (n, 8)
    coordinates or numerators (a row of one broadcasts): the products summed
    coordinate by coordinate from 0, in the order of Python's `sum`, so float
    rows get its bits and exact numerators stay ints."""
    return reduce(operator.add, (a[:, k] * b[:, k] for k in range(8)), 0)


def residual(d: Octonion) -> float:
    """Largest absolute coordinate of d, as a float: int / int true division
    in exact mode, which rounds correctly."""
    return max(map(abs, d.numerators)) / d.denominator


# ---------------------------------------------------------------------------
# the arithmetic context
# ---------------------------------------------------------------------------

def _read_only(pair):
    """The (array, denominator) pair with its arrays made read-only: a
    constant built once and shared by every caller."""
    for a in pair:
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return pair


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
        pair) a unit imaginary: (I - 1 1^T) d^2 - v v^T over d^2 for the
        pair (v, d)."""
        v, d = p
        return (_IMAG_PROJ.astype(v.dtype) * (d * d)
                - v[..., :, None] * v[..., None, :], d * d)

    def matrix(self, rows, error: type = DegenerateInput):
        """The pair of the square matrix with these rows, in floats when this
        is FLOAT, rows is an ndarray or an entry is a float (see `_lift`).
        A real numeric ndarray enters as an array: one `astype(float)`, the
        doubles `float()` gives each entry, and one finiteness test."""
        if isinstance(rows, np.ndarray) and rows.dtype.kind in "biuf":
            a = rows.astype(float, order="C")
            if not np.isfinite(a).all():
                raise error(_NOT_REAL % _NOT_FINITE)
            return a, 1.0
        floats = not self.exact or isinstance(rows, np.ndarray)
        nums, d = _lift(rows.ravel().tolist() if isinstance(rows, np.ndarray)
                        else [x for row in rows for x in row], error, floats)
        return np.array(nums, dtype=float if isinstance(d, float) else object
                        ).reshape(len(rows), -1), d

    @cache
    def identity(self, n: int):
        """The pair of the n x n identity matrix, built once per mode and
        size and shared by every caller: read-only."""
        return _read_only(self.matrix([[int(i == j) for j in range(n)]
                                       for i in range(n)]))

    def pair(self, a: "SquareMatrix"):
        """The pair of the square matrix a in this mode: its own, or the
        float copy of an exact a (a mixed computation runs in floats)."""
        return a.m if a.exact == self.exact else (a.as_array(), 1.0)

    def agree(self, a: "SquareMatrix", b: "SquareMatrix", tol: float) -> bool:
        """Equality of two square matrices, FLOAT's within tol."""
        return self.equal(self.pair(a), self.pair(b), tol)

    def equal(self, m1, m2, tol: float = FLOAT_EQ_TOL) -> bool:
        """Equality of two (stacked) matrices (see `equal_each`)."""
        return bool(self.equal_each(m1, m2, tol).all())

    def difference(self, m1, m2) -> np.ndarray:
        """The array of m1 - m2 times the product of their denominators, for
        (stacked) matrix pairs: the matrix of m1 - m2 up to a positive scale,
        which has its kernel."""
        return m1[0] * m2[1] - m2[0] * m1[1]

    def orthonormal(self, os: Sequence[Octonion],
                    tol: float = FLOAT_EQ_TOL) -> bool:
        """Whether the octonions os are orthonormal: the Gram matrix of their
        points equals the identity, FLOAT's within tol."""
        v, d = self.points(os)
        d = np.reshape(d, -1)
        return self.equal((v @ v.T, np.outer(d, d)), self.identity(len(os)), tol)


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
        """A basis of the right kernel of a matrix with eight columns, as
        octonions.  EXACT eliminates a tall matrix M as M^T M, which has M's
        row space, hence the same reduced echelon form and the same basis."""
        (vs, d), = self.kernels([rows])
        return [_reduced(v, d) for v in vs.tolist()]

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
        """Largest absolute entry of m1 - m2, as a float: each entry rounded
        once by int / int true division (rounding is monotone)."""
        num = self.difference(m1, m2)
        return float(np.max(np.abs(num / (m1[1] * m2[1]))))

    def equal_each(self, m1, m2, tol: float = FLOAT_EQ_TOL) -> np.ndarray:
        """Equality of each matrix of two stacked pairs, a bool array over
        the leading axes; FLOAT compares each one's distance with tol."""
        return (m1[0] * m2[1] == m2[0] * m1[1]).all(axis=(-2, -1))

    def kernels(self, stack) -> list:
        """For each matrix of a stack (n, rows, cols), a basis of its right
        kernel as a pair: a (k, cols) array of numerators over one
        denominator (see `kernel`)."""
        out = []
        for m in np.asarray(stack, dtype=object):
            if m.shape[0] > m.shape[1]:
                m = m.T @ m
            vs, d = linalg.kernel_basis(m)
            out.append((np.array(vs, dtype=object).reshape(len(vs), m.shape[1]), d))
        return out

    def planes(self, stack):
        """For each matrix of a stack (n, rows, cols), its right kernel as
        a plane: one points pair of bases (n, 2, cols) over denominators
        (n, 1), and the dimension of each kernel.  A matrix whose kernel is
        not a plane has the first two unit vectors over 1 in its place."""
        kernels = self.kernels(stack)
        cols = np.shape(stack)[-1]
        unit = (np.eye(2, cols, dtype=object), 1)
        planes = [kd if len(kd[0]) == 2 else unit for kd in kernels]
        k = np.array([b for b, _ in planes], dtype=object).reshape(-1, 2, cols)
        d = np.array([d for _, d in planes], dtype=object).reshape(-1, 1)
        return (k, d), np.array([len(k) for k, _ in kernels], dtype=int)

    def rays(self, pts):
        """The representatives of the rays through the rows of a points
        pair that results carry: the rows as they are; FLOAT normalizes
        them, as `normalize` does one octonion."""
        return pts

    def det(self, m):
        """The determinant of the one matrix of the pair m."""
        return Fraction(linalg.det(m[0].tolist()), m[1] ** len(m[0]))


class _FloatArithmetic(Arithmetic):
    exact = False

    def scalar_eq(self, a, b, tol: float = FLOAT_EQ_TOL) -> bool:
        return abs(float(a) - float(b)) <= tol

    def is_zero(self, coords: Iterable, tol: float = FLOAT_EQ_TOL) -> bool:
        return all(abs(c) <= tol for c in coords)

    def eq(self, x: Octonion, y: Octonion, tol: float = FLOAT_EQ_TOL) -> bool:
        return all(abs(a - b) <= tol for a, b in zip(_float_copy(x), _float_copy(y)))

    def zero_norm(self, n, tol_sq: float = ZERO_NORM_SQ) -> bool:
        return n < tol_sq

    def kernel(self, rows) -> list:
        return [_floats(v) for v in linalg.kernel_basis_float(rows).tolist()]

    def planes(self, stack):
        k, dims = linalg.kernel_planes_float(stack)
        return (k, np.ones((len(k), 1))), dims

    def ray(self, o: Octonion) -> Octonion:
        return normalize(o)

    def rays(self, pts):
        # the norms as `normalize` takes them: Python's float ** 0.5 is
        # libm's pow, which np.sqrt does not always match
        v = pts[0]
        norms = [n ** 0.5 for n in inner_rows(v, v).tolist()]
        return v / np.array(norms).reshape(-1, 1), 1.0

    def points(self, os: Sequence[Octonion]):
        return np.array([_float_copy(o) for o in os]), 1.0

    def left(self, p):
        return left_mult_matrix(p[0]), p[1]

    def right(self, p):
        return right_mult_matrix(p[0]), p[1]

    def scaled(self, m, s):
        return m[0], m[1] * float(s)

    def distance(self, m1, m2) -> float:
        return float(self.distances(m1, m2).max())

    def distances(self, m1, m2) -> np.ndarray:
        """`distance` for each matrix of two stacked pairs."""
        return np.abs(m1[0] / m1[1] - m2[0] / m2[1]).max(axis=(-2, -1))

    def equal_each(self, m1, m2, tol: float = FLOAT_EQ_TOL) -> np.ndarray:
        return self.distances(m1, m2) <= tol

    def det(self, m):
        return float(np.linalg.det(m[0])) / m[1] ** len(m[0])


EXACT = _ExactArithmetic(Octonion.basis(0), Octonion.basis(1))
FLOAT = _FloatArithmetic(*(_floats(_float_copy(o)) for o in (EXACT.one, EXACT.e1)))


def arithmetic_of(*values) -> Arithmetic:
    """EXACT when every value (anything with an `exact` flag) is exact, else
    FLOAT: mixed inputs compute in floats."""
    return EXACT if all(v.exact for v in values) else FLOAT


class SquareMatrix:
    """A square matrix in one arithmetic mode: the storage that structures
    and orthogonal-group elements share.

    It holds `m`, its pair in the form its `Arithmetic` multiplies: a float
    array over 1.0, or an object array of int numerators over an int d > 0
    with gcd 1.  Every computation reads the pair: `apply` multiplies it
    with an octonion's numerators, and `==` compares pairs.  `rows`, the
    float array or canonical Fractions built from the pair on each read,
    are a view for output.  The mode is decided here, once, as `_lift`
    decides it, an ndarray counting as floats.  A subclass sets `size`, the
    octonion coordinates `basis` that its rows and columns stand for, and
    the `error` that a malformed matrix raises, and may override
    `_validate`, which runs on construction unless `validate` is False; it
    tests a float matrix to CHECK_TOL.
    """

    __slots__ = ("m", "exact")
    size: int
    error: type
    #: the octonion coordinates the rows and columns stand for, in order
    basis: np.ndarray = np.arange(8)

    def __init__(self, rows, validate: bool = True):
        n = self.size
        if (rows.shape != (n, n) if isinstance(rows, np.ndarray)
                else len(rows) != n or any(len(row) != n for row in rows)):
            raise self.error("expected %s %dx%d matrix"
                             % ("an" if n == 8 else "a", n, n))
        self.m = EXACT.matrix(rows, self.error)  # the entries decide the mode
        self.exact = not isinstance(self.m[1], float)
        if validate:
            self._validate()

    @property
    def rows(self):
        a, d = self.m
        if not self.exact:
            return a
        return tuple(tuple(Fraction(x, d) for x in row) for row in a.tolist())

    def _validate(self):
        """Raise `error` unless the matrix belongs to the class."""

    @classmethod
    def _trusted(cls, pair, ctx: Arithmetic) -> "SquareMatrix":
        """The matrix of the pair (a stack of one is fine, with a positive
        denominator) that a formula in the mode of ctx puts in the class:
        reduced to its form, not re-validated."""
        a, d = pair[0].reshape(pair[0].shape[-2:]), pair[1]
        d = d.flat[0] if isinstance(d, np.ndarray) else d
        if not ctx.exact:
            a, d = a / d, 1.0
        else:
            g = math.gcd(*a.flat, d)
            if g > 1:
                a, d = a // g, d // g
        m = object.__new__(cls)
        m.m, m.exact = (a, d), ctx.exact
        return m

    def apply(self, o: Octonion) -> Octonion:
        """The matrix applied to o's coordinates at `basis`, the result 0
        elsewhere, in the mode of both: the pair times o's numerators over
        the product of the denominators, reduced once, or floats (an exact
        operand meets a float one as its float copy)."""
        ctx = arithmetic_of(self, o)
        (a, d), b = ctx.pair(self), self.basis
        v = o.numerators if o.exact == ctx.exact else o.to_float_array()
        out = np.zeros(8, a.dtype)
        out[b] = a @ np.array(v, a.dtype)[b]
        if ctx.exact:
            return _reduced(out.tolist(), d * o.denominator)
        return _floats(out.tolist())

    def __eq__(self, other) -> bool:
        """Matrices of one class are equal when their pairs agree (float
        ones within FLOAT_EQ_TOL)."""
        if type(other) is not type(self):
            return NotImplemented
        return arithmetic_of(self, other).agree(self, other, FLOAT_EQ_TOL)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.m[0] / self.m[1], dtype=float)

    def distance(self, other: "SquareMatrix") -> float:
        """Largest absolute entry of self - other (see `Arithmetic.distance`:
        exact matrices are differenced exactly and rounded once)."""
        ctx = arithmetic_of(self, other)
        return ctx.distance(ctx.pair(self), ctx.pair(other))

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
# batched kernels (numpy): the table product on stacked coordinates, and the
# multiplication matrices, each one signed gather c[..., idx] * sign of w's
# coordinates c; a float gather adds 0.0, so a zero entry is +0.0, as
# `_product` gives it, and an exact one keeps the scalars' own type
# ---------------------------------------------------------------------------

#: rows per pass of `_gather`: the (8, 8, rows) terms of a pass stay in
#: cache, and up to this many rows take one pass
BATCH_ROWS = 512


def batch_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Octonion product of (..., 8) arrays, broadcasting, row by row equal to
    the scalar product, signed zeros included.  Float rows take `_gather`.
    Exact rows (integer numerators in object arrays) take it too, in int64,
    when `_int64_operands` proves every sum fits, and come back as Python
    ints; exact rows that may not fit, and rows of any other dtype, run
    `_product` on the coordinate axes.  Operands whose last axis is not 8
    raise `DegenerateInput`."""
    x, y = np.asarray(x), np.asarray(y)
    if not x.shape[-1:] == y.shape[-1:] == (8,):
        raise DegenerateInput("octonion rows need a last axis of 8, got "
                              "shapes %s and %s" % (x.shape, y.shape))
    dtype = np.result_type(x, y)
    if dtype.kind == "f":
        return _gather(x, y, dtype)
    if dtype == object:
        fits = _int64_operands(x, y)
        if fits is not None:
            return _gather(*fits, np.dtype(np.int64)).astype(object)
    return np.stack(_product(np.moveaxis(x, -1, 0), np.moveaxis(y, -1, 0)), -1)


def _int64_operands(x: np.ndarray, y: np.ndarray):
    """x and y as int64 arrays when every entry of both is a Python int
    (`astype` would truncate a Fraction, a float or a bool) and
    8 max|x| max|y| < 2^63, computed in Python ints: a coordinate is a sum
    of eight terms x_i y_j, so every partial sum fits.  Else None.  The
    cast comes first, so rows with an entry past int64 are turned away at
    it, before any scan of their types.  Empty operands get None."""
    if not (x.size and y.size):
        return None
    try:
        xi, yi = x.astype(np.int64), y.astype(np.int64)
    except (OverflowError, TypeError, ValueError):
        return None
    if (8 * _max_abs(xi) * _max_abs(yi) >= 2 ** 63
            or set(map(type, x.flat)) | set(map(type, y.flat)) != {int}):
        return None
    return xi, yi


def _max_abs(a: np.ndarray) -> int:
    """The largest absolute entry of an int64 array, as a Python int (the
    abs of -2^63 is not an int64)."""
    return max(int(a.max()), -int(a.min()))


def _gather(x: np.ndarray, y: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """`batch_mul` of float or int64 rows: one signed gather per pass of
    BATCH_ROWS rows.  y's coordinates are stacked over their negations and
    gathered by `_TERMS`, the (term, coordinate, row) array is multiplied
    by x's coordinates, and each coordinate's eight terms are added in
    `_product`'s order, starting from 0."""
    shape = np.broadcast(x, y).shape
    x, y = _rows(x, shape), _rows(y, shape)
    out = np.empty((8, len(x)), dtype)
    zero = dtype.type(0)
    for s in range(0, len(x), BATCH_ROWS):
        rows = slice(s, s + BATCH_ROWS)
        signed = np.empty((16, len(x[rows])), dtype)
        signed[:8] = y[rows].T
        np.negative(signed[:8], out=signed[8:])
        terms = signed[_TERMS]                  # [i, k, row]: +-y_j
        terms *= x[rows].T[:, None]             # times x_i
        acc = out[:, rows]
        np.add(terms[0], zero, out=acc)         # `_product`'s leading 0
        for t in terms[1:]:
            acc += t
    return out.T.reshape(shape)


def _rows(v: np.ndarray, shape: tuple) -> np.ndarray:
    """The (n, 8) rows of v broadcast to `shape`, copied when it broadcasts:
    the gather takes rows, so operands are broadcast before it."""
    if v.shape != shape:
        full = np.empty(shape, v.dtype)
        full[...] = v
        v = full
    return v.reshape(-1, 8)


def _float_coords(w) -> np.ndarray:
    return w.to_float_array() if isinstance(w, Octonion) else np.asarray(w, dtype=float)


def _exact_coords(w) -> np.ndarray:
    # the Fractions of an octonion, or coordinates such as lifted numerators
    return np.array(w.coords if isinstance(w, Octonion) else w, dtype=object)


def left_mult_matrix(w) -> np.ndarray:
    """8x8 float matrix of v -> w*v; a (..., 8) batch gives (..., 8, 8)."""
    return _float_coords(w)[..., _LEFT] * _LEFT_SIGN + 0.0


def right_mult_matrix(w) -> np.ndarray:
    """8x8 float matrix of v -> v*w; a (..., 8) batch gives (..., 8, 8)."""
    return _float_coords(w)[..., _RIGHT] * _RIGHT_SIGN + 0.0


def left_mult_matrix_exact(w) -> np.ndarray:
    """8x8 object array of v -> w*v, a signed gather of w's own scalars: the
    Fractions of an octonion, or coordinates such as lifted numerators; a
    (..., 8) stack gives (..., 8, 8)."""
    return _exact_coords(w)[..., _LEFT] * _LEFT_SIGN


def right_mult_matrix_exact(w) -> np.ndarray:
    """8x8 object array of v -> v*w; see `left_mult_matrix_exact`."""
    return _exact_coords(w)[..., _RIGHT] * _RIGHT_SIGN
