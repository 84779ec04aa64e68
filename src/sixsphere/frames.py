"""Quaternion subalgebras, doubling coordinates, and automorphisms from frames.

A quaternion subalgebra is spanned by (1, x, y, y*x) for orthonormal
imaginary units x, y.  An orthonormal imaginary 3-frame (x, y, z) with
z perpendicular to y*x determines a unique algebra automorphism of the
octonions sending (e1, e2, e4) to (x, y, z); the remaining basis images are
forced by multiplicativity.

Exact sampling is done entirely with Householder reflections: a reflection
whose mirror normal is the (rational) difference of two rational unit vectors
is a rational orthogonal map, so chains of them move the standard frame to
random rational frames without ever leaving the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .errors import (AutomorphismCheckFailed, DegenerateInput, FrameInvalid,
                     NotOrthogonal)
# kernel_basis has no caller here: it stays bound as frames.kernel_basis,
# which bench/test_smoke.py reads
from .linalg import kernel_basis, mat_vec
from .octonion import (CHECK_TOL, MUL_INDEX, MUL_SIGN, Octonion, arithmetic_of,
                       exact_sqrt, normalize)
from .sampling import (random_rational_vector, rational_sphere_point,
                       rational_imaginary_unit)

ONE = Octonion.basis(0)
E1 = Octonion.basis(1)
E2 = Octonion.basis(2)
E4 = Octonion.basis(4)


def householder_swap(a: Octonion, b: Octonion) -> Callable[[Octonion], Octonion]:
    """The reflection exchanging the unit vectors a and b (identity if a == b).
    Rational inputs give a rational orthogonal map."""
    n = a - b
    if n.is_zero():
        return lambda v: v
    nn = n.norm_sq()
    return lambda v: v - (2 * v.inner(n) / nn) * n


@dataclass(frozen=True)
class QuaternionFrame:
    """Orthonormal basis (1, x, y, y*x) of a quaternion subalgebra."""

    x: Octonion
    y: Octonion
    basis: Tuple[Octonion, ...] = field(init=False)

    def __post_init__(self):
        one = arithmetic_of(self.x, self.y).one
        object.__setattr__(self, "basis", (one, self.x, self.y, self.y * self.x))
        self._validate()

    def _validate(self):
        b = self.basis
        ctx = arithmetic_of(*b)
        for i in range(4):
            for j in range(4):
                want = 1 if i == j else 0
                if not ctx.scalar_eq(b[i].inner(b[j]), want, CHECK_TOL):
                    raise FrameInvalid("quaternion frame is not orthonormal")
        # closure under multiplication: every product of basis elements must
        # lie in the span
        for i in range(4):
            for j in range(4):
                if not self.contains(b[i] * b[j]):
                    raise FrameInvalid("quaternion frame span is not closed")

    def coords(self, o: Octonion) -> List:
        return [o.inner(v) for v in self.basis]

    def contains(self, o: Octonion) -> bool:
        proj = Octonion.zero()
        for v in self.basis:
            proj = proj + o.inner(v) * v
        return (o - proj).is_zero(CHECK_TOL)

    def structure_constants(self):
        """4x4 table of coordinate vectors: basis[i]*basis[j] in frame coords."""
        return [[self.coords(self.basis[i] * self.basis[j]) for j in range(4)]
                for i in range(4)]


def quaternion_subalgebra_through(p: Octonion, x: Octonion) -> QuaternionFrame:
    """Frame of a quaternion subalgebra containing 1, p and x.

    p must be a unit imaginary.  When x lies in span(1, p) the subalgebra is
    not unique and the deterministic fallback completes with the Householder
    image of e2 under the reflection carrying e1 to p (this is e2 itself when
    p = e1).  For exact inputs the result stays exact whenever the projection
    of x against span(1, p) has rational norm; otherwise the frame is built
    in float coordinates, since no exact unit vector exists along that
    direction.
    """
    if not (p.is_imaginary() and p.is_unit()):
        raise DegenerateInput("p must be a unit imaginary octonion")
    v = x - x.inner(ONE) * ONE - x.inner(p) * p
    if v.is_zero():
        h = householder_swap(E1, p)
        return QuaternionFrame(p, h(E2))
    return QuaternionFrame(p, normalize(v))


@dataclass(frozen=True)
class G2Frame:
    """Orthonormal imaginary 3-frame (x, y, z) with z perpendicular to y*x."""

    x: Octonion
    y: Octonion
    z: Octonion

    def __post_init__(self):
        vs = (self.x, self.y, self.z)
        ctx = arithmetic_of(*vs)
        for v in vs:
            if not ctx.scalar_eq(v.coords[0], 0, CHECK_TOL):
                raise FrameInvalid("frame vectors must be imaginary")
        for i in range(3):
            for j in range(3):
                want = 1 if i == j else 0
                if not ctx.scalar_eq(vs[i].inner(vs[j]), want, CHECK_TOL):
                    raise FrameInvalid("frame is not orthonormal")
        if not ctx.scalar_eq(self.z.inner(self.y * self.x), 0, CHECK_TOL):
            raise FrameInvalid("z must be orthogonal to y*x")


def g2_from_frame(f: G2Frame):
    """The automorphism sending (e1, e2, e4) to (x, y, z), as an 8x8 matrix.

    Images of the remaining basis vectors are forced multiplicatively in the
    fixed order e3 = phi(e1)phi(e2), e5 = phi(e1)phi(e4), e6 = phi(e2)phi(e4),
    e7 = phi(e3)phi(e4), mirroring the basis convention, so the identity frame
    maps to the identity matrix.  The result is verified to be an orthogonal
    algebra automorphism on all 64 basis pairs before being returned.
    """
    im = [None] * 8
    im[0] = arithmetic_of(f.x).one
    im[1], im[2], im[4] = f.x, f.y, f.z
    im[3] = im[1] * im[2]
    im[5] = im[1] * im[4]
    im[6] = im[2] * im[4]
    im[7] = im[3] * im[4]

    ctx = arithmetic_of(*im)
    for i in range(8):
        for j in range(8):
            lhs = im[i] * im[j]
            rhs = MUL_SIGN[i][j] * im[MUL_INDEX[i][j]]
            if not (lhs - rhs).is_zero(CHECK_TOL):
                raise AutomorphismCheckFailed(
                    "multiplicative extension failed on (e%d, e%d)" % (i, j))
            want = 1 if i == j else 0
            if not ctx.scalar_eq(im[i].inner(im[j]), want, CHECK_TOL):
                raise AutomorphismCheckFailed("image basis is not orthonormal")
    # columns are the images
    if ctx.exact:
        return [[im[j].coords[i] for j in range(8)] for i in range(8)]
    return np.array([[float(im[j].coords[i]) for j in range(8)] for i in range(8)])


def apply_matrix(m, o: Octonion) -> Octonion:
    """Apply an 8x8 matrix (rows or ndarray) to an octonion."""
    if isinstance(m, np.ndarray):
        return Octonion(m @ o.to_float_array())
    return Octonion(mat_vec(m, o.coords))


# ---------------------------------------------------------------------------
# exact random frames
# ---------------------------------------------------------------------------

def random_quaternion_frame(rng: np.random.Generator) -> QuaternionFrame:
    """Random exact rational quaternion frame."""
    x = rational_imaginary_unit(random_rational_vector(rng, 6))
    u = Octonion((0, 0, *rational_sphere_point(random_rational_vector(rng, 5))))
    y = householder_swap(E1, x)(u)
    return QuaternionFrame(x, y)


def random_g2_frame(rng: np.random.Generator) -> G2Frame:
    """Random exact rational admissible 3-frame.

    Build (x, y) as a rational quaternion frame, carry the standard frame
    onto it by two Householder swaps, correct the image of e3 onto y*x by a
    third reflection (which fixes 1, x, y), and finally rotate the resulting
    unit normal z0 inside the orthogonal quaternion line by a random rational
    unit of the subalgebra.  Every step preserves rationality and norms.
    """
    qf = random_quaternion_frame(rng)
    x, y = qf.x, qf.y
    h1 = householder_swap(E1, x)
    u = h1(y)  # = preimage of y; unit, orthogonal to e1
    h2 = householder_swap(E2, u)
    q2 = lambda v: h1(h2(v))
    w = q2(Octonion.basis(3))
    yx = y * x
    h3 = householder_swap(w, yx)
    z0 = h3(q2(E4))
    # random unit of the subalgebra: z = z0 * a sweeps the unit sphere of
    # the orthogonal complement as a sweeps the unit quaternions of A
    q = rational_sphere_point(random_rational_vector(rng, 3))
    a = Octonion.zero()
    for qi, b in zip(q, qf.basis):
        a = a + qi * b
    return G2Frame(x, y, z0 * a)


def random_g2_matrix(rng: np.random.Generator):
    return g2_from_frame(random_g2_frame(rng))


# ---------------------------------------------------------------------------
# doubling coordinates
# ---------------------------------------------------------------------------

class DoublingCoordinates:
    """Coordinate maps identifying the octonions with pairs (a, b) of
    quaternion-frame coordinates via o = a + I*b.

    The doubling product on pairs is
        (a, b) * (c, d) = (a c - d conj(b),  c b + conj(a) d)
    with quaternion products taken in frame coordinates; `verify_doubling_law`
    checks this against direct octonion multiplication on all 64 pairs of
    coordinate basis vectors.
    """

    def __init__(self, frame: QuaternionFrame, doubling_unit: Octonion):
        ctx = arithmetic_of(doubling_unit, *frame.basis)
        if not doubling_unit.is_unit(CHECK_TOL):
            raise NotOrthogonal("doubling unit must have norm 1")
        for v in frame.basis:
            if not ctx.scalar_eq(doubling_unit.inner(v), 0, CHECK_TOL):
                raise NotOrthogonal("doubling unit must be orthogonal to the frame")
        self.frame = frame
        self.unit = doubling_unit
        self.upper = tuple(doubling_unit * v for v in frame.basis)
        self._sc = frame.structure_constants()

    def to_pair(self, o: Octonion):
        a = [o.inner(v) for v in self.frame.basis]
        b = [o.inner(v) for v in self.upper]
        if not (o - self.from_pair(a, b)).is_zero(CHECK_TOL):
            raise NotOrthogonal("element does not lie in frame + I*frame")
        return a, b

    def from_pair(self, a: Sequence, b: Sequence) -> Octonion:
        o = Octonion.zero()
        for ai, v in zip(a, self.frame.basis):
            o = o + ai * v
        for bi, v in zip(b, self.upper):
            o = o + bi * v
        return o

    def _qmul(self, a: Sequence, c: Sequence) -> List:
        out = [0, 0, 0, 0]
        for i in range(4):
            if not a[i]:
                continue
            for j in range(4):
                if not c[j]:
                    continue
                coeff = a[i] * c[j]
                for k in range(4):
                    out[k] = out[k] + coeff * self._sc[i][j][k]
        return out

    @staticmethod
    def _qconj(a: Sequence) -> List:
        return [a[0], -a[1], -a[2], -a[3]]

    def pair_mul(self, ab, cd):
        a, b = ab
        c, d = cd
        first = [s - t for s, t in zip(self._qmul(a, c), self._qmul(d, self._qconj(b)))]
        second = [s + t for s, t in zip(self._qmul(c, b), self._qmul(self._qconj(a), d))]
        return first, second

    def verify_doubling_law(self) -> bool:
        """Doubling product on coordinates == octonion product, on all 64
        pairs of coordinate basis vectors."""
        units = [([1 if i == k else 0 for k in range(4)], [0, 0, 0, 0]) for i in range(4)]
        units += [([0, 0, 0, 0], [1 if i == k else 0 for k in range(4)]) for i in range(4)]
        for ab in units:
            for cd in units:
                direct = self.from_pair(*ab) * self.from_pair(*cd)
                paired = self.from_pair(*self.pair_mul(ab, cd))
                if not (direct - paired).is_zero(CHECK_TOL):
                    return False
        return True


def doubling_coordinates(frame: QuaternionFrame, doubling_unit: Octonion) -> DoublingCoordinates:
    return DoublingCoordinates(frame, doubling_unit)

