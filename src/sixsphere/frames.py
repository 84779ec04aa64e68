"""Automorphisms of the octonions from frames.

An orthonormal imaginary 3-frame (x, y, z) with z perpendicular to y*x
determines a unique algebra automorphism of the octonions sending
(e1, e2, e4) to (x, y, z); the remaining basis images are forced by
multiplicativity.  `g2_from_frame` builds it and certifies it: the eight
images are orthonormal and the multiplication defect of their matrix is
zero.

Exact sampling is done entirely with Householder reflections: a reflection
whose mirror normal is the (rational) difference of two rational unit vectors
is a rational orthogonal map, so chains of them move the standard frame to
random rational frames without ever leaving the rationals.  The quaternion
subalgebra spanned by (1, x, y, y*x) on the way is not checked on its own:
the certificate of the automorphism covers it, since 1, x, y and x*y = -y*x
are the images of 1, e1, e2 and e3, so they are orthonormal and span the
image of a subalgebra, which is closed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AutomorphismCheckFailed, FrameInvalid
# kernel_basis has no caller here: it stays bound as frames.kernel_basis,
# which bench/test_smoke.py reads
from .linalg import kernel_basis, mat_vec
from .octonion import (CHECK_TOL, Octonion, arithmetic_of,
                       multiplication_defect)
# normalize has no caller here: it stays bound as frames.normalize, which
# bench/layers.py patches and bench/test_smoke.py reads
from .octonion import normalize
from .sampling import random_rational_imaginary_unit, random_sphere_lifted

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
        if not ctx.orthonormal(vs, CHECK_TOL):
            raise FrameInvalid("frame is not orthonormal")
        if not ctx.scalar_eq(self.z.inner(self.y * self.x), 0, CHECK_TOL):
            raise FrameInvalid("z must be orthogonal to y*x")


def g2_from_frame(f: G2Frame):
    """The automorphism sending (e1, e2, e4) to (x, y, z), as an 8x8 matrix.

    Images of the remaining basis vectors are forced multiplicatively in the
    fixed order e3 = phi(e1)phi(e2), e5 = phi(e1)phi(e4), e6 = phi(e2)phi(e4),
    e7 = phi(e3)phi(e4), mirroring the basis convention, so the identity frame
    maps to the identity matrix.  The result is verified to be an orthogonal
    algebra automorphism before being returned: the images are orthonormal
    and the multiplication defect of their matrix is zero.
    """
    im = [None] * 8
    im[0] = arithmetic_of(f.x).one
    im[1], im[2], im[4] = f.x, f.y, f.z
    im[3] = im[1] * im[2]
    im[5] = im[1] * im[4]
    im[6] = im[2] * im[4]
    im[7] = im[3] * im[4]

    ctx = arithmetic_of(*im)
    if not ctx.orthonormal(im, CHECK_TOL):
        raise AutomorphismCheckFailed("image basis is not orthonormal")
    # columns are the images, each read once
    rows = [list(row) for row in zip(*(o.coords for o in im))]
    if not ctx.equal(multiplication_defect(ctx.matrix(rows)), (0, 1), CHECK_TOL):
        raise AutomorphismCheckFailed("multiplicative extension is not an "
                                      "automorphism")
    return rows if ctx.exact else np.array(rows, dtype=float)


def apply_matrix(m, o: Octonion) -> Octonion:
    """Apply an 8x8 matrix (rows or ndarray) to an octonion."""
    if isinstance(m, np.ndarray):
        return Octonion(m @ o.to_float_array())
    return Octonion(mat_vec(m, o.coords))


# ---------------------------------------------------------------------------
# exact random frames
# ---------------------------------------------------------------------------

def random_g2_frame(rng: np.random.Generator) -> G2Frame:
    """Random exact rational admissible 3-frame.

    Draw a rational imaginary unit x and a rational unit u orthogonal to
    1, e1; the swap of e1 and x carries u to y, orthogonal to 1 and x, so
    (1, x, y, y*x) is a basis of a quaternion subalgebra.  Carry the
    standard frame onto (x, y) by two Householder swaps, correct the image
    of e3 onto y*x by a third reflection (which fixes 1, x, y), and finally
    rotate the resulting unit normal z0 inside the orthogonal quaternion
    line by a random rational unit of the subalgebra.  Every step preserves
    rationality and norms.
    """
    x = random_rational_imaginary_unit(rng)
    nums, den = random_sphere_lifted(rng, 5)
    u = Octonion.from_lifted([0, 0, *nums], den)
    h1 = householder_swap(E1, x)
    y = h1(u)
    h2 = householder_swap(E2, u)
    q2 = lambda v: h1(h2(v))
    w = q2(Octonion.basis(3))
    yx = y * x
    h3 = householder_swap(w, yx)
    z0 = h3(q2(E4))
    # random unit of the subalgebra: z = z0 * a sweeps the unit sphere of
    # the orthogonal complement as a sweeps the unit quaternions of A; a is
    # summed over the integer numerators of its point, and den divided last
    nums, den = random_sphere_lifted(rng, 3)
    a = Octonion.zero()
    for c, b in zip(nums, (Octonion.one(), x, y, yx)):
        a = a + c * b
    return G2Frame(x, y, z0 * a / den)


def random_g2_matrix(rng: np.random.Generator):
    return g2_from_frame(random_g2_frame(rng))
