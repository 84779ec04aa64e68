"""Point sampling: exact rational points on spheres and float Haar-ish draws.

Rational unit vectors come from inverse stereographic projection of a
rational vector t:

    x = (|t|^2 - 1, 2t) / (|t|^2 + 1)

which lands exactly on the unit sphere and, as t ranges over rationals,
is dense there.  This is what makes zero-tolerance identity testing
possible: every sampled point has Fraction coordinates.

All randomness flows through `numpy.random.Generator` seeded with a single
64-bit integer (PCG64, deterministic across platforms).  Generators are
always passed explicitly; nothing here touches global RNG state.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from .errors import BadConfig, OutOfRange
from .linalg import dot
from .octonion import Octonion


def rng_from_seed(seed: int) -> np.random.Generator:
    """The package-wide PRNG: PCG64 seeded with a 64-bit integer."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise BadConfig("seed must be an integer >= 0")
    return np.random.default_rng(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# exact rational points
# ---------------------------------------------------------------------------

def rational_sphere_point(t: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Map t in Q^n to an exact unit vector in Q^(n+1) (first coordinate is
    the pole coordinate (|t|^2-1)/(|t|^2+1))."""
    t = [Fraction(c) for c in t]
    q = dot(t, t)
    d = q + 1
    return ((q - 1) / d, *[2 * c / d for c in t])


def rational_circle_point(t: Fraction) -> Tuple[Fraction, Fraction]:
    """Exact (cos, sin) pair on the unit circle from one rational parameter."""
    c, s = rational_sphere_point([Fraction(t)])
    return c, s


def rational_unit_octonion(t: Sequence[Fraction]) -> Octonion:
    """Exact unit octonion from t in Q^7 (a point of the seven-sphere)."""
    if len(t) != 7:
        raise OutOfRange("need 7 rational parameters for a unit octonion")
    return Octonion(rational_sphere_point(t))


def rational_imaginary_unit(t: Sequence[Fraction]) -> Octonion:
    """Exact unit imaginary octonion from t in Q^6 (a point of the six-sphere,
    embedded into coordinates e1..e7 with zero real part)."""
    if len(t) != 6:
        raise OutOfRange("need 6 rational parameters for a point of the six-sphere")
    return Octonion((0, *rational_sphere_point(t)))


def random_rational_vector(rng: np.random.Generator, n: int,
                           num_max: int = 6, den_max: int = 4):
    """n-vector of random small Fractions a/b, a in [-num_max, num_max],
    b in [1, den_max].  Small parameters keep downstream Fraction growth
    manageable in long exact sweeps."""
    nums = rng.integers(-num_max, num_max + 1, size=n)
    dens = rng.integers(1, den_max + 1, size=n)
    return [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]


def random_rational_unit_octonion(rng: np.random.Generator) -> Octonion:
    return rational_unit_octonion(random_rational_vector(rng, 7))


def random_rational_imaginary_unit(rng: np.random.Generator) -> Octonion:
    return rational_imaginary_unit(random_rational_vector(rng, 6))


def random_rational_circle_point(rng: np.random.Generator):
    """Exact (cos, sin) with c^2 + s^2 = 1."""
    t = random_rational_vector(rng, 1, num_max=12, den_max=7)[0]
    return rational_circle_point(t)


def random_rational_tangent(rng: np.random.Generator, p: Octonion) -> Octonion:
    """Random nonzero rational octonion exactly orthogonal to 1 and to p
    (a tangent direction at p; not normalized).  Exactness of the two inner
    products is what matters downstream, not the norm."""
    while True:
        v = Octonion((0, *random_rational_vector(rng, 7)))
        # subtract the <1,p> component; p is a unit imaginary so <p,p> = 1
        v = v - v.inner(p) * p
        if not v.is_zero():
            return v


# ---------------------------------------------------------------------------
# float draws
# ---------------------------------------------------------------------------

def random_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_unit_octonion_float(rng: np.random.Generator) -> Octonion:
    return Octonion(random_unit_vector(rng, 8))


def random_imaginary_unit_float(rng: np.random.Generator) -> Octonion:
    return Octonion((0.0, *random_unit_vector(rng, 7)))


def haar_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed special orthogonal n x n matrix via QR of a Gaussian
    matrix, with one column flipped where needed to force det = +1."""
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_so7_float(rng: np.random.Generator) -> np.ndarray:
    """Random 8x8 special-orthogonal matrix fixing e0."""
    m = np.eye(8)
    m[1:, 1:] = haar_orthogonal(rng, 7)
    return m
