"""Point sampling: exact rational points on spheres and float Haar-ish draws.

Rational unit vectors come from inverse stereographic projection of a
rational vector t:

    x = (|t|^2 - 1, 2t) / (|t|^2 + 1)

which lands exactly on the unit sphere and, as t ranges over rationals,
is dense there.  This is what makes zero-tolerance identity testing
possible: every sampled point has rational coordinates.  The random draws
take t as integer numerators over one denominator straight from the
generator's integers and hand the point's numerators and denominator to
`Octonion.from_lifted`, with no `Fraction` per coordinate; they equal
`random_rational_vector` followed by the matching `rational_*` function,
and leave the generator in the same state.

The float draws (unit vectors, Haar rotations) take an optional `count` and
then return that many, stacked along a leading axis, from one generator
call: the same stream, in the same order and with the same bits as `count`
single draws.  A single draw is the same formula without the leading axis.
Exact draws stay one at a time: each takes its numerators and then its
denominators from one `integers` call on per-entry bounds, in the order two
sized calls would draw them, while a batch of draws would take every
numerator before any denominator and so change the stream.

All randomness flows through `numpy.random.Generator` seeded with a single
64-bit integer (PCG64, deterministic across platforms).  Generators are
always passed explicitly; nothing here touches global RNG state.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import BadConfig, OutOfRange
from .linalg import lift_exact
from .octonion import Octonion, _floats, reject


def rng_from_seed(seed: int) -> np.random.Generator:
    """The package-wide PRNG: PCG64 seeded with a 64-bit integer."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise BadConfig("seed must be an integer >= 0")
    return np.random.default_rng(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# exact rational points
# ---------------------------------------------------------------------------

def _sphere_lifted(n: Sequence[int], d: int) -> Tuple[list, int]:
    """The sphere point of t = n / d (int numerators over an int d > 0) as
    integer numerators over one denominator:
    (|n|^2 - d^2, 2 d n) / (|n|^2 + d^2)."""
    s = sum(c * c for c in n)
    return [s - d * d, *(2 * d * c for c in n)], s + d * d


def rational_sphere_point(t: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Map t in Q^n to an exact unit vector in Q^(n+1) (first coordinate is
    the pole coordinate (|t|^2-1)/(|t|^2+1))."""
    nums, den = _sphere_lifted(*lift_exact(t))
    return tuple(Fraction(c, den) for c in nums)


def rational_circle_point(t: Fraction) -> Tuple[Fraction, Fraction]:
    """Exact (cos, sin) pair on the unit circle from one rational parameter."""
    c, s = rational_sphere_point([Fraction(t)])
    return c, s


def rational_unit_octonion(t: Sequence[Fraction]) -> Octonion:
    """Exact unit octonion from t in Q^7 (a point of the seven-sphere)."""
    if len(t) != 7:
        raise OutOfRange("need 7 rational parameters for a unit octonion")
    return Octonion.from_lifted(*_sphere_lifted(*lift_exact(t)))


def rational_imaginary_unit(t: Sequence[Fraction]) -> Octonion:
    """Exact unit imaginary octonion from t in Q^6 (a point of the six-sphere,
    embedded into coordinates e1..e7 with zero real part)."""
    if len(t) != 6:
        raise OutOfRange("need 6 rational parameters for a point of the six-sphere")
    nums, den = _sphere_lifted(*lift_exact(t))
    return Octonion.from_lifted([0, *nums], den)


def random_rational_vector(rng: np.random.Generator, n: int,
                           num_max: int = 6, den_max: int = 4):
    """n-vector of random small Fractions a/b, a in [-num_max, num_max],
    b in [1, den_max].  Small parameters keep downstream Fraction growth
    manageable in long exact sweeps."""
    nums = rng.integers(-num_max, num_max + 1, size=n)
    dens = rng.integers(1, den_max + 1, size=n)
    return [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]


#: (num_max, den_max, n) -> the bounds of `_random_lifted`'s one draw, its
#: n numerators' then its n denominators' lows over their (exclusive) highs
_DRAW_BOUNDS: dict = {}


def _random_lifted(rng: np.random.Generator, n: int, num_max: int = 6,
                   den_max: int = 4) -> Tuple[list, int]:
    """`random_rational_vector(rng, n, num_max, den_max)` as int numerators
    over the lcm of the drawn denominators (not reduced): its two sized
    draws as one `integers` call on per-entry bounds, n numerators' then n
    denominators', which gives the same integers and leaves the generator
    in the same state."""
    key = (num_max, den_max, n)
    bounds = _DRAW_BOUNDS.get(key)
    if bounds is None:
        bounds = _DRAW_BOUNDS[key] = np.repeat(
            [[-num_max, 1], [num_max + 1, den_max + 1]], n, axis=1)
    drawn = rng.integers(bounds[0], bounds[1]).tolist()
    nums, dens = drawn[:n], drawn[n:]
    d = math.lcm(*dens)
    return [a * (d // b) for a, b in zip(nums, dens)], d


def random_sphere_lifted(rng: np.random.Generator, n: int) -> Tuple[list, int]:
    """A random exact point of the unit sphere in Q^(n+1), as int numerators
    over one denominator: `rational_sphere_point(random_rational_vector(rng,
    n))` without its Fractions."""
    return _sphere_lifted(*_random_lifted(rng, n))


def random_rational_unit_octonion(rng: np.random.Generator) -> Octonion:
    return Octonion.from_lifted(*random_sphere_lifted(rng, 7))


def random_rational_imaginary_unit(rng: np.random.Generator) -> Octonion:
    nums, den = random_sphere_lifted(rng, 6)
    return Octonion.from_lifted([0, *nums], den)


def random_rational_circle_point(rng: np.random.Generator):
    """Exact (cos, sin) with c^2 + s^2 = 1."""
    (c, s), den = _sphere_lifted(*_random_lifted(rng, 1, num_max=12, den_max=7))
    return Fraction(c, den), Fraction(s, den)


def random_rational_tangent(rng: np.random.Generator, p: Octonion) -> Octonion:
    """Random nonzero rational octonion exactly orthogonal to 1 and to p
    (a tangent direction at p; not normalized).  Exactness of the two inner
    products is what matters downstream, not the norm."""
    while True:
        nums, den = _random_lifted(rng, 7)
        # v is imaginary; p is a unit imaginary, so this removes its <1, p> part
        v = reject(Octonion.from_lifted([0, *nums], den), [p])
        if not v.is_zero():
            return v


# ---------------------------------------------------------------------------
# float draws
# ---------------------------------------------------------------------------

def _batch(count: Optional[int], *shape: int) -> tuple:
    """The shape of one draw, or with `count` of `count` draws stacked."""
    return shape if count is None else (count, *shape)


def random_unit_vector(rng: np.random.Generator, n: int,
                       count: Optional[int] = None) -> np.ndarray:
    """A random unit vector of R^n: a Gaussian draw over its norm.  With
    `count`, a (count, n) array of them."""
    v = rng.standard_normal(_batch(count, n))
    # the norm as np.linalg.norm takes it, one dot per row
    return v / np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]


def random_unit_octonion_float(rng: np.random.Generator) -> Octonion:
    return _floats(random_unit_vector(rng, 8).tolist())


def random_imaginary_unit_float(rng: np.random.Generator) -> Octonion:
    return _floats([0.0, *random_unit_vector(rng, 7).tolist()])


def haar_orthogonal(rng: np.random.Generator, n: int,
                    count: Optional[int] = None) -> np.ndarray:
    """Haar-distributed special orthogonal n x n matrix via QR of a Gaussian
    matrix, with one column flipped where needed to force det = +1.  With
    `count`, a (count, n, n) array of them."""
    a = rng.standard_normal(_batch(count, n, n))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    q[..., 0] *= np.where(np.linalg.det(q) < 0, -1.0, 1.0)[..., None]
    return q


def random_so7_float(rng: np.random.Generator) -> np.ndarray:
    """Random 8x8 special-orthogonal matrix fixing e0."""
    m = np.eye(8)
    m[1:, 1:] = haar_orthogonal(rng, 7)
    return m
