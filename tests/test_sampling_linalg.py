"""Rational sphere points and the exact/float linear algebra helpers."""

from fractions import Fraction as F

import numpy as np

from sixsphere import linalg
from sixsphere.sampling import (haar_orthogonal, random_rational_vector,
                                rational_circle_point, rational_sphere_point,
                                rational_unit_octonion, rng_from_seed)


def test_stereographic_fixed_points():
    assert rational_sphere_point([0] * 7) == (F(-1), 0, 0, 0, 0, 0, 0, 0)
    assert rational_sphere_point([1, 0, 0, 0, 0, 0, 0]) == \
        (F(0), F(1), 0, 0, 0, 0, 0, 0)
    # t = 1/2 on the circle: ((1/4 - 1)/(5/4), 1/(5/4)) = (-3/5, 4/5)
    assert rational_sphere_point([F(1, 2)]) == (F(-3, 5), F(4, 5))
    assert rational_circle_point(F(1, 2)) == (F(-3, 5), F(4, 5))


def test_unit_norm_exact(rng):
    for _ in range(50):
        t = random_rational_vector(rng, 7)
        x = rational_unit_octonion(t)
        assert x.norm_sq() == 1


def test_rng_determinism():
    a = rng_from_seed(42).integers(0, 1000, 5).tolist()
    b = rng_from_seed(42).integers(0, 1000, 5).tolist()
    assert a == b


def test_exact_kernel_and_rref():
    m = [[F(1), F(2), F(3)],
         [F(2), F(4), F(6)],
         [F(1), F(0), F(1)]]
    ker = linalg.kernel_basis(m)
    assert len(ker) == 1
    for row in m:
        assert sum(a * b for a, b in zip(row, ker[0])) == 0


def test_exact_solve_det_inverse():
    m = [[F(2), F(1)], [F(1), F(1)]]
    assert linalg.det(m) == 1
    assert linalg.det([[F(1), F(2)], [F(2), F(4)]]) == 0


def test_det_matches_numpy(rng):
    for _ in range(10):
        m = [[F(int(a), int(b)) for a, b in
              zip(rng.integers(-5, 6, 4), rng.integers(1, 4, 4))]
             for _ in range(4)]
        exact = linalg.det(m)
        approx = np.linalg.det(np.array(m, dtype=float))
        assert abs(float(exact) - approx) < 1e-9


def test_float_kernel(rng):
    q = haar_orthogonal(rng, 6)
    # rank-4 matrix with known 2-dim kernel
    d = np.diag([1.0, 2.0, 3.0, 4.0, 0.0, 0.0])
    m = q @ d @ q.T
    ker = linalg.kernel_basis_float(m)
    assert ker.shape[0] == 2
    assert np.max(np.abs(m @ ker.T)) < 1e-9


def test_haar_orthogonal(rng):
    q = haar_orthogonal(rng, 7)
    assert np.max(np.abs(q @ q.T - np.eye(7))) < 1e-12
    assert np.linalg.det(q) > 0
