"""Quaternion frames and automorphisms from frames."""

from fractions import Fraction as F

import numpy as np
import pytest

from sixsphere.errors import (AutomorphismCheckFailed, DegenerateInput,
                              FrameInvalid)
from sixsphere.frames import (G2Frame, QuaternionFrame, apply_matrix,
                              g2_from_frame, householder_swap, normalize,
                              random_g2_frame, random_g2_matrix,
                              random_quaternion_frame)
from sixsphere.octonion import MUL_INDEX, MUL_SIGN, Octonion, exact_sqrt
from sixsphere.sampling import (random_rational_circle_point,
                                random_rational_imaginary_unit,
                                random_rational_unit_octonion)

E = [Octonion.basis(k) for k in range(8)]


def test_exact_sqrt():
    assert exact_sqrt(F(9, 25)) == F(3, 5)
    assert exact_sqrt(F(2)) is None
    assert exact_sqrt(F(0)) == 0


def test_normalize_modes():
    v = Octonion([F(3), F(4), 0, 0, 0, 0, 0, 0])
    assert normalize(v) == Octonion([F(3, 5), F(4, 5), 0, 0, 0, 0, 0, 0])
    w = Octonion([F(1), F(1), 0, 0, 0, 0, 0, 0])   # norm sqrt(2): float fallback
    nw = normalize(w)
    assert not nw.exact and abs(nw.norm() - 1.0) < 1e-12


def test_householder_swap_exact(rng):
    a = random_rational_imaginary_unit(rng)
    h = householder_swap(E[1], a)
    assert h(E[1]) == a and h(a) == E[1]
    v = random_rational_unit_octonion(rng)
    assert h(v).norm_sq() == 1
    assert h(Octonion.one()) == Octonion.one()


def test_quaternion_frame_standard():
    f = QuaternionFrame(E[1], E[2])
    assert f.basis == (E[0], E[1], E[2], E[2] * E[1])
    assert f.contains(E[3])


def test_quaternion_frame_invalid():
    with pytest.raises(FrameInvalid):
        QuaternionFrame(E[1], E[1])
    with pytest.raises(FrameInvalid):
        QuaternionFrame(E[1], Octonion([0, F(1, 2), F(1, 2), 0, 0, 0, 0, 0]))


def test_g2_identity_frame():
    m = g2_from_frame(G2Frame(E[1], E[2], E[4]))
    assert m == [[F(1) if i == j else F(0) for j in range(8)] for i in range(8)]


def test_g2_swap_frame():
    # (e2, e1, e4) is admissible since e4 is orthogonal to e1*e2
    m = g2_from_frame(G2Frame(E[2], E[1], E[4]))
    assert apply_matrix(m, E[1]) == E[2]
    assert apply_matrix(m, E[2]) == E[1]
    assert apply_matrix(m, E[4]) == E[4]
    assert apply_matrix(m, E[3]) == E[2] * E[1]   # = -e3
    assert apply_matrix(m, E[5]) == E[6]
    assert apply_matrix(m, E[6]) == E[5]
    assert apply_matrix(m, E[7]) == (E[2] * E[1]) * E[4]


@pytest.mark.parametrize("nrows", [7, 9])
def test_apply_matrix_rejects_a_wrong_row_count(nrows):
    rows = [[F(i + j, 3) for j in range(8)] for i in range(nrows)]
    with pytest.raises(DegenerateInput):
        apply_matrix(rows, E[1] + F(1, 2) * E[3])


def test_g2_frame_admissibility():
    with pytest.raises(FrameInvalid):
        G2Frame(E[1], E[2], E[3])   # e3 = e1 e2 is not orthogonal to y*x


def test_g2_from_frame_rejects_a_frame_that_skipped_validation():
    # G2Frame refuses z = e3 = e1 e2; built past that check, the frame is
    # caught by g2_from_frame's own automorphism check
    f = object.__new__(G2Frame)
    for name, v in zip("xyz", (E[1], E[2], E[3])):
        object.__setattr__(f, name, v)
    with pytest.raises(AutomorphismCheckFailed):
        g2_from_frame(f)


def test_random_g2_frames_are_automorphisms(rng):
    for _ in range(6):
        fr = random_g2_frame(rng)
        m = random_g2_matrix(rng)  # built with its own frame; also check fr's
        m2 = g2_from_frame(fr)
        for mat in (m, m2):
            imgs = [apply_matrix(mat, E[k]) for k in range(8)]
            assert imgs[0] == Octonion.one()
            for i in range(8):
                for j in range(8):
                    assert imgs[i] * imgs[j] == \
                        MUL_SIGN[i][j] * imgs[MUL_INDEX[i][j]]
                    want = F(1) if i == j else F(0)
                    assert imgs[i].inner(imgs[j]) == want


def test_g2_equivariance_with_circle(rng):
    # phi((cos t + e1 sin t) x) = (cos t + phi(e1) sin t) phi(x)
    for _ in range(5):
        m = random_g2_matrix(rng)
        c, s = random_rational_circle_point(rng)
        x = random_rational_unit_octonion(rng)
        lhs = apply_matrix(m, (c * Octonion.one() + s * E[1]) * x)
        rhs = (c * Octonion.one() + s * apply_matrix(m, E[1])) * apply_matrix(m, x)
        assert lhs == rhs


def test_g2_simple_transitivity_uniqueness(rng):
    f1 = random_g2_frame(rng)
    f2 = random_g2_frame(rng)
    m1, m2 = g2_from_frame(f1), g2_from_frame(f2)
    if (f1.x, f1.y, f1.z) != (f2.x, f2.y, f2.z):
        assert m1 != m2
    # reconstructing from the automorphism's own frame image is the identity
    img_frame = G2Frame(apply_matrix(m1, E[1]), apply_matrix(m1, E[2]),
                        apply_matrix(m1, E[4]))
    assert g2_from_frame(img_frame) == m1
